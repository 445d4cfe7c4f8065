//! Wire-format handlers: JSON bodies in, JSON bodies out.
//!
//! Each handler is a pure function from `(state, body)` to a
//! [`Response`]; the router owns dispatch and metrics, the server owns
//! sockets. Status-code contract (documented in `SERVING.md`, checked by
//! the end-to-end suite):
//!
//! | outcome                         | status |
//! |---------------------------------|--------|
//! | accepted / diagnosed            | 200    |
//! | malformed JSON or bad field     | 400    |
//! | probe rejected by admission     | 400    |
//! | queue full (submission shed)    | 429    |
//! | no model / degraded health      | 503    |
//! | non-finite scores withheld      | 500    |

use crate::http::Response;
use crate::json::{write_f32, write_string, Json};
use diagnet::integrity::render_checksum;
use diagnet_platform::admission::RejectReason;
use diagnet_platform::health::HealthState;
use diagnet_platform::rollout::RolloutPhase;
use diagnet_platform::service::{AnalysisService, DiagnoseError, Diagnosis, SubmitOutcome};
use diagnet_platform::store::GenerationRecord;
use diagnet_sim::dataset::Sample;
use diagnet_sim::metrics::{FeatureId, FeatureSchema};
use diagnet_sim::region::{Region, ALL_REGIONS};
use diagnet_sim::service::ServiceId;
use diagnet_sim::world::Label;
use std::fmt::Write as _;
use std::sync::Arc;

/// Default number of ranked causes echoed in a diagnose response.
const DEFAULT_TOP_K: usize = 3;

/// Cap on probes per batch-diagnose request.
const MAX_BATCH: usize = 256;

/// Shared state handed to every handler.
#[derive(Clone)]
pub struct AppState {
    /// The analysis service every request routes through.
    pub service: Arc<AnalysisService>,
    /// Serving schema (feature order for scores and cause names).
    pub schema: FeatureSchema,
    /// Number of valid service ids (`0..n_services`).
    pub n_services: usize,
}

/// A typed JSON error body.
fn error_response(status: u16, error: &str, detail: Option<String>) -> Response {
    let mut pairs = vec![("error", Json::str(error))];
    if let Some(d) = detail {
        pairs.push(("detail", Json::str(d)));
    }
    Response::json(status, Json::obj(pairs).render())
}

/// 400 with a field-level explanation.
pub fn bad_request(detail: impl Into<String>) -> Response {
    error_response(400, "bad_request", Some(detail.into()))
}

fn parse_body(body: &[u8]) -> Result<Json, Response> {
    let text = std::str::from_utf8(body).map_err(|_| bad_request("body is not valid UTF-8"))?;
    Json::parse(text).map_err(|e| bad_request(e.to_string()))
}

fn parse_features(doc: &Json) -> Result<Vec<f32>, Response> {
    let arr = doc
        .get("features")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad_request("`features` must be an array of numbers"))?;
    let mut out = Vec::with_capacity(arr.len());
    for v in arr {
        match v.as_f64() {
            Some(x) => out.push(x as f32),
            None => return Err(bad_request("`features` must contain only numbers")),
        }
    }
    Ok(out)
}

fn parse_service(doc: &Json, n_services: usize) -> Result<ServiceId, Response> {
    let id = doc
        .get("service")
        .and_then(Json::as_usize)
        .ok_or_else(|| bad_request("`service` must be a non-negative integer"))?;
    if id >= n_services {
        return Err(bad_request(format!(
            "`service` {id} out of range (this deployment serves 0..{n_services})"
        )));
    }
    Ok(ServiceId(id))
}

fn parse_region(doc: &Json, key: &str) -> Result<Option<Region>, Response> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let code = v
                .as_str()
                .ok_or_else(|| bad_request(format!("`{key}` must be a region code string")))?;
            ALL_REGIONS
                .iter()
                .copied()
                .find(|r| r.code() == code)
                .map(Some)
                .ok_or_else(|| bad_request(format!("unknown region code `{code}`")))
        }
    }
}

/// `POST /v1/submit` — feed one labelled (or unlabelled) observation into
/// the training buffer through the admission gate.
pub fn handle_submit(state: &AppState, body: &[u8]) -> Response {
    let doc = match parse_body(body) {
        Ok(doc) => doc,
        Err(resp) => return resp,
    };
    let sample = match sample_from_json(&doc, state) {
        Ok(sample) => sample,
        Err(resp) => return resp,
    };
    match state.service.submit(sample) {
        SubmitOutcome::Accepted => Response::json(
            200,
            Json::obj(vec![("status", Json::str("accepted"))]).render(),
        ),
        SubmitOutcome::Rejected(reason) => reject_response(reason),
        SubmitOutcome::Shed => error_response(
            429,
            "shed",
            Some("submission queue full; retry with backoff".to_string()),
        ),
    }
}

fn reject_response(reason: RejectReason) -> Response {
    // QueueFull arrives as `Shed` from submit; from the diagnose gate it
    // is still a client-side 400.
    let status = Json::obj(vec![
        ("error", Json::str("rejected")),
        ("reason", Json::str(reason.token())),
    ]);
    Response::json(400, status.render())
}

fn sample_from_json(doc: &Json, state: &AppState) -> Result<Sample, Response> {
    let features = parse_features(doc)?;
    let service = parse_service(doc, state.n_services)?;
    let client_region = parse_region(doc, "region")?.unwrap_or(Region::Beau);
    let plt_s = match doc.get("plt_s") {
        None | Some(Json::Null) => 0.0,
        Some(v) => v
            .as_f64()
            .ok_or_else(|| bad_request("`plt_s` must be a number"))? as f32,
    };
    let label = match doc.get("label") {
        None | Some(Json::Null) => Label::Nominal,
        Some(l) => {
            let idx = l
                .get("cause_index")
                .and_then(Json::as_usize)
                .ok_or_else(|| bad_request("`label.cause_index` must be a feature index"))?;
            if idx >= state.schema.n_features() {
                return Err(bad_request(format!(
                    "`label.cause_index` {idx} out of range for {}-feature schema",
                    state.schema.n_features()
                )));
            }
            let cause = state.schema.feature(idx);
            let region = match parse_region(l, "region")? {
                Some(r) => r,
                None => match cause {
                    FeatureId::Landmark(r, _) => r,
                    FeatureId::Local(_) => client_region,
                },
            };
            Label::Faulty {
                cause,
                family: cause.family(),
                region,
            }
        }
    };
    Ok(Sample {
        features,
        label,
        service,
        client_region,
        plt_s,
        faults: Vec::new(),
    })
}

/// `POST /v1/diagnose` — rank root causes for one probe, or for a batch
/// when the body carries `probes` instead of `features`.
pub fn handle_diagnose(state: &AppState, body: &[u8]) -> Response {
    let doc = match parse_body(body) {
        Ok(doc) => doc,
        Err(resp) => return resp,
    };
    if doc.get("probes").is_some() {
        return handle_diagnose_batch(state, &doc);
    }
    let features = match parse_features(&doc) {
        Ok(f) => f,
        Err(resp) => return resp,
    };
    let service = match parse_service(&doc, state.n_services) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    let top_k = doc
        .get("top")
        .and_then(Json::as_usize)
        .unwrap_or(DEFAULT_TOP_K);
    match state.service.diagnose(&features, service, &state.schema) {
        Ok(d) => {
            let mut body = String::new();
            write_diagnosis(&mut body, &d, top_k, &schema_names(&state.schema));
            Response::json(200, body)
        }
        Err(e) => diagnose_error_response(&e),
    }
}

fn handle_diagnose_batch(state: &AppState, doc: &Json) -> Response {
    let service = match parse_service(doc, state.n_services) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    let rows = match doc.get("probes").and_then(Json::as_arr) {
        Some(rows) => rows,
        None => return bad_request("`probes` must be an array of feature arrays"),
    };
    if rows.len() > MAX_BATCH {
        return bad_request(format!(
            "batch of {} probes exceeds the {MAX_BATCH}-probe cap",
            rows.len()
        ));
    }
    let top_k = doc
        .get("top")
        .and_then(Json::as_usize)
        .unwrap_or(DEFAULT_TOP_K);
    let mut probes = Vec::with_capacity(rows.len());
    for row in rows {
        let arr = match row.as_arr() {
            Some(arr) => arr,
            None => return bad_request("`probes` must contain only arrays"),
        };
        let mut features = Vec::with_capacity(arr.len());
        for v in arr {
            match v.as_f64() {
                Some(x) => features.push(x as f32),
                None => return bad_request("probe rows must contain only numbers"),
            }
        }
        probes.push(features);
    }
    match state
        .service
        .diagnose_batch(&probes, service, &state.schema)
    {
        Err(e) => diagnose_error_response(&e),
        Ok(results) => {
            let mut body = String::new();
            write_batch(&mut body, &results, top_k, &schema_names(&state.schema));
            Response::json(200, body)
        }
    }
}

/// Cause names of the serving schema, `None` past its width.
fn schema_names(schema: &FeatureSchema) -> impl Fn(usize) -> Option<String> + '_ {
    move |idx| (idx < schema.n_features()).then(|| schema.feature(idx).name())
}

/// Append a batch reply: `{"results":[…]}`, one diagnosis or typed error
/// object per probe, in request order.
fn write_batch(
    out: &mut String,
    results: &[Result<Diagnosis, DiagnoseError>],
    top_k: usize,
    name_of: &impl Fn(usize) -> Option<String>,
) {
    out.push_str("{\"results\":[");
    for (i, result) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match result {
            Ok(d) => write_diagnosis(out, d, top_k, name_of),
            Err(e) => out.push_str(&diagnose_error_json(e).render()),
        }
    }
    out.push_str("]}");
}

/// Append `[v,v,…]`.
fn write_f32_array(out: &mut String, values: &[f32]) {
    out.push('[');
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_f32(out, v);
    }
    out.push(']');
}

/// Append one diagnosis object. The reply schema is fixed, so the keys are
/// literals and every number goes from its own type straight to text — no
/// `Json` tree, no `f32 → String → f64 → String` per score. Byte-for-byte
/// what the tree used to render (`tests::reference_diagnosis_json`).
fn write_diagnosis(
    out: &mut String,
    d: &Diagnosis,
    top_k: usize,
    name_of: &impl Fn(usize) -> Option<String>,
) {
    // Integers print as the tree's `f64` did, whatever their magnitude.
    let _ = write!(out, "{{\"model_version\":{}", d.model_version as f64);
    out.push_str(",\"top_cause\":");
    write_string(out, &d.top_cause.name());
    out.push_str(",\"w_unknown\":");
    write_f32(out, d.ranking.w_unknown);
    out.push_str(",\"top\":[");
    let top = d
        .ranking
        .top(top_k)
        .into_iter()
        .filter_map(|idx| Some((idx, *d.ranking.scores.get(idx)?, name_of(idx)?)));
    for (i, (idx, score, name)) in top.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"feature\":");
        write_string(out, &name);
        let _ = write!(out, ",\"index\":{},\"score\":", idx as f64);
        write_f32(out, score);
        out.push('}');
    }
    out.push_str("],\"scores\":");
    write_f32_array(out, &d.ranking.scores);
    out.push_str(",\"coarse\":");
    write_f32_array(out, &d.ranking.coarse);
    out.push('}');
}

fn diagnose_error_json(e: &DiagnoseError) -> Json {
    match e {
        DiagnoseError::NoModel => Json::obj(vec![("error", Json::str("no_model"))]),
        DiagnoseError::InvalidProbe(reason) => Json::obj(vec![
            ("error", Json::str("invalid_probe")),
            ("reason", Json::str(reason.token())),
        ]),
        DiagnoseError::NonFiniteScores { model_version } => Json::obj(vec![
            ("error", Json::str("non_finite_scores")),
            ("model_version", Json::Num(*model_version as f64)),
        ]),
    }
}

fn diagnose_error_response(e: &DiagnoseError) -> Response {
    let status = match e {
        DiagnoseError::NoModel => 503,
        DiagnoseError::InvalidProbe(_) => 400,
        DiagnoseError::NonFiniteScores { .. } => 500,
    };
    Response::json(status, diagnose_error_json(e).render())
}

/// `GET /healthz` — `Serving` is 200; `NoModel` and `Degraded` are 503 so
/// load balancers stop routing to a replica that cannot answer.
pub fn handle_healthz(state: &AppState) -> Response {
    let health = state.service.health();
    let (status, token, reason) = match &health {
        HealthState::Serving => (200, "serving", None),
        HealthState::NoModel => (503, "no_model", None),
        HealthState::Degraded { reason } => (503, "degraded", Some(reason.clone())),
    };
    let mut pairs = vec![
        ("state", Json::str(token)),
        ("ready", Json::Bool(state.service.is_ready())),
        (
            "model_version",
            Json::Num(state.service.model_version() as f64),
        ),
        ("rollout", rollout_json(&state.service.rollout_phase())),
    ];
    if let Some(r) = reason {
        pairs.push(("reason", Json::str(r)));
    }
    Response::json(status, Json::obj(pairs).render())
}

fn rollout_json(phase: &RolloutPhase) -> Json {
    match phase {
        RolloutPhase::Idle => Json::obj(vec![("phase", Json::str("idle"))]),
        RolloutPhase::Canary {
            version,
            observed,
            window,
        } => Json::obj(vec![
            ("phase", Json::str("canary")),
            ("canary_version", Json::Num(*version as f64)),
            ("observed", Json::Num(*observed as f64)),
            ("window", Json::Num(*window as f64)),
        ]),
    }
}

fn generation_json(record: &GenerationRecord) -> Json {
    Json::obj(vec![
        ("generation", Json::Num(record.generation as f64)),
        (
            "parent",
            record
                .parent
                .map_or(Json::Null, |parent| Json::Num(parent as f64)),
        ),
        ("backend", Json::str(&record.backend)),
        ("checksum", Json::str(render_checksum(record.checksum))),
        ("bytes", Json::Num(record.bytes as f64)),
        ("status", Json::str(record.status.token())),
        ("file", Json::str(&record.file)),
    ])
}

/// `GET /v1/generations` — admin view of the generation lifecycle: the
/// live model version, rollout phase, and the durable store's manifest
/// (lineage, checksums, canary/active/rolled-back status per generation).
/// Served even when the store is absent (`generations` is then empty).
pub fn handle_generations(state: &AppState) -> Response {
    let records = state.service.generation_records();
    let body = Json::obj(vec![
        (
            "active_version",
            Json::Num(state.service.model_version() as f64),
        ),
        ("rollout", rollout_json(&state.service.rollout_phase())),
        (
            "recovered_generation",
            state
                .service
                .recovered_generation()
                .map_or(Json::Null, |r| Json::Num(r.generation as f64)),
        ),
        (
            "generations",
            Json::Arr(records.iter().map(generation_json).collect()),
        ),
    ]);
    Response::json(200, body.render())
}

/// `GET /metrics` — Prometheus exposition text.
pub fn handle_metrics(state: &AppState) -> Response {
    let text = state.service.metrics_snapshot().render_prometheus();
    Response::text(200, "text/plain; version=0.0.4", text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diagnet::ranking::CauseRanking;
    use diagnet_nn::rng::SplitMix64;

    /// The tree the diagnose replies were rendered from before the writer
    /// existed, kept as the reference the writer's bytes are checked
    /// against.
    fn reference_diagnosis_json(
        d: &Diagnosis,
        top_k: usize,
        name_of: &impl Fn(usize) -> Option<String>,
    ) -> Json {
        let top = d
            .ranking
            .top(top_k)
            .into_iter()
            .filter_map(|idx| {
                let score = d.ranking.scores.get(idx).copied()?;
                name_of(idx).map(|name| {
                    Json::obj(vec![
                        ("feature", Json::str(name)),
                        ("index", Json::Num(idx as f64)),
                        ("score", Json::from_f32(score)),
                    ])
                })
            })
            .collect();
        let floats =
            |values: &[f32]| Json::Arr(values.iter().map(|&v| Json::from_f32(v)).collect());
        Json::obj(vec![
            ("model_version", Json::Num(d.model_version as f64)),
            ("top_cause", Json::str(d.top_cause.name())),
            ("w_unknown", Json::from_f32(d.ranking.w_unknown)),
            ("top", Json::Arr(top)),
            ("scores", floats(&d.ranking.scores)),
            ("coarse", floats(&d.ranking.coarse)),
        ])
    }

    /// A score as diagnoses carry them, or — one time in eight — any bit
    /// pattern at all except NaN (`CauseRanking::top` needs a total order).
    fn arbitrary_score(rng: &mut SplitMix64) -> f32 {
        match rng.next_below(8) {
            0 => {
                let v = f32::from_bits(rng.next_u64() as u32);
                if v.is_nan() {
                    f32::NEG_INFINITY
                } else {
                    v
                }
            }
            1 => 0.0,
            _ => rng.next_f32() * rng.next_f32(),
        }
    }

    fn arbitrary_diagnosis(rng: &mut SplitMix64, schema: &FeatureSchema) -> Diagnosis {
        let n_scores = match rng.next_below(4) {
            0 => rng.next_below(4),
            1 => schema.n_features() + rng.next_below(6),
            _ => schema.n_features(),
        };
        let n_coarse = if rng.bernoulli(0.2) { 0 } else { 7 };
        Diagnosis {
            ranking: CauseRanking {
                scores: (0..n_scores).map(|_| arbitrary_score(rng)).collect(),
                coarse: (0..n_coarse).map(|_| arbitrary_score(rng)).collect(),
                w_unknown: if rng.bernoulli(0.1) {
                    f32::NAN
                } else {
                    arbitrary_score(rng)
                },
            },
            top_cause: schema.feature(rng.next_below(schema.n_features())),
            model_version: match rng.next_below(3) {
                0 => rng.next_u64(),
                _ => rng.next_below(1000) as u64,
            },
        }
    }

    /// Names that need every escape `write_string` knows.
    fn hostile_names(idx: usize) -> Option<String> {
        (idx < 50).then(|| format!("we\"ird\\{idx}\n\t\u{1}\u{263A}/name"))
    }

    #[test]
    fn written_replies_equal_the_rendered_tree_byte_for_byte() {
        let schema = FeatureSchema::full();
        let n = schema.n_features();
        let mut rng = SplitMix64::new(0xD1A6);
        let mut saw = [false; 4]; // null score, empty top, filtered top, escapes
        for case in 0..1500 {
            let d = arbitrary_diagnosis(&mut rng, &schema);
            let top_k = [0, 1, DEFAULT_TOP_K, n, n + 7][rng.next_below(5)];
            let hostile = rng.bernoulli(0.25);
            let mut written = String::new();
            let reference = if hostile {
                write_diagnosis(&mut written, &d, top_k, &hostile_names);
                reference_diagnosis_json(&d, top_k, &hostile_names)
            } else {
                write_diagnosis(&mut written, &d, top_k, &schema_names(&schema));
                reference_diagnosis_json(&d, top_k, &schema_names(&schema))
            };
            assert_eq!(written, reference.render(), "case {case}: {d:?}");
            assert_eq!(
                Json::parse(&written).as_ref(),
                Ok(&reference),
                "case {case}"
            );
            saw[0] |= d.ranking.scores.iter().any(|s| !s.is_finite());
            saw[1] |= written.contains("\"top\":[]");
            saw[2] |= top_k > n && d.ranking.scores.len() > n;
            saw[3] |= hostile && written.contains("\\u0001");
        }
        assert_eq!(saw, [true; 4], "the generator must reach every edge");
    }

    #[test]
    fn written_batches_equal_the_rendered_tree_byte_for_byte() {
        let schema = FeatureSchema::full();
        let names = schema_names(&schema);
        let mut rng = SplitMix64::new(0xBA7C);
        for case in 0..200 {
            let results: Vec<Result<Diagnosis, DiagnoseError>> = (0..rng.next_below(9))
                .map(|_| match rng.next_below(6) {
                    0 => Err(DiagnoseError::InvalidProbe(RejectReason::WidthMismatch)),
                    1 => Err(DiagnoseError::InvalidProbe(RejectReason::NonFinite)),
                    2 => Err(DiagnoseError::NonFiniteScores {
                        model_version: rng.next_below(50) as u64,
                    }),
                    _ => Ok(arbitrary_diagnosis(&mut rng, &schema)),
                })
                .collect();
            let items = results
                .iter()
                .map(|r| match r {
                    Ok(d) => reference_diagnosis_json(d, DEFAULT_TOP_K, &names),
                    Err(e) => diagnose_error_json(e),
                })
                .collect();
            let reference = Json::obj(vec![("results", Json::Arr(items))]).render();
            let mut written = String::new();
            write_batch(&mut written, &results, DEFAULT_TOP_K, &names);
            assert_eq!(written, reference, "case {case}");
        }
    }
}
