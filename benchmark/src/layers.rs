//! The product's entry points, layer by layer. Apart from set-up
//! (`setup.rs`), every name of the product that the benchmark uses is in this
//! file: the in-process reference the wire answers are checked against, and
//! the calls the traced replay times. When an entry point is renamed, this is
//! the file to change; the metric names stay.

use crate::spec::MODEL_SEED;
use crate::trace::Tracer;
use diagnet::backend::{Backend, BackendConfig, BackendKind};
use diagnet::config::DiagNetConfig;
use diagnet::model::DiagNet;
use diagnet_nn::linalg::matmul;
use diagnet_nn::tensor::Matrix;
use diagnet_obs::histogram::{Histogram, DEFAULT_LATENCY_BOUNDS};
use diagnet_platform::admission::{AdmissionConfig, ProbeGate};
use diagnet_server::http::{read_request, Request};
/// Also what the benchmark reads its own result lines and `BENCHMARK.json` with.
pub use diagnet_server::Json;
use diagnet_server::{router, AppState, ServerConfig};
use diagnet_sim::dataset::{Dataset, DatasetConfig, Sample};
use diagnet_sim::metrics::FeatureSchema;
use diagnet_sim::service::ServiceId;
use diagnet_sim::world::World;
use std::io::Cursor;
use std::time::{Duration, Instant};

/// The scores `AnalysisService::diagnose` gives a probe in this process.
pub fn diagnose_in_process(state: &AppState, probe: &Sample) -> Result<Vec<f32>, String> {
    state
        .service
        .diagnose(&probe.features, probe.service, &state.schema)
        .map(|d| d.ranking.scores)
        .map_err(|e| format!("in-process diagnose: {e}"))
}

/// The `scores` of a `/v1/diagnose` reply as the f32 values the server
/// rendered: one list for a single diagnosis, one per probe for a batch.
pub fn reply_scores(body: &[u8]) -> Result<Vec<Vec<f32>>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "reply is not UTF-8".to_string())?;
    let doc = Json::parse(text).map_err(|e| format!("reply is not JSON: {e}"))?;
    let scores_of = |result: &Json| -> Result<Vec<f32>, String> {
        result
            .get("scores")
            .and_then(Json::as_arr)
            .ok_or("reply without `scores`")?
            .iter()
            .map(|v| {
                v.as_f64()
                    .map(|x| x as f32)
                    .ok_or_else(|| "a score is not a number".to_string())
            })
            .collect()
    };
    match doc.get("results").and_then(Json::as_arr) {
        Some(results) => results.iter().map(scores_of).collect(),
        None => Ok(vec![scores_of(&doc)?]),
    }
}

/// The page `GET /metrics` answers, read in this process.
pub fn metrics_text() -> String {
    diagnet_obs::global().snapshot().render_prometheus()
}

/// A loop of timed calls stops at its target count or, once it has this
/// many, when its share of the run's time is used up.
const MIN_CALLS: usize = 20;

/// Up to `spans` spans of `per_span` calls of `f` each, within `budget`.
/// Calls too short to time alone are timed a thousand to a span.
fn repeat(
    tracer: &mut Tracer,
    name: &'static str,
    spans: usize,
    per_span: usize,
    budget: Duration,
    mut f: impl FnMut(usize),
) {
    let begin = Instant::now();
    for span in 0..spans {
        if span >= MIN_CALLS && begin.elapsed() > budget {
            break;
        }
        let request = tracer.new_request();
        tracer.block(name, None, request, per_span as u64, || {
            for i in 0..per_span {
                f(span * per_span + i);
            }
        });
    }
}

fn features_of(value: &Json) -> Option<Vec<f32>> {
    value
        .as_arr()?
        .iter()
        .map(|v| v.as_f64().map(|x| x as f32))
        .collect()
}

/// The span names of one request shape.
struct DiagnoseNames {
    read: &'static str,
    dispatch: &'static str,
    write: &'static str,
    parse: &'static str,
    service: &'static str,
    backend: &'static str,
    render: &'static str,
}

const SINGLE: DiagnoseNames = DiagnoseNames {
    read: "server.http.read_request",
    dispatch: "server.router.dispatch_diagnose",
    write: "server.http.write_response",
    parse: "server.json.parse",
    service: "platform.service.diagnose",
    backend: "core.backend.rank_causes",
    render: "server.json.render",
};

const BATCH64: DiagnoseNames = DiagnoseNames {
    read: "server.http.read_request_batch64",
    dispatch: "server.router.dispatch_diagnose_batch64",
    write: "server.http.write_response_batch64",
    parse: "server.json.parse_batch64",
    service: "platform.service.diagnose_batch64",
    backend: "core.backend.rank_causes_batch64",
    render: "server.json.render_batch64",
};

fn read(wire: &[u8]) -> Result<Request, String> {
    read_request(
        &mut Cursor::new(wire),
        ServerConfig::default().max_body_bytes,
    )
    .map_err(|e| format!("replaying a request: {e:?}"))
}

/// Replays one `/v1/diagnose` request from its wire bytes: first what a
/// worker does for it (read, dispatch, write), then again each call that
/// dispatch makes inside, as children of the dispatch span.
pub fn replay_diagnose(
    tracer: &mut Tracer,
    state: &AppState,
    wire: &[u8],
    batch: bool,
) -> Result<(), String> {
    let request = tracer.new_request();
    let names = if batch { &BATCH64 } else { &SINGLE };

    let (_, req) = tracer.span(names.read, None, request, || read(wire));
    let req = req?;
    let body = std::str::from_utf8(&req.body).map_err(|_| "request body is not UTF-8")?;
    let (dispatch, resp) = tracer.span(names.dispatch, None, request, || {
        router::dispatch(state, &req)
    });
    if resp.status != 200 {
        return Err(format!("a replayed diagnose answered {}", resp.status));
    }
    tracer
        .span(names.write, None, request, || {
            resp.write_to(&mut Vec::with_capacity(resp.body.len() + 128))
        })
        .1
        .map_err(|e| format!("writing a reply into memory: {e}"))?;

    let (_, doc) = tracer.span(names.parse, Some(dispatch), request, || Json::parse(body));
    let doc = doc.map_err(|e| format!("request body is not JSON: {e}"))?;
    let service = ServiceId(
        doc.get("service")
            .and_then(Json::as_usize)
            .ok_or("request without `service`")?,
    );
    let model = state
        .service
        .registry()
        .model_for(service)
        .ok_or("no model is published")?;
    match doc.get("probes").and_then(Json::as_arr) {
        None => {
            let features = doc
                .get("features")
                .and_then(features_of)
                .ok_or("request without `features`")?;
            let (at, _) = tracer.span(names.service, Some(dispatch), request, || {
                state.service.diagnose(&features, service, &state.schema)
            });
            tracer.span(names.backend, Some(at), request, || {
                model.rank_causes(&features, &state.schema)
            });
        }
        Some(probes) => {
            let rows: Vec<Vec<f32>> = probes
                .iter()
                .map(features_of)
                .collect::<Option<_>>()
                .ok_or("a probe is not numbers")?;
            let (at, _) = tracer.span(names.service, Some(dispatch), request, || {
                state.service.diagnose_batch(&rows, service, &state.schema)
            });
            tracer.span(names.backend, Some(at), request, || {
                model.rank_causes_batch(&rows, &state.schema)
            });
        }
    }
    let reply = std::str::from_utf8(&resp.body)
        .ok()
        .and_then(|text| Json::parse(text).ok())
        .ok_or("reply is not JSON")?;
    tracer.span(names.render, Some(dispatch), request, || reply.render());
    Ok(())
}

/// Replays one `/v1/submit` request, and the probe it carries through
/// `AnalysisService::submit`.
pub fn replay_submit(
    tracer: &mut Tracer,
    state: &AppState,
    wire: &[u8],
    probe: &Sample,
) -> Result<(), String> {
    let request = tracer.new_request();
    let req = read(wire)?;
    let (dispatch, resp) = tracer.span("server.router.dispatch_submit", None, request, || {
        router::dispatch(state, &req)
    });
    if resp.status != 200 {
        return Err(format!("a replayed submit answered {}", resp.status));
    }
    let probe = probe.clone();
    tracer.span("platform.service.submit", Some(dispatch), request, || {
        state.service.submit(probe)
    });
    Ok(())
}

/// The calls too short to time one by one.
pub fn time_short_calls(
    tracer: &mut Tracer,
    state: &AppState,
    probes: &[Sample],
    budget: Duration,
) {
    let gate = ProbeGate::new(state.schema.clone(), AdmissionConfig::default());
    repeat(tracer, "platform.gate.check", 1000, 1000, budget, |i| {
        std::hint::black_box(gate.check(&probes[i % probes.len()].features).is_ok());
    });
    let registry = state.service.registry();
    repeat(
        tracer,
        "platform.registry.model_for",
        1000,
        1000,
        budget,
        |i| {
            std::hint::black_box(registry.model_for(probes[i % probes.len()].service));
        },
    );
    let histogram = Histogram::detached(&DEFAULT_LATENCY_BOUNDS);
    repeat(tracer, "obs.histogram.observe", 1000, 1000, budget, |i| {
        histogram.observe(std::hint::black_box(i as f64 * 1e-6));
    });
    std::hint::black_box(histogram.count());
}

/// `GET /metrics` through the router, as a worker would handle it.
pub fn time_scrape(tracer: &mut Tracer, state: &AppState, budget: Duration) -> Result<(), String> {
    let req = read(&crate::client::render_request("GET", "/metrics", ""))?;
    repeat(tracer, "obs.metrics.scrape", 200, 1, budget, |_| {
        std::hint::black_box(router::dispatch(state, &req).body.len());
    });
    Ok(())
}

/// Trains each backend kind directly on a small fixed set of probes and
/// times its ranking calls on the run's traffic. Returns the DiagNet model,
/// whose network the `nn` calls are timed on.
pub fn time_backends(
    tracer: &mut Tracer,
    world: &World,
    config: &DiagNetConfig,
    rows: &[Vec<f32>],
    budget: Duration,
) -> Result<Box<dyn Backend>, String> {
    let data = Dataset::generate(world, &DatasetConfig::standard(world, 10, MODEL_SEED))
        .map_err(|e| format!("generating the small training set: {e}"))?;
    let config = BackendConfig::from_diagnet(config.clone());
    let mut train = |name: &'static str, kind: BackendKind| -> Result<Box<dyn Backend>, String> {
        let request = tracer.new_request();
        tracer
            .span(name, None, request, || {
                kind.train(&config, &data, &FeatureSchema::known(), MODEL_SEED)
            })
            .1
            .map_err(|e| format!("training the {kind} backend: {e}"))
    };
    let diagnet = train("core.backend.train", BackendKind::DiagNet)?;
    let forest = train("forest.backend.train", BackendKind::Forest)?;
    let bayes = train("bayes.backend.train", BackendKind::NaiveBayes)?;

    let schema = &world.schema;
    let batch = &rows[..64];
    for (backend, single, batched) in [
        (
            &forest,
            "forest.backend.rank_causes",
            "forest.backend.rank_causes_batch64",
        ),
        (
            &bayes,
            "bayes.backend.rank_causes",
            "bayes.backend.rank_causes_batch64",
        ),
    ] {
        repeat(tracer, single, 2000, 1, budget, |i| {
            std::hint::black_box(backend.rank_causes(&rows[i % rows.len()], schema));
        });
        repeat(tracer, batched, 200, 1, budget, |_| {
            std::hint::black_box(backend.rank_causes_batch(batch, schema));
        });
    }
    Ok(diagnet)
}

/// The network's own calls, on normalised rows of the run's traffic, and the
/// two matrix products of the paper model's first dense layer.
pub fn time_nn(
    tracer: &mut Tracer,
    backend: &dyn Backend,
    schema: &FeatureSchema,
    rows: &[Vec<f32>],
    budget: Duration,
) -> Result<(), String> {
    let model = backend
        .as_any()
        .downcast_ref::<DiagNet>()
        .ok_or("the DiagNet backend is not a DiagNet")?;
    let one = model.normalizer.apply_matrix(schema, &rows[..1]);
    let many = model.normalizer.apply_matrix(schema, &rows[..64]);
    repeat(tracer, "nn.network.forward_b1", 2000, 1, budget, |_| {
        std::hint::black_box(model.network.forward(&one));
    });
    repeat(tracer, "nn.network.forward_b64", 200, 1, budget, |_| {
        std::hint::black_box(model.network.forward(&many));
    });
    repeat(
        tracer,
        "nn.network.input_gradient_b64",
        200,
        1,
        budget,
        |_| {
            std::hint::black_box(model.network.input_gradient(&many, |logits| logits.clone()));
        },
    );
    let weights = Matrix::full(317, 512, 0.01);
    for (name, batch, target) in [
        ("nn.linalg.matmul_1x317x512", 1, 2000),
        ("nn.linalg.matmul_64x317x512", 64, 200),
    ] {
        let input = Matrix::full(batch, 317, 0.5);
        repeat(tracer, name, target, 1, budget, |_| {
            std::hint::black_box(matmul(&input, &weights));
        });
    }
    Ok(())
}

/// `Dataset::generate` over 200 scenarios, as one span over its probes.
pub fn time_sim(tracer: &mut Tracer, world: &World) -> Result<(), String> {
    let config = DatasetConfig::standard(world, 200, MODEL_SEED);
    let request = tracer.new_request();
    tracer
        .block(
            "sim.dataset.generate",
            None,
            request,
            config.n_samples() as u64,
            || Dataset::generate(world, &config).map(|data| std::hint::black_box(data.len())),
        )
        .1
        .map_err(|e| format!("generating 200 scenarios: {e}"))?;
    Ok(())
}

/// The metric values of a result line this benchmark printed, in its order.
pub fn result_metrics(line: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = Json::parse(line).map_err(|e| format!("the result line is not JSON: {e}"))?;
    match doc.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(name, entry)| {
                let value = entry.get("value").and_then(Json::as_f64);
                value
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("`{name}` has no value"))
            })
            .collect(),
        _ => Err("the result line has no `metrics`".to_string()),
    }
}
