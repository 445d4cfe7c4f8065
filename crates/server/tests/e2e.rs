//! End-to-end tests over real TCP sockets: every status code in the
//! `SERVING.md` contract, bit-identical diagnosis parity with the
//! in-process API, backpressure (shed → 429), health (degraded → 503),
//! protocol errors, keep-alive and graceful shutdown.
//!
//! The client below is deliberately minimal and independent of the
//! benchmark's load generator (`benchmark/src/client.rs`), so a bug cannot
//! hide on both sides of the wire.

use diagnet::backend::BackendKind;
use diagnet::config::DiagNetConfig;
use diagnet_platform::health::HealthState;
use diagnet_platform::service::{AnalysisService, ServiceConfig};
use diagnet_platform::supervisor::SupervisionConfig;
use diagnet_server::{AppState, Json, Server, ServerConfig};
use diagnet_sim::dataset::{Dataset, DatasetConfig, Sample};
use diagnet_sim::world::World;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Seconds-not-minutes model hyper-parameters for the test server.
fn smoke_config() -> DiagNetConfig {
    let mut c = DiagNetConfig::fast();
    c.epochs = 2;
    c.forest.n_trees = 5;
    c
}

fn service_config(world: &World) -> ServiceConfig {
    ServiceConfig {
        backend: BackendKind::DiagNet,
        model: smoke_config(),
        general_services: world.catalog.all_ids(),
        min_service_samples: usize::MAX,
        seed: 11,
        ..ServiceConfig::default()
    }
}

/// A trained service plus the samples it was trained on.
fn trained_state() -> (AppState, Vec<Sample>) {
    let world = World::new();
    let dataset = Dataset::generate(&world, &DatasetConfig::standard(&world, 2, 7))
        .expect("dataset generates");
    let service = Arc::new(AnalysisService::new(
        service_config(&world),
        world.schema.clone(),
    ));
    for sample in dataset.samples.iter().cloned() {
        service.submit(sample);
    }
    service.retrain_now().expect("bootstrap training succeeds");
    let state = AppState {
        service,
        schema: world.schema,
        n_services: world.catalog.len(),
    };
    (state, dataset.samples)
}

/// One shared trained server for the read-mostly tests. Kept alive (and
/// its threads with it) for the whole test process.
fn shared() -> &'static (Server, AppState, Vec<Sample>) {
    static SHARED: OnceLock<(Server, AppState, Vec<Sample>)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let (state, samples) = trained_state();
        let server = start_server(state.clone(), ServerConfig::default());
        (server, state, samples)
    })
}

fn start_server(state: AppState, mut config: ServerConfig) -> Server {
    config.addr = "127.0.0.1:0".to_string();
    Server::start(config, state).expect("server binds an ephemeral port")
}

/// Send one request on a fresh connection (`Connection: close`) and
/// return `(status, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    write_request(&mut stream, method, path, body, true);
    read_response(&mut stream)
}

fn write_request(stream: &mut TcpStream, method: &str, path: &str, body: &str, close: bool) {
    let connection = if close { "close" } else { "keep-alive" };
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: {connection}\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("request writes");
}

/// Parse a response off the stream using its `Content-Length`.
fn read_response(stream: &mut TcpStream) -> (u16, String) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find_blank_line(&buf) {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("response read");
        assert!(n > 0, "connection closed before response head completed");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"));
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .expect("response carries Content-Length");
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).expect("body read");
        assert!(n > 0, "connection closed mid-body");
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    (status, String::from_utf8(body).expect("utf-8 body"))
}

fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn features_json(features: &[f32]) -> Json {
    Json::Arr(features.iter().map(|&v| Json::from_f32(v)).collect())
}

fn diagnose_body(sample: &Sample) -> String {
    Json::obj(vec![
        ("features", features_json(&sample.features)),
        ("service", Json::Num(sample.service.0 as f64)),
    ])
    .render()
}

/// Scores travelling the wire as JSON must come back bit-for-bit equal to
/// what the in-process API returns for the same probe.
#[test]
fn diagnose_over_tcp_is_bit_identical_to_in_process() {
    let (server, state, samples) = shared();
    for sample in samples.iter().step_by(37).take(5) {
        let (status, body) = request(
            server.local_addr(),
            "POST",
            "/v1/diagnose",
            &diagnose_body(sample),
        );
        assert_eq!(status, 200, "{body}");
        let doc = Json::parse(&body).expect("response parses");
        let expected = state
            .service
            .diagnose(&sample.features, sample.service, &state.schema)
            .expect("in-process diagnose succeeds");

        let wire_scores: Vec<u32> = doc
            .get("scores")
            .and_then(Json::as_arr)
            .expect("scores array")
            .iter()
            .map(|v| (v.as_f64().expect("score is a number") as f32).to_bits())
            .collect();
        let local_scores: Vec<u32> = expected
            .ranking
            .scores
            .iter()
            .map(|s| s.to_bits())
            .collect();
        assert_eq!(wire_scores, local_scores, "per-cause scores drifted");

        let wire_unknown = doc
            .get("w_unknown")
            .and_then(Json::as_f64)
            .expect("w_unknown");
        assert_eq!(
            (wire_unknown as f32).to_bits(),
            expected.ranking.w_unknown.to_bits()
        );
        assert_eq!(
            doc.get("top_cause")
                .and_then(Json::as_str)
                .expect("top_cause"),
            expected.top_cause.name()
        );
        assert_eq!(
            doc.get("model_version")
                .and_then(Json::as_usize)
                .expect("version") as u64,
            expected.model_version
        );
    }
}

/// A batch response must agree row-for-row with the single-probe route.
#[test]
fn batch_diagnose_matches_single_probe_responses() {
    let (server, _state, samples) = shared();
    let rows: Vec<&Sample> = samples.iter().take(3).collect();
    let service_id = rows[0].service.0;
    let batch = Json::obj(vec![
        ("service", Json::Num(service_id as f64)),
        (
            "probes",
            Json::Arr(rows.iter().map(|s| features_json(&s.features)).collect()),
        ),
    ])
    .render();
    let (status, body) = request(server.local_addr(), "POST", "/v1/diagnose", &batch);
    assert_eq!(status, 200, "{body}");
    let results = Json::parse(&body)
        .expect("batch response parses")
        .get("results")
        .and_then(Json::as_arr)
        .expect("results array")
        .to_vec();
    assert_eq!(results.len(), rows.len());

    for (row, batched) in rows.iter().zip(&results) {
        let single_body = Json::obj(vec![
            ("features", features_json(&row.features)),
            ("service", Json::Num(service_id as f64)),
        ])
        .render();
        let (status, single) = request(server.local_addr(), "POST", "/v1/diagnose", &single_body);
        assert_eq!(status, 200);
        assert_eq!(
            batched.render(),
            Json::parse(&single).expect("single parses").render(),
            "batch row must be byte-identical to the single-probe response"
        );
    }
}

#[test]
fn submit_accepts_valid_and_rejects_corrupt_probes() {
    let (server, state, samples) = shared();
    let sample = &samples[0];
    let body = Json::obj(vec![
        ("features", features_json(&sample.features)),
        ("service", Json::Num(sample.service.0 as f64)),
        ("plt_s", Json::from_f32(sample.plt_s)),
    ])
    .render();
    let (status, resp) = request(server.local_addr(), "POST", "/v1/submit", &body);
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains("accepted"), "{resp}");

    // Absurd magnitude: admission rejects, client is told why.
    let mut corrupt = sample.features.clone();
    corrupt[0] = 1.0e12;
    let body = Json::obj(vec![
        ("features", features_json(&corrupt)),
        ("service", Json::Num(sample.service.0 as f64)),
    ])
    .render();
    let (status, resp) = request(server.local_addr(), "POST", "/v1/submit", &body);
    assert_eq!(status, 400, "{resp}");
    assert!(resp.contains("rejected"), "{resp}");
    assert!(resp.contains("magnitude"), "{resp}");

    // Same corrupt probe on the diagnose gate.
    let (status, resp) = request(server.local_addr(), "POST", "/v1/diagnose", &body);
    assert_eq!(status, 400, "{resp}");
    assert!(resp.contains("invalid_probe"), "{resp}");
    let _ = state;
}

#[test]
fn malformed_bodies_and_bad_fields_are_400() {
    let (server, ..) = shared();
    let addr = server.local_addr();
    for bad in [
        "{oops",
        "null",
        r#"{"features": "nope", "service": 0}"#,
        r#"{"features": [0.1], "service": 99999}"#,
        r#"{"features": [0.1], "service": -1}"#,
    ] {
        let (status, resp) = request(addr, "POST", "/v1/submit", bad);
        assert_eq!(status, 400, "body {bad:?} gave {resp}");
    }
}

#[test]
fn healthz_reports_serving_no_model_and_degraded() {
    // Shared trained server: serving.
    let (server, ..) = shared();
    let (status, body) = request(server.local_addr(), "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).expect("healthz parses");
    assert_eq!(doc.get("state").and_then(Json::as_str), Some("serving"));
    assert_eq!(doc.get("ready").and_then(Json::as_bool), Some(true));

    // Fresh, never-trained service: 503 no_model (load balancers drop it).
    let world = World::new();
    let cold = AppState {
        service: Arc::new(AnalysisService::new(
            service_config(&world),
            world.schema.clone(),
        )),
        schema: world.schema.clone(),
        n_services: world.catalog.len(),
    };
    let cold_server = start_server(cold, ServerConfig::default());
    let (status, body) = request(cold_server.local_addr(), "GET", "/healthz", "");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("no_model"), "{body}");

    // Degraded: a service whose supervision budget guarantees retrain
    // failure, seeded with the shared server's trained model. The
    // last-good generation keeps serving, health says degraded.
    let mut degraded_config = service_config(&world);
    degraded_config.supervision = SupervisionConfig {
        max_attempts: 1,
        budget: Some(Duration::ZERO),
        ..SupervisionConfig::default()
    };
    let degraded = AppState {
        service: Arc::new(AnalysisService::new(degraded_config, world.schema.clone())),
        schema: world.schema,
        n_services: world.catalog.len(),
    };
    let trained = shared()
        .1
        .service
        .registry()
        .general()
        .expect("shared server has a general model");
    degraded
        .service
        .publish_external(trained)
        .expect("publish succeeds");
    assert!(
        degraded.service.retrain_now().is_err(),
        "zero budget must fail"
    );
    assert!(matches!(
        degraded.service.health(),
        HealthState::Degraded { .. }
    ));

    let degraded_server = start_server(degraded, ServerConfig::default());
    let (status, body) = request(degraded_server.local_addr(), "GET", "/healthz", "");
    assert_eq!(status, 503, "{body}");
    let doc = Json::parse(&body).expect("healthz parses");
    assert_eq!(doc.get("state").and_then(Json::as_str), Some("degraded"));
    // Degraded still diagnoses: the request path stays up.
    assert_eq!(doc.get("ready").and_then(Json::as_bool), Some(true));
}

/// Valid probes hitting a full submission queue are shed with 429, and
/// the shed shows up on the metrics page.
#[test]
fn full_submission_queue_sheds_with_429() {
    let world = World::new();
    let mut config = service_config(&world);
    config.admission.max_pending = 1;
    let state = AppState {
        service: Arc::new(AnalysisService::new(config, world.schema.clone())),
        schema: world.schema.clone(),
        n_services: world.catalog.len(),
    };
    // Paused intake: submissions stay queued, so the second one overflows.
    state.service.set_intake_paused(true);
    let server = start_server(state, ServerConfig::default());
    let body = Json::obj(vec![
        (
            "features",
            Json::Arr(vec![Json::Num(0.25); world.schema.n_features()]),
        ),
        ("service", Json::Num(0.0)),
    ])
    .render();

    let (status, resp) = request(server.local_addr(), "POST", "/v1/submit", &body);
    assert_eq!(status, 200, "first submit queues: {resp}");
    let (status, resp) = request(server.local_addr(), "POST", "/v1/submit", &body);
    assert_eq!(status, 429, "second submit sheds: {resp}");
    assert!(resp.contains("shed"), "{resp}");

    let (status, metrics) = request(server.local_addr(), "GET", "/metrics", "");
    assert_eq!(status, 200);
    let shed_line = metrics
        .lines()
        .find(|l| l.contains("diagnet_http_requests_total") && l.contains("429"))
        .unwrap_or_else(|| panic!("no 429 series on the metrics page:\n{metrics}"));
    assert!(shed_line.contains(r#"route="/v1/submit""#), "{shed_line}");
}

#[test]
fn unknown_routes_and_methods_are_404_and_405() {
    let (server, ..) = shared();
    let addr = server.local_addr();
    let (status, body) = request(addr, "GET", "/nope", "");
    assert_eq!(status, 404, "{body}");
    let (status, body) = request(addr, "DELETE", "/healthz", "");
    assert_eq!(status, 405, "{body}");
    let (status, body) = request(addr, "GET", "/v1/diagnose", "");
    assert_eq!(status, 405, "{body}");
}

#[test]
fn oversized_and_lengthless_bodies_are_413_and_411() {
    let (state, _) = trained_state();
    let server = start_server(
        state,
        ServerConfig {
            max_body_bytes: 64,
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();
    let big = "x".repeat(1024);
    let (status, body) = request(addr, "POST", "/v1/submit", &big);
    assert_eq!(status, 413, "{body}");

    // POST with no Content-Length at all.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /v1/submit HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("writes");
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 411, "{body}");
}

/// The metrics page is valid Prometheus text: HELP/TYPE comments plus
/// `name{labels} value` samples, including the http request series.
#[test]
fn metrics_page_parses_as_prometheus_text() {
    let (server, ..) = shared();
    // Generate at least one request so the series exist.
    let _ = request(server.local_addr(), "GET", "/healthz", "");
    let (status, text) = request(server.local_addr(), "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(text.contains("diagnet_http_requests_total"), "{text}");
    assert!(
        text.contains("diagnet_http_request_duration_seconds"),
        "{text}"
    );
    assert!(text.contains("diagnet_http_connections_total"), "{text}");
    for line in text.lines().filter(|l| !l.is_empty()) {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP") || line.starts_with("# TYPE"),
                "unexpected comment: {line}"
            );
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line has no value: {line}"));
        assert!(
            value.parse::<f64>().is_ok(),
            "value is not a number: {line}"
        );
        let name = series.split('{').next().unwrap_or(series);
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name: {line}"
        );
    }
}

/// Two requests over one connection: HTTP/1.1 keep-alive works.
#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let (server, ..) = shared();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    write_request(&mut stream, "GET", "/healthz", "", false);
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 200);
    write_request(&mut stream, "GET", "/healthz", "", true);
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 200, "second request on the same socket");
}

/// Shutdown drains: in-flight work finishes, then the port goes dark.
#[test]
fn graceful_shutdown_stops_accepting() {
    let (state, _) = trained_state();
    let mut server = start_server(state, ServerConfig::default());
    let addr = server.local_addr();
    let (status, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    server.shutdown();
    // The listener is closed; a new connection must fail (or be reset
    // before a response arrives).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut stream) => {
            let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
            let mut buf = Vec::new();
            let n = stream.read_to_end(&mut buf).unwrap_or(0);
            assert_eq!(n, 0, "a drained server must not answer: {buf:?}");
        }
    }
}
