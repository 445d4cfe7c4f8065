//! The `diagnet serve` subcommand: the network serving edge (operator
//! guide: `SERVING.md`).
//!
//! `serve` stands up an [`AnalysisService`] behind `diagnet-server`'s
//! HTTP edge. The model comes from `--model FILE` (a trained artefact,
//! published through the same validation gate trained generations pass)
//! or — the default — from a seeded in-process bootstrap: generate
//! `--scenarios` worth of simulator data, submit it through admission,
//! and train one generation before binding workers to traffic.

use crate::args::Args;
use crate::error::CliError;
use diagnet::backend::BackendKind;
use diagnet::config::DiagNetConfig;
use diagnet::integrity::render_checksum;
use diagnet_platform::service::{AnalysisService, ServiceConfig};
use diagnet_platform::{JsonCodec, ModelStore, RolloutConfig};
use diagnet_server::{AppState, Server, ServerConfig};
use diagnet_sim::dataset::{Dataset, DatasetConfig};
use diagnet_sim::world::World;
use std::sync::Arc;
use std::time::Duration;

/// Serving-model hyper-parameters for `serve --config ...`. On top of the
/// repo-wide `paper`/`fast`, `smoke` is a seconds-not-minutes bootstrap
/// (2 epochs, 5 trees) for CI smoke jobs and tests.
fn serve_model_config(args: &Args) -> Result<DiagNetConfig, CliError> {
    match args.get("config").unwrap_or("fast") {
        "paper" => Ok(DiagNetConfig::paper()),
        "fast" => Ok(DiagNetConfig::fast()),
        "smoke" => {
            let mut c = DiagNetConfig::fast();
            c.epochs = 2;
            c.forest.n_trees = 5;
            Ok(c)
        }
        other => Err(CliError::usage(format!(
            "unknown config `{other}` (expected `paper`, `fast` or `smoke`)"
        ))),
    }
}

fn server_config(args: &Args) -> Result<ServerConfig, CliError> {
    let defaults = ServerConfig::default();
    let workers: usize = args.get_or("workers", defaults.workers)?;
    let backlog: usize = args.get_or("backlog", defaults.backlog)?;
    let timeout_ms: u64 = args.get_or("timeout-ms", 5000)?;
    if workers == 0 {
        return Err(CliError::usage("`--workers` must be at least 1"));
    }
    if backlog == 0 {
        return Err(CliError::usage("`--backlog` must be at least 1"));
    }
    if timeout_ms == 0 {
        return Err(CliError::usage("`--timeout-ms` must be positive"));
    }
    Ok(ServerConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:8080").to_string(),
        workers,
        backlog,
        read_timeout: Duration::from_millis(timeout_ms),
        write_timeout: Duration::from_millis(timeout_ms),
        ..defaults
    })
}

/// The `--canary-frac` / `--canary-window` knobs, when canarying is on
/// (`--canary-frac` > 0; the default 0 keeps the classic direct-publish
/// path).
fn rollout_config(args: &Args) -> Result<Option<RolloutConfig>, CliError> {
    let canary_frac: f32 = args.get_or("canary-frac", 0.0)?;
    if !(canary_frac.is_finite() && (0.0..=1.0).contains(&canary_frac)) {
        return Err(CliError::usage("`--canary-frac` must be within 0..=1"));
    }
    let canary_window: u64 = args.get_or("canary-window", 50)?;
    if canary_window == 0 {
        return Err(CliError::usage("`--canary-window` must be at least 1"));
    }
    Ok((canary_frac > 0.0).then(|| RolloutConfig {
        canary_frac,
        window: canary_window,
        ..RolloutConfig::default()
    }))
}

/// Build and warm the analysis service behind the edge: recover the last
/// active generation from `--state-dir`, publish `--model`, or bootstrap
/// from `--scenarios` of simulated traffic.
fn build_state(args: &Args) -> Result<(AppState, String), CliError> {
    let world = World::new();
    let n_services = world.catalog.len();
    let seed: u64 = args.get_or("seed", 42)?;
    let kind = crate::commands::backend_flag(args)?.unwrap_or(BackendKind::DiagNet);
    let service_config = ServiceConfig {
        backend: kind,
        model: serve_model_config(args)?,
        seed,
        rollout: rollout_config(args)?,
        // The edge serves the general model: per-service specialisation
        // would multiply bootstrap time by the catalog size, and operators
        // can publish specialised artefacts via `--model` instead.
        min_service_samples: usize::MAX,
        general_services: world.catalog.all_ids(),
        ..ServiceConfig::default()
    };
    let service = match args.get("state-dir") {
        Some(dir) => {
            let store = ModelStore::open(dir, Arc::new(JsonCodec)).map_err(|e| CliError::Data {
                action: "open",
                path: dir.to_string(),
                detail: e.to_string(),
            })?;
            Arc::new(AnalysisService::with_store(
                service_config,
                world.schema.clone(),
                Arc::new(store),
            ))
        }
        None => Arc::new(AnalysisService::new(service_config, world.schema.clone())),
    };

    let provenance = if let Some(path) = args.get("model") {
        let backend = crate::io::load_backend_file(path)?;
        let version = service
            .publish_external(Arc::from(backend))
            .map_err(CliError::Model)?;
        format!("model loaded from {path} (registry v{version})")
    } else if let Some(record) = service.recovered_generation().cloned() {
        // A SIGKILL'd replica restarts serving the exact artefact it last
        // published — no retraining, bit-identical diagnoses.
        format!(
            "recovered generation {} ({} backend, {}) from {} (registry v{})",
            record.generation,
            record.backend,
            render_checksum(record.checksum),
            args.get("state-dir").unwrap_or("the state dir"),
            service.model_version()
        )
    } else {
        let scenarios: usize = args.get_or("scenarios", 20)?;
        let dataset = Dataset::generate(&world, &DatasetConfig::standard(&world, scenarios, seed))?;
        let n = dataset.samples.len();
        for sample in dataset.samples {
            service.submit(sample);
        }
        let report = service.retrain_now().map_err(|e| CliError::Data {
            action: "bootstrap",
            path: "in-memory training set".to_string(),
            detail: e.to_string(),
        })?;
        format!(
            "bootstrapped from {n} simulated samples ({} scenarios, seed {seed}): \
             trained in {:.1}s (registry v{})",
            scenarios, report.duration_secs, report.version
        )
    };
    let state = AppState {
        service,
        schema: world.schema,
        n_services,
    };
    Ok((state, provenance))
}

/// `diagnet serve`: train-or-load, bind, serve until killed (or for
/// `--run-for-s` seconds, then drain gracefully).
pub fn serve(args: &Args) -> Result<String, CliError> {
    let config = server_config(args)?;
    let run_for_s: Option<f64> = match args.get("run-for-s") {
        None => None,
        Some(_) => Some(args.get_or("run-for-s", 0.0)?),
    };
    if let Some(s) = run_for_s {
        if !(s.is_finite() && s > 0.0) {
            return Err(CliError::usage("`--run-for-s` must be a positive number"));
        }
    }

    let (state, provenance) = build_state(args)?;
    let health = state.service.health();
    let mut server = Server::start(config.clone(), state).map_err(|e| CliError::Io {
        action: "bind",
        path: config.addr.clone(),
        source: e,
    })?;
    let addr = server.local_addr();

    // The banner goes straight to stdout: the command blocks from here on
    // and scripts wait for this line.
    println!(
        "diagnet-server listening on {addr} ({} workers, backlog {})",
        config.workers, config.backlog
    );
    println!("  {provenance}");
    println!("  health: {health}");
    if let Some(dir) = args.get("state-dir") {
        println!("  state dir: {dir} (crash-safe generation store)");
    }
    if let Ok(Some(rollout)) = rollout_config(args) {
        println!(
            "  canary: {:.0}% of diagnose traffic, {}-request window",
            f64::from(rollout.canary_frac) * 100.0,
            rollout.window
        );
    }
    println!(
        "  routes: POST /v1/submit, POST /v1/diagnose, GET /healthz, GET /metrics, \
         GET /v1/generations"
    );

    match run_for_s {
        None => {
            // Serve until the process is killed.
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        Some(seconds) => {
            std::thread::sleep(Duration::from_secs_f64(seconds));
            server.shutdown();
            let snapshot = diagnet_obs::global().snapshot();
            let served: u64 = snapshot
                .metrics
                .iter()
                .filter(|m| m.name == diagnet_server::router::HTTP_REQUESTS_TOTAL)
                .map(|m| match &m.value {
                    diagnet_obs::MetricValue::Counter(n) => *n,
                    _ => 0,
                })
                .sum();
            Ok(format!(
                "served for {seconds}s on {addr}: {served} requests, drained cleanly\n"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use diagnet_server::Json;
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};

    fn run_line(parts: &[&str]) -> Result<String, CliError> {
        let raw: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
        crate::commands::run(&parse(&raw).unwrap())
    }

    #[test]
    fn serve_flag_validation() {
        for bad in [
            vec!["serve", "--workers", "0"],
            vec!["serve", "--backlog", "0"],
            vec!["serve", "--timeout-ms", "0"],
            vec!["serve", "--run-for-s", "-1"],
            vec!["serve", "--config", "warp"],
            vec!["serve", "--backend", "svm"],
            vec!["serve", "--canary-frac", "1.5"],
            vec!["serve", "--canary-frac", "-0.1"],
            vec!["serve", "--canary-frac", "NaN"],
            vec!["serve", "--canary-window", "0"],
        ] {
            let err = run_line(&bad).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?} should be a usage error");
        }
    }

    /// One `Connection: close` exchange over a raw socket: `(status, body)`.
    fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        let (head, body) = reply.split_once("\r\n\r\n").unwrap();
        let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
        (status, body.to_string())
    }

    /// `build_state` → `server_config` → `Server::start` answer over a real
    /// TCP socket: the CLI's own end-to-end smoke (the deeper protocol
    /// assertions live in `crates/server/tests/e2e.rs`).
    #[test]
    fn serve_bootstrap_answers_over_tcp() {
        let line = "serve --scenarios 4 --config smoke --seed 7";
        let args = parse(&line.split(' ').map(String::from).collect::<Vec<_>>()).unwrap();
        let (state, provenance) = build_state(&args).unwrap();
        assert!(provenance.contains("bootstrapped from"), "{provenance}");
        let mut config = server_config(&args).unwrap();
        config.addr = "127.0.0.1:0".to_string();
        let mut server = Server::start(config, state).unwrap();
        let addr = server.local_addr();

        let (status, body) = http(addr, "GET", "/healthz", "");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"state\":\"serving\""), "{body}");

        // The first sample the bootstrap trained on (same world, scenarios, seed).
        let world = World::new();
        let dataset = Dataset::generate(&world, &DatasetConfig::standard(&world, 4, 7)).unwrap();
        let sample = &dataset.samples[0];
        let features = sample.features.iter().map(|&v| Json::from_f32(v)).collect();
        let probe = Json::obj(vec![
            ("features", Json::Arr(features)),
            ("service", Json::Num(sample.service.0 as f64)),
        ])
        .render();
        let (status, body) = http(addr, "POST", "/v1/diagnose", &probe);
        assert_eq!(status, 200, "{body}");
        let scores = Json::parse(&body).unwrap();
        let scores = scores.get("scores").and_then(Json::as_arr).unwrap();
        assert!(!scores.is_empty(), "{body}");

        let (status, body) = http(addr, "POST", "/v1/diagnose", &probe[..probe.len() / 2]);
        assert_eq!(status, 400, "{body}");
        server.shutdown();
    }
}
