//! Command implementations. Each returns its output as a `String` so the
//! logic is unit-testable without capturing stdout.
//!
//! Model-facing commands are backend-generic: `train` fits whichever
//! [`BackendKind`] `--backend` names (default `diagnet`), `diagnose` /
//! `evaluate` / `info` work on any loaded [`Backend`] and use `--backend`
//! only to assert the artefact's kind. `specialize` is the one
//! DiagNet-only command, because only the paper's model supports
//! per-service transfer learning.

use crate::args::{Args, Command, USAGE};
use crate::error::CliError;
use crate::io;
use diagnet::backend::{Backend, BackendConfig, BackendKind};
use diagnet::config::DiagNetConfig;
use diagnet::instrument::InstrumentedBackend;
use diagnet::integrity::{artefact_checksum, render_checksum, verify_checksum};
use diagnet::model::DiagNet;
use diagnet::streaming::StreamOptions;
use diagnet_platform::store;
use diagnet_sim::dataset::{Dataset, DatasetConfig};
use diagnet_sim::metrics::FeatureSchema;
use diagnet_sim::service::ServiceCatalog;
use diagnet_sim::stream::{DatasetStream, SampleSource, DEFAULT_CHUNK_SIZE};
use diagnet_sim::world::World;
use std::fmt::Write as _;

/// Execute a parsed command line.
pub fn run(args: &Args) -> Result<String, CliError> {
    match args.command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Simulate => simulate(args),
        Command::Campaign => campaign(args),
        Command::Train => train(args),
        Command::Specialize => specialize(args),
        Command::Diagnose => diagnose(args),
        Command::Evaluate => evaluate(args),
        Command::Export => export(args),
        Command::Info => info(args),
        Command::Metrics => metrics(args),
        Command::Serve => crate::serve::serve(args),
    }
}

fn model_config(args: &Args) -> Result<DiagNetConfig, CliError> {
    match args.get("config").unwrap_or("paper") {
        "paper" => Ok(DiagNetConfig::paper()),
        "fast" => Ok(DiagNetConfig::fast()),
        other => Err(CliError::usage(format!(
            "unknown config `{other}` (expected `paper` or `fast`)"
        ))),
    }
}

/// The `--backend` flag, when given. Unknown tokens are usage errors.
pub(crate) fn backend_flag(args: &Args) -> Result<Option<BackendKind>, CliError> {
    match args.get("backend") {
        None => Ok(None),
        Some(raw) => BackendKind::parse(raw).map(Some).ok_or_else(|| {
            CliError::usage(format!(
                "unknown backend `{raw}` (expected `diagnet`, `forest`, or `bayes`)"
            ))
        }),
    }
}

/// Load the `--model` artefact and, when `--backend` was given, assert the
/// loaded kind matches it. The result is wrapped in an
/// [`InstrumentedBackend`], so every serving command feeds the process
/// metrics registry (`--metrics-out` / `diagnet metrics`).
fn load_checked_backend(args: &Args) -> Result<Box<dyn Backend>, CliError> {
    let path = args.require("model")?;
    let backend = io::load_backend_file(path)?;
    if let Some(expected) = backend_flag(args)? {
        let actual = backend.describe().kind;
        if actual != expected {
            return Err(CliError::usage(format!(
                "model at `{path}` is a `{actual}` backend, not `{expected}`"
            )));
        }
    }
    Ok(Box::new(InstrumentedBackend::new(backend)))
}

/// Honour `--metrics-out FILE`: dump the global metrics registry as
/// Prometheus text and append a note to the command's output.
fn maybe_dump_metrics(args: &Args, out: &mut String) -> Result<(), CliError> {
    let Some(path) = args.get("metrics-out") else {
        return Ok(());
    };
    let dump = diagnet_obs::global().snapshot().render_prometheus();
    std::fs::write(path, dump).map_err(|e| CliError::Io {
        action: "create",
        path: path.into(),
        source: e,
    })?;
    let _ = writeln!(out, "metrics written to {path}");
    Ok(())
}

fn simulate(args: &Args) -> Result<String, CliError> {
    let out = args.require("out")?;
    let scenarios: usize = args.get_or("scenarios", 100)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let world = World::new();
    let dataset = Dataset::generate(&world, &DatasetConfig::standard(&world, scenarios, seed))?;
    io::save_json(&dataset, out)?;
    Ok(format!(
        "wrote {} samples ({} nominal, {} faulty) to {out}\n",
        dataset.len(),
        dataset.n_nominal(),
        dataset.n_faulty()
    ))
}

fn campaign(args: &Args) -> Result<String, CliError> {
    let out = args.require("out")?;
    let days: usize = args.get_or("days", 14)?;
    let interval_h: f64 = args.get_or("interval-h", 1.0)?;
    let seed: u64 = args.get_or("seed", 42)?;
    if days == 0 {
        return Err(CliError::usage("`--days` must be at least 1"));
    }
    if interval_h <= 0.0 {
        return Err(CliError::usage("`--interval-h` must be positive"));
    }
    let world = World::new();
    let campaign =
        diagnet_sim::timeline::Campaign::generate(&diagnet_sim::timeline::CampaignConfig {
            days,
            seed,
            ..Default::default()
        });
    let stream = campaign.run(
        &world,
        &diagnet_sim::region::ALL_REGIONS,
        &world.catalog.all_ids(),
        interval_h,
        seed,
    );
    let samples: Vec<_> = stream.into_iter().map(|(_, s)| s).collect();
    let dataset = Dataset {
        schema: world.schema.clone(),
        samples,
    };
    io::save_json(&dataset, out)?;
    Ok(format!(
        "wrote a {days}-day campaign: {} samples ({} faulty) to {out}
",
        dataset.len(),
        dataset.n_faulty()
    ))
}

fn train(args: &Args) -> Result<String, CliError> {
    if args.flag("streaming") {
        return train_streaming(args);
    }
    if args.get("chunk-size").is_some() || args.get("window").is_some() {
        return Err(CliError::usage(
            "`--chunk-size` / `--window` only apply to `train --streaming`",
        ));
    }
    let data_path = args.require("data")?;
    let out = args.require("out")?;
    let seed: u64 = args.get_or("seed", 42)?;
    let kind = backend_flag(args)?.unwrap_or(BackendKind::DiagNet);
    let config = BackendConfig::from_diagnet(model_config(args)?);
    let dataset = io::load_dataset(data_path)?;
    let split = dataset.split(0.8, seed);
    let backend = kind.train(&config, &split.train, &FeatureSchema::known(), seed)?;
    io::save_backend_file(backend.as_ref(), out)?;
    let info = backend.describe();
    let mut msg = format!(
        "trained on {} samples: `{}` backend, {} parameters",
        split.train.len(),
        info.kind,
        info.n_params
    );
    if let Some(model) = backend.as_any().downcast_ref::<DiagNet>() {
        let _ = write!(
            msg,
            ", {} epochs (final val loss {:.4})",
            model.history.epochs_run,
            model.history.val_loss.last().copied().unwrap_or(f32::NAN)
        );
    }
    let _ = write!(msg, "\nmodel written to {out}\n");
    Ok(msg)
}

/// `train --streaming`: generate samples chunk-by-chunk from the simulator
/// and feed them straight into training — the full dataset is never
/// materialised in memory. Without `--window` the pass is buffered (results
/// are bit-identical to `simulate` + `train`); with `--window W` training
/// shuffles inside a W-row buffer and peak memory is bounded by the window
/// and chunk size instead of the dataset size.
fn train_streaming(args: &Args) -> Result<String, CliError> {
    if args.get("data").is_some() {
        return Err(CliError::usage(
            "`--data` cannot be combined with `--streaming`; streaming mode \
             generates samples from the simulator (`--scenarios`)",
        ));
    }
    let out = args.require("out")?;
    let scenarios: usize = args.get_or("scenarios", 100)?;
    let chunk_size: usize = args.get_or("chunk-size", DEFAULT_CHUNK_SIZE)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let kind = backend_flag(args)?.unwrap_or(BackendKind::DiagNet);
    let config = BackendConfig::from_diagnet(model_config(args)?);
    let options = match args.get("window") {
        None => StreamOptions::default(),
        Some(_) => {
            let window: usize = args.get_or("window", 0)?;
            if window == 0 {
                return Err(CliError::usage("`--window` must be at least 1"));
            }
            StreamOptions::bounded(window)
        }
    };
    let world = World::new();
    let gen_config = DatasetConfig::standard(&world, scenarios, seed);
    let mut stream = DatasetStream::new(&world, &gen_config, chunk_size)?;
    let n_samples = stream.n_samples();
    let backend = kind.train_streaming(
        &config,
        &mut stream,
        &FeatureSchema::known(),
        &options,
        seed,
    )?;
    io::save_backend_file(backend.as_ref(), out)?;
    let info = backend.describe();
    let mut msg = format!(
        "streamed {n_samples} samples in chunks of {chunk_size}: `{}` backend, {} parameters",
        info.kind, info.n_params
    );
    if let Some(model) = backend.as_any().downcast_ref::<DiagNet>() {
        let _ = write!(
            msg,
            ", {} epochs (final val loss {:.4})",
            model.history.epochs_run,
            model.history.val_loss.last().copied().unwrap_or(f32::NAN)
        );
    }
    let _ = write!(msg, "\nmodel written to {out}\n");
    Ok(msg)
}

fn specialize(args: &Args) -> Result<String, CliError> {
    let model_path = args.require("model")?;
    let data_path = args.require("data")?;
    let service_name = args.require("service")?;
    let out = args.require("out")?;
    let seed: u64 = args.get_or("seed", 42)?;
    let backend = load_checked_backend(args)?;
    let Some(model) = backend.as_any().downcast_ref::<DiagNet>() else {
        return Err(CliError::usage(format!(
            "model at `{model_path}` is a `{}` backend; only `diagnet` supports specialisation",
            backend.describe().kind
        )));
    };
    let dataset = io::load_dataset(data_path)?;
    let catalog = ServiceCatalog::standard();
    let service = catalog
        .by_name(service_name)
        .ok_or_else(|| CliError::usage(format!("unknown service `{service_name}`")))?;
    let service_data = dataset.filter_service(service.id);
    if service_data.is_empty() {
        return Err(CliError::usage(format!(
            "dataset has no samples for `{service_name}`"
        )));
    }
    let special = model.specialize(&service_data, seed)?;
    io::save_backend_file(&special, out)?;
    Ok(format!(
        "specialised for `{service_name}` on {} samples: {} of {} parameters retrained in {} epochs\nmodel written to {out}\n",
        service_data.len(),
        special.num_trainable_params(),
        special.num_params(),
        special.history.epochs_run
    ))
}

fn diagnose(args: &Args) -> Result<String, CliError> {
    let model = load_checked_backend(args)?;
    let dataset = io::load_dataset(args.require("data")?)?;
    let sample_idx: usize = args.get_or("sample", 0)?;
    let top: usize = args.get_or("top", 5)?;
    let sample = dataset.samples.get(sample_idx).ok_or_else(|| {
        CliError::usage(format!(
            "sample {sample_idx} out of range (dataset has {})",
            dataset.len()
        ))
    })?;
    let schema = dataset.schema.clone();
    let ranking = model.rank_causes(&sample.features, &schema);
    let catalog = ServiceCatalog::standard();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sample {sample_idx}: client {} on `{}` (PLT {:.2}s)",
        sample.client_region,
        catalog.get(sample.service).name,
        sample.plt_s
    );
    let _ = writeln!(
        out,
        "P(cause at unknown landmark) = {:.2}",
        ranking.w_unknown
    );
    for (rank, idx) in ranking.top(top).into_iter().enumerate() {
        let _ = writeln!(
            out,
            "  {}. {:<18} {:.3}",
            rank + 1,
            schema.feature(idx).name(),
            // `top()` only yields in-bounds indices; NaN would mean a
            // scores/schema width bug and prints as a visible `NaN`.
            ranking.scores.get(idx).copied().unwrap_or(f32::NAN)
        );
    }
    if let Some(cause) = sample.label.cause() {
        let _ = writeln!(out, "ground truth: {}", cause.name());
    } else {
        let _ = writeln!(out, "ground truth: nominal (no injected cause)");
    }
    let explanation = diagnet::explain::Explanation::from_ranking(&ranking, &schema, 2);
    let _ = writeln!(
        out,
        "
{}",
        explanation.render().trim_end()
    );
    maybe_dump_metrics(args, &mut out)?;
    Ok(out)
}

fn evaluate(args: &Args) -> Result<String, CliError> {
    let model = load_checked_backend(args)?;
    let dataset = io::load_dataset(args.require("data")?)?;
    let max_k: usize = args.get_or("k", 5)?;
    if max_k == 0 {
        return Err(CliError::usage("`--k` must be at least 1"));
    }
    let schema = dataset.schema.clone();
    let mut rows: Vec<Vec<f32>> = Vec::new();
    let mut truths: Vec<usize> = Vec::new();
    for s in &dataset.samples {
        let Some(cause) = s.label.cause() else {
            continue;
        };
        let Some(truth) = schema.index_of(cause) else {
            return Err(CliError::Data {
                action: "evaluate dataset",
                path: args.require("data")?.to_string(),
                detail: format!(
                    "faulty sample labels cause `{}`, which the dataset schema does not contain",
                    cause.name()
                ),
            });
        };
        rows.push(s.features.clone());
        truths.push(truth);
    }
    if rows.is_empty() {
        return Err(CliError::usage("dataset has no faulty samples to evaluate"));
    }
    let scored: Vec<(Vec<f32>, usize)> = model
        .rank_causes_batch(&rows, &schema)
        .into_iter()
        .map(|r| r.scores)
        .zip(truths)
        .collect();
    let curve = diagnet_eval::recall_curve(&scored, max_k);
    let mut out = format!(
        "{} faulty samples, {} candidate causes (`{}` backend)\n",
        scored.len(),
        schema.n_features(),
        model.describe().kind
    );
    for (k, r) in curve.iter().enumerate() {
        let _ = writeln!(out, "Recall@{} = {:.1}%", k + 1, r * 100.0);
    }
    maybe_dump_metrics(args, &mut out)?;
    Ok(out)
}

fn export(args: &Args) -> Result<String, CliError> {
    let dataset = io::load_dataset(args.require("data")?)?;
    let out = args.require("out")?;
    let file = std::fs::File::create(out).map_err(|e| CliError::Io {
        action: "create",
        path: out.into(),
        source: e,
    })?;
    diagnet_sim::export::write_csv(&dataset, std::io::BufWriter::new(file)).map_err(|e| {
        CliError::Data {
            action: "write",
            path: out.into(),
            detail: e.to_string(),
        }
    })?;
    Ok(format!("wrote {} rows to {out}\n", dataset.len()))
}

/// Checksum and durable-store lineage lines for `info`.
///
/// The artefact bytes are hashed as stored. When the file sits inside a
/// generation store (a sibling manifest lists it), the manifest's recorded
/// checksum is verified — a mismatch is a typed [`CliError::Data`], never
/// a panic — and the generation's lineage and lifecycle status are
/// reported alongside.
fn artefact_integrity(path: &str) -> Result<String, CliError> {
    let bytes = std::fs::read(path).map_err(|e| CliError::Io {
        action: "open",
        path: path.to_string(),
        source: e,
    })?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  checksum: {}",
        render_checksum(artefact_checksum(&bytes))
    );
    let file_path = std::path::Path::new(path);
    let (Some(parent), Some(name)) = (
        file_path.parent(),
        file_path.file_name().and_then(|n| n.to_str()),
    ) else {
        return Ok(out);
    };
    // A corrupt manifest must not block inspecting the model itself.
    let records = store::read_manifest(parent).unwrap_or_default();
    let Some(record) = records.iter().rev().find(|r| r.file == name) else {
        return Ok(out);
    };
    verify_checksum(&bytes, record.checksum).map_err(|detail| CliError::Data {
        action: "verify",
        path: path.to_string(),
        detail,
    })?;
    let _ = writeln!(
        out,
        "  store generation: {} (status: {}, parent: {})",
        record.generation,
        record.status,
        record
            .parent
            .map_or_else(|| "none".to_string(), |p| p.to_string()),
    );
    Ok(out)
}

fn info(args: &Args) -> Result<String, CliError> {
    // Verify integrity before parsing: a tampered store artefact reports
    // the checksum mismatch, not whatever parse error the damage causes.
    let integrity = artefact_integrity(args.require("model")?)?;
    let backend = load_checked_backend(args)?;
    let meta = backend.describe();
    let mut out = String::new();
    if let Some(model) = backend.as_any().downcast_ref::<DiagNet>() {
        let _ = writeln!(out, "DiagNet model");
        let _ = writeln!(
            out,
            "  architecture: {} filters × {} pooling ops, hidden {:?}",
            model.config.filters,
            model.config.pool_ops.len(),
            model.config.hidden
        );
        let _ = writeln!(
            out,
            "  parameters: {} total, {} trainable",
            model.num_params(),
            model.num_trainable_params()
        );
        let _ = writeln!(
            out,
            "  trained against {} landmarks: {:?}",
            model.train_schema.n_landmarks(),
            model
                .train_schema
                .landmarks()
                .iter()
                .map(|r| r.code())
                .collect::<Vec<_>>()
        );
        let _ = writeln!(
            out,
            "  training: {} epochs, final val loss {:.4}",
            model.history.epochs_run,
            model.history.val_loss.last().copied().unwrap_or(f32::NAN)
        );
        let _ = writeln!(
            out,
            "  auxiliary forest: {} trees",
            model.auxiliary.forest().n_trees()
        );
    } else {
        let _ = writeln!(out, "{} model (`{}` backend)", meta.name, meta.kind);
        let _ = writeln!(out, "  parameters: {}", meta.n_params);
        let _ = writeln!(
            out,
            "  trained against {} landmarks",
            meta.n_train_landmarks
        );
        let _ = writeln!(
            out,
            "  supports specialisation: {}",
            if meta.supports_specialization {
                "yes"
            } else {
                "no"
            }
        );
    }
    // The same health probe the platform's publish gate runs: finite
    // parameters, finite scores on a zero probe.
    let _ = writeln!(
        out,
        "  health: {}",
        match backend.validate() {
            Ok(()) => "ok (finite parameters, finite probe scores)".to_string(),
            Err(e) => format!("FAILED — {e}"),
        }
    );
    out.push_str(&integrity);
    Ok(out)
}

fn metrics(args: &Args) -> Result<String, CliError> {
    // Replay mode: print a dump previously written by `--metrics-out`.
    if let Some(path) = args.get("in") {
        return std::fs::read_to_string(path).map_err(|e| CliError::Io {
            action: "open",
            path: path.into(),
            source: e,
        });
    }
    // Live mode: one-shot processes have nothing accumulated yet, so run a
    // small self-demo (train the forest baseline in memory, score a batch
    // through an instrumented backend) and dump the registry it fed.
    let seed: u64 = args.get_or("seed", 42)?;
    let world = World::new();
    let dataset = Dataset::generate(&world, &DatasetConfig::standard(&world, 6, seed))?;
    let split = dataset.split(0.8, seed);
    let config = BackendConfig::default();
    let inner = BackendKind::Forest.train(&config, &split.train, &FeatureSchema::known(), seed)?;
    let backend = InstrumentedBackend::new(inner);
    let schema = FeatureSchema::full();
    let rows: Vec<Vec<f32>> = split
        .test
        .samples
        .iter()
        .take(64)
        .map(|s| s.features.clone())
        .collect();
    let _ = backend.rank_causes_batch(&rows, &schema);
    if let Some(first) = rows.first() {
        let _ = backend.rank_causes(first, &schema);
    }
    let mut out =
        String::from("live self-demo: trained the forest baseline and scored 65 rows\n\n");
    out.push_str(&diagnet_obs::global().snapshot().render_text());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("diagnet_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn run_line(parts: &[&str]) -> Result<String, CliError> {
        let raw: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
        run(&parse(&raw).unwrap())
    }

    /// `info` on an artefact inside a generation store prints checksum and
    /// lineage; tampering with the bytes turns into a typed data error
    /// (exit 1), not a panic or a parse failure.
    #[test]
    fn info_reports_store_lineage_and_rejects_tampering() {
        use diagnet_platform::store::GenerationStatus;
        use diagnet_platform::{JsonCodec, ModelStore};
        use std::sync::Arc;

        let dir = tmp("info_store");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ModelStore::open(&dir, Arc::new(JsonCodec)).unwrap();
        let world = World::new();
        let mut config = DatasetConfig::small(&world, 5);
        config.n_scenarios = 6;
        let data = Dataset::generate(&world, &config).unwrap();
        let backend = BackendKind::Forest
            .train(&BackendConfig::default(), &data, &FeatureSchema::known(), 5)
            .unwrap();
        let record = store
            .persist(backend.as_ref(), None, "forest", GenerationStatus::Active)
            .unwrap();
        let artefact = dir.join(&record.file);
        let artefact_arg = artefact.to_str().unwrap();

        let out = run_line(&["info", "--model", artefact_arg]).unwrap();
        assert!(out.contains("checksum: fnv1a64:"), "{out}");
        assert!(out.contains("store generation: 1"), "{out}");
        assert!(out.contains("status: active"), "{out}");

        // Flip one byte: the manifest checksum no longer matches.
        let mut bytes = std::fs::read(&artefact).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(&artefact, bytes).unwrap();
        let err = run_line(&["info", "--model", artefact_arg]).unwrap_err();
        assert_eq!(err.exit_code(), 1, "{err}");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn help_prints_usage() {
        let out = run_line(&["help"]).unwrap();
        assert!(out.contains("simulate"));
        assert!(out.contains("diagnose"));
        assert!(out.contains("--backend"));
    }

    #[test]
    fn unknown_backend_is_a_usage_error() {
        let err = run_line(&[
            "train",
            "--data",
            "d.json",
            "--out",
            "m.json",
            "--backend",
            "svm",
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("unknown backend `svm`"), "{err}");
    }

    #[test]
    fn full_cli_pipeline() {
        let data = tmp("cli_data.json");
        let model = tmp("cli_model.json");
        let special = tmp("cli_special.json");
        let data_s = data.to_str().unwrap();
        let model_s = model.to_str().unwrap();
        let special_s = special.to_str().unwrap();

        // simulate → train → info → evaluate → diagnose → specialize
        let out = run_line(&[
            "simulate",
            "--out",
            data_s,
            "--scenarios",
            "12",
            "--seed",
            "5",
        ])
        .unwrap();
        assert!(out.contains("wrote 1200 samples"), "{out}");

        let out = run_line(&[
            "train", "--data", data_s, "--out", model_s, "--config", "fast", "--seed", "5",
        ])
        .unwrap();
        assert!(out.contains("trained on"), "{out}");

        let out = run_line(&["info", "--model", model_s]).unwrap();
        assert!(out.contains("trained against 7 landmarks"), "{out}");

        // `--backend` validates the artefact's kind.
        let out = run_line(&["info", "--model", model_s, "--backend", "diagnet"]).unwrap();
        assert!(out.contains("DiagNet model"), "{out}");
        let err = run_line(&["info", "--model", model_s, "--backend", "forest"]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("not `forest`"), "{err}");

        let dump = tmp("cli_metrics.prom");
        let dump_s = dump.to_str().unwrap();
        let out = run_line(&[
            "evaluate",
            "--model",
            model_s,
            "--data",
            data_s,
            "--k",
            "3",
            "--metrics-out",
            dump_s,
        ])
        .unwrap();
        assert!(out.contains("Recall@3"), "{out}");
        assert!(out.contains("metrics written to"), "{out}");
        // The dump shows the evaluate traffic and replays through
        // `diagnet metrics --in`.
        let replay = run_line(&["metrics", "--in", dump_s]).unwrap();
        // Presence, not exact counts: the global registry is shared with
        // concurrently running tests.
        if cfg!(feature = "obs") {
            assert!(
                replay.contains("diagnet_rank_requests_total{backend=\"diagnet\"}"),
                "{replay}"
            );
            assert!(
                replay.contains("diagnet_rank_latency_seconds_bucket"),
                "{replay}"
            );
        }
        std::fs::remove_file(dump).ok();

        let out = run_line(&[
            "diagnose", "--model", model_s, "--data", data_s, "--sample", "7",
        ])
        .unwrap();
        assert!(out.contains("ground truth"), "{out}");

        let out = run_line(&[
            "specialize",
            "--model",
            model_s,
            "--data",
            data_s,
            "--service",
            "single",
            "--out",
            special_s,
            "--seed",
            "5",
        ])
        .unwrap();
        assert!(out.contains("specialised for `single`"), "{out}");

        for p in [data, model, special] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn streaming_train_produces_a_servable_model() {
        let model = tmp("cli_stream_model.json");
        let model_s = model.to_str().unwrap();
        let out = run_line(&[
            "train",
            "--streaming",
            "--out",
            model_s,
            "--scenarios",
            "6",
            "--chunk-size",
            "128",
            "--window",
            "256",
            "--config",
            "fast",
            "--seed",
            "5",
        ])
        .unwrap();
        assert!(
            out.contains("streamed 600 samples in chunks of 128"),
            "{out}"
        );

        let info = run_line(&["info", "--model", model_s, "--backend", "diagnet"]).unwrap();
        assert!(info.contains("DiagNet model"), "{info}");
        assert!(info.contains("health: ok"), "{info}");
        std::fs::remove_file(model).ok();
    }

    #[test]
    fn streaming_flag_validation() {
        // `--data` and `--streaming` are mutually exclusive.
        let err = run_line(&[
            "train",
            "--streaming",
            "--data",
            "d.json",
            "--out",
            "m.json",
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("cannot be combined"), "{err}");

        // Streaming-only knobs are rejected on the materialised path.
        let err = run_line(&[
            "train",
            "--data",
            "d.json",
            "--out",
            "m.json",
            "--chunk-size",
            "64",
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--streaming"), "{err}");

        let err =
            run_line(&["train", "--streaming", "--out", "m.json", "--window", "0"]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--window"), "{err}");

        // Simulator configuration errors surface as usage errors.
        let err = run_line(&[
            "train",
            "--streaming",
            "--out",
            "m.json",
            "--scenarios",
            "0",
            "--chunk-size",
            "0",
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn baseline_backends_train_evaluate_and_diagnose() {
        let data = tmp("cli_backend_data.json");
        let data_s = data.to_str().unwrap();
        run_line(&[
            "simulate",
            "--out",
            data_s,
            "--scenarios",
            "6",
            "--seed",
            "11",
        ])
        .unwrap();

        for backend in ["forest", "bayes"] {
            let model = tmp(&format!("cli_{backend}_model.json"));
            let model_s = model.to_str().unwrap();
            let out = run_line(&[
                "train",
                "--data",
                data_s,
                "--out",
                model_s,
                "--backend",
                backend,
                "--seed",
                "11",
            ])
            .unwrap();
            assert!(out.contains(&format!("`{backend}` backend")), "{out}");

            let out = run_line(&["info", "--model", model_s, "--backend", backend]).unwrap();
            assert!(out.contains("trained against 7 landmarks"), "{out}");
            assert!(out.contains("health: ok"), "{out}");

            let out =
                run_line(&["evaluate", "--model", model_s, "--data", data_s, "--k", "3"]).unwrap();
            assert!(out.contains("Recall@3"), "{out}");

            let out = run_line(&["diagnose", "--model", model_s, "--data", data_s]).unwrap();
            assert!(out.contains("ground truth"), "{out}");

            // Only DiagNet can be specialised.
            let err = run_line(&[
                "specialize",
                "--model",
                model_s,
                "--data",
                data_s,
                "--service",
                "single",
                "--out",
                model_s,
            ])
            .unwrap_err();
            assert_eq!(err.exit_code(), 2);
            assert!(err.to_string().contains("specialisation"), "{err}");

            std::fs::remove_file(model).ok();
        }
        std::fs::remove_file(data).ok();
    }

    /// Needs no file IO, so this also runs in the offline shadow harness.
    #[test]
    #[cfg(feature = "obs")]
    fn metrics_live_self_demo_shows_serving_counters() {
        let out = run_line(&["metrics", "--seed", "13"]).unwrap();
        assert!(out.contains("live self-demo"), "{out}");
        assert!(out.contains("diagnet_rank_requests_total"), "{out}");
        assert!(out.contains("p99="), "{out}");
        let err = run_line(&["metrics", "--in", "/nonexistent.prom"]).unwrap_err();
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn export_subcommand_round_trip() {
        let data = tmp("cli_export_data.json");
        let csv = tmp("cli_export.csv");
        let (data_s, csv_s) = (data.to_str().unwrap(), csv.to_str().unwrap());
        run_line(&[
            "simulate",
            "--out",
            data_s,
            "--scenarios",
            "2",
            "--seed",
            "9",
        ])
        .unwrap();
        let msg = run_line(&["export", "--data", data_s, "--out", csv_s]).unwrap();
        assert!(msg.contains("wrote 200 rows"), "{msg}");
        let content = std::fs::read_to_string(&csv).unwrap();
        assert!(content.starts_with("SEAT_rtt,"));
        assert_eq!(content.lines().count(), 201);
        std::fs::remove_file(data).ok();
        std::fs::remove_file(csv).ok();
    }

    #[test]
    fn campaign_subcommand_writes_time_ordered_dataset() {
        let out = tmp("cli_campaign.json");
        let out_s = out.to_str().unwrap();
        let msg = run_line(&[
            "campaign",
            "--out",
            out_s,
            "--days",
            "1",
            "--interval-h",
            "6",
            "--seed",
            "3",
        ])
        .unwrap();
        assert!(msg.contains("1-day campaign"), "{msg}");
        // The artefact is a loadable dataset.
        let ds = io::load_dataset(out_s).unwrap();
        assert_eq!(ds.len(), (24 / 6) * 10 * 10);
        let err = run_line(&["campaign", "--out", out_s, "--days", "0"]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        std::fs::remove_file(out).ok();
    }

    #[test]
    fn helpful_errors() {
        let err = run_line(&[
            "train",
            "--data",
            "/nonexistent.json",
            "--out",
            "/tmp/x.json",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("cannot open"), "{err}");
        assert_eq!(err.exit_code(), 1);

        let err = run_line(&["info"]).unwrap_err();
        assert!(err.to_string().contains("--model"), "{err}");
        assert_eq!(err.exit_code(), 2);

        let data = tmp("cli_err_data.json");
        let data_s = data.to_str().unwrap();
        run_line(&["simulate", "--out", data_s, "--scenarios", "2"]).unwrap();
        let err = run_line(&["diagnose", "--model", data_s, "--data", data_s]).unwrap_err();
        assert!(err.to_string().contains("serialization error"), "{err}");
        assert_eq!(err.exit_code(), 1);
        std::fs::remove_file(data).ok();
    }
}
