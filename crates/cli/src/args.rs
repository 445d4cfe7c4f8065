//! Hand-rolled argument parsing (keeping the dependency set minimal).
//! Every rejection is a [`CliError::Usage`], so `main` exits with
//! status 2 and prints the usage text.

use crate::error::CliError;
use std::collections::HashMap;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The subcommand.
    pub command: Command,
    /// `--key value` options.
    pub options: HashMap<String, String>,
}

/// Supported subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Generate a labelled dataset from the simulator.
    Simulate,
    /// Generate a time-ordered two-week measurement campaign.
    Campaign,
    /// Train a general DiagNet model.
    Train,
    /// Specialise an existing model for one service.
    Specialize,
    /// Diagnose one sample with a trained model.
    Diagnose,
    /// Evaluate Recall@k of a model on a dataset.
    Evaluate,
    /// Export a dataset to CSV.
    Export,
    /// Print a model summary.
    Info,
    /// Print serving metrics (a saved dump or a live self-demo).
    Metrics,
    /// Serve the analysis service over HTTP (see SERVING.md).
    Serve,
    /// Print usage.
    Help,
}

impl Command {
    fn from_name(name: &str) -> Option<Command> {
        Some(match name {
            "simulate" => Command::Simulate,
            "campaign" => Command::Campaign,
            "train" => Command::Train,
            "specialize" | "specialise" => Command::Specialize,
            "diagnose" => Command::Diagnose,
            "evaluate" => Command::Evaluate,
            "export" => Command::Export,
            "info" => Command::Info,
            "metrics" => Command::Metrics,
            "serve" => Command::Serve,
            "help" | "--help" | "-h" => Command::Help,
            _ => return None,
        })
    }
}

/// Options that are bare flags: they take no value and parse as `true`.
const BOOL_FLAGS: &[&str] = &["streaming"];

/// Parse a raw argument vector (without the program name).
///
/// Grammar: `<command> (--key value | --flag)*`, where `--flag` is one of
/// [`BOOL_FLAGS`].
pub fn parse(args: &[String]) -> Result<Args, CliError> {
    let Some(first) = args.first() else {
        return Ok(Args {
            command: Command::Help,
            options: HashMap::new(),
        });
    };
    let command = Command::from_name(first).ok_or_else(|| {
        CliError::usage(format!("unknown command `{first}` (try `diagnet help`)"))
    })?;
    let mut options = HashMap::new();
    let mut i = 1;
    while i < args.len() {
        let key = &args[i];
        let Some(name) = key.strip_prefix("--") else {
            return Err(CliError::usage(format!("expected `--option`, got `{key}`")));
        };
        if BOOL_FLAGS.contains(&name) {
            if options
                .insert(name.to_string(), "true".to_string())
                .is_some()
            {
                return Err(CliError::usage(format!("option `--{name}` given twice")));
            }
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            return Err(CliError::usage(format!(
                "option `--{name}` is missing a value"
            )));
        };
        if options.insert(name.to_string(), value.clone()).is_some() {
            return Err(CliError::usage(format!("option `--{name}` given twice")));
        }
        i += 2;
    }
    Ok(Args { command, options })
}

impl Args {
    /// A required string option.
    pub fn require(&self, name: &str) -> Result<&str, CliError> {
        self.options
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| CliError::usage(format!("missing required option `--{name}`")))
    }

    /// An optional string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// Whether a bare boolean flag (see [`BOOL_FLAGS`]) was given.
    pub fn flag(&self, name: &str) -> bool {
        self.options.contains_key(name)
    }

    /// An optional parsed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.options.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| CliError::usage(format!("option `--{name}`: cannot parse `{raw}`"))),
        }
    }
}

/// The usage text printed by `diagnet help`.
pub const USAGE: &str = "\
diagnet — convolutional Internet-scale root-cause analysis (IPDPS 2021 reproduction)

USAGE:
    diagnet <command> [--option value]...

COMMANDS:
    simulate    --out FILE [--scenarios N=100] [--seed S=42]
                generate a labelled dataset from the simulated testbed
    campaign    --out FILE [--days N=14] [--interval-h H=1.0] [--seed S=42]
                generate a time-ordered measurement campaign (dataset JSON)
    train       --data FILE --out FILE [--backend diagnet|forest|bayes=diagnet]
                [--config paper|fast=paper] [--seed S=42]
                train a model (hidden-landmark protocol)
                streaming mode: --streaming --out FILE [--scenarios N=100]
                [--chunk-size N=8192] [--window W] — generate bounded-memory
                chunks from the simulator instead of loading `--data`;
                `--window` caps the shuffle buffer (default: full pass)
    specialize  --model FILE --data FILE --service NAME --out FILE [--seed S=42]
                retrain the final layers for one service (diagnet backend only)
    diagnose    --model FILE --data FILE --sample IDX [--top K=5] [--backend B]
                [--metrics-out FILE]
                rank the root causes of one sample
    evaluate    --model FILE --data FILE [--k 5] [--backend B] [--metrics-out FILE]
                Recall@1..k on the dataset's faulty samples
    export      --data FILE --out FILE
                convert a dataset JSON to CSV (pandas/R-friendly)
    info        --model FILE [--backend B]
                print a model summary and its artefact checksum; for models
                inside a `--state-dir` store, also generation lineage and
                lifecycle status (checksum mismatches are data errors)
    metrics     [--in FILE] [--seed S=42]
                print serving metrics: a dump saved by `--metrics-out`
                (`--in`), or a live self-demo (see OBSERVABILITY.md)
    serve       [--addr A=127.0.0.1:8080] [--workers N=4] [--backlog N=128]
                [--timeout-ms MS=5000] [--model FILE | --scenarios N=20]
                [--config paper|fast|smoke=fast] [--backend B] [--seed S=42]
                [--run-for-s SECS] [--state-dir DIR] [--canary-frac F=0]
                [--canary-window N=50]
                serve POST /v1/submit, POST /v1/diagnose, GET /healthz,
                GET /metrics and GET /v1/generations over HTTP (operator
                guide: SERVING.md); with no `--model`, bootstraps from
                `--scenarios` of simulated traffic; `--run-for-s` serves
                for a fixed time, then drains; `--state-dir` persists every
                published generation (crash-safe, checksummed) and recovers
                the newest active one on restart; `--canary-frac` > 0
                routes that fraction of diagnose traffic to freshly
                retrained generations for a `--canary-window`-request
                observation before promotion, auto-rolling back degraded
                candidates
    help        this text

`--backend` selects which model family `train` fits; on `diagnose`,
`evaluate` and `info` it asserts the kind of the loaded artefact.
`--metrics-out` writes the serving-metrics registry as Prometheus text
after the run; `diagnet metrics --in FILE` prints such a dump back.

EXIT STATUS:
    0  success
    1  environment error (unreadable file, corrupt model, training failure)
    2  user error (bad flags, unknown backend/service/config)
";

#[cfg(test)]
mod tests {
    use super::*;

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn parses_command_and_options() {
        let args = parse(&s(&["train", "--data", "d.json", "--out", "m.json"])).unwrap();
        assert_eq!(args.command, Command::Train);
        assert_eq!(args.require("data").unwrap(), "d.json");
        assert_eq!(args.require("out").unwrap(), "m.json");
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap().command, Command::Help);
    }

    #[test]
    fn unknown_command_rejected() {
        // `bench` was a subcommand once: a stale script gets exit 2 and
        // the usage text, like any other unknown word.
        for word in ["frobnicate", "bench"] {
            let err = parse(&s(&[word, "--url", "127.0.0.1:8080"])).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{word}: {err}");
            assert!(err.to_string().contains("unknown command"), "{err}");
        }
    }

    #[test]
    fn missing_value_rejected() {
        assert!(parse(&s(&["train", "--data"])).is_err());
    }

    #[test]
    fn duplicate_option_rejected() {
        assert!(parse(&s(&["train", "--data", "a", "--data", "b"])).is_err());
    }

    #[test]
    fn positional_after_command_rejected() {
        assert!(parse(&s(&["train", "stray"])).is_err());
    }

    #[test]
    fn get_or_parses_with_default() {
        let args = parse(&s(&["simulate", "--scenarios", "25"])).unwrap();
        assert_eq!(args.get_or("scenarios", 100usize).unwrap(), 25);
        assert_eq!(args.get_or("seed", 42u64).unwrap(), 42);
        assert!(args.get_or::<usize>("scenarios", 0).is_ok());
        let bad = parse(&s(&["simulate", "--scenarios", "many"])).unwrap();
        assert!(bad.get_or::<usize>("scenarios", 0).is_err());
    }

    #[test]
    fn bool_flags_take_no_value() {
        let args = parse(&s(&["train", "--streaming", "--out", "m.json"])).unwrap();
        assert!(args.flag("streaming"));
        assert_eq!(args.require("out").unwrap(), "m.json");
        let args = parse(&s(&["train", "--out", "m.json"])).unwrap();
        assert!(!args.flag("streaming"));
        assert!(parse(&s(&["train", "--streaming", "--streaming"])).is_err());
    }

    #[test]
    fn require_reports_missing() {
        let args = parse(&s(&["info"])).unwrap();
        assert!(args.require("model").is_err());
    }

    #[test]
    fn british_spelling_accepted() {
        assert_eq!(
            parse(&s(&["specialise"])).unwrap().command,
            Command::Specialize
        );
    }
}
