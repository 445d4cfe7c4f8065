//! The benchmark of this repository; see `README.md` beside `Cargo.toml`.
//!
//! `diagnet-benchmark [run|trace|aa] --workload <name|all> --seed <n>
//! --seconds <s> --trace <0|1>`: `run` (`--trace 0`, the default) measures
//! the end-to-end metrics of one workload with no spans recorded; `trace`
//! (`--trace 1`) replays the workload's requests through each layer, records
//! spans and reports the per-layer metrics; `aa` runs the suite against
//! itself. The last line of standard output is the result as one JSON object.

mod aa;
mod client;
mod layers;
mod loadgen;
mod measure;
mod prom;
mod run;
mod setup;
#[cfg(test)]
mod shim_tests;
mod spec;
mod stats;
mod trace;
mod traced;

use run::{Reported, Results};
use spec::{Metric, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    command: String,
    workload: String,
    seed: u64,
    seconds: u64,
    /// Runs in each of the two sets of `aa`.
    runs: u64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        command: "run".to_string(),
        workload: "all".to_string(),
        seed: 42,
        seconds: 10,
        runs: 2,
    };
    let mut rest = args.iter().peekable();
    if let Some(first) = rest.next_if(|a| !a.starts_with("--")) {
        parsed.command = first.clone();
    }
    while let Some(flag) = rest.next() {
        let value = rest
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag} {value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--runs" => parsed.runs = number()?,
            "--trace" => {
                parsed.command = match number()? {
                    0 => "run",
                    1 => "trace",
                    _ => return Err("`--trace` takes 0 or 1".to_string()),
                }
                .to_string()
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if parsed.seconds == 0 || parsed.runs == 0 {
        return Err("`--seconds` and `--runs` must be at least 1".to_string());
    }
    Ok(parsed)
}

/// Where and on what the numbers were measured.
fn fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    // A counter that counts shows the observability layer is compiled in.
    let probe = diagnet_obs::Counter::detached();
    probe.inc();
    format!(
        "cores={cores} cpu=\"{cpu}\" rustc=\"{rustc}\" git={} obs_enabled={} deps=shims rayon=serial",
        git_rev(),
        probe.get() == 1
    )
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark also runs in checkouts that are not repositories.
fn git_rev() -> String {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let head = read(".git/HEAD");
    let rev = match head.as_deref().and_then(|h| h.strip_prefix("ref: ")) {
        Some(reference) => read(&format!(".git/{reference}")),
        None => head,
    };
    rev.map_or_else(|| "unknown".to_string(), |r| r.chars().take(12).collect())
}

/// Each metric of `table` with what the run measured for it.
fn rows<'a>(
    table: &'a [Metric],
    results: &'a Results,
) -> Result<Vec<(&'a Metric, &'a Reported)>, String> {
    table
        .iter()
        .map(|metric| {
            let found = results
                .metrics
                .iter()
                .find(|(name, _)| *name == metric.name);
            match found {
                Some((_, reported)) if reported.value.is_finite() => Ok((metric, reported)),
                Some(_) => Err(format!("`{}` is not a finite number", metric.name)),
                None => Err(format!("the run did not measure `{}`", metric.name)),
            }
        })
        .collect()
}

fn print_metrics(rows: &[(&Metric, &Reported)], notes: &[String]) {
    println!(
        "{:<44} {:>14} {:<6} {:>9} {:>8}",
        "metric", "value", "unit", "samples", "spread"
    );
    for (metric, r) in rows {
        println!(
            "{:<44} {:>14.4} {:<6} {:>9} {:>8}",
            metric.name,
            r.value,
            metric.unit,
            r.samples,
            r.spread
                .map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0)),
        );
    }
    for note in notes {
        println!("  {note}");
    }
}

/// The result line: the last line of standard output, one JSON object.
fn result_line(rows: &[(&Metric, &Reported)], results: &Results) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(metric, r)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name, r.value, metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        results.attempted,
        results.failed,
        metrics.join(", ")
    )
}

fn run_one(workload: &Workload, args: &Args) -> Result<(), String> {
    println!(
        "workload={} command={} seed={} seconds={} -- {}",
        workload.name, args.command, args.seed, args.seconds, workload.why
    );
    println!("{}", fingerprint());
    let measure = Duration::from_secs(args.seconds);
    let (table, results): (Vec<Metric>, Results) = match args.command.as_str() {
        "run" => (END_TO_END.to_vec(), run::run(workload, args.seed, measure)?),
        "trace" => (
            PER_LAYER.iter().map(|(metric, _)| *metric).collect(),
            traced::run(workload, args.seed, measure)?,
        ),
        other => {
            return Err(format!(
                "unknown command `{other}` (expected `run`, `trace` or `aa`)"
            ))
        }
    };
    let rows = rows(&table, &results)?;
    print_metrics(&rows, &results.notes);
    println!("{}", result_line(&rows, &results));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|args| {
        let chosen: Vec<&Workload> = match args.workload.as_str() {
            "all" => WORKLOADS.iter().collect(),
            name => vec![spec::workload(name).ok_or_else(|| {
                format!(
                    "unknown workload `{name}` (expected `all` or one of: {})",
                    WORKLOADS.map(|w| w.name).join(", ")
                )
            })?],
        };
        let mut agreed = true;
        for workload in &chosen {
            match args.command.as_str() {
                "aa" => agreed &= aa::compare(workload, args.seed, args.seconds, args.runs)?,
                // One workload to a process, so that peak memory and set-up
                // are those of a fresh start.
                command if chosen.len() > 1 => {
                    let status = aa::this_program(command, workload, args.seed, args.seconds)?
                        .status()
                        .map_err(|e| format!("starting a run: {e}"))?;
                    if !status.success() {
                        return Err(format!("the run of {} failed", workload.name));
                    }
                }
                _ => run_one(workload, &args)?,
            }
        }
        if agreed {
            Ok(())
        } else {
            Err("two sets of runs of the same code differ by more than a bound".to_string())
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("diagnet-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
