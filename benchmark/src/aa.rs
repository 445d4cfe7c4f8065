//! `aa`: the suite against itself. Two sets of runs of the same code, on the
//! same seeds, interleaved A-B-B-A so that a drift of the machine falls on
//! both; for every end-to-end metric the two medians must agree within the
//! metric's bound, and with four runs or more a set's own spread must stay
//! within it too (except for `setup_s`). This is how a bound is confirmed,
//! or a metric shown to be too unsteady to be gated.

use crate::layers::result_metrics;
use crate::spec::{Better, Workload, END_TO_END};
use crate::stats::{median, spread};
use std::process::Command;

/// This program again, for one workload in a process of its own.
pub fn this_program(
    command: &str,
    workload: &Workload,
    seed: u64,
    seconds: u64,
) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("finding this executable: {e}"))?;
    let mut program = Command::new(exe);
    program
        .args([command, "--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()]);
    Ok(program)
}

/// One run of the benchmark in a process of its own, so that peak memory and
/// set-up are those of a fresh start; its end-to-end metrics.
fn one_run(workload: &Workload, seed: u64, seconds: u64) -> Result<Vec<(String, f64)>, String> {
    let out = this_program("run", workload, seed, seconds)?
        .output()
        .map_err(|e| format!("starting a run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "a run of {} on seed {seed} failed: {}",
            workload.name,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    result_metrics(stdout.lines().last().ok_or("a run printed nothing")?)
}

/// Runs `workload` `runs` times for each set and prints the comparison.
/// Returns whether every metric agreed.
pub fn compare(workload: &Workload, seed: u64, seconds: u64, runs: u64) -> Result<bool, String> {
    let mut sets: [Vec<Vec<(String, f64)>>; 2] = [Vec::new(), Vec::new()];
    for k in 0..runs {
        let order = if k % 2 == 0 { [0, 1] } else { [1, 0] };
        for set in order {
            sets[set].push(one_run(workload, seed + k, seconds)?);
        }
    }
    println!(
        "{}: {runs} runs a set, seeds {seed}..{}; worse = B against A in the metric's bad direction",
        workload.name,
        seed + runs
    );
    println!(
        "{:<22} {:>14} {:>14} {:>8} {:>7} {:>9} {:>9}  verdict",
        "metric", "median A", "median B", "worse", "bound", "spread A", "spread B"
    );
    let mut agreed = true;
    for metric in &END_TO_END {
        let values = |set: &Vec<Vec<(String, f64)>>| -> Result<Vec<f64>, String> {
            set.iter()
                .map(|run| {
                    run.iter()
                        .find(|(name, _)| name == metric.name)
                        .map(|(_, v)| *v)
                        .ok_or_else(|| format!("a run did not report `{}`", metric.name))
                })
                .collect()
        };
        let (a, b) = (values(&sets[0])?, values(&sets[1])?);
        let (ma, mb) = (median(&a).ok_or("no run")?, median(&b).ok_or("no run")?);
        let worse = match metric.better {
            Better::Lower => (mb - ma) / ma,
            Better::Higher => (ma - mb) / ma,
        };
        let bound = metric.bound.expect("end-to-end metrics have a bound");
        let (sa, sb) = (spread(&a), spread(&b));
        let unsteady = runs >= 4 && metric.name != "setup_s" && sa.max(sb) > bound;
        let verdict = if worse.abs() > bound {
            "DIFFER"
        } else if unsteady {
            "UNSTEADY"
        } else {
            "ok"
        };
        agreed &= verdict == "ok";
        println!(
            "{:<22} {ma:>14.4} {mb:>14.4} {:>7.2}% {:>6.0}% {:>8.2}% {:>8.2}%  {verdict}",
            metric.name,
            worse * 100.0,
            bound * 100.0,
            sa * 100.0,
            sb * 100.0
        );
    }
    Ok(agreed)
}
