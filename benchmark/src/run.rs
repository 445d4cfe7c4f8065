//! A run of one workload with tracing off: set-up (several times, for its
//! median), the measured time, the correctness checks, and the end-to-end
//! metrics.

use crate::client::{get, Conn};
use crate::loadgen::{drive, Kind, Plan, Sample};
use crate::measure::{equal_windows, peak_rss_mb, rank_of, summarize, Summary, Window};
use crate::spec::{Better, Shape, Workload, CONNECTIONS, SETUPS, WARMUP, WINDOWS};
use crate::stats::{better_decile, median, spread};
use crate::{layers, prom, setup};
use std::time::{Duration, Instant};

/// Probes whose wire answer is compared bit for bit with the in-process one,
/// singly and again as rows of batches.
const CHECKED_PROBES: usize = 256;
const CHECK_BATCH: usize = 64;

pub struct Reported {
    pub value: f64,
    /// Samples the value was formed from.
    pub samples: usize,
    /// Quartile distance over the median, between windows, cycles or
    /// set-ups; `None` for a value that has no such parts.
    pub spread: Option<f64>,
}

pub struct Results {
    pub metrics: Vec<(&'static str, Reported)>,
    pub attempted: usize,
    pub failed: usize,
    /// Diagnostics that are printed but not gated.
    pub notes: Vec<String>,
}

pub fn run(workload: &Workload, seed: u64, measure: Duration) -> Result<Results, String> {
    match workload.shape {
        Shape::Serve { pacing, mix, batch } => {
            let plan = Plan {
                pacing,
                mix,
                connections: CONNECTIONS,
                warmup: WARMUP,
                measure,
                seed,
            };
            serve_run(workload, &plan, batch)
        }
        Shape::Train { .. } => train_run(workload, seed, measure),
    }
}

/// `setup_s` is by the driver's rule the median of the set-ups.
fn median_of(values: &[f64]) -> Result<Reported, String> {
    Ok(Reported {
        value: median(values).ok_or("no value to report")?,
        samples: values.len(),
        spread: Some(spread(values)),
    })
}

fn whole(value: f64, samples: usize) -> Reported {
    Reported {
        value,
        samples,
        spread: None,
    }
}

/// The metrics every workload forms the same way from its samples.
fn common_metrics(
    summary: &Summary,
    setup_secs: &[f64],
    train_rates: &[f64],
    ranks: &[usize],
    floor: (f64, f64),
) -> Result<Vec<(&'static str, Reported)>, String> {
    let recall = |k: usize| ranks.iter().filter(|&&r| r < k).count() as f64 / ranks.len() as f64;
    if recall(1) < floor.0 || recall(3) < floor.1 {
        return Err(format!(
            "recall@1 {:.3} / recall@3 {:.3} on {} held-out probes is below the floor {:.2} / {:.2}",
            recall(1),
            recall(3),
            ranks.len(),
            floor.0,
            floor.1
        ));
    }
    let windowed = |l: &crate::measure::Latency, value: f64| Reported {
        value,
        samples: l.samples,
        spread: Some(l.window_spread),
    };
    let diagnose = summary
        .diagnose
        .as_ref()
        .ok_or("no diagnose was answered")?;
    let submit = summary.submit.as_ref().ok_or("no submit was answered")?;
    Ok(vec![
        ("setup_s", median_of(setup_secs)?),
        ("diagnose_p50_us", windowed(diagnose, diagnose.p50_us)),
        ("diagnose_p90_us", windowed(diagnose, diagnose.p90_us)),
        ("submit_p50_us", windowed(submit, submit.p50_us)),
        (
            "throughput_rps",
            Reported {
                value: summary.throughput_rps,
                samples: summary.sent - summary.failed,
                spread: Some(summary.throughput_spread),
            },
        ),
        (
            "train_samples_per_s",
            Reported {
                value: better_decile(train_rates, Better::Higher)
                    .ok_or("no generation was trained")?,
                samples: train_rates.len(),
                spread: Some(spread(train_rates)),
            },
        ),
        ("recall_at_1", whole(recall(1), ranks.len())),
        ("recall_at_3", whole(recall(3), ranks.len())),
        ("peak_rss_mb", whole(peak_rss_mb()?, 1)),
    ])
}

fn tail_note(summary: &Summary) -> String {
    let tail = |l: &Option<crate::measure::Latency>| match l {
        Some(l) => format!(
            "p90 {:.1} us, p99 {:.0} us, max {:.0} us",
            l.p90_us, l.p99_us, l.max_us
        ),
        None => "none".to_string(),
    };
    format!(
        "client (not gated; p99 and max over the whole run): diagnose {}; submit {}; {} of {} failed; {:.4}% failed or took longer than the limit",
        tail(&summary.diagnose),
        tail(&summary.submit),
        summary.failed,
        summary.sent,
        summary.slo_miss_frac * 100.0
    )
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Diagnoses every held-out probe over the wire and checks the answers: the
/// first [`CHECKED_PROBES`] must equal the in-process scores bit for bit, and
/// the same probes sent in batches must come back row for row the same.
/// Returns the rank of the true cause for each probe and the requests sent.
fn check_answers(live: &setup::Live) -> Result<(Vec<usize>, usize), String> {
    let held_out = setup::held_out(&live.world)?;
    let mut conn = Conn::new(live.addr);
    let mut diagnose = |service: usize, probes: &[&[f32]]| -> Result<Vec<Vec<f32>>, String> {
        match conn.roundtrip(&setup::diagnose_request(service, probes)) {
            Ok((200, body)) => layers::reply_scores(body),
            Ok((status, _)) => Err(format!("a held-out diagnose answered {status}")),
            Err(e) => Err(format!("a held-out diagnose failed: {e}")),
        }
    };
    let mut requests = 0;
    let mut wire = Vec::with_capacity(held_out.len());
    for (probe, _) in &held_out {
        wire.push(diagnose(probe.service.0, &[&probe.features])?.remove(0));
        requests += 1;
    }
    let checked = &held_out[..CHECKED_PROBES.min(held_out.len())];
    for (i, (probe, _)) in checked.iter().enumerate() {
        if bits(&wire[i]) != bits(&layers::diagnose_in_process(&live.state, probe)?) {
            return Err(format!(
                "held-out probe {i}: wire scores differ from the in-process scores"
            ));
        }
    }
    for (b, group) in checked.chunks(CHECK_BATCH).enumerate() {
        let rows: Vec<&[f32]> = group.iter().map(|(p, _)| p.features.as_slice()).collect();
        let batch = diagnose(group[0].0.service.0, &rows)?;
        requests += 1;
        let singles = &wire[b * CHECK_BATCH..][..group.len()];
        if batch.len() != group.len()
            || batch
                .iter()
                .zip(singles)
                .any(|(row, single)| bits(row) != bits(single))
        {
            return Err(format!("batch {b}: rows differ from the single replies"));
        }
    }
    let ranks = wire
        .iter()
        .zip(&held_out)
        .map(|(scores, (_, cause))| rank_of(scores, *cause))
        .collect();
    Ok((ranks, requests))
}

fn serve_run(workload: &Workload, plan: &Plan, batch: usize) -> Result<Results, String> {
    let mut setup_secs = Vec::new();
    let mut train_rates = Vec::new();
    let mut live = None;
    for _ in 0..SETUPS {
        // The previous server drains before the next set-up is timed.
        drop(live.take());
        let begin = Instant::now();
        let l = setup::go_live(workload, plan.seed, batch)?;
        setup_secs.push(begin.elapsed().as_secs_f64());
        train_rates.push(l.train.n_samples as f64 / l.train.duration_secs);
        live = Some(l);
    }
    let live = live.expect("SETUPS is at least one");

    let before = get(live.addr, "/metrics")?;
    let load = drive(live.addr, &live.traffic.pool, plan);
    let (ranks, check_requests) = check_answers(&live)?;
    let after = get(live.addr, "/metrics")?;

    let windows = equal_windows(&load.samples, plan.measure, WINDOWS);
    let summary = summarize(&windows, workload.slo)?;
    let mut notes = vec![tail_note(&summary)];

    // What the server counted must be what was sent; the first scrape counts
    // itself only after it was rendered.
    let sent_in_all =
        load.warmup_sent.iter().sum::<usize>() + load.samples.len() + check_requests + 1;
    let delta = |name: &str, labels: &[(&str, &str)]| {
        prom::sum(&after, name, labels) - prom::sum(&before, name, labels)
    };
    let handled = delta("diagnet_http_requests_total", &[]);
    let corrupt_sent = load.warmup_sent[Kind::Corrupt as usize]
        + load
            .samples
            .iter()
            .filter(|s| s.kind == Kind::Corrupt)
            .count();
    let rejected = delta("diagnet_probes_rejected_total", &[]);
    let turned_away = delta("diagnet_http_connections_total", &[("outcome", "rejected")]);
    notes.push(format!(
        "server counted {handled} requests of {sent_in_all} sent, {rejected} rejected probes of {corrupt_sent} corrupt sent, {turned_away} connections turned away"
    ));
    if summary.failed == 0
        && (handled != sent_in_all as f64 || rejected != corrupt_sent as f64 || turned_away != 0.0)
    {
        return Err(format!(
            "the server's counters disagree with the generator: {}",
            notes[1]
        ));
    }

    let achieved = load.samples.len() as f64 / plan.measure.as_secs_f64();
    let limited = if summary.late_p90_us > 1000.0 {
        " (generator-limited)"
    } else {
        ""
    };
    notes.push(format!(
        "loadgen: sent {} ({achieved:.1}/s) after {} of warm-up; sent late by p50 {:.0} us, p90 {:.0} us{limited}",
        load.samples.len(),
        load.warmup_sent.iter().sum::<usize>(),
        summary.late_p50_us,
        summary.late_p90_us,
    ));

    Ok(Results {
        metrics: common_metrics(
            &summary,
            &setup_secs,
            &train_rates,
            &ranks,
            workload.recall_floor,
        )?,
        attempted: load.samples.len() + check_requests,
        failed: summary.failed,
        notes,
    })
}

/// What one cycle measured.
struct Cycle {
    submits: Vec<Sample>,
    diagnoses: Vec<Sample>,
    train_rate: f64,
    ranks: Vec<usize>,
}

/// One cycle: a fresh service, every probe submitted, one generation trained
/// and published, the run's traffic diagnosed (timed) and then every held-out
/// probe (for recall).
fn train_cycle(
    workload: &Workload,
    world: &setup::World,
    probes: Vec<setup::Sample>,
    traffic: &[setup::Sample],
    held_out: &[(setup::Sample, usize)],
    epoch: Instant,
) -> Result<Cycle, String> {
    let state = setup::new_service(world, setup::model_config(workload));
    let metrics_before = layers::metrics_text();

    let start_ns = epoch.elapsed().as_nanos() as u64;
    let submits: Vec<Sample> = setup::submit_all(&state, probes)?
        .into_iter()
        .map(|latency_ns| Sample {
            kind: Kind::Submit,
            start_ns,
            latency_ns,
            late_ns: 0,
            ok: true,
        })
        .collect();

    let report = setup::train(&state)?;

    let mut diagnoses = Vec::with_capacity(traffic.len());
    for probe in traffic {
        let call = Instant::now();
        layers::diagnose_in_process(&state, probe)?;
        diagnoses.push(Sample {
            kind: Kind::Diagnose,
            start_ns: call.duration_since(epoch).as_nanos() as u64,
            latency_ns: call.elapsed().as_nanos() as u64,
            late_ns: 0,
            ok: true,
        });
    }
    let mut ranks = Vec::with_capacity(held_out.len());
    for (probe, cause) in held_out {
        ranks.push(rank_of(
            &layers::diagnose_in_process(&state, probe)?,
            *cause,
        ));
    }

    let accepted_in = |text: &str| {
        prom::sum(
            text,
            "diagnet_submissions_total",
            &[("outcome", "accepted")],
        )
    };
    let accepted = accepted_in(&layers::metrics_text()) - accepted_in(&metrics_before);
    if accepted != submits.len() as f64 || report.n_samples != submits.len() {
        return Err(format!(
            "{} probes submitted, {accepted} counted as accepted, {} trained on",
            submits.len(),
            report.n_samples
        ));
    }
    Ok(Cycle {
        submits,
        diagnoses,
        train_rate: report.n_samples as f64 / report.duration_secs,
        ranks,
    })
}

/// A cycle's calls are cut into this many windows, each with its share of
/// the submits and of the diagnoses.
const WINDOWS_PER_CYCLE: usize = 5;

/// Probes of the run's traffic that a cycle diagnoses.
const DIAGNOSED_PER_CYCLE: usize = 1000;

fn train_run(workload: &Workload, seed: u64, measure: Duration) -> Result<Results, String> {
    let mut setup_secs = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let begin = Instant::now();
        let world = setup::world();
        let probes = setup::training_probes(&world, workload)?;
        let mut traffic = setup::traffic_probes(&world, seed)?;
        traffic.truncate(DIAGNOSED_PER_CYCLE);
        let held_out = setup::held_out(&world)?;
        inputs = Some((world, probes, traffic, held_out));
        setup_secs.push(begin.elapsed().as_secs_f64());
    }
    let (world, probes, traffic, held_out) = inputs.expect("SETUPS is at least one");

    let epoch = Instant::now();
    let mut cycles: Vec<Cycle> = Vec::new();
    while cycles.is_empty() || epoch.elapsed() < measure {
        let cycle = train_cycle(workload, &world, probes.clone(), &traffic, &held_out, epoch)?;
        if cycles
            .first()
            .is_some_and(|first| first.ranks != cycle.ranks)
        {
            return Err(
                "two cycles on the same probes ranked the held-out probes differently".to_string(),
            );
        }
        cycles.push(cycle);
    }
    // A window's time is the time its calls took: nothing else runs between
    // them that the caller of `submit` or `diagnose` would wait for.
    let mixed: Vec<Vec<Sample>> = cycles
        .iter()
        .flat_map(|cycle| {
            let part = |samples: &[Sample], k: usize| {
                let size = samples.len().div_ceil(WINDOWS_PER_CYCLE).max(1);
                samples.chunks(size).nth(k).unwrap_or_default().to_vec()
            };
            (0..WINDOWS_PER_CYCLE)
                .map(move |k| [part(&cycle.submits, k), part(&cycle.diagnoses, k)].concat())
        })
        .collect();
    let windows: Vec<Window<'_>> = mixed
        .iter()
        .map(|samples| Window {
            samples,
            seconds: samples.iter().map(|s| s.latency_ns).sum::<u64>() as f64 / 1e9,
        })
        .collect();
    let summary = summarize(&windows, workload.slo)?;
    let train_rates: Vec<f64> = cycles.iter().map(|c| c.train_rate).collect();
    let notes = vec![
        tail_note(&summary),
        format!(
            "{} cycles in {:.1} s",
            cycles.len(),
            epoch.elapsed().as_secs_f64()
        ),
    ];
    Ok(Results {
        metrics: common_metrics(
            &summary,
            &setup_secs,
            &train_rates,
            &cycles[0].ranks,
            workload.recall_floor,
        )?,
        attempted: summary.sent,
        failed: summary.failed,
        notes,
    })
}
