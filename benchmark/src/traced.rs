//! A run of one workload with tracing on: the workload's model is set up
//! once, one connection sends each request shape in a closed loop to learn
//! what a client sees, and then the same request bytes are replayed in this
//! process, on one thread, through each layer's entry points with a span
//! around every call. End-to-end metrics are never taken from here.

use crate::client::{get, Conn};
use crate::run::{Reported, Results};
use crate::spec::{Shape, Source, Workload, PER_LAYER};
use crate::stats::percentile_sorted;
use crate::trace::Tracer;
use crate::{layers, prom, setup};
use std::time::{Duration, Instant};

/// Calls per timed entry point: single-probe calls, and 64-probe calls.
const SINGLES: usize = 2000;
const BATCHES: usize = 200;
/// Unrecorded calls before each.
const WARMUP_CALLS: usize = 100;
/// Corrupt submits sent over the wire, which the server must count rejected.
const CORRUPT: usize = 32;

/// Where the spans are written: `out/` beside the benchmark's `Cargo.toml`.
const TRACE_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace.json");

/// Sends `requests` round robin `count` times (after a warm-up) on one
/// connection, closed loop, and adds what it sent to `sent`; the median round
/// trip in microseconds.
fn client_p50_us(
    conn: &mut Conn,
    requests: &[Vec<u8>],
    count: usize,
    expect: u16,
    sent: &mut usize,
) -> Result<f64, String> {
    let mut took = Vec::with_capacity(count);
    for i in 0..WARMUP_CALLS.min(count) + count {
        let begin = Instant::now();
        match conn.roundtrip(&requests[i % requests.len()]) {
            Ok((status, _)) if status == expect => took.push(begin.elapsed().as_nanos() as u64),
            Ok((status, _)) => {
                return Err(format!("a traced request answered {status}, not {expect}"))
            }
            Err(e) => return Err(format!("a traced request failed: {e}")),
        }
    }
    *sent += took.len();
    let mut measured = took.split_off(WARMUP_CALLS.min(count));
    measured.sort_unstable();
    Ok(percentile_sorted(&measured, 50.0).ok_or("no traced request")? as f64 / 1e3)
}

pub fn run(workload: &Workload, seed: u64, measure: Duration) -> Result<Results, String> {
    // No loop of timed calls may take more than this share of the run.
    let budget = measure / 10;
    let serving_batch = match workload.shape {
        Shape::Serve { batch, .. } => batch,
        Shape::Train { .. } => 1,
    };
    let live = setup::go_live(workload, seed, 1)?;
    let singles = &live.traffic.pool.requests;
    let batches = setup::traffic(&live.world, seed, 64)?.pool;
    let rows: Vec<Vec<f32>> = live
        .traffic
        .samples
        .iter()
        .map(|s| s.features.clone())
        .collect();

    // What one client sees, one request at a time.
    let before = get(live.addr, "/metrics")?;
    let mut conn = Conn::new(live.addr);
    // The first scrape counts itself only after it was rendered.
    let mut sent = 1;
    let client_single = client_p50_us(&mut conn, &singles[0], SINGLES, 200, &mut sent)?;
    let client_batch = client_p50_us(&mut conn, &batches.requests[0], BATCHES, 200, &mut sent)?;
    let client_submit = client_p50_us(&mut conn, &singles[1], SINGLES, 200, &mut sent)?;
    let mut corrupt_sent = 0;
    client_p50_us(&mut conn, &singles[2], CORRUPT, 400, &mut corrupt_sent)?;
    sent += corrupt_sent;
    drop(conn);
    let after = get(live.addr, "/metrics")?;

    // The same bytes through each layer, in this process.
    let mut tracer = Tracer::new();
    let state = &live.state;
    for i in 0..WARMUP_CALLS + SINGLES {
        if i == WARMUP_CALLS {
            tracer = Tracer::new();
        }
        let at = i % singles[0].len();
        layers::replay_diagnose(&mut tracer, state, &singles[0][at], false)?;
        layers::replay_submit(
            &mut tracer,
            state,
            &singles[1][at],
            &live.traffic.samples[at],
        )?;
    }
    for i in 0..BATCHES {
        layers::replay_diagnose(
            &mut tracer,
            state,
            &batches.requests[0][i % batches.requests[0].len()],
            true,
        )?;
    }
    layers::time_short_calls(&mut tracer, state, &live.traffic.samples, budget);
    layers::time_scrape(&mut tracer, state, budget)?;
    let diagnet = layers::time_backends(
        &mut tracer,
        &live.world,
        &setup::model_config(workload),
        &rows,
        budget,
    )?;
    layers::time_nn(
        &mut tracer,
        diagnet.as_ref(),
        &live.world.schema,
        &rows,
        budget,
    )?;
    layers::time_sim(&mut tracer, &live.world)?;

    std::fs::create_dir_all(
        std::path::Path::new(TRACE_FILE)
            .parent()
            .expect("the file has a directory"),
    )
    .and_then(|()| std::fs::write(TRACE_FILE, tracer.to_json()))
    .map_err(|e| format!("writing {TRACE_FILE}: {e}"))?;

    let p50 = |span: &str| {
        tracer
            .p50_us(span)
            .ok_or_else(|| format!("no span `{span}` was recorded"))
    };
    let delta = |name: &str, labels: &[(&str, &str)]| {
        prom::sum(&after, name, labels) - prom::sum(&before, name, labels)
    };
    let span_mean_us = |span: &str| {
        prom::mean_between(
            &before,
            &after,
            "diagnet_span_duration_seconds",
            &[("span", span)],
        )
        .map_or(0.0, |s| s * 1e6)
    };
    // What the socket adds: the client's round trip less what a worker does
    // for the request between reading and writing it.
    let worker_single = p50("server.http.read_request")?
        + p50("server.router.dispatch_diagnose")?
        + p50("server.http.write_response")?;
    let worker_batch = p50("server.http.read_request_batch64")?
        + p50("server.router.dispatch_diagnose_batch64")?
        + p50("server.http.write_response_batch64")?;
    let batch_backend = p50("core.backend.rank_causes_batch64")?;
    let computed = |name: &str| -> Result<f64, String> {
        Ok(match name {
            "server.socket.residual_us" => client_single - worker_single,
            "server.socket.residual_batch64_us" => client_batch - worker_batch,
            "server.socket.residual_submit_us" => {
                client_submit - p50("server.router.dispatch_submit")?
            }
            "server.http.requests_handled" => delta("diagnet_http_requests_total", &[]),
            "server.http.conn_rejected" => {
                delta("diagnet_http_connections_total", &[("outcome", "rejected")])
            }
            "platform.retrain.s" => live.train.duration_secs,
            "platform.submit.rejected" => {
                delta("diagnet_submissions_total", &[("outcome", "rejected")])
            }
            "platform.submit.shed" => delta("diagnet_submissions_total", &[("outcome", "shed")]),
            "core.backend.rank_causes_batch64.us_per_row" => batch_backend / 64.0,
            "core.span.rank_causes.mean_us" => span_mean_us("core.rank_causes"),
            "core.span.normalize.mean_us" => span_mean_us("core.normalize"),
            "core.span.forward.mean_us" => span_mean_us("core.forward"),
            "core.span.attention_backward.mean_us" => span_mean_us("core.attention_backward"),
            "core.span.fine_rank.mean_us" => span_mean_us("core.fine_rank"),
            "sim.dataset.generate.probes_per_s" => 1e6 / p50("sim.dataset.generate")?,
            "client.diagnose.p50_us" => client_single,
            "client.diagnose_batch64.p50_us" => client_batch,
            "client.submit.p50_us" => client_submit,
            other => return Err(format!("no rule computes `{other}`")),
        })
    };
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for (metric, source) in &PER_LAYER {
        let value = match *source {
            Source::SpanP50 { span, scale } => p50(span)? * scale,
            Source::SpanSelf(span) => tracer
                .self_p50_us(span)
                .ok_or_else(|| format!("no span `{span}` was recorded"))?,
            Source::Computed => computed(metric.name)?,
        };
        metrics.push((
            metric.name,
            Reported {
                value,
                samples: 1,
                spread: None,
            },
        ));
    }

    if delta("diagnet_http_requests_total", &[]) != sent as f64
        || delta("diagnet_submissions_total", &[("outcome", "rejected")]) != corrupt_sent as f64
    {
        return Err(format!(
            "the server counted {} requests of {sent} sent and {} rejected submits of {} corrupt sent",
            delta("diagnet_http_requests_total", &[]),
            delta("diagnet_submissions_total", &[("outcome", "rejected")]),
            corrupt_sent
        ));
    }

    // How the layers add up to what the client saw, for the request shape the
    // workload serves.
    let (shape, client, worker, backend) = if serving_batch == 64 {
        (
            "64-probe diagnose",
            client_batch,
            worker_batch,
            batch_backend,
        )
    } else {
        (
            "single diagnose",
            client_single,
            worker_single,
            p50("core.backend.rank_causes")?,
        )
    };
    let notes = vec![
        format!(
            "{shape}: read + dispatch + write {worker:.1} us + socket residual {:.1} us = client p50 {client:.1} us; core is {:.0}% of it",
            client - worker,
            100.0 * backend / client
        ),
        format!(
            "core's own batch spans sum to {:.1} us; core.backend.rank_causes_batch64 p50 is {batch_backend:.1} us",
            ["core.normalize", "core.forward", "core.attention_backward", "core.fine_rank"]
                .iter()
                .map(|s| span_mean_us(s))
                .sum::<f64>()
        ),
        format!("{} spans written to {TRACE_FILE}", tracer.len()),
    ];
    Ok(Results {
        metrics,
        attempted: sent + WARMUP_CALLS + 2 * SINGLES + BATCHES,
        failed: 0,
        notes,
    })
}
