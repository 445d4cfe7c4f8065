//! What the benchmark runs and what it reports: the four workloads and the
//! two metric tables. `BENCHMARK.json` at the root of the repository lists
//! the same names; a test keeps the two in step.

use crate::loadgen::{Mix, Pacing};
use std::time::Duration;

/// Which of the product's two stock model configurations a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSize {
    /// `DiagNetConfig::paper()`: the model is most of a request.
    Paper,
    /// `DiagNetConfig::fast()`: the model is a small part of a request.
    Fast,
}

#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// The real server on a loopback port, driven over sockets.
    Serve {
        pacing: Pacing,
        mix: Mix,
        /// Probes in one diagnose request.
        batch: usize,
    },
    /// No server: probes are submitted, one generation is trained with a
    /// fixed number of epochs and published, and the held-out probes are
    /// diagnosed, all through `AnalysisService` in this process.
    Train { epochs: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub model: ModelSize,
    /// Simulated scenarios (100 probes each) the served model is trained on.
    pub scenarios: usize,
    pub shape: Shape,
    /// A request that is not answered correctly within this long of being
    /// due counts against `slo_ok_frac`.
    pub slo: Duration,
    /// Lowest acceptable `recall_at_1` and `recall_at_3`; below them the run
    /// fails its correctness check.
    pub recall_floor: (f64, f64),
}

/// Connections and generator threads: no more than the two cores this
/// repository is built and measured on.
pub const CONNECTIONS: usize = 2;

/// Warm-up before the measured time of a serving workload.
pub const WARMUP: Duration = Duration::from_secs(1);

/// The measured time is cut into this many equal windows. Many short ones:
/// the machine is shared, and the quarter of them it disturbed least is what
/// the latencies are taken from.
pub const WINDOWS: usize = 20;

/// How often a run repeats its set-up to report the median.
pub const SETUPS: usize = 3;

/// Seed of the scenarios the model is trained on and of its initialisation,
/// in every run: the model is a fixture, so that its accuracy and the cost of
/// its forest do not change with `--seed`, which decides the traffic and the
/// held-out probes.
pub const MODEL_SEED: u64 = 42;

/// Scenarios of traffic rendered to request bytes.
pub const TRAFFIC_SCENARIOS: usize = 40;

/// Scenarios held out for recall. Probes of one scenario share its fault, so
/// one faulty probe is taken from each and accuracy is a mean over this many
/// independent faults.
pub const HELD_OUT_SCENARIOS: usize = 1000;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve-open",
        why: "Paper model, open loop at 800 rps (70% single diagnose, 28% submit, 2% corrupt): the model is most of a diagnose, so kernel work shows here, with ingest riding beside it.",
        model: ModelSize::Paper,
        scenarios: 40,
        shape: Shape::Serve {
            pacing: Pacing::Open { rps: 800.0 },
            mix: Mix {
                diagnose: 0.70,
                submit: 0.28,
            },
            batch: 1,
        },
        slo: Duration::from_millis(10),
        recall_floor: (0.50, 0.60),
    },
    Workload {
        name: "serve-batch",
        why: "Paper model, closed loop (80% 64-probe batch diagnoses, 20% submits): the fused batch kernel instead of per-row scoring, and the JSON codec at its heaviest.",
        model: ModelSize::Paper,
        scenarios: 40,
        shape: Shape::Serve {
            pacing: Pacing::Closed,
            mix: Mix {
                diagnose: 0.80,
                submit: 0.20,
            },
            batch: 64,
        },
        slo: Duration::from_millis(50),
        recall_floor: (0.50, 0.60),
    },
    Workload {
        name: "serve-edge",
        why: "Fast model, closed loop (60% single diagnose, 38% submit, 2% corrupt): bypasses the kernels, so HTTP, JSON, worker hand-off, gate and queue do the work; kernel changes should not move it.",
        model: ModelSize::Fast,
        scenarios: 20,
        shape: Shape::Serve {
            pacing: Pacing::Closed,
            mix: Mix {
                diagnose: 0.60,
                submit: 0.38,
            },
            batch: 1,
        },
        slo: Duration::from_millis(10),
        recall_floor: (0.30, 0.45),
    },
    Workload {
        name: "train-publish",
        why: "No server: 4000 probes submitted, a paper-model generation trained for a fixed epoch count and published, held-out probes diagnosed in-process; edge changes should not move it.",
        model: ModelSize::Paper,
        scenarios: 40,
        shape: Shape::Train { epochs: 5 },
        slo: Duration::from_millis(10),
        recall_floor: (0.50, 0.60),
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    #[cfg(test)]
    pub fn token(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse; only
    /// end-to-end metrics have one.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [Metric; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("diagnose_p50_us", "us", Better::Lower, 0.25),
    e2e("diagnose_p90_us", "us", Better::Lower, 0.25),
    e2e("submit_p50_us", "us", Better::Lower, 0.25),
    e2e("throughput_rps", "1/s", Better::Higher, 0.25),
    e2e("train_samples_per_s", "1/s", Better::Higher, 0.25),
    e2e("recall_at_1", "share", Better::Higher, 0.05),
    e2e("recall_at_3", "share", Better::Higher, 0.05),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10),
];

/// Where a per-layer metric's value comes from in a traced run.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// Median time of one call over the spans of this name, in microseconds
    /// times `scale`.
    SpanP50 { span: &'static str, scale: f64 },
    /// Median over the spans of this name of the span minus its children.
    SpanSelf(&'static str),
    /// Worked out by the traced run under the metric's own name.
    Computed,
}

const fn p50(name: &'static str, span: &'static str) -> (Metric, Source) {
    layer(
        name,
        "us",
        Better::Lower,
        Source::SpanP50 { span, scale: 1.0 },
    )
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
) -> (Metric, Source) {
    (
        Metric {
            name,
            unit,
            better,
            bound: None,
        },
        source,
    )
}

const fn seconds(name: &'static str, span: &'static str) -> (Metric, Source) {
    layer(
        name,
        "s",
        Better::Lower,
        Source::SpanP50 { span, scale: 1e-6 },
    )
}

const fn computed(name: &'static str, unit: &'static str, better: Better) -> (Metric, Source) {
    layer(name, unit, better, Source::Computed)
}

/// Single layers, layer = crate. They have no bound; a traced run of any
/// workload reports every one, on that workload's model and traffic.
pub const PER_LAYER: [(Metric, Source); 54] = [
    // server: HTTP framing, JSON codec, routing, and what the socket adds.
    p50(
        "server.http.read_request.p50_us",
        "server.http.read_request",
    ),
    p50(
        "server.http.read_request_batch64.p50_us",
        "server.http.read_request_batch64",
    ),
    p50(
        "server.http.write_response.p50_us",
        "server.http.write_response",
    ),
    p50(
        "server.http.write_response_batch64.p50_us",
        "server.http.write_response_batch64",
    ),
    p50("server.json.parse.p50_us", "server.json.parse"),
    p50(
        "server.json.parse_batch64.p50_us",
        "server.json.parse_batch64",
    ),
    p50("server.json.render.p50_us", "server.json.render"),
    p50(
        "server.json.render_batch64.p50_us",
        "server.json.render_batch64",
    ),
    p50(
        "server.router.dispatch_diagnose.p50_us",
        "server.router.dispatch_diagnose",
    ),
    p50(
        "server.router.dispatch_diagnose_batch64.p50_us",
        "server.router.dispatch_diagnose_batch64",
    ),
    p50(
        "server.router.dispatch_submit.p50_us",
        "server.router.dispatch_submit",
    ),
    layer(
        "server.router.dispatch_diagnose.self_us",
        "us",
        Better::Lower,
        Source::SpanSelf("server.router.dispatch_diagnose"),
    ),
    layer(
        "server.router.dispatch_diagnose_batch64.self_us",
        "us",
        Better::Lower,
        Source::SpanSelf("server.router.dispatch_diagnose_batch64"),
    ),
    layer(
        "server.router.dispatch_submit.self_us",
        "us",
        Better::Lower,
        Source::SpanSelf("server.router.dispatch_submit"),
    ),
    computed("server.socket.residual_us", "us", Better::Lower),
    computed("server.socket.residual_batch64_us", "us", Better::Lower),
    computed("server.socket.residual_submit_us", "us", Better::Lower),
    computed("server.http.requests_handled", "count", Better::Higher),
    computed("server.http.conn_rejected", "count", Better::Lower),
    // platform: the analysis service, its gate and its registry.
    p50(
        "platform.service.diagnose.p50_us",
        "platform.service.diagnose",
    ),
    layer(
        "platform.service.diagnose.self_us",
        "us",
        Better::Lower,
        Source::SpanSelf("platform.service.diagnose"),
    ),
    p50(
        "platform.service.diagnose_batch64.p50_us",
        "platform.service.diagnose_batch64",
    ),
    p50("platform.service.submit.p50_us", "platform.service.submit"),
    p50("platform.gate.check.p50_us", "platform.gate.check"),
    p50(
        "platform.registry.model_for.p50_us",
        "platform.registry.model_for",
    ),
    computed("platform.retrain.s", "s", Better::Lower),
    computed("platform.submit.rejected", "count", Better::Lower),
    computed("platform.submit.shed", "count", Better::Lower),
    // core: the served backend, and its own stage spans read from /metrics.
    p50(
        "core.backend.rank_causes.p50_us",
        "core.backend.rank_causes",
    ),
    p50(
        "core.backend.rank_causes_batch64.p50_us",
        "core.backend.rank_causes_batch64",
    ),
    computed(
        "core.backend.rank_causes_batch64.us_per_row",
        "us",
        Better::Lower,
    ),
    seconds("core.backend.train.s", "core.backend.train"),
    computed("core.span.rank_causes.mean_us", "us", Better::Lower),
    computed("core.span.normalize.mean_us", "us", Better::Lower),
    computed("core.span.forward.mean_us", "us", Better::Lower),
    computed("core.span.attention_backward.mean_us", "us", Better::Lower),
    computed("core.span.fine_rank.mean_us", "us", Better::Lower),
    // nn: the network's calls and the first dense layer's matrix products.
    p50("nn.network.forward_b1.p50_us", "nn.network.forward_b1"),
    p50("nn.network.forward_b64.p50_us", "nn.network.forward_b64"),
    p50(
        "nn.network.input_gradient_b64.p50_us",
        "nn.network.input_gradient_b64",
    ),
    p50(
        "nn.linalg.matmul_1x317x512.p50_us",
        "nn.linalg.matmul_1x317x512",
    ),
    p50(
        "nn.linalg.matmul_64x317x512.p50_us",
        "nn.linalg.matmul_64x317x512",
    ),
    // forest and bayes: the baselines (the forest is also DiagNet's auxiliary).
    p50(
        "forest.backend.rank_causes.p50_us",
        "forest.backend.rank_causes",
    ),
    p50(
        "forest.backend.rank_causes_batch64.p50_us",
        "forest.backend.rank_causes_batch64",
    ),
    seconds("forest.backend.train.s", "forest.backend.train"),
    p50(
        "bayes.backend.rank_causes.p50_us",
        "bayes.backend.rank_causes",
    ),
    p50(
        "bayes.backend.rank_causes_batch64.p50_us",
        "bayes.backend.rank_causes_batch64",
    ),
    seconds("bayes.backend.train.s", "bayes.backend.train"),
    // sim and obs.
    computed("sim.dataset.generate.probes_per_s", "1/s", Better::Higher),
    layer(
        "obs.histogram.observe.ns",
        "ns",
        Better::Lower,
        Source::SpanP50 {
            span: "obs.histogram.observe",
            scale: 1e3,
        },
    ),
    p50("obs.metrics.scrape.p50_us", "obs.metrics.scrape"),
    // The one-connection client the residuals are taken against.
    computed("client.diagnose.p50_us", "us", Better::Lower),
    computed("client.diagnose_batch64.p50_us", "us", Better::Lower),
    computed("client.submit.p50_us", "us", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Json;

    fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("an entry lacks `{key}`"))
    }

    /// `BENCHMARK.json` is what the driver reads and this file is what the
    /// program prints: they must list the same things.
    #[test]
    fn benchmark_json_lists_what_the_code_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("no `{key}`"))
        };

        let workloads: Vec<(&str, &str)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|w| (w.name, w.why)));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));

        let end_to_end: Vec<(&str, &str, &str, Option<f64>)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect();
        assert_eq!(
            end_to_end,
            END_TO_END.map(|m| (m.name, m.unit, m.better.token(), m.bound))
        );
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));

        let per_layer: Vec<(&str, &str, &str)> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        assert_eq!(
            per_layer,
            PER_LAYER.map(|(m, _)| (m.name, m.unit, m.better.token()))
        );
    }
}
