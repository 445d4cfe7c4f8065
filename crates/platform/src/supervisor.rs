//! Training supervision: crash isolation, wall-clock budgets, retries.
//!
//! A training generation is the platform's most fragile moving part — it
//! runs arbitrary numeric code over attacker-adjacent data. The
//! supervisor wraps every generation (synchronous `retrain_now`,
//! `auto_retrain_every`, and the background [`RetrainWorker`]) so that no
//! training failure mode reaches the request path:
//!
//! * **panics** are caught with `catch_unwind` and converted into
//!   [`TrainFailure::Panicked`];
//! * **stalls** are bounded by an optional wall-clock budget — the attempt
//!   runs on its own thread and is abandoned (not killed: safe Rust
//!   cannot kill a thread) when the budget elapses; an abandoned attempt
//!   checks its flag before publishing, so a late finish cannot clobber
//!   the registry;
//! * **transient failures** (panic/timeout) are retried up to
//!   [`SupervisionConfig::max_attempts`] with exponential backoff and
//!   deterministic jitter; training *errors* ([`NnError`]) are
//!   deterministic in the data and seed, so they fail fast;
//! * on persistent failure the registry keeps serving its **last-good
//!   generation** and the [`HealthMonitor`] flips to `Degraded`.
//!
//! [`RetrainWorker`]: crate::trainer::RetrainWorker

use crate::collector::ProbeCollector;
use crate::health::HealthMonitor;
use crate::registry::ModelRegistry;
use crate::trainer::{build_generation, GenerationPublisher, TrainPipeline, TrainReport};
use crate::trainer::{RETRAIN_DURATION_SECONDS, RETRAIN_TOTAL};
use diagnet_nn::error::NnError;
use diagnet_rng::SplitMix64;
use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Name of the counter of retrain retries (label `backend`).
pub const RETRAIN_RETRIES_TOTAL: &str = "diagnet_retrain_retries_total";
/// Name of the counter of failed retrain attempts (labels `backend`,
/// `kind`: `panic`/`timeout`/`error`/`spawn`).
pub const RETRAIN_FAILURES_TOTAL: &str = "diagnet_retrain_failures_total";

/// Supervision tuning for training generations.
#[derive(Debug, Clone)]
pub struct SupervisionConfig {
    /// Maximum attempts per generation (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Wall-clock budget per attempt; `None` lets an attempt run
    /// unbounded on the calling thread.
    pub budget: Option<Duration>,
    /// Seed of the deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        SupervisionConfig {
            max_attempts: 3,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            budget: None,
            jitter_seed: 0x5EED_BACC,
        }
    }
}

/// Why a supervised retrain gave up.
#[derive(Debug)]
pub enum TrainFailure {
    /// Every attempt panicked; holds the last panic message.
    Panicked(String),
    /// Every attempt exceeded the wall-clock budget.
    TimedOut(Duration),
    /// Training returned a deterministic error (not retried).
    Error(NnError),
    /// The supervisor was cancelled (worker shutdown) before finishing.
    Cancelled,
    /// The OS refused to spawn the attempt thread (resource pressure).
    Spawn(String),
}

impl fmt::Display for TrainFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainFailure::Panicked(msg) => write!(f, "training panicked: {msg}"),
            TrainFailure::TimedOut(budget) => {
                write!(f, "training exceeded its {:?} budget", budget)
            }
            TrainFailure::Error(e) => write!(f, "training failed: {e}"),
            TrainFailure::Cancelled => f.write_str("training cancelled by shutdown"),
            TrainFailure::Spawn(msg) => write!(f, "cannot spawn training thread: {msg}"),
        }
    }
}

impl std::error::Error for TrainFailure {}

impl TrainFailure {
    /// Metric-label token of this failure kind.
    pub fn token(&self) -> &'static str {
        match self {
            TrainFailure::Panicked(_) => "panic",
            TrainFailure::TimedOut(_) => "timeout",
            TrainFailure::Error(_) => "error",
            TrainFailure::Cancelled => "cancelled",
            TrainFailure::Spawn(_) => "spawn",
        }
    }

    /// Transient failures are worth retrying; training errors are
    /// deterministic in the data and seed, so retrying them only delays
    /// the degraded verdict.
    fn retryable(&self) -> bool {
        matches!(
            self,
            TrainFailure::Panicked(_) | TrainFailure::TimedOut(_) | TrainFailure::Spawn(_)
        )
    }
}

/// Backoff before retry number `retry` (1-based): exponential from
/// [`SupervisionConfig::base_backoff`], capped at
/// [`SupervisionConfig::max_backoff`], with deterministic jitter in
/// `[delay/2, delay)` derived from the jitter seed — reproducible runs,
/// no synchronised retry stampede across workers with different seeds.
pub fn backoff_delay(config: &SupervisionConfig, retry: u32) -> Duration {
    let doublings = retry.saturating_sub(1).min(16);
    let exp = config
        .base_backoff
        .saturating_mul(1u32 << doublings)
        .min(config.max_backoff);
    let frac =
        SplitMix64::derive(config.jitter_seed, retry as u64) as f64 / (u64::MAX as f64 + 1.0);
    exp.div_f64(2.0) + exp.div_f64(2.0).mul_f64(frac)
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        (*msg).to_string()
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Sleep `delay` in slices, returning early when `cancel` flips.
fn sleep_cancellable(delay: Duration, cancel: &AtomicBool) {
    let slice = Duration::from_millis(10);
    let mut remaining = delay;
    while remaining > Duration::ZERO {
        if cancel.load(Ordering::Relaxed) {
            return;
        }
        let step = remaining.min(slice);
        std::thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
}

/// One crash-isolated attempt: build the generation, then (unless the
/// budget already expired) validate and publish it.
fn attempt_once(
    collector: &ProbeCollector,
    publisher: &dyn GenerationPublisher,
    pipeline: &dyn TrainPipeline,
    seed: u64,
    abandoned: Option<&AtomicBool>,
) -> Result<TrainReport, NnError> {
    let pending = build_generation(collector, pipeline, seed)?;
    if abandoned.is_some_and(|a| a.load(Ordering::Acquire)) {
        return Err(NnError::InvalidConfig(
            "training attempt abandoned after budget timeout".into(),
        ));
    }
    publisher.publish_pending(pending)
}

fn flatten(
    outcome: Result<Result<TrainReport, NnError>, Box<dyn Any + Send>>,
) -> Result<TrainReport, TrainFailure> {
    match outcome {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(e)) => Err(TrainFailure::Error(e)),
        Err(payload) => Err(TrainFailure::Panicked(panic_message(payload))),
    }
}

fn run_attempt(
    collector: &Arc<ProbeCollector>,
    publisher: &Arc<dyn GenerationPublisher>,
    pipeline: &Arc<dyn TrainPipeline>,
    budget: Option<Duration>,
    seed: u64,
) -> Result<TrainReport, TrainFailure> {
    let Some(budget) = budget else {
        return flatten(catch_unwind(AssertUnwindSafe(|| {
            attempt_once(collector, publisher.as_ref(), pipeline.as_ref(), seed, None)
        })));
    };
    let abandoned = Arc::new(AtomicBool::new(false));
    let (tx, rx) = std::sync::mpsc::channel();
    let (c, r, p, a) = (
        Arc::clone(collector),
        Arc::clone(publisher),
        Arc::clone(pipeline),
        Arc::clone(&abandoned),
    );
    let spawned = std::thread::Builder::new()
        .name("diagnet-retrain-attempt".into())
        .spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                attempt_once(&c, r.as_ref(), p.as_ref(), seed, Some(&a))
            }));
            let _ = tx.send(outcome);
        });
    let handle = match spawned {
        Ok(handle) => handle,
        // Thread creation is the one supervised step that can fail before
        // any training code runs; treat it like the other transient
        // failures instead of panicking on the serving path.
        Err(e) => return Err(TrainFailure::Spawn(e.to_string())),
    };
    match rx.recv_timeout(budget) {
        Ok(outcome) => {
            let _ = handle.join();
            flatten(outcome)
        }
        Err(_) => {
            // Detach the stalled attempt; it will observe `abandoned`
            // before publishing, so a late finish cannot publish.
            abandoned.store(true, Ordering::Release);
            Err(TrainFailure::TimedOut(budget))
        }
    }
}

/// Run one training generation under full supervision: crash isolation,
/// optional per-attempt budget, retry-with-backoff on transient failures,
/// health bookkeeping. On `Err` the registry still serves whatever it
/// served before — the last-good generation.
pub fn supervised_retrain(
    collector: &Arc<ProbeCollector>,
    registry: &Arc<ModelRegistry>,
    pipeline: &Arc<dyn TrainPipeline>,
    supervision: &SupervisionConfig,
    health: &HealthMonitor,
    seed: u64,
    cancel: &AtomicBool,
) -> Result<TrainReport, TrainFailure> {
    let publisher: Arc<dyn GenerationPublisher> = Arc::clone(registry) as _;
    supervised_retrain_with(
        collector,
        &publisher,
        pipeline,
        supervision,
        health,
        seed,
        cancel,
    )
}

/// [`supervised_retrain`] generalised over the publish seam
/// ([`GenerationPublisher`]): the lifecycle manager substitutes itself so
/// every supervised generation is canaried and persisted.
pub fn supervised_retrain_with(
    collector: &Arc<ProbeCollector>,
    publisher: &Arc<dyn GenerationPublisher>,
    pipeline: &Arc<dyn TrainPipeline>,
    supervision: &SupervisionConfig,
    health: &HealthMonitor,
    seed: u64,
    cancel: &AtomicBool,
) -> Result<TrainReport, TrainFailure> {
    let _span = diagnet_obs::span("platform.retrain.supervised");
    let obs = diagnet_obs::global();
    let backend = pipeline.kind().token();
    let mut attempt = 0u32;
    loop {
        if cancel.load(Ordering::Relaxed) {
            return Err(TrainFailure::Cancelled);
        }
        let timer = obs
            .histogram(
                RETRAIN_DURATION_SECONDS,
                &[("backend", backend)],
                "wall-clock duration of one training generation",
            )
            .start_timer();
        let result = run_attempt(collector, publisher, pipeline, supervision.budget, seed);
        timer.stop();
        let outcome = if result.is_ok() { "ok" } else { "error" };
        obs.counter(
            RETRAIN_TOTAL,
            &[("backend", backend), ("outcome", outcome)],
            "retrain attempts by outcome",
        )
        .inc();
        match result {
            Ok(report) => {
                health.record_success();
                return Ok(report);
            }
            Err(failure) => {
                obs.counter(
                    RETRAIN_FAILURES_TOTAL,
                    &[("backend", backend), ("kind", failure.token())],
                    "failed retrain attempts by failure kind",
                )
                .inc();
                attempt += 1;
                if !failure.retryable() || attempt >= supervision.max_attempts {
                    health.record_failure(failure.to_string(), publisher.has_model());
                    return Err(failure);
                }
                obs.counter(
                    RETRAIN_RETRIES_TOTAL,
                    &[("backend", backend)],
                    "retrain retries after transient failures",
                )
                .inc();
                sleep_cancellable(backoff_delay(supervision, attempt), cancel);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{Generation, StandardPipeline};
    use diagnet::backend::{BackendConfig, BackendKind};
    use diagnet::config::DiagNetConfig;
    use diagnet_sim::dataset::{Dataset, DatasetConfig};
    use diagnet_sim::metrics::FeatureSchema;
    use diagnet_sim::world::World;
    use std::sync::atomic::AtomicU32;

    fn fast_pipeline(world: &World) -> Arc<dyn TrainPipeline> {
        let mut model = DiagNetConfig::fast();
        model.epochs = 2;
        model.forest.n_trees = 5;
        Arc::new(StandardPipeline {
            kind: BackendKind::DiagNet,
            config: BackendConfig::from_diagnet(model),
            general_services: world.catalog.general_ids(),
            min_service_samples: 1,
        })
    }

    fn loaded(seed: u64) -> (World, Arc<ProbeCollector>) {
        let world = World::new();
        let collector = Arc::new(ProbeCollector::new(100_000, FeatureSchema::full()));
        let mut cfg = DatasetConfig::small(&world, seed);
        cfg.n_scenarios = 15;
        for s in Dataset::generate(&world, &cfg).expect("generate").samples {
            collector.submit(s);
        }
        (world, collector)
    }

    /// A pipeline that fails `fail_first` times, then delegates.
    #[derive(Debug)]
    struct FlakyPipeline {
        inner: Arc<dyn TrainPipeline>,
        remaining: AtomicU32,
    }

    impl TrainPipeline for FlakyPipeline {
        fn kind(&self) -> BackendKind {
            self.inner.kind()
        }

        fn train_generation(&self, data: &Dataset, seed: u64) -> Result<Generation, NnError> {
            if self
                .remaining
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                panic!("flaky: injected failure");
            }
            self.inner.train_generation(data, seed)
        }
    }

    #[test]
    fn success_path_publishes_and_reports_serving() {
        let (world, collector) = loaded(101);
        let registry = Arc::new(ModelRegistry::new());
        let health = HealthMonitor::new();
        let report = supervised_retrain(
            &collector,
            &registry,
            &fast_pipeline(&world),
            &SupervisionConfig::default(),
            &health,
            101,
            &AtomicBool::new(false),
        )
        .unwrap();
        assert_eq!(report.version, 1);
        assert!(registry.is_ready());
        assert_eq!(health.state(), crate::health::HealthState::Serving);
    }

    #[test]
    fn panics_are_retried_until_recovery() {
        let (world, collector) = loaded(102);
        let registry = Arc::new(ModelRegistry::new());
        let health = HealthMonitor::new();
        let flaky: Arc<dyn TrainPipeline> = Arc::new(FlakyPipeline {
            inner: fast_pipeline(&world),
            remaining: AtomicU32::new(2),
        });
        let supervision = SupervisionConfig {
            base_backoff: Duration::from_millis(1),
            ..SupervisionConfig::default()
        };
        let report = supervised_retrain(
            &collector,
            &registry,
            &flaky,
            &supervision,
            &health,
            102,
            &AtomicBool::new(false),
        )
        .expect("third attempt recovers");
        assert_eq!(report.version, 1);
        assert_eq!(health.state(), crate::health::HealthState::Serving);
    }

    #[test]
    fn persistent_panics_degrade_without_touching_last_good() {
        let (world, collector) = loaded(103);
        let registry = Arc::new(ModelRegistry::new());
        let health = HealthMonitor::new();
        // Publish a good generation first.
        supervised_retrain(
            &collector,
            &registry,
            &fast_pipeline(&world),
            &SupervisionConfig::default(),
            &health,
            103,
            &AtomicBool::new(false),
        )
        .unwrap();
        let v1 = registry.version();
        let always_bad: Arc<dyn TrainPipeline> = Arc::new(FlakyPipeline {
            inner: fast_pipeline(&world),
            remaining: AtomicU32::new(u32::MAX),
        });
        let supervision = SupervisionConfig {
            base_backoff: Duration::from_millis(1),
            ..SupervisionConfig::default()
        };
        let failure = supervised_retrain(
            &collector,
            &registry,
            &always_bad,
            &supervision,
            &health,
            104,
            &AtomicBool::new(false),
        )
        .unwrap_err();
        assert!(matches!(failure, TrainFailure::Panicked(_)));
        assert_eq!(registry.version(), v1, "last-good generation untouched");
        assert!(matches!(
            health.state(),
            crate::health::HealthState::Degraded { .. }
        ));
    }

    /// The forest trains on a thread of its own inside `DiagNet::train`; a
    /// panic there must still reach the operator in its own words.
    #[test]
    fn a_panic_on_the_forest_thread_is_reported_with_its_own_message() {
        let (world, collector) = loaded(106);
        let mut model = DiagNetConfig::fast();
        model.epochs = 1;
        model.forest.n_trees = 0;
        let treeless: Arc<dyn TrainPipeline> = Arc::new(StandardPipeline {
            kind: BackendKind::DiagNet,
            config: BackendConfig::from_diagnet(model),
            general_services: world.catalog.general_ids(),
            min_service_samples: usize::MAX,
        });
        let supervision = SupervisionConfig {
            max_attempts: 1,
            ..SupervisionConfig::default()
        };
        let failure = supervised_retrain(
            &collector,
            &Arc::new(ModelRegistry::new()),
            &treeless,
            &supervision,
            &HealthMonitor::new(),
            106,
            &AtomicBool::new(false),
        )
        .unwrap_err();
        let TrainFailure::Panicked(message) = failure else {
            panic!("expected a panic, got {failure}");
        };
        assert!(message.contains("need at least one tree"), "{message}");
    }

    #[test]
    fn training_errors_fail_fast_without_retry() {
        let world = World::new();
        let empty = Arc::new(ProbeCollector::new(10, FeatureSchema::full()));
        let registry = Arc::new(ModelRegistry::new());
        let health = HealthMonitor::new();
        let t0 = std::time::Instant::now();
        let failure = supervised_retrain(
            &empty,
            &registry,
            &fast_pipeline(&world),
            &SupervisionConfig::default(),
            &health,
            105,
            &AtomicBool::new(false),
        )
        .unwrap_err();
        assert!(matches!(failure, TrainFailure::Error(_)));
        assert!(
            t0.elapsed() < Duration::from_millis(40),
            "deterministic errors must not back off"
        );
        assert_eq!(
            health.state(),
            crate::health::HealthState::NoModel,
            "no last-good generation to degrade onto"
        );
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let config = SupervisionConfig::default();
        let d1 = backoff_delay(&config, 1);
        assert_eq!(d1, backoff_delay(&config, 1), "deterministic");
        assert!(d1 >= config.base_backoff / 2 && d1 < config.base_backoff);
        let d2 = backoff_delay(&config, 2);
        assert!(d2 >= config.base_backoff, "exponential growth");
        let deep = backoff_delay(&config, 30);
        assert!(deep < config.max_backoff, "capped (jitter keeps it below)");
        let other_seed = SupervisionConfig {
            jitter_seed: 7,
            ..SupervisionConfig::default()
        };
        assert_ne!(
            backoff_delay(&other_seed, 1),
            d1,
            "different seeds desynchronise"
        );
    }
}
