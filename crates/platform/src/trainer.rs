//! Retraining orchestration.
//!
//! A training generation is split into composable stages so the
//! supervisor (see [`supervisor`](crate::supervisor)) can isolate each
//! one:
//!
//! * [`TrainPipeline`] — the strategy object that turns a snapshot of
//!   probe data into a [`Generation`] (general + specialised models).
//!   [`StandardPipeline`] is the production implementation for any
//!   [`BackendKind`]; the chaos harness wraps pipelines with fault
//!   injectors.
//! * [`build_generation`] — snapshot the collector and run the pipeline
//!   (the slow, crash-prone stage).
//! * [`publish_generation`] — the publish gate: every model of the
//!   generation must pass its [`Backend::validate`] health check (finite
//!   parameters, finite probe scores) before the registry swaps to it. A
//!   diverged generation is refused and the last-good version keeps
//!   serving.
//!
//! [`retrain_backend`] chains the stages synchronously; [`retrain`] is the
//! historic DiagNet-typed wrapper. [`RetrainWorker`] runs supervised
//! generations on a dedicated thread, triggered through a crossbeam
//! channel, so probe ingestion and diagnosis never block on training. The
//! worker shuts down promptly on `Drop`: a shutdown flag makes it skip any
//! queued retrain commands, and the thread is joined.

use crate::collector::ProbeCollector;
use crate::health::HealthMonitor;
use crate::registry::ModelRegistry;
use crate::supervisor::{supervised_retrain_with, SupervisionConfig, TrainFailure};
use diagnet::backend::{Backend, BackendConfig, BackendKind};
use diagnet::config::DiagNetConfig;
use diagnet::model::DiagNet;
use diagnet::transfer::SpecializedModels;
use diagnet_nn::error::NnError;
use diagnet_sim::dataset::Dataset;
use diagnet_sim::metrics::FeatureSchema;
use diagnet_sim::service::ServiceId;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Name of the retrain wall-clock histogram (label `backend`).
pub const RETRAIN_DURATION_SECONDS: &str = "diagnet_retrain_duration_seconds";
/// Name of the counter of retrain attempts (labels `backend`, `outcome`:
/// `ok`/`error`).
pub const RETRAIN_TOTAL: &str = "diagnet_retrain_total";

/// Outcome of one training generation.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Registry version the generation was published as.
    pub version: u64,
    /// Backend kind that was trained.
    pub backend: BackendKind,
    /// Samples used.
    pub n_samples: usize,
    /// Faulty samples among them.
    pub n_faulty: usize,
    /// Services that received a specialised model.
    pub specialized: Vec<ServiceId>,
    /// Wall-clock training duration, seconds.
    pub duration_secs: f64,
}

/// One trained (but not yet published) generation of models.
pub struct Generation {
    /// Backend kind of every model in the generation.
    pub backend: BackendKind,
    /// The general model.
    pub general: Arc<dyn Backend>,
    /// Per-service specialised models.
    pub specialized: BTreeMap<ServiceId, Arc<dyn Backend>>,
    /// Services that received a specialised model (sorted).
    pub specialized_ids: Vec<ServiceId>,
}

impl fmt::Debug for Generation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Generation")
            .field("backend", &self.backend)
            .field("specialized_ids", &self.specialized_ids)
            .finish_non_exhaustive()
    }
}

/// Strategy for training one generation from a data snapshot. The
/// production implementation is [`StandardPipeline`]; the chaos harness
/// decorates pipelines with fault injectors, and tests substitute
/// deterministic fakes.
pub trait TrainPipeline: Send + Sync + fmt::Debug {
    /// Backend kind this pipeline produces (metric labels, reports).
    fn kind(&self) -> BackendKind;

    /// Train a generation on `data` with `seed`.
    fn train_generation(&self, data: &Dataset, seed: u64) -> Result<Generation, NnError>;
}

/// The production pipeline: train the configured backend on the general
/// services and (for DiagNet) specialise every service with enough data.
#[derive(Debug, Clone)]
pub struct StandardPipeline {
    /// Which backend every generation trains.
    pub kind: BackendKind,
    /// Hyper-parameters for every backend kind.
    pub config: BackendConfig,
    /// Services the general model trains on.
    pub general_services: Vec<ServiceId>,
    /// Minimum samples before a service gets a specialised model.
    pub min_service_samples: usize,
}

impl TrainPipeline for StandardPipeline {
    fn kind(&self) -> BackendKind {
        self.kind
    }

    /// A DiagNet generation uses two cores while its general model
    /// trains: `DiagNet::train` fits the coarse network on the calling
    /// thread and the auxiliary forest on one scoped `std` thread
    /// (`diagnet-forest`, joined before the model is assembled; run inline
    /// if the OS refuses the thread). `SpecializedModels::train` then
    /// specialises the eligible services through rayon. Per-member seeds
    /// are derived by index, so a generation is bit-for-bit reproducible
    /// regardless of thread count.
    fn train_generation(&self, data: &Dataset, seed: u64) -> Result<Generation, NnError> {
        let general_data = data.filter_services(&self.general_services);
        if general_data.is_empty() {
            return Err(NnError::InvalidTrainingData(
                "no samples for any of the general services".into(),
            ));
        }

        if self.kind != BackendKind::DiagNet {
            // Baseline backends have no transfer learning: one general model.
            let general =
                self.kind
                    .train(&self.config, &general_data, &FeatureSchema::known(), seed)?;
            return Ok(Generation {
                backend: self.kind,
                general: Arc::from(general),
                specialized: BTreeMap::new(),
                specialized_ids: Vec::new(),
            });
        }

        let general = DiagNet::train(&self.config.diagnet, &general_data, seed)?;

        // Specialise every service with enough data.
        let mut present: Vec<ServiceId> = data.samples.iter().map(|s| s.service).collect();
        present.sort();
        present.dedup();
        let eligible: Vec<ServiceId> = present
            .into_iter()
            .filter(|&sid| data.filter_service(sid).len() >= self.min_service_samples)
            .collect();
        let suite = SpecializedModels::train(general, data, &eligible, seed ^ 0x7E7E)?;

        let specialized: BTreeMap<ServiceId, Arc<dyn Backend>> = suite
            .models
            .iter()
            .map(|(&sid, m)| (sid, Arc::new(m.clone()) as Arc<dyn Backend>))
            .collect();
        Ok(Generation {
            backend: BackendKind::DiagNet,
            general: Arc::new(suite.general),
            specialized,
            specialized_ids: eligible,
        })
    }
}

/// A trained generation plus the bookkeeping needed for its report.
#[derive(Debug)]
pub struct PendingGeneration {
    /// The models awaiting publication.
    pub generation: Generation,
    /// Samples in the training snapshot.
    pub n_samples: usize,
    /// Faulty samples among them.
    pub n_faulty: usize,
    /// When the build started (feeds `duration_secs`).
    pub started: Instant,
}

/// Snapshot the collector and run `pipeline` over it — the slow stage of
/// a generation. The collector is snapshotted, not drained: the sliding
/// window keeps accumulating.
pub fn build_generation(
    collector: &ProbeCollector,
    pipeline: &dyn TrainPipeline,
    seed: u64,
) -> Result<PendingGeneration, NnError> {
    let started = Instant::now();
    let data = collector.snapshot();
    if data.is_empty() {
        return Err(NnError::InvalidTrainingData("collector is empty".into()));
    }
    let n_samples = data.len();
    let n_faulty = data.n_faulty();
    let generation = pipeline.train_generation(&data, seed)?;
    Ok(PendingGeneration {
        generation,
        n_samples,
        n_faulty,
        started,
    })
}

/// The publish gate's test alone: health-check every model of the
/// generation ([`Backend::validate`]). A generation with non-finite
/// weights or scores is refused with a typed error. Shared by the classic
/// registry swap and the lifecycle's canary staging.
pub fn validate_generation(generation: &Generation) -> Result<(), NnError> {
    generation
        .general
        .validate()
        .map_err(|e| NnError::InvalidConfig(format!("refusing to publish general model: {e}")))?;
    for (sid, model) in &generation.specialized {
        model.validate().map_err(|e| {
            NnError::InvalidConfig(format!(
                "refusing to publish specialised model for service {}: {e}",
                sid.0
            ))
        })?;
    }
    Ok(())
}

/// The publish gate: health-check every model of the generation
/// ([`Backend::validate`]) and only then atomically swap the registry to
/// it. A generation with non-finite weights or scores is refused — the
/// registry keeps serving its last-good version.
pub fn publish_generation(
    registry: &ModelRegistry,
    pending: PendingGeneration,
) -> Result<TrainReport, NnError> {
    let PendingGeneration {
        generation,
        n_samples,
        n_faulty,
        started,
    } = pending;
    validate_generation(&generation)?;
    let version = registry.publish_backend(generation.general, generation.specialized);
    Ok(TrainReport {
        version,
        backend: generation.backend,
        n_samples,
        n_faulty,
        specialized: generation.specialized_ids,
        duration_secs: started.elapsed().as_secs_f64(),
    })
}

/// Where a supervised generation is published once trained: directly into
/// a [`ModelRegistry`] (the classic everything-swaps publish) or through a
/// [`GenerationLifecycle`](crate::rollout::GenerationLifecycle) that
/// stages it as a canary and persists it to the durable store.
pub trait GenerationPublisher: Send + Sync + fmt::Debug {
    /// Gate and publish a pending generation.
    fn publish_pending(&self, pending: PendingGeneration) -> Result<TrainReport, NnError>;

    /// True when some generation is currently serving (drives whether a
    /// training failure degrades health or leaves the service model-less).
    fn has_model(&self) -> bool;
}

impl GenerationPublisher for ModelRegistry {
    fn publish_pending(&self, pending: PendingGeneration) -> Result<TrainReport, NnError> {
        publish_generation(self, pending)
    }

    fn has_model(&self) -> bool {
        self.is_ready()
    }
}

/// Train one generation of `kind` from the collector's current contents
/// and publish it (unsupervised: panics propagate; use
/// [`supervised_retrain`] for crash isolation).
///
/// `general_services` picks the services the general model trains on
/// (paper: eight). When the backend supports specialisation (DiagNet),
/// specialised models are built for every service with at least
/// `min_service_samples` samples; other backends publish the general model
/// alone.
pub fn retrain_backend(
    collector: &ProbeCollector,
    registry: &ModelRegistry,
    kind: BackendKind,
    config: &BackendConfig,
    general_services: &[ServiceId],
    min_service_samples: usize,
    seed: u64,
) -> Result<TrainReport, NnError> {
    let _span = diagnet_obs::span("platform.retrain");
    let obs = diagnet_obs::global();
    let timer = obs
        .histogram(
            RETRAIN_DURATION_SECONDS,
            &[("backend", kind.token())],
            "wall-clock duration of one training generation",
        )
        .start_timer();
    let pipeline = StandardPipeline {
        kind,
        config: config.clone(),
        general_services: general_services.to_vec(),
        min_service_samples,
    };
    let result = build_generation(collector, &pipeline, seed)
        .and_then(|pending| publish_generation(registry, pending));
    timer.stop();
    let outcome = if result.is_ok() { "ok" } else { "error" };
    obs.counter(
        RETRAIN_TOTAL,
        &[("backend", kind.token()), ("outcome", outcome)],
        "retrain attempts by outcome",
    )
    .inc();
    result
}

/// DiagNet-typed wrapper over [`retrain_backend`], kept for call sites
/// that predate the backend abstraction.
pub fn retrain(
    collector: &ProbeCollector,
    registry: &ModelRegistry,
    config: &DiagNetConfig,
    general_services: &[ServiceId],
    min_service_samples: usize,
    seed: u64,
) -> Result<TrainReport, NnError> {
    retrain_backend(
        collector,
        registry,
        BackendKind::DiagNet,
        &BackendConfig::from_diagnet(config.clone()),
        general_services,
        min_service_samples,
        seed,
    )
}

/// Commands accepted by the background worker.
enum Command {
    Retrain { seed: u64 },
    Shutdown,
}

/// A background retraining worker on a dedicated thread. Every generation
/// runs under the supervisor: panics are caught, stalls are bounded by the
/// configured budget, transient failures retry with backoff, and the
/// shared [`HealthMonitor`] tracks the outcome.
pub struct RetrainWorker {
    commands: crossbeam::channel::Sender<Command>,
    reports: crossbeam::channel::Receiver<Result<TrainReport, TrainFailure>>,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl RetrainWorker {
    /// Spawn the worker. It holds shared handles on the collector,
    /// registry and health monitor and runs `pipeline` generations on
    /// demand under `supervision`. `Err` means the OS refused the worker
    /// thread; the caller decides whether to degrade or propagate.
    pub fn spawn(
        collector: Arc<ProbeCollector>,
        registry: Arc<ModelRegistry>,
        pipeline: Arc<dyn TrainPipeline>,
        supervision: SupervisionConfig,
        health: Arc<HealthMonitor>,
    ) -> Result<Self, TrainFailure> {
        let publisher: Arc<dyn GenerationPublisher> = registry;
        RetrainWorker::spawn_with(collector, publisher, pipeline, supervision, health)
    }

    /// [`RetrainWorker::spawn`] generalised over the publish seam: the
    /// lifecycle manager passes itself here so supervised generations are
    /// canaried and persisted instead of swap-published.
    pub fn spawn_with(
        collector: Arc<ProbeCollector>,
        publisher: Arc<dyn GenerationPublisher>,
        pipeline: Arc<dyn TrainPipeline>,
        supervision: SupervisionConfig,
        health: Arc<HealthMonitor>,
    ) -> Result<Self, TrainFailure> {
        let (cmd_tx, cmd_rx) = crossbeam::channel::unbounded::<Command>();
        let (rep_tx, rep_rx) = crossbeam::channel::unbounded();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("diagnet-retrain".into())
            .spawn(move || {
                while let Ok(cmd) = cmd_rx.recv() {
                    // Queued commands are skipped once shutdown begins, so
                    // Drop never waits behind a backlog of generations.
                    if flag.load(Ordering::Relaxed) {
                        break;
                    }
                    match cmd {
                        Command::Retrain { seed } => {
                            let report = supervised_retrain_with(
                                &collector,
                                &publisher,
                                &pipeline,
                                &supervision,
                                &health,
                                seed,
                                &flag,
                            );
                            if rep_tx.send(report).is_err() {
                                break; // owner gone
                            }
                        }
                        Command::Shutdown => break,
                    }
                }
            })
            .map_err(|e| TrainFailure::Spawn(e.to_string()))?;
        Ok(RetrainWorker {
            commands: cmd_tx,
            reports: rep_rx,
            shutdown,
            handle: Some(handle),
        })
    }

    /// Request a retrain; does not block.
    pub fn request_retrain(&self, seed: u64) {
        let _ = self.commands.send(Command::Retrain { seed });
    }

    /// Wait for the next training report.
    pub fn wait_report(&self) -> Result<TrainReport, TrainFailure> {
        self.reports.recv().unwrap_or(Err(TrainFailure::Cancelled))
    }

    /// Try to fetch a report without blocking.
    pub fn try_report(&self) -> Option<Result<TrainReport, TrainFailure>> {
        self.reports.try_recv().ok()
    }

    /// Wait for the next report up to `timeout`; `None` when none arrives
    /// in time (e.g. no retrain was ever requested — the blocking
    /// [`RetrainWorker::wait_report`] would hang in that case).
    pub fn wait_report_timeout(
        &self,
        timeout: std::time::Duration,
    ) -> Option<Result<TrainReport, TrainFailure>> {
        self.reports.recv_timeout(timeout).ok()
    }
}

impl Drop for RetrainWorker {
    fn drop(&mut self) {
        // Flag first: the worker skips queued commands and the supervisor
        // stops retrying/backing off at its next cancellation checkpoint.
        self.shutdown.store(true, Ordering::Relaxed);
        let _ = self.commands.send(Command::Shutdown);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diagnet_sim::dataset::DatasetConfig;
    use diagnet_sim::world::World;

    fn loaded_collector(seed: u64) -> (World, Arc<ProbeCollector>) {
        let world = World::new();
        let collector = Arc::new(ProbeCollector::new(100_000, FeatureSchema::full()));
        let mut cfg = DatasetConfig::small(&world, seed);
        cfg.n_scenarios = 15;
        for s in Dataset::generate(&world, &cfg).expect("generate").samples {
            collector.submit(s);
        }
        (world, collector)
    }

    fn fast_config() -> DiagNetConfig {
        let mut c = DiagNetConfig::fast();
        c.epochs = 2;
        c.forest.n_trees = 5;
        c
    }

    fn fast_pipeline(world: &World) -> Arc<dyn TrainPipeline> {
        Arc::new(StandardPipeline {
            kind: BackendKind::DiagNet,
            config: BackendConfig::from_diagnet(fast_config()),
            general_services: world.catalog.general_ids(),
            min_service_samples: 1,
        })
    }

    #[test]
    fn synchronous_retrain_publishes() {
        let (world, collector) = loaded_collector(81);
        let registry = ModelRegistry::new();
        let report = retrain(
            &collector,
            &registry,
            &fast_config(),
            &world.catalog.general_ids(),
            1,
            81,
        )
        .unwrap();
        assert_eq!(report.version, 1);
        assert_eq!(report.backend, BackendKind::DiagNet);
        assert_eq!(report.n_samples, collector.len(), "snapshot, not drain");
        assert_eq!(report.specialized.len(), world.catalog.len());
        assert!(registry.is_ready());
        assert!(report.duration_secs > 0.0);
    }

    #[test]
    fn empty_collector_is_an_error() {
        let world = World::new();
        let collector = ProbeCollector::new(10, FeatureSchema::full());
        let registry = ModelRegistry::new();
        assert!(retrain(
            &collector,
            &registry,
            &fast_config(),
            &world.catalog.general_ids(),
            1,
            1
        )
        .is_err());
        assert!(!registry.is_ready());
    }

    #[test]
    fn baseline_backends_retrain_and_publish() {
        let (world, collector) = loaded_collector(85);
        let registry = ModelRegistry::new();
        let mut config = BackendConfig::from_diagnet(fast_config());
        config.bayes.kde_cap = 64;
        for (i, kind) in [BackendKind::Forest, BackendKind::NaiveBayes]
            .into_iter()
            .enumerate()
        {
            let report = retrain_backend(
                &collector,
                &registry,
                kind,
                &config,
                &world.catalog.general_ids(),
                1,
                85,
            )
            .unwrap();
            assert_eq!(report.version, i as u64 + 1);
            assert_eq!(report.backend, kind);
            assert!(report.specialized.is_empty(), "baselines do not specialise");
            let served = registry.general().unwrap();
            assert_eq!(served.describe().kind, kind);
        }
    }

    /// Delta-based asserts: the global registry is shared with other tests
    /// running in the same process.
    #[test]
    #[cfg(feature = "obs")]
    fn retrains_are_timed_and_counted() {
        let ok_labels: &[(&str, &str)] = &[("backend", "diagnet"), ("outcome", "ok")];
        let before_ok = diagnet_obs::global()
            .snapshot()
            .counter(RETRAIN_TOTAL, ok_labels)
            .unwrap_or(0);
        let (world, collector) = loaded_collector(86);
        let registry = ModelRegistry::new();
        retrain(
            &collector,
            &registry,
            &fast_config(),
            &world.catalog.general_ids(),
            1,
            86,
        )
        .unwrap();
        let empty = ProbeCollector::new(10, FeatureSchema::full());
        assert!(retrain(
            &empty,
            &registry,
            &fast_config(),
            &world.catalog.general_ids(),
            1,
            1
        )
        .is_err());

        let snap = diagnet_obs::global().snapshot();
        assert!(snap.counter(RETRAIN_TOTAL, ok_labels).unwrap_or(0) > before_ok);
        assert!(
            snap.counter(
                RETRAIN_TOTAL,
                &[("backend", "diagnet"), ("outcome", "error")]
            )
            .unwrap_or(0)
                >= 1,
            "failed retrain not counted"
        );
        let hist = snap
            .histogram(RETRAIN_DURATION_SECONDS, &[("backend", "diagnet")])
            .unwrap();
        assert!(hist.count >= 1);
        assert!(hist.sum > 0.0);
        let span = snap
            .histogram(
                diagnet_obs::span::SPAN_HISTOGRAM,
                &[("span", "platform.retrain")],
            )
            .unwrap();
        assert!(span.count >= 1);
    }

    #[test]
    fn background_worker_round_trip() {
        let (world, collector) = loaded_collector(83);
        let registry = Arc::new(ModelRegistry::new());
        let health = Arc::new(HealthMonitor::new());
        let worker = RetrainWorker::spawn(
            Arc::clone(&collector),
            Arc::clone(&registry),
            fast_pipeline(&world),
            SupervisionConfig::default(),
            Arc::clone(&health),
        )
        .expect("spawn retrain worker");
        assert!(worker.try_report().is_none());
        worker.request_retrain(83);
        let report = worker.wait_report().unwrap();
        assert_eq!(report.version, 1);
        assert!(registry.is_ready());
        assert_eq!(health.state(), crate::health::HealthState::Serving);
        // Second generation bumps the version.
        worker.request_retrain(84);
        let report = worker.wait_report().unwrap();
        assert_eq!(report.version, 2);
    }

    #[test]
    fn drop_skips_queued_generations() {
        let (world, collector) = loaded_collector(87);
        let registry = Arc::new(ModelRegistry::new());
        let worker = RetrainWorker::spawn(
            Arc::clone(&collector),
            Arc::clone(&registry),
            fast_pipeline(&world),
            SupervisionConfig::default(),
            Arc::new(HealthMonitor::new()),
        )
        .expect("spawn retrain worker");
        // Queue a deep backlog, then drop. Without the shutdown flag the
        // worker would train every queued generation before joining.
        for i in 0..50 {
            worker.request_retrain(1000 + i);
        }
        let t0 = Instant::now();
        drop(worker);
        // One in-flight generation may finish (it cannot be killed), but
        // the other 49 must be skipped: far below 49 × training time.
        let one_generation_budget = std::time::Duration::from_secs(30);
        assert!(
            t0.elapsed() < one_generation_budget,
            "drop waited on the queued backlog: {:?}",
            t0.elapsed()
        );
        assert!(
            registry.version() < 50,
            "queued generations should have been skipped"
        );
    }
}
