//! Crash-safety suite for the durable model store.
//!
//! Every scenario simulates a process death at a different point in the
//! publish sequence (artefact write → manifest append) and asserts the
//! store recovers to the newest *intact* active generation with typed
//! errors — never a panic, never a half-read model — and that the
//! `diagnet_store_recovery_total{outcome}` counters record what happened.
//!
//! The codec here is deliberately serde-free: encoded bytes are a slot
//! index into an in-memory envelope table shared across "restarts" (new
//! `ModelStore::open` calls over the same directory), so recovered models
//! are exactly the published ones and rankings can be compared bitwise.
//!
//! The last test pins what decode-time validation (and the publish gate's)
//! is also relied on for: it is the ranking call that builds a DiagNet's
//! transposed-weight plan, so no client request ever pays for that.

use diagnet::backend::{Backend, BackendEnvelope, ForestBackend};
use diagnet_forest::ForestConfig;
use diagnet_nn::error::NnError;
use diagnet_obs::global;
use diagnet_platform::store::{
    artefact_name, ArtefactCodec, GenerationStatus, ModelStore, StoreError, MANIFEST_FILE,
    STORE_RECOVERY_TOTAL,
};
use diagnet_sim::metrics::FeatureSchema;
use diagnet_sim::{Dataset, DatasetConfig, World};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

/// Serde-free test codec: bytes are `[slot index: 8 LE bytes][filler]`,
/// decoding clones the envelope out of a table that survives store
/// "restarts" as long as the codec instance is shared.
#[derive(Debug, Default)]
struct SlotCodec {
    slots: Mutex<Vec<BackendEnvelope>>,
}

const FILLER: [u8; 56] = [0xAB; 56];

impl ArtefactCodec for SlotCodec {
    fn encode(&self, backend: &dyn Backend) -> Result<Vec<u8>, NnError> {
        let mut slots = self
            .slots
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        slots.push(backend.to_envelope());
        let mut bytes = ((slots.len() - 1) as u64).to_le_bytes().to_vec();
        bytes.extend_from_slice(&FILLER);
        Ok(bytes)
    }

    fn decode(&self, bytes: &[u8]) -> Result<Box<dyn Backend>, NnError> {
        if bytes.len() != 8 + FILLER.len() {
            return Err(NnError::Serialization(format!(
                "artefact is {} bytes, expected {}",
                bytes.len(),
                8 + FILLER.len()
            )));
        }
        let mut idx = [0u8; 8];
        idx.copy_from_slice(&bytes[..8]);
        let envelope = self
            .slots
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(u64::from_le_bytes(idx) as usize)
            .cloned()
            .ok_or_else(|| NnError::Serialization("unknown artefact slot".into()))?;
        envelope.into_backend()
    }
}

fn temp_store_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("diagnet_store_recovery")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One cheap trained backend, shared by every test in the binary.
fn fixture_backend() -> &'static ForestBackend {
    static FIXTURE: OnceLock<ForestBackend> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let world = World::new();
        let mut cfg = DatasetConfig::small(&world, 17);
        cfg.n_scenarios = 8;
        let ds = Dataset::generate(&world, &cfg).expect("generate");
        ForestBackend::train(&ForestConfig::default(), &ds, &FeatureSchema::known(), 17)
    })
}

fn recovery_count(outcome: &str) -> u64 {
    global()
        .snapshot()
        .counter(STORE_RECOVERY_TOTAL, &[("outcome", outcome)])
        .unwrap_or(0)
}

#[test]
fn recovery_after_clean_shutdown_is_bit_identical() {
    let dir = temp_store_dir("clean");
    let codec: Arc<SlotCodec> = Arc::new(SlotCodec::default());
    let backend = fixture_backend();
    let schema = FeatureSchema::known();
    let probe = vec![0.25f32; schema.n_features()];
    let expected = backend.rank_causes(&probe, &schema).scores;

    let store = ModelStore::open(&dir, Arc::clone(&codec) as Arc<dyn ArtefactCodec>)
        .expect("open fresh store");
    let record = store
        .persist(backend, None, "forest", GenerationStatus::Active)
        .expect("persist");
    assert_eq!(record.generation, 1);
    drop(store);

    let before = recovery_count("recovered");
    let reopened =
        ModelStore::open(&dir, Arc::clone(&codec) as Arc<dyn ArtefactCodec>).expect("reopen store");
    let (recovered, skipped) = reopened.recover();
    assert!(
        skipped.is_empty(),
        "no artefact should be skipped: {skipped:?}"
    );
    let (record, model) = recovered.expect("an active generation must recover");
    assert_eq!(record.generation, 1);
    assert_eq!(record.status, GenerationStatus::Active);
    assert_eq!(
        model.rank_causes(&probe, &schema).scores,
        expected,
        "recovered model must produce bit-identical rankings"
    );
    // `>=`: other tests in this binary also recover successfully and the
    // counter is process-global.
    assert!(recovery_count("recovered") >= before + 1);
}

#[test]
fn canary_and_rolled_back_generations_are_not_recovered() {
    let dir = temp_store_dir("status");
    let codec: Arc<SlotCodec> = Arc::new(SlotCodec::default());
    let backend = fixture_backend();
    let store = ModelStore::open(&dir, codec as Arc<dyn ArtefactCodec>).expect("open");
    store
        .persist(backend, None, "forest", GenerationStatus::Active)
        .expect("persist active");
    store
        .persist(backend, Some(1), "forest", GenerationStatus::RolledBack)
        .expect("persist rolled-back");
    store
        .persist(backend, Some(1), "forest", GenerationStatus::Canary)
        .expect("persist canary");

    let (recovered, skipped) = store.recover();
    assert!(skipped.is_empty(), "{skipped:?}");
    let (record, _model) = recovered.expect("the active generation recovers");
    assert_eq!(
        record.generation, 1,
        "canary (3) and rolled-back (2) generations must be passed over"
    );
}

/// A torn write — the process died while the newest artefact was going to
/// disk, after the manifest of an *earlier* generation landed. The damaged
/// artefact is skipped with a typed `Corrupt` error and recovery falls
/// back to the older intact generation.
#[test]
fn torn_newest_artefact_falls_back_to_previous_generation() {
    let dir = temp_store_dir("torn");
    let codec: Arc<SlotCodec> = Arc::new(SlotCodec::default());
    let backend = fixture_backend();
    let store = ModelStore::open(&dir, codec as Arc<dyn ArtefactCodec>).expect("open");
    store
        .persist(backend, None, "forest", GenerationStatus::Active)
        .expect("persist gen 1");
    let gen2 = store
        .persist(backend, Some(1), "forest", GenerationStatus::Active)
        .expect("persist gen 2");

    // Tear generation 2's artefact in half.
    let artefact = dir.join(&gen2.file);
    let bytes = std::fs::read(&artefact).expect("read artefact");
    std::fs::write(&artefact, &bytes[..bytes.len() / 2]).expect("truncate artefact");

    let before_corrupt = recovery_count("corrupt");
    let before_recovered = recovery_count("recovered");
    let (recovered, skipped) = store.recover();
    let (record, _model) = recovered.expect("gen 1 must still recover");
    assert_eq!(record.generation, 1);
    assert_eq!(skipped.len(), 1, "{skipped:?}");
    assert_eq!(skipped[0].0, 2);
    assert!(
        matches!(&skipped[0].1, StoreError::Corrupt { generation: 2, .. }),
        "torn artefact must surface as a typed Corrupt error, got {:?}",
        skipped[0].1
    );
    assert_eq!(recovery_count("corrupt"), before_corrupt + 1);
    assert!(recovery_count("recovered") >= before_recovered + 1);
}

/// A kill between artefact write and rename leaves only a `*.tmp` file;
/// reopening sweeps it and the manifest never mentions the lost
/// generation, so the store stays consistent.
#[test]
fn kill_before_rename_sweeps_tmp_and_keeps_last_good() {
    let dir = temp_store_dir("midpublish");
    let codec: Arc<SlotCodec> = Arc::new(SlotCodec::default());
    let backend = fixture_backend();
    let store = ModelStore::open(&dir, Arc::clone(&codec) as Arc<dyn ArtefactCodec>).expect("open");
    store
        .persist(backend, None, "forest", GenerationStatus::Active)
        .expect("persist gen 1");
    drop(store);

    // Simulate SIGKILL mid-publish: a half-written temp artefact that
    // never got renamed and never reached the manifest.
    let stray = dir.join(format!("{}.tmp", artefact_name(2)));
    std::fs::write(&stray, b"half-written").expect("write stray tmp");

    let reopened =
        ModelStore::open(&dir, Arc::clone(&codec) as Arc<dyn ArtefactCodec>).expect("reopen");
    assert!(!stray.exists(), "reopen must sweep orphaned tmp artefacts");
    let (recovered, skipped) = reopened.recover();
    assert!(skipped.is_empty(), "{skipped:?}");
    assert_eq!(recovered.expect("gen 1 recovers").0.generation, 1);
    // The swept generation number is not resurrected: the next publish
    // gets a fresh number after the last manifest entry.
    let next = reopened
        .persist(backend, Some(1), "forest", GenerationStatus::Active)
        .expect("persist after sweep");
    assert_eq!(next.generation, 2);
}

#[test]
fn corrupt_manifest_lines_are_skipped_not_fatal() {
    let dir = temp_store_dir("manifest");
    let codec: Arc<SlotCodec> = Arc::new(SlotCodec::default());
    let backend = fixture_backend();
    let store = ModelStore::open(&dir, Arc::clone(&codec) as Arc<dyn ArtefactCodec>).expect("open");
    store
        .persist(backend, None, "forest", GenerationStatus::Active)
        .expect("persist gen 1");
    drop(store);

    // A torn manifest append: trailing garbage after the valid line.
    let manifest = dir.join(MANIFEST_FILE);
    let mut text = std::fs::read_to_string(&manifest).expect("read manifest");
    text.push_str("gen 2 parent 1 backend forest chec");
    std::fs::write(&manifest, text).expect("append garbage");

    let before = recovery_count("manifest_line_skipped");
    let reopened =
        ModelStore::open(&dir, Arc::clone(&codec) as Arc<dyn ArtefactCodec>).expect("reopen");
    assert_eq!(recovery_count("manifest_line_skipped"), before + 1);
    let (recovered, _) = reopened.recover();
    assert_eq!(recovered.expect("gen 1 recovers").0.generation, 1);
}

#[test]
fn manifest_with_wrong_header_is_a_typed_error() {
    let dir = temp_store_dir("header");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join(MANIFEST_FILE), "not-a-diagnet-store\n").expect("write manifest");
    let err = ModelStore::open(
        &dir,
        Arc::new(SlotCodec::default()) as Arc<dyn ArtefactCodec>,
    )
    .expect_err("foreign manifest must be rejected");
    assert!(
        matches!(err, StoreError::ManifestHeader(_)),
        "expected ManifestHeader, got {err:?}"
    );
}

#[test]
fn empty_store_recovers_nothing_and_counts_it() {
    let dir = temp_store_dir("empty");
    let store = ModelStore::open(
        &dir,
        Arc::new(SlotCodec::default()) as Arc<dyn ArtefactCodec>,
    )
    .expect("open");
    let before = recovery_count("empty");
    let (recovered, skipped) = store.recover();
    assert!(recovered.is_none());
    assert!(skipped.is_empty());
    assert_eq!(recovery_count("empty"), before + 1);
}

/// Whether a served DiagNet already holds its input-gradient plan. The
/// plan is private to the model, but a clone carries it along and debug
/// builds refuse to rank through a plan that no longer matches the
/// weights — so a clone with one weight edited panics exactly when the
/// original was planned, and builds a plan of its own when it was not.
#[cfg(debug_assertions)]
fn plan_is_built(backend: &dyn Backend) -> bool {
    let served: &diagnet::model::DiagNet = backend.as_any().downcast_ref().expect("a DiagNet");
    let mut copy = served.clone();
    let Some(diagnet_nn::layer::Layer::Dense(head)) = copy.network.layers.last_mut() else {
        panic!("last layer must be Dense")
    };
    head.w.set(0, 0, head.w.get(0, 0) + 1.0);
    let full = FeatureSchema::full();
    let probe = vec![0.0f32; full.n_features()];
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        copy.rank_causes(&probe, &full)
    }))
    .is_err()
}

/// The plan (≈ 0.9 MB and three transposes for the paper model) is built
/// by the health probe — `publish_generation`'s gate, the store's
/// decode-time `validate` — so the first `diagnose` of a generation finds
/// it there, on a publish and on a restart alike.
#[test]
#[cfg(debug_assertions)]
fn published_and_recovered_diagnets_are_planned_before_the_first_request() {
    use diagnet::backend::BackendKind;
    use diagnet_platform::trainer::{publish_generation, Generation, PendingGeneration};
    use diagnet_platform::ModelRegistry;

    let world = World::new();
    let mut data = DatasetConfig::small(&world, 19);
    data.n_scenarios = 8;
    let ds = Dataset::generate(&world, &data).expect("generate");
    let mut config = diagnet::config::DiagNetConfig::fast();
    config.epochs = 2;
    config.forest.n_trees = 5;
    // Trained, never ranked: no plan yet, as after a JSON decode (which
    // skips the field).
    let fresh = diagnet::model::DiagNet::train(&config, &ds, 19).expect("train");
    assert!(!plan_is_built(&fresh));

    let registry = ModelRegistry::new();
    publish_generation(
        &registry,
        PendingGeneration {
            generation: Generation {
                backend: BackendKind::DiagNet,
                general: Arc::new(fresh.clone()),
                specialized: Default::default(),
                specialized_ids: Vec::new(),
            },
            n_samples: ds.len(),
            n_faulty: ds.n_faulty(),
            started: std::time::Instant::now(),
        },
    )
    .expect("a healthy generation publishes");
    let published = registry.general().expect("published");
    assert!(plan_is_built(published.as_ref()));

    // The slot codec's envelope is a clone of what `persist` was given, so
    // the artefact decodes to a model without a plan.
    let dir = temp_store_dir("planned");
    let codec: Arc<SlotCodec> = Arc::new(SlotCodec::default());
    let store =
        ModelStore::open(&dir, Arc::clone(&codec) as Arc<dyn ArtefactCodec>).expect("open store");
    store
        .persist(&fresh, None, "diagnet", GenerationStatus::Active)
        .expect("persist");
    drop(store);
    let reopened =
        ModelStore::open(&dir, Arc::clone(&codec) as Arc<dyn ArtefactCodec>).expect("reopen store");
    let (recovered, _) = reopened.recover();
    let (_, recovered) = recovered.expect("an active generation must recover");
    assert!(plan_is_built(recovered.as_ref()));

    let schema = FeatureSchema::full();
    let first = &ds.samples[0].features;
    let expected = fresh.rank_causes(first, &schema);
    assert_eq!(published.rank_causes(first, &schema), expected);
    assert_eq!(recovered.rank_causes(first, &schema), expected);
}
