//! End-to-end steady-state allocation contract for the fused scoring
//! path (ISSUE 7): after warm-up, the normalise → forward → attention
//! backward pipeline must never touch the heap, and a full
//! `rank_causes_batch` — or a single-row `rank_causes` — must allocate
//! only the rankings it returns.
//!
//! A counting global allocator wraps the system allocator. This file
//! holds exactly one test so no concurrent test can pollute the counter,
//! and the model is sized so every nn kernel takes its serial dispatch
//! path (parallel paths hand work to rayon, whose queues are outside the
//! strict-zero contract; the end-to-end phase uses a generous per-call
//! budget instead because the fine stage legitimately runs under rayon).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use diagnet::attention::{attention_scores_batch_ws, SaliencyWorkspace};
use diagnet::config::DiagNetConfig;
use diagnet::model::{DiagNet, PipelineMode};
use diagnet::normalize::Normalizer;
use diagnet_forest::{ExtensibleForest, ForestConfig};
use diagnet_nn::layer::Layer;
use diagnet_nn::network::Network;
use diagnet_nn::pool::PoolOp;
use diagnet_nn::tensor::Matrix;
use diagnet_nn::train::TrainHistory;
use diagnet_sim::metrics::{FeatureSchema, K_LANDMARK_METRICS, N_LOCAL_METRICS};

struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A hand-built DiagNet over the known schema, small enough that every
/// linalg/pooling dispatch stays serial (the strict-zero prerequisite).
/// The auxiliary forest is a stub: the test scores in `AttentionOnly`
/// mode, which never consults it.
fn tiny_model() -> (DiagNet, FeatureSchema, Vec<Vec<f32>>) {
    let schema = FeatureSchema::known();
    let m = schema.n_features();
    let rows: Vec<Vec<f32>> = (0..8)
        .map(|i| {
            (0..m)
                .map(|j| ((i * m + j) as f32 * 0.37).sin().abs() * 10.0)
                .collect()
        })
        .collect();
    let network = Network::new(vec![
        Layer::land_pool(
            4,
            K_LANDMARK_METRICS,
            N_LOCAL_METRICS,
            vec![PoolOp::Min, PoolOp::Avg, PoolOp::Percentile(50)],
            1,
        ),
        Layer::dense(3 * 4 + N_LOCAL_METRICS, 12, 2),
        Layer::relu(),
        Layer::dense(12, 4, 3),
    ]);
    let normalizer = Normalizer::fit(&schema, &rows);
    let n_causes = FeatureSchema::full().n_features();
    let forest_rows: Vec<Vec<f32>> = (0..4).map(|_| vec![0.0; n_causes]).collect();
    let forest_cfg = ForestConfig {
        n_trees: 2,
        max_depth: 2,
        ..ForestConfig::paper_default(5)
    };
    let auxiliary =
        ExtensibleForest::fit(&forest_cfg, &forest_rows, &[0, 1, n_causes, 2], n_causes);
    let model = DiagNet::from_parts(
        DiagNetConfig::fast(),
        network,
        normalizer,
        schema.clone(),
        auxiliary,
        TrainHistory::default(),
    );
    (model, schema, rows)
}

#[test]
fn steady_state_scoring_is_allocation_free() {
    let (model, schema, rows) = tiny_model();
    let batch = rows.len();

    // Phase 1 — strict zero on the fused compute stages: normalise into a
    // reusable matrix, then one cached forward feeding both the logits
    // and the whole-batch attention backward.
    let mut ws = SaliencyWorkspace::new(&model.network);
    let mut x = Matrix::zeros(0, 0);
    let mut gammas = Matrix::zeros(0, 0);
    for _ in 0..3 {
        model.normalizer.apply_matrix_into(&schema, &rows, &mut x);
        attention_scores_batch_ws(&model.network, &x, &mut ws, &mut gammas);
    }
    ALLOC_CALLS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let mut checksum = 0.0f32;
    for _ in 0..20 {
        model.normalizer.apply_matrix_into(&schema, &rows, &mut x);
        attention_scores_batch_ws(&model.network, &x, &mut ws, &mut gammas);
        checksum += gammas.get(0, 0) + ws.logits().get(0, 0);
    }
    COUNTING.store(false, Ordering::SeqCst);
    let stage_allocs = ALLOC_CALLS.load(Ordering::SeqCst);
    assert!(checksum.is_finite());
    assert_eq!(
        stage_allocs, 0,
        "steady-state fused scoring stages allocated {stage_allocs} times"
    );

    // Phase 2 — end-to-end `rank_causes_batch` through the thread-local
    // workspace: the only allowed allocations are the returned rankings
    // (each owns its scores and coarse vectors) plus bounded rayon
    // plumbing in the parallel fine stage.
    let iters = 20;
    for _ in 0..3 {
        let _ = model.rank_causes_batch_with(&rows, &schema, PipelineMode::AttentionOnly);
    }
    ALLOC_CALLS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let mut total = 0.0f32;
    for _ in 0..iters {
        let rankings = model.rank_causes_batch_with(&rows, &schema, PipelineMode::AttentionOnly);
        total += rankings[0].scores[0];
    }
    COUNTING.store(false, Ordering::SeqCst);
    let e2e_allocs = ALLOC_CALLS.load(Ordering::SeqCst);
    assert!(total.is_finite());
    let budget = iters * (6 * batch + 64);
    assert!(
        e2e_allocs <= budget,
        "end-to-end rank_causes_batch allocated {e2e_allocs} times over {iters} iters \
         (budget {budget}): the workspace path is leaking per-call allocations"
    );

    // Phase 3 — the single-row path shares the same thread-local
    // workspace and the model's own transposed weights (built by the
    // first ranking call above): it allocates nothing but the ranking it
    // returns (in this mode its `scores` and `coarse` vectors). Its one
    // `core.rank_causes` span costs no allocation either: after a span
    // name's first use the metrics registry finds its histogram by
    // borrowed comparison, with observability compiled in or not.
    drop(diagnet_obs::span("zero_alloc.x"));
    ALLOC_CALLS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for _ in 0..1_000 {
        drop(diagnet_obs::span("zero_alloc.x"));
    }
    COUNTING.store(false, Ordering::SeqCst);
    let span_allocs = ALLOC_CALLS.load(Ordering::SeqCst);
    assert_eq!(span_allocs, 0, "1000 repeated spans allocated");
    // With `obs` on (the default) those were real spans recording into
    // the registry, not the compiled-out no-op.
    if cfg!(feature = "obs") {
        let span_hist = diagnet_obs::global().histogram(
            diagnet_obs::span::SPAN_HISTOGRAM,
            &[("span", "zero_alloc.x")],
            "",
        );
        assert_eq!(span_hist.count(), 1_001);
    }

    let _ = model.rank_causes_with(&rows[0], &schema, PipelineMode::AttentionOnly);
    ALLOC_CALLS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for _ in 0..iters {
        let r = model.rank_causes_with(&rows[0], &schema, PipelineMode::AttentionOnly);
        total += r.scores[0];
    }
    COUNTING.store(false, Ordering::SeqCst);
    let single_allocs = ALLOC_CALLS.load(Ordering::SeqCst);
    assert!(total.is_finite());
    assert_eq!(
        single_allocs,
        iters * 2,
        "single-row rank_causes allocated {single_allocs} times over {iters} iters: \
         only the returned ranking's two vectors may touch the heap"
    );
}
