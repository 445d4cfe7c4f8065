//! The DiagNet pipeline: coarse convolutional classifier + attention +
//! score weighting + ensemble averaging.

use crate::attention::{normalize_gradients_into, SaliencyWorkspace};
use crate::config::{DiagNetConfig, OptimizerKind};
use crate::ensemble::ensemble_average;
use crate::normalize::Normalizer;
use crate::ranking::CauseRanking;
use crate::weighting::weight_scores;
use diagnet_forest::ExtensibleForest;
use diagnet_nn::error::NnError;
use diagnet_nn::layer::Layer;
use diagnet_nn::loss::{ideal_label_grad_into, softmax, softmax_in_place};
use diagnet_nn::network::{InputGradPlan, Network};
use diagnet_nn::optim::{Adam, SgdNesterov};
use diagnet_nn::tensor::Matrix;
use diagnet_nn::train::{train_val_split, TrainConfig, TrainHistory, Trainer};
use diagnet_rng::SplitMix64;
use diagnet_sim::dataset::Dataset;
use diagnet_sim::metrics::{FeatureSchema, K_LANDMARK_METRICS, N_LOCAL_METRICS};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::OnceLock;

/// Which stages of the fine-grained pipeline to run — used by the
/// ablation benchmarks (the paper notes raw attention alone is weak,
/// §III-E, and ensemble averaging is the final boost, §III-F).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PipelineMode {
    /// Raw Eq. 1 attention only.
    AttentionOnly,
    /// Attention + Algorithm 1 multi-label score weighting.
    AttentionWeighted,
    /// Attention + weighting + ensemble averaging (the full DiagNet).
    Full,
}

/// A trained DiagNet model (general or specialised).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiagNet {
    /// Hyper-parameters used at training time.
    pub config: DiagNetConfig,
    /// The coarse classifier (LandPooling + MLP).
    pub network: Network,
    /// Per-metric-kind standardiser fitted on the training set.
    pub normalizer: Normalizer,
    /// The schema the model was trained on (known landmarks only).
    pub train_schema: FeatureSchema,
    /// Auxiliary extensible random forest over the **full** cause space.
    pub auxiliary: ExtensibleForest,
    /// Training curves (paper Fig. 9).
    pub history: TrainHistory,
    /// `network`'s transposed Dense weights — all of them, a second copy of
    /// the Dense parameters — for the attention backward, built by the
    /// first ranking call (in the platform that is the health probe of
    /// [`Backend::validate`](crate::backend::Backend::validate) before
    /// publish or after decode, never a client's request) and valid while
    /// `network` is left alone. The model owns it (not the per-thread
    /// workspace) so models alternating on one thread — canary and
    /// baseline — each keep theirs. `network` is a `pub` field: debug
    /// builds check the plan against the live weights on every use,
    /// release builds trust it.
    #[serde(skip)]
    plan: OnceLock<InputGradPlan>,
}

/// Indices of the layers shared between services: the non-overlapping
/// convolution (LandPooling) and the first fully-connected layer, frozen
/// during specialisation (§IV-F).
pub const SHARED_LAYERS: [usize; 2] = [0, 1];

/// Inverse-frequency class weights, normalised so the dataset-mean weight
/// is 1 and capped to avoid exploding gradients on near-empty classes.
/// Counters the paper's heavy nominal/faulty imbalance (≈ 7 : 1 even
/// before splitting the faulty share over six families).
pub fn balanced_class_weights(labels: &[usize], n_classes: usize) -> Vec<f32> {
    let mut counts = vec![0usize; n_classes];
    for &l in labels {
        counts[l] += 1;
    }
    let n = labels.len().max(1) as f32;
    // √(inverse frequency), capped: full inverse-frequency weights put
    // ≈ 25× gradients on sub-percent classes and destabilise SGD at the
    // paper's learning rate; the square root is the usual compromise.
    let mut weights: Vec<f32> = counts
        .iter()
        .map(|&c| (n / (n_classes as f32 * c.max(1) as f32)).sqrt().min(8.0))
        .collect();
    // Normalise the sample-mean weight to 1 to keep the learning rate's
    // meaning unchanged.
    let mean: f32 = labels.iter().map(|&l| weights[l]).sum::<f32>() / n;
    if mean > 0.0 {
        for w in &mut weights {
            *w /= mean;
        }
    }
    weights
}

/// Fit `network` under `config`'s training hyper-parameters (optimiser
/// choice, batching, early stopping, optional class weights).
fn fit_network(
    config: &DiagNetConfig,
    network: &mut Network,
    tx: &Matrix,
    ty: &[usize],
    validation: (&Matrix, &[usize]),
    class_weights: Option<Vec<f32>>,
    seed: u64,
) -> Result<TrainHistory, NnError> {
    let train_config = TrainConfig {
        epochs: config.epochs,
        batch_size: config.batch_size,
        patience: config.patience,
        shuffle: true,
        restore_best: true,
        class_weights,
        shuffle_window: None,
    };
    match config.optimizer {
        OptimizerKind::SgdNesterov => Trainer::new(
            train_config,
            SgdNesterov::new(config.learning_rate, config.momentum, config.decay),
        )
        .fit(network, tx, ty, Some(validation), seed),
        OptimizerKind::Adam => Trainer::new(train_config, Adam::new(config.learning_rate)).fit(
            network,
            tx,
            ty,
            Some(validation),
            seed,
        ),
    }
}

/// Run `net` on the caller's thread while `forest` runs on one scoped thread,
/// or after it if the OS refuses the thread: same result, in sequence. A panic
/// in either leg resumes in the caller with its own payload (the supervisor
/// reports that text), once the other leg has finished.
fn join_legs<A, B: Send>(net: impl FnOnce() -> A, forest: impl Fn() -> B + Sync) -> (A, B) {
    std::thread::scope(|scope| {
        let spawned = std::thread::Builder::new()
            .name("diagnet-forest".into())
            .spawn_scoped(scope, &forest);
        let a = net();
        let b = match spawned {
            Ok(leg) => leg.join().unwrap_or_else(|p| std::panic::resume_unwind(p)),
            Err(_) => forest(),
        };
        (a, b)
    })
}

/// Per-thread reusable buffers for the fused scoring path: one cached
/// forward's activations serve both the coarse softmax and the attention
/// backward, and every intermediate (normalised features, probabilities,
/// Eq.-1 scores) lives here — steady-state scoring performs no heap
/// allocations beyond the returned rankings.
struct ScoringWorkspace {
    saliency: SaliencyWorkspace,
    /// Normalised input features, one row per sample.
    x: Matrix,
    /// Coarse softmax probabilities, one row per sample.
    probs: Matrix,
    /// Eq.-1 attention scores, one row per sample.
    gammas: Matrix,
}

impl ScoringWorkspace {
    fn new(network: &Network) -> Self {
        ScoringWorkspace {
            saliency: SaliencyWorkspace::new(network),
            x: Matrix::zeros(0, 0),
            probs: Matrix::zeros(0, 0),
            gammas: Matrix::zeros(0, 0),
        }
    }
}

thread_local! {
    /// One scoring workspace per thread, shared by every [`DiagNet`] the
    /// thread scores with (rebuilt on architecture mismatch — see
    /// [`SaliencyWorkspace::matches`]).
    static SCORING_WS: RefCell<Option<ScoringWorkspace>> = const { RefCell::new(None) };
}

impl DiagNet {
    /// Run `f` with this thread's scoring workspace, (re)building it when
    /// the cached one was shaped for a different architecture. When the
    /// cell is already borrowed — rayon work-stealing can nest another
    /// ranking task inside this one's parallel sections — `f` runs on a
    /// fresh stack-local workspace instead of panicking on the shared one.
    fn with_scoring_ws<R>(&self, f: impl FnOnce(&mut ScoringWorkspace) -> R) -> R {
        SCORING_WS.with(|cell| match cell.try_borrow_mut() {
            Ok(mut slot) => {
                let ws = match slot.take() {
                    Some(ws) if ws.saliency.matches(&self.network) => slot.insert(ws),
                    _ => slot.insert(ScoringWorkspace::new(&self.network)),
                };
                f(ws)
            }
            Err(_) => f(&mut ScoringWorkspace::new(&self.network)),
        })
    }

    /// Assemble a model from already-trained parts.
    pub fn from_parts(
        config: DiagNetConfig,
        network: Network,
        normalizer: Normalizer,
        train_schema: FeatureSchema,
        auxiliary: ExtensibleForest,
        history: TrainHistory,
    ) -> Self {
        DiagNet {
            config,
            network,
            normalizer,
            train_schema,
            auxiliary,
            history,
            plan: OnceLock::new(),
        }
    }

    /// Build the (untrained) coarse network of Fig. 2 for a given config.
    pub fn build_network(config: &DiagNetConfig, seed: u64) -> Network {
        let mut layers = Vec::new();
        layers.push(Layer::land_pool(
            config.filters,
            K_LANDMARK_METRICS,
            N_LOCAL_METRICS,
            config.pool_ops.clone(),
            SplitMix64::derive(seed, 100),
        ));
        let mut in_dim = config.fc_input_width(N_LOCAL_METRICS);
        for (i, &h) in config.hidden.iter().enumerate() {
            layers.push(Layer::dense(
                in_dim,
                h,
                SplitMix64::derive(seed, 101 + i as u64),
            ));
            layers.push(Layer::relu());
            in_dim = h;
        }
        layers.push(Layer::dense(
            in_dim,
            diagnet_sim::metrics::ALL_FAMILIES.len(),
            SplitMix64::derive(seed, 199),
        ));
        Network::new(layers)
    }

    /// Train a **general** DiagNet on `train_data`, hiding the landmarks
    /// absent from [`FeatureSchema::known`] (the paper's protocol).
    pub fn train(config: &DiagNetConfig, train_data: &Dataset, seed: u64) -> Result<Self, NnError> {
        Self::train_with_schema(config, train_data, FeatureSchema::known(), seed)
    }

    /// Train with an explicit training schema.
    pub fn train_with_schema(
        config: &DiagNetConfig,
        train_data: &Dataset,
        train_schema: FeatureSchema,
        seed: u64,
    ) -> Result<Self, NnError> {
        if train_data.is_empty() {
            return Err(NnError::InvalidTrainingData("empty dataset".into()));
        }
        // 1. Coarse classifier on normalised, known-landmark features.
        let (raw_rows, labels) = train_data.to_rows(&train_schema, 0.0);
        let normalizer = Normalizer::fit_with(&train_schema, &raw_rows, config.stabilize_features);
        let rows = normalizer.apply_batch(&train_schema, &raw_rows);
        let x = Matrix::from_rows(&rows);
        let (tx, ty, vx, vy) = train_val_split(
            &x,
            &labels,
            config.validation_fraction,
            SplitMix64::derive(seed, 1),
        );
        drop((raw_rows, rows, x)); // the split owns its rows; these copies are dead
        let mut network = Self::build_network(config, seed);
        let class_weights = config
            .balance_classes
            .then(|| balanced_class_weights(&ty, diagnet_sim::metrics::ALL_FAMILIES.len()));
        // 2. The auxiliary forest (full cause space, hidden landmark
        //    features zeroed exactly as §IV-B(a) prescribes) shares no
        //    state with the coarse network and derives its own seed, so it
        //    trains on a second thread, bit-identical to training in turn.
        //    Memory a thread allocates stays in its arena after it exits,
        //    so the leg that allocates least moves, its inputs built here.
        let (aux_rows, aux_labels) =
            crate::backend::training_rows_and_labels(train_data, &train_schema);
        let mut forest_cfg = config.forest.clone();
        forest_cfg.seed = SplitMix64::derive(seed, 3);
        let n_causes = FeatureSchema::full().n_features();
        let (history, auxiliary) = join_legs(
            || {
                let _span = diagnet_obs::span("core.train.network");
                fit_network(
                    config,
                    &mut network,
                    &tx,
                    &ty,
                    (&vx, &vy),
                    class_weights,
                    SplitMix64::derive(seed, 2),
                )
            },
            || {
                let _span = diagnet_obs::span("core.train.forest");
                ExtensibleForest::fit(&forest_cfg, &aux_rows, &aux_labels, n_causes)
            },
        );
        let history = history?;

        Ok(DiagNet::from_parts(
            config.clone(),
            network,
            normalizer,
            train_schema,
            auxiliary,
            history,
        ))
    }

    /// Train the auxiliary extensible forest (also the paper's RANDOM
    /// FOREST baseline).
    pub fn train_auxiliary(
        config: &DiagNetConfig,
        train_data: &Dataset,
        train_schema: &FeatureSchema,
        seed: u64,
    ) -> Result<ExtensibleForest, NnError> {
        let n_causes = FeatureSchema::full().n_features();
        // Project: dataset → train schema (drops hidden measurements) →
        // full schema with zeros in the hidden slots.
        let (rows, labels) = crate::backend::training_rows_and_labels(train_data, train_schema);
        let mut forest_cfg = config.forest.clone();
        forest_cfg.seed = SplitMix64::derive(seed, 3);
        Ok(ExtensibleForest::fit(&forest_cfg, &rows, &labels, n_causes))
    }

    /// Coarse fault-family probabilities for raw feature rows laid out in
    /// `schema` (any landmark subset — this is the extensible path).
    pub fn coarse_predict(&self, features: &[f32], schema: &FeatureSchema) -> Vec<f32> {
        let row = self.normalizer.apply(schema, features);
        let logits = self.network.forward(&Matrix::from_row(row));
        softmax(&logits).row(0).to_vec()
    }

    /// Batched coarse probabilities as one matrix: normalisation, forward
    /// pass and softmax all run over the whole batch at once (one GEMM per
    /// layer instead of one GEMV per sample).
    pub fn predict_batch(&self, rows: &[Vec<f32>], schema: &FeatureSchema) -> Matrix {
        softmax(
            &self
                .network
                .forward(&self.normalizer.apply_matrix(schema, rows)),
        )
    }

    /// Batched coarse prediction (used for Fig. 7's F1 evaluation).
    pub fn coarse_predict_batch(&self, rows: &[Vec<f32>], schema: &FeatureSchema) -> Vec<Vec<f32>> {
        let probs = self.predict_batch(rows, schema);
        (0..probs.rows()).map(|i| probs.row(i).to_vec()).collect()
    }

    /// Most probable coarse family index per row (argmax of
    /// [`DiagNet::coarse_predict_batch`]).
    pub fn coarse_classify_batch(&self, rows: &[Vec<f32>], schema: &FeatureSchema) -> Vec<usize> {
        self.coarse_predict_batch(rows, schema)
            .iter()
            .map(|p| {
                p.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Rank every candidate root cause of `schema` for one raw feature
    /// vector (the full DiagNet pipeline).
    pub fn rank_causes(&self, features: &[f32], schema: &FeatureSchema) -> CauseRanking {
        self.rank_causes_with(features, schema, PipelineMode::Full)
    }

    /// Rank with an explicit pipeline mode (ablations).
    pub fn rank_causes_with(
        &self,
        features: &[f32],
        schema: &FeatureSchema,
        mode: PipelineMode,
    ) -> CauseRanking {
        assert_eq!(
            features.len(),
            schema.n_features(),
            "rank_causes: feature width mismatch"
        );
        let _span = diagnet_obs::span("core.rank_causes");
        // Coarse prediction + attention on normalised features, through
        // the fused one-forward workspace path (batch of one).
        let (coarse, gamma) = self.with_scoring_ws(|ws| {
            self.normalize_stage(std::slice::from_ref(&features), schema, ws);
            self.forward_stage(ws);
            self.attention_backward_stage(ws);
            // Extract before releasing the thread-local borrow: fine_rank
            // below may run inside rayon sections that re-enter scoring.
            (ws.probs.row(0).to_vec(), ws.gammas.row(0).to_vec())
        });
        self.fine_rank(features, schema, mode, coarse, gamma)
    }

    /// Stage 1 of the fused block both ranking entry points run: standardise
    /// `rows` into the workspace's input matrix.
    fn normalize_stage<R: AsRef<[f32]>>(
        &self,
        rows: &[R],
        schema: &FeatureSchema,
        ws: &mut ScoringWorkspace,
    ) {
        self.normalizer.apply_matrix_into(schema, rows, &mut ws.x);
    }

    /// Stage 2: **one** cached forward, whose activations serve both the
    /// coarse softmax here and the attention backward of stage 3.
    fn forward_stage(&self, ws: &mut ScoringWorkspace) {
        let logits = self.network.forward_ws(&ws.x, &mut ws.saliency.fws);
        ws.probs.copy_from(logits);
        softmax_in_place(&mut ws.probs);
    }

    /// Stage 3: ideal-label backward to the input through the model's
    /// [`InputGradPlan`] (built here on first use) — one product per Dense
    /// layer, no transpose — then Eq. 1 per row.
    fn attention_backward_stage(&self, ws: &mut ScoringWorkspace) {
        let SaliencyWorkspace { fws, bws } = &mut ws.saliency;
        let plan = self.plan.get_or_init(|| self.network.input_grad_plan());
        ideal_label_grad_into(fws.output(), bws.grad_logits_mut());
        self.network.backward_ws(&ws.x, fws, None, bws, Some(plan));
        let grad = bws.input_grad();
        ws.gammas.resize(grad.rows(), grad.cols());
        for i in 0..grad.rows() {
            normalize_gradients_into(grad.row(i), ws.gammas.row_mut(i));
        }
    }

    /// The fine-grained tail of the pipeline, shared verbatim between the
    /// single-sample and batched entry points so the two stay bit-identical:
    /// Algorithm 1 weighting, auxiliary-forest projection, and §III-F
    /// ensemble averaging.
    fn fine_rank(
        &self,
        features: &[f32],
        schema: &FeatureSchema,
        mode: PipelineMode,
        coarse: Vec<f32>,
        gamma: Vec<f32>,
    ) -> CauseRanking {
        if mode == PipelineMode::AttentionOnly {
            return CauseRanking {
                scores: gamma,
                coarse,
                w_unknown: 0.0,
            };
        }
        // Algorithm 1 weighting.
        let gamma_tuned = weight_scores(&gamma, &coarse, schema);
        if mode == PipelineMode::AttentionWeighted {
            return CauseRanking {
                scores: gamma_tuned,
                coarse,
                w_unknown: 0.0,
            };
        }
        // Ensemble averaging with the auxiliary forest (§III-F).
        let full = FeatureSchema::full();
        let aux_input = full.project_from(schema, features, 0.0);
        let aux_full = self.auxiliary.scores(&aux_input);
        let aux = crate::backend::project_scores(&aux_full, &full, schema);
        let unknown = schema.unknown_relative_to(&self.train_schema);
        let (scores, w_unknown) = ensemble_average(&gamma_tuned, &aux, &unknown);
        CauseRanking {
            scores,
            coarse,
            w_unknown,
        }
    }

    /// Batched ranking: one normalisation pass, **one** cached forward
    /// whose activations feed both the coarse softmax and the whole-batch
    /// attention backward, then the per-sample fine stage in parallel.
    /// Every intermediate lives in a per-thread workspace, so steady-state
    /// calls allocate nothing beyond the returned rankings. Results are
    /// identical to calling [`DiagNet::rank_causes`] per row — the batched
    /// kernels accumulate each output element in the same order as the
    /// single-row path.
    pub fn rank_causes_batch(
        &self,
        rows: &[Vec<f32>],
        schema: &FeatureSchema,
    ) -> Vec<CauseRanking> {
        self.rank_causes_batch_with(rows, schema, PipelineMode::Full)
    }

    /// Batched ranking with an explicit pipeline mode (ablations).
    pub fn rank_causes_batch_with(
        &self,
        rows: &[Vec<f32>],
        schema: &FeatureSchema,
        mode: PipelineMode,
    ) -> Vec<CauseRanking> {
        for row in rows {
            assert_eq!(
                row.len(),
                schema.n_features(),
                "rank_causes: feature width mismatch"
            );
        }
        // Per-stage tracing spans: batch-level only (one span per stage per
        // call, never per row), so the instrumentation cost stays far below
        // the 2 % budget documented in OBSERVABILITY.md.
        let _span = diagnet_obs::span("core.rank_causes_batch");
        let (probs_rows, gamma_rows) = self.with_scoring_ws(|ws| {
            {
                let _s = diagnet_obs::span("core.normalize");
                self.normalize_stage(rows, schema, ws);
            }
            {
                let _s = diagnet_obs::span("core.forward");
                self.forward_stage(ws);
            }
            {
                let _s = diagnet_obs::span("core.attention_backward");
                self.attention_backward_stage(ws);
            }
            // Per-row extraction is the output boundary (the rankings own
            // their vectors); it also releases the thread-local borrow
            // before the parallel fine stage, whose work-stealing may
            // re-enter scoring on this thread.
            let rows_of = |m: &Matrix| -> Vec<Vec<f32>> {
                (0..m.rows()).map(|i| m.row(i).to_vec()).collect()
            };
            (rows_of(&ws.probs), rows_of(&ws.gammas))
        });
        let _s = diagnet_obs::span("core.fine_rank");
        rows.par_iter()
            .zip(probs_rows)
            .zip(gamma_rows)
            .map(|((row, coarse), gamma)| self.fine_rank(row, schema, mode, coarse, gamma))
            .collect()
    }

    /// Alias for [`DiagNet::rank_causes_batch`] under the benchmarking
    /// vocabulary: "score" a batch of episodes end to end.
    pub fn score_batch(&self, rows: &[Vec<f32>], schema: &FeatureSchema) -> Vec<CauseRanking> {
        self.rank_causes_batch(rows, schema)
    }

    /// Create a **specialised** model for one service (§IV-F): the shared
    /// layers (LandPooling + first FC) are frozen at their general-model
    /// values and only the final layers are retrained on the service's
    /// samples. The auxiliary forest and normaliser are shared.
    pub fn specialize(&self, service_data: &Dataset, seed: u64) -> Result<DiagNet, NnError> {
        if service_data.is_empty() {
            return Err(NnError::InvalidTrainingData("empty service dataset".into()));
        }
        let (raw_rows, labels) = service_data.to_rows(&self.train_schema, 0.0);
        let rows = self.normalizer.apply_batch(&self.train_schema, &raw_rows);
        let x = Matrix::from_rows(&rows);
        let (tx, ty, vx, vy) = train_val_split(
            &x,
            &labels,
            self.config.validation_fraction,
            SplitMix64::derive(seed, 4),
        );
        let mut network = self.network.clone();
        network.freeze_only(&SHARED_LAYERS);
        let class_weights = self
            .config
            .balance_classes
            .then(|| balanced_class_weights(&ty, diagnet_sim::metrics::ALL_FAMILIES.len()));
        let mut spec_config = self.config.clone();
        spec_config.learning_rate *= self.config.specialize_lr_factor;
        let history = fit_network(
            &spec_config,
            &mut network,
            &tx,
            &ty,
            (&vx, &vy),
            class_weights,
            SplitMix64::derive(seed, 5),
        )?;
        Ok(DiagNet::from_parts(
            self.config.clone(),
            network,
            self.normalizer.clone(),
            self.train_schema.clone(),
            self.auxiliary.clone(),
            history,
        ))
    }

    /// Total network parameter count (the paper reports 215,312 for the
    /// general model at Table I's hyper-parameters).
    pub fn num_params(&self) -> usize {
        self.network.num_params()
    }

    /// Trainable parameters (65,664 + output layer for specialised models).
    pub fn num_trainable_params(&self) -> usize {
        self.network.num_trainable_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diagnet_sim::dataset::DatasetConfig;
    use diagnet_sim::world::World;

    /// One shared trained model for the whole test module (training the
    /// fast config still costs seconds; no test mutates it).
    fn trained_fast() -> &'static (World, Dataset, Dataset, DiagNet) {
        static CELL: std::sync::OnceLock<(World, Dataset, Dataset, DiagNet)> =
            std::sync::OnceLock::new();
        CELL.get_or_init(|| {
            let world = World::new();
            let ds =
                Dataset::generate(&world, &DatasetConfig::small(&world, 21)).expect("generate");
            let split = ds.split(0.8, 21);
            let model = DiagNet::train(&DiagNetConfig::fast(), &split.train, 21).unwrap();
            (world, split.train, split.test, model)
        })
    }

    #[test]
    fn paper_network_shape_and_params() {
        let net = DiagNet::build_network(&DiagNetConfig::paper(), 1);
        // LandPool(24×5+24) + FC(317→512) + FC(512→128) + FC(128→7).
        assert_eq!(
            net.num_params(),
            144 + (317 * 512 + 512) + (512 * 128 + 128) + (128 * 7 + 7)
        );
        // Accepts both the 7-landmark training width and the 10-landmark
        // test width.
        assert_eq!(net.out_dim(40).unwrap(), 7);
        assert_eq!(net.out_dim(55).unwrap(), 7);
    }

    #[test]
    fn training_produces_history_and_finite_predictions() {
        let (_, train, test, model) = trained_fast();
        assert!(model.history.epochs_run >= 1);
        assert!(!model.history.val_loss.is_empty());
        let schema = FeatureSchema::full();
        let ranking = model.rank_causes(&test.samples[0].features, &schema);
        assert_eq!(ranking.scores.len(), 55);
        assert!(ranking.scores.iter().all(|s| s.is_finite() && *s >= 0.0));
        assert!((ranking.scores.iter().sum::<f32>() - 1.0).abs() < 1e-3);
        assert_eq!(ranking.coarse.len(), 7);
        let _ = train;
    }

    #[test]
    fn coarse_classifier_learns_something() {
        let (_, train, _, model) = trained_fast();
        let schema = model.train_schema.clone();
        let (rows, labels) = train.to_rows(&schema, 0.0);
        let preds = model.coarse_classify_batch(&rows, &schema);
        // The helper must agree with manual argmax of the probabilities.
        let probs = model.coarse_predict_batch(&rows, &schema);
        for (p, &cls) in probs.iter().zip(&preds).take(20) {
            let manual = p
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            assert_eq!(cls, manual);
        }
        let acc = diagnet_eval::accuracy(&preds, &labels);
        // Most samples are nominal, so even the majority class gives ~0.85;
        // require clearly better than uniform-random.
        assert!(acc > 0.5, "training accuracy {acc}");
    }

    #[test]
    fn extensible_inference_on_more_landmarks_than_trained() {
        let (_, _, test, model) = trained_fast();
        // Train schema has 7 landmarks; inference on the full 10 works
        // without retraining (the paper's root-cause extensibility).
        assert_eq!(model.train_schema.n_landmarks(), 7);
        let full = FeatureSchema::full();
        for s in test.samples.iter().take(5) {
            let r = model.rank_causes(&s.features, &full);
            assert_eq!(r.scores.len(), full.n_features());
        }
    }

    #[test]
    fn w_unknown_zero_on_train_schema() {
        let (_, _, test, model) = trained_fast();
        let schema = model.train_schema.clone();
        let projected = schema.project_from(&FeatureSchema::full(), &test.samples[0].features, 0.0);
        let r = model.rank_causes(&projected, &schema);
        assert_eq!(r.w_unknown, 0.0, "no unknown landmarks → pure auxiliary");
    }

    #[test]
    fn pipeline_modes_differ() {
        let (_, _, test, model) = trained_fast();
        let full = FeatureSchema::full();
        let f = &test.samples[0].features;
        let raw = model.rank_causes_with(f, &full, PipelineMode::AttentionOnly);
        let weighted = model.rank_causes_with(f, &full, PipelineMode::AttentionWeighted);
        let fullp = model.rank_causes_with(f, &full, PipelineMode::Full);
        assert_eq!(raw.w_unknown, 0.0);
        assert!(fullp.w_unknown >= 0.0);
        // The stages genuinely transform the scores.
        assert_ne!(raw.scores, fullp.scores);
        let _ = weighted;
    }

    #[test]
    fn batch_matches_single() {
        let (_, _, test, model) = trained_fast();
        let full = FeatureSchema::full();
        let rows: Vec<Vec<f32>> = test
            .samples
            .iter()
            .take(4)
            .map(|s| s.features.clone())
            .collect();
        let batch = model.rank_causes_batch(&rows, &full);
        for (row, b) in rows.iter().zip(&batch) {
            assert_eq!(&model.rank_causes(row, &full), b);
        }
    }

    /// ISSUE 2 acceptance: batched end-to-end scoring agrees with the
    /// per-row pipeline within 1e-5 across a whole simulated test split
    /// (in fact the shared kernels keep them bit-identical, but this test
    /// pins the documented tolerance contract over many samples).
    #[test]
    fn score_batch_agrees_with_per_row_on_dataset() {
        let (_, _, test, model) = trained_fast();
        let full = FeatureSchema::full();
        let rows: Vec<Vec<f32>> = test.samples.iter().map(|s| s.features.clone()).collect();
        assert!(rows.len() > 20, "need a non-trivial batch");
        let batch = model.score_batch(&rows, &full);
        assert_eq!(batch.len(), rows.len());
        for (row, b) in rows.iter().zip(&batch) {
            let single = model.rank_causes(row, &full);
            for (s, bb) in single.scores.iter().zip(&b.scores) {
                assert!((s - bb).abs() < 1e-5, "score drifted: {s} vs {bb}");
            }
            for (s, bb) in single.coarse.iter().zip(&b.coarse) {
                assert!((s - bb).abs() < 1e-5, "coarse drifted: {s} vs {bb}");
            }
            assert!((single.w_unknown - b.w_unknown).abs() < 1e-5);
        }
    }

    #[test]
    fn batch_modes_match_single_modes() {
        let (_, _, test, model) = trained_fast();
        let full = FeatureSchema::full();
        let rows: Vec<Vec<f32>> = test
            .samples
            .iter()
            .take(3)
            .map(|s| s.features.clone())
            .collect();
        for mode in [
            PipelineMode::AttentionOnly,
            PipelineMode::AttentionWeighted,
            PipelineMode::Full,
        ] {
            let batch = model.rank_causes_batch_with(&rows, &full, mode);
            for (row, b) in rows.iter().zip(&batch) {
                assert_eq!(&model.rank_causes_with(row, &full, mode), b);
            }
        }
    }

    #[test]
    fn predict_batch_matches_coarse_predict() {
        let (_, _, test, model) = trained_fast();
        let schema = FeatureSchema::full();
        let rows: Vec<Vec<f32>> = test
            .samples
            .iter()
            .take(6)
            .map(|s| s.features.clone())
            .collect();
        let probs = model.predict_batch(&rows, &schema);
        assert_eq!(probs.rows(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(probs.row(i), model.coarse_predict(row, &schema).as_slice());
        }
    }

    #[test]
    fn specialization_freezes_shared_layers() {
        let (world, train, _, model) = trained_fast();
        let sid = world.catalog.by_name("video.stream").unwrap().id;
        let service_data = train.filter_service(sid);
        let special = model.specialize(&service_data, 33).unwrap();
        // Shared layers keep their weights (only the frozen flag differs).
        let (Layer::LandPool(a), Layer::LandPool(b)) =
            (&special.network.layers[0], &model.network.layers[0])
        else {
            panic!("layer 0 must be LandPool")
        };
        assert_eq!(a.kernel, b.kernel, "LandPooling kernel must stay frozen");
        assert_eq!(a.bias, b.bias, "LandPooling bias must stay frozen");
        let (Layer::Dense(a), Layer::Dense(b)) =
            (&special.network.layers[1], &model.network.layers[1])
        else {
            panic!("layer 1 must be Dense")
        };
        assert_eq!(a.w, b.w, "first FC weights must stay frozen");
        assert_eq!(a.b, b.b, "first FC bias must stay frozen");
        assert!(special.num_trainable_params() < model.num_params());
    }

    /// Each model ranks through a plan built from its own weights: a
    /// clone's agrees with the original's, a specialised model's reflects
    /// its retrained head, and neither path drifts from the transposing
    /// reference (`attention_scores_batch`, which takes no plan).
    #[test]
    fn clones_and_specialised_models_rank_with_their_own_plan() {
        let (world, train, test, model) = trained_fast();
        let full = FeatureSchema::full();
        let rows: Vec<Vec<f32>> = test
            .samples
            .iter()
            .take(5)
            .map(|s| s.features.clone())
            .collect();
        let reference = |m: &DiagNet| {
            crate::attention::attention_scores_batch(
                &m.network,
                &m.normalizer.apply_matrix(&full, &rows),
            )
        };
        let attention = |m: &DiagNet| -> Vec<Vec<f32>> {
            m.rank_causes_batch_with(&rows, &full, PipelineMode::AttentionOnly)
                .into_iter()
                .map(|r| r.scores)
                .collect()
        };
        // A clone copies the plan if the original has ranked already and
        // builds its own on first use if not (other tests share the
        // fixture, so either can happen here): both must describe the
        // clone's weights.
        let clone = model.clone();
        assert_eq!(attention(&clone), reference(model));
        assert!(clone.plan.get().is_some_and(|p| p.matches(&clone.network)));
        let clone_of_ranked = clone.clone();
        assert!(clone_of_ranked.plan.get().is_some());
        assert_eq!(attention(&clone_of_ranked), reference(model));

        let sid = world.catalog.by_name("video.stream").unwrap().id;
        let special = model.specialize(&train.filter_service(sid), 33).unwrap();
        assert!(special.plan.get().is_none(), "a new model starts unplanned");
        assert_eq!(attention(&special), reference(&special));
        assert_ne!(attention(&special), attention(model));
        for (row, b) in rows.iter().zip(special.rank_causes_batch(&rows, &full)) {
            assert_eq!(special.rank_causes(row, &full), b);
        }
    }

    /// The plan is built by the health probe every publish and every store
    /// decode runs, not by whichever client asks first: once `validate`
    /// has returned `Ok` the model holds a plan of its own weights.
    #[test]
    fn validate_leaves_the_plan_built() {
        use crate::backend::Backend;
        let (_, _, _, model) = trained_fast();
        let fresh = DiagNet {
            plan: OnceLock::new(),
            ..model.clone()
        };
        fresh.validate().expect("healthy model");
        assert!(fresh.plan.get().is_some_and(|p| p.matches(&fresh.network)));
    }

    /// `network` is a public field, so nothing stops a caller editing a
    /// weight after the plan was built; debug builds (tier-1 runs them)
    /// refuse to rank with the stale plan instead of serving scores of a
    /// network that no longer exists.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale InputGradPlan")]
    fn mutating_the_network_after_ranking_is_caught() {
        let (_, _, test, model) = trained_fast();
        let full = FeatureSchema::full();
        let mut model = model.clone();
        model.rank_causes(&test.samples[0].features, &full);
        let Some(Layer::Dense(head)) = model.network.layers.last_mut() else {
            panic!("last layer must be Dense")
        };
        head.w.set(0, 0, head.w.get(0, 0) + 1.0);
        model.rank_causes(&test.samples[0].features, &full);
    }

    #[test]
    fn training_is_deterministic() {
        let world = World::new();
        let ds = Dataset::generate(&world, &DatasetConfig::small(&world, 5)).expect("generate");
        let split = ds.split(0.8, 5);
        let a = DiagNet::train(&DiagNetConfig::fast(), &split.train, 9).unwrap();
        let b = DiagNet::train(&DiagNetConfig::fast(), &split.train, 9).unwrap();
        assert_eq!(a.network, b.network);
    }

    /// The two legs wait on one barrier, so the call returns only if they
    /// run at the same time (in sequence it deadlocks), and the forest leg
    /// runs on its own named thread.
    #[test]
    fn legs_overlap_and_the_forest_leg_has_its_own_named_thread() {
        let barrier = std::sync::Barrier::new(2);
        let here = || {
            barrier.wait();
            let thread = std::thread::current();
            (thread.id(), thread.name().map(str::to_owned))
        };
        let caller = std::thread::current().id();
        let ((net_id, _), (forest_id, forest_name)) = join_legs(here, here);
        assert_eq!(net_id, caller, "the network leg stays on the caller");
        assert_ne!(forest_id, caller);
        assert_eq!(forest_name.as_deref(), Some("diagnet-forest"));
    }

    /// A leg that fails or panics at once does not leave the other behind:
    /// the forest leg's last act has happened by the time the call is over,
    /// and a network-leg panic arrives with its own payload.
    #[test]
    fn a_failed_network_leg_still_waits_for_the_forest_leg() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let finished = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(2);
        // The forest leg cannot end before the network leg is on its way
        // out: its exit is after the barrier the network leg passes last.
        let forest = || {
            barrier.wait();
            finished.fetch_add(1, Ordering::SeqCst);
        };
        let (failed, ()) = join_legs(
            || {
                barrier.wait();
                Err::<(), &str>("bad config")
            },
            forest,
        );
        assert_eq!(failed, Err("bad config"));
        assert_eq!(finished.load(Ordering::SeqCst), 1);

        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            join_legs(
                || {
                    barrier.wait();
                    panic!("network leg blew up")
                },
                forest,
            )
        }))
        .expect_err("the network leg panicked");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"network leg blew up"));
        assert_eq!(finished.load(Ordering::SeqCst), 2);
    }

    /// `training_is_deterministic` compares the threaded schedule with
    /// itself; this compares it with the two fits run one after the other
    /// on this thread and assembled by hand.
    #[test]
    fn threaded_training_equals_the_serial_schedule_bit_for_bit() {
        let (_, train, test, model) = trained_fast();
        let (config, schema, seed) = (DiagNetConfig::fast(), FeatureSchema::known(), 21);
        let (raw_rows, labels) = train.to_rows(&schema, 0.0);
        let normalizer = Normalizer::fit_with(&schema, &raw_rows, config.stabilize_features);
        let x = Matrix::from_rows(&normalizer.apply_batch(&schema, &raw_rows));
        let (tx, ty, vx, vy) = train_val_split(
            &x,
            &labels,
            config.validation_fraction,
            SplitMix64::derive(seed, 1),
        );
        let mut network = DiagNet::build_network(&config, seed);
        let class_weights = balanced_class_weights(&ty, diagnet_sim::metrics::ALL_FAMILIES.len());
        let history = fit_network(
            &config,
            &mut network,
            &tx,
            &ty,
            (&vx, &vy),
            Some(class_weights),
            SplitMix64::derive(seed, 2),
        )
        .unwrap();
        let auxiliary = DiagNet::train_auxiliary(&config, train, &schema, seed).unwrap();
        let serial = DiagNet::from_parts(config, network, normalizer, schema, auxiliary, history);

        let bits = |m: &DiagNet| -> Vec<u32> {
            let mut out = Vec::new();
            for layer in &m.network.layers {
                match layer {
                    Layer::LandPool(l) => {
                        out.extend(l.kernel.data().iter().map(|v| v.to_bits()));
                        out.extend(l.bias.iter().map(|v| v.to_bits()));
                    }
                    Layer::Dense(l) => {
                        out.extend(l.w.data().iter().map(|v| v.to_bits()));
                        out.extend(l.b.iter().map(|v| v.to_bits()));
                    }
                    _ => {}
                }
            }
            out
        };
        assert_eq!(bits(model), bits(&serial));
        assert_eq!(bits(model).len(), model.num_params());
        let full = FeatureSchema::full();
        let score_bits = |m: &DiagNet, features: &[f32]| -> Vec<u32> {
            let r = m.rank_causes(features, &full);
            let all = r.scores.iter().chain(&r.coarse).chain([&r.w_unknown]);
            all.map(|v| v.to_bits()).collect()
        };
        assert!(test.samples.len() >= 50);
        for sample in test.samples.iter().take(50) {
            assert_eq!(
                score_bits(model, &sample.features),
                score_bits(&serial, &sample.features)
            );
        }
    }

    /// A panic on the forest thread reaches the caller as itself, not as
    /// the scope's "a scoped thread panicked": the supervisor shows an
    /// operator this text.
    #[test]
    fn a_forest_leg_panic_keeps_its_message() {
        let (_, train, _, _) = trained_fast();
        let mut config = DiagNetConfig::fast();
        config.forest.n_trees = 0;
        let payload = std::panic::catch_unwind(|| DiagNet::train(&config, train, 1))
            .expect_err("a forest of no trees cannot be fitted");
        let message = payload.downcast_ref::<&str>().expect("assertion text");
        assert!(message.contains("need at least one tree"), "{message}");
    }

    #[test]
    fn a_network_leg_error_is_returned() {
        let (_, train, _, _) = trained_fast();
        let mut config = DiagNetConfig::fast();
        config.batch_size = 0;
        let err = DiagNet::train(&config, train, 1).unwrap_err();
        assert!(matches!(err, NnError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn rejects_empty_dataset() {
        let world = World::new();
        let empty = Dataset {
            schema: world.schema.clone(),
            samples: Vec::new(),
        };
        assert!(DiagNet::train(&DiagNetConfig::fast(), &empty, 1).is_err());
    }
}
