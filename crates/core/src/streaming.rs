//! Streaming (chunk-oriented) training: bounded-memory DiagNet fitting
//! over a [`SampleSource`] that never materialises the whole dataset.
//!
//! Two regimes, selected by [`StreamOptions::shuffle_window`]:
//!
//! * **Full window** (`None`): the source is collected into a [`Dataset`]
//!   and training delegates to [`DiagNet::train_with_schema`] — the
//!   materialised adapter, bitwise-identical to the legacy path. Use this
//!   when the data fits in RAM and reproducibility against existing golden
//!   fingerprints matters.
//! * **Bounded window** (`Some(w)`): training memory stays `O(w + chunk)`
//!   regardless of sample count. One statistics pass accumulates the
//!   normaliser (bit-identical to the batch fit, see
//!   [`NormalizerAccumulator`](crate::normalize::NormalizerAccumulator)),
//!   collects the (capped) validation split and a seed-pinned reservoir
//!   for the auxiliary forest; then the network trains via
//!   [`Trainer::fit_streaming`] with a `w`-row shuffle window. Results are
//!   deterministic in the seed and independent of the source's chunk size,
//!   but — deliberately and by construction — not bitwise-equal to the
//!   materialised path: a bounded buffer cannot reproduce a
//!   full-permutation shuffle.
//!
//! The bounded regime departs from the materialised pipeline in two
//! documented ways: validation is capped at
//! [`StreamOptions::max_validation_rows`] (an epoch-sized validation set
//! would defeat the memory bound), and the auxiliary forest fits on a
//! uniform reservoir sample of at most [`StreamOptions::aux_reservoir`]
//! samples rather than every row (forests need materialised rows).

use crate::backend::{Backend, BackendConfig, BackendKind};
use crate::config::{DiagNetConfig, OptimizerKind};
use crate::model::DiagNet;
use crate::normalize::Normalizer;
use diagnet_nn::batch::BatchSource;
use diagnet_nn::error::NnError;
use diagnet_nn::optim::{Adam, SgdNesterov};
use diagnet_nn::tensor::Matrix;
use diagnet_nn::train::{TrainConfig, TrainHistory, Trainer};
use diagnet_rng::SplitMix64;
use diagnet_sim::dataset::{Dataset, Sample};
use diagnet_sim::metrics::FeatureSchema;
use diagnet_sim::stream::{SampleChunk, SampleSource};

/// Knobs of the streaming training path.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Shuffle-window size for the network trainer. `None` buffers the
    /// whole pass (materialised-equivalent, unbounded memory); `Some(w)`
    /// bounds training memory to `w` rows plus one source chunk.
    pub shuffle_window: Option<usize>,
    /// Upper bound on held-out validation rows in the bounded regime (the
    /// materialised path holds out `validation_fraction` of everything,
    /// which at streaming scale would defeat the memory bound).
    pub max_validation_rows: usize,
    /// Upper bound on the seed-pinned uniform reservoir the auxiliary
    /// forest (and the baseline backends) train on in the bounded regime.
    pub aux_reservoir: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            shuffle_window: None,
            max_validation_rows: 10_000,
            aux_reservoir: 50_000,
        }
    }
}

impl StreamOptions {
    /// Bounded-memory defaults with a given shuffle window.
    pub fn bounded(window: usize) -> Self {
        StreamOptions {
            shuffle_window: Some(window),
            ..Default::default()
        }
    }
}

/// Drain `source` into a materialised [`Dataset`] (the adapter between the
/// chunked world and collect-everything consumers).
pub fn collect_source(source: &mut dyn SampleSource) -> Dataset {
    let schema = source.schema().clone();
    let mut samples = Vec::with_capacity(source.n_samples());
    source.reset();
    while let Some(chunk) = source.next_chunk() {
        samples.extend(chunk.samples);
    }
    Dataset { schema, samples }
}

/// Inverse-frequency class weights from a per-class histogram — the
/// count-based flavour of
/// [`balanced_class_weights`](crate::model::balanced_class_weights), used
/// when labels stream past instead of sitting in a slice.
fn balanced_class_weights_from_counts(counts: &[usize]) -> Vec<f32> {
    let n_classes = counts.len();
    let n = counts.iter().sum::<usize>().max(1) as f32;
    let mut weights: Vec<f32> = counts
        .iter()
        .map(|&c| (n / (n_classes as f32 * c.max(1) as f32)).sqrt().min(8.0))
        .collect();
    let mean: f32 = counts
        .iter()
        .zip(&weights)
        .map(|(&c, &w)| c as f32 * w)
        .sum::<f32>()
        / n;
    if mean > 0.0 {
        for w in &mut weights {
            *w /= mean;
        }
    }
    weights
}

/// Uniform seed-pinned reservoir (Algorithm R) over streamed samples.
struct Reservoir {
    samples: Vec<Sample>,
    cap: usize,
    seen: u64,
    rng: SplitMix64,
}

impl Reservoir {
    fn new(cap: usize, seed: u64) -> Self {
        Reservoir {
            samples: Vec::with_capacity(cap.min(4096)),
            cap,
            seen: 0,
            rng: SplitMix64::new(seed),
        }
    }

    fn offer(&mut self, sample: &Sample) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(sample.clone());
        } else {
            let j = self.rng.next_below(self.seen as usize);
            if j < self.cap {
                self.samples[j] = sample.clone();
            }
        }
    }
}

/// [`BatchSource`] adapter: pulls chunks from a [`SampleSource`], skips
/// held-out validation rows, projects features into the training schema
/// and standardises them with the fitted normaliser. Holds at most one
/// chunk at a time.
struct ProjectedBatchSource<'a> {
    source: &'a mut dyn SampleSource,
    full_schema: FeatureSchema,
    train_schema: &'a FeatureSchema,
    normalizer: &'a Normalizer,
    is_val: &'a [bool],
    width: usize,
    n_train: usize,
    chunk: Option<SampleChunk>,
    pos: usize,
}

impl<'a> ProjectedBatchSource<'a> {
    fn new(
        source: &'a mut dyn SampleSource,
        train_schema: &'a FeatureSchema,
        normalizer: &'a Normalizer,
        is_val: &'a [bool],
        n_train: usize,
    ) -> Self {
        let full_schema = source.schema().clone();
        source.reset();
        ProjectedBatchSource {
            source,
            full_schema,
            width: train_schema.n_features(),
            train_schema,
            normalizer,
            is_val,
            n_train,
            chunk: None,
            pos: 0,
        }
    }
}

impl BatchSource for ProjectedBatchSource<'_> {
    fn num_rows(&self) -> usize {
        self.n_train
    }

    fn width(&self) -> usize {
        self.width
    }

    fn reset(&mut self) {
        self.source.reset();
        self.chunk = None;
        self.pos = 0;
    }

    fn next_rows(&mut self, limit: usize, x: &mut Vec<f32>, y: &mut Vec<usize>) -> usize {
        let mut appended = 0usize;
        while appended < limit {
            let exhausted = match &self.chunk {
                Some(c) => self.pos >= c.samples.len(),
                None => true,
            };
            if exhausted {
                self.chunk = self.source.next_chunk();
                self.pos = 0;
                if self.chunk.is_none() {
                    break;
                }
            }
            let Some(chunk) = &self.chunk else { break };
            let global = chunk.start + self.pos;
            let Some(sample) = chunk.samples.get(self.pos) else {
                break;
            };
            self.pos += 1;
            if self.is_val.get(global).copied().unwrap_or(false) {
                continue;
            }
            let raw = self
                .train_schema
                .project_from(&self.full_schema, &sample.features, 0.0);
            let start = x.len();
            x.resize(start + self.width, 0.0);
            if let Some(out) = x.get_mut(start..) {
                self.normalizer.apply_into(self.train_schema, &raw, out);
            }
            y.push(sample.label.family_index());
            appended += 1;
        }
        appended
    }
}

/// Fit `network` from a streaming source under `config`'s training
/// hyper-parameters (the streaming twin of the materialised `fit_network`).
fn fit_network_streaming(
    config: &DiagNetConfig,
    network: &mut diagnet_nn::network::Network,
    source: &mut dyn BatchSource,
    validation: (&Matrix, &[usize]),
    class_weights: Option<Vec<f32>>,
    window: usize,
    seed: u64,
) -> Result<TrainHistory, NnError> {
    let train_config = TrainConfig {
        epochs: config.epochs,
        batch_size: config.batch_size,
        patience: config.patience,
        shuffle: true,
        restore_best: true,
        class_weights,
        shuffle_window: Some(window),
    };
    match config.optimizer {
        OptimizerKind::SgdNesterov => Trainer::new(
            train_config,
            SgdNesterov::new(config.learning_rate, config.momentum, config.decay),
        )
        .fit_streaming(network, source, Some(validation), seed),
        OptimizerKind::Adam => Trainer::new(train_config, Adam::new(config.learning_rate))
            .fit_streaming(network, source, Some(validation), seed),
    }
}

impl DiagNet {
    /// Train a general DiagNet from a chunked [`SampleSource`] with the
    /// paper's hidden-landmark protocol. See the [module
    /// docs](crate::streaming) for the two regimes.
    pub fn train_streaming(
        config: &DiagNetConfig,
        source: &mut dyn SampleSource,
        options: &StreamOptions,
        seed: u64,
    ) -> Result<Self, NnError> {
        Self::train_streaming_with_schema(config, source, FeatureSchema::known(), options, seed)
    }

    /// Streaming training with an explicit training schema.
    pub fn train_streaming_with_schema(
        config: &DiagNetConfig,
        source: &mut dyn SampleSource,
        train_schema: FeatureSchema,
        options: &StreamOptions,
        seed: u64,
    ) -> Result<Self, NnError> {
        let n = source.n_samples();
        if n == 0 {
            return Err(NnError::InvalidTrainingData("empty dataset".into()));
        }
        let Some(window) = options.shuffle_window else {
            // Materialised adapter: identical to the legacy pipeline.
            let dataset = collect_source(source);
            return Self::train_with_schema(config, &dataset, train_schema, seed);
        };
        if window == 0 {
            return Err(NnError::InvalidConfig(
                "shuffle_window must be positive".into(),
            ));
        }

        // Held-out validation: the same seed-pinned index shuffle the
        // materialised split uses, capped so the held-out set cannot grow
        // with the dataset.
        let n_val = ((n as f32 * config.validation_fraction) as usize)
            .min(n.saturating_sub(1))
            .min(options.max_validation_rows);
        let mut order: Vec<usize> = (0..n).collect();
        SplitMix64::new(SplitMix64::derive(seed, 1)).shuffle(&mut order);
        let mut is_val = vec![false; n];
        for &i in order.iter().take(n_val) {
            is_val[i] = true;
        }
        drop(order);
        let n_train = n - n_val;

        // Statistics pass: normaliser moments over every row (matching the
        // materialised pipeline, which fits before splitting), raw
        // validation rows, train-label histogram, forest reservoir.
        let full_schema = source.schema().clone();
        let n_classes = diagnet_sim::metrics::ALL_FAMILIES.len();
        let mut acc = Normalizer::accumulator(config.stabilize_features);
        let mut label_counts = vec![0usize; n_classes];
        let mut val_raw: Vec<Vec<f32>> = Vec::with_capacity(n_val);
        let mut val_y: Vec<usize> = Vec::with_capacity(n_val);
        let mut reservoir =
            Reservoir::new(options.aux_reservoir.max(1), SplitMix64::derive(seed, 4));
        source.reset();
        while let Some(chunk) = source.next_chunk() {
            for (offset, sample) in chunk.samples.iter().enumerate() {
                let global = chunk.start + offset;
                let raw = train_schema.project_from(&full_schema, &sample.features, 0.0);
                acc.add_row(&train_schema, &raw);
                let label = sample.label.family_index();
                if is_val.get(global).copied().unwrap_or(false) {
                    val_raw.push(raw);
                    val_y.push(label);
                } else if let Some(slot) = label_counts.get_mut(label) {
                    *slot += 1;
                }
                reservoir.offer(sample);
            }
        }
        if acc.rows() != n {
            return Err(NnError::InvalidTrainingData(format!(
                "source promised {n} samples but yielded {}",
                acc.rows()
            )));
        }
        let normalizer = acc.finish();
        let vx = normalizer.apply_matrix(&train_schema, &val_raw);
        drop(val_raw);

        // Auxiliary forest on the reservoir (forests need materialised
        // rows; the reservoir is a uniform, seed-pinned stand-in).
        let aux_data = Dataset {
            schema: full_schema,
            samples: reservoir.samples,
        };
        let auxiliary = Self::train_auxiliary(config, &aux_data, &train_schema, seed)?;
        drop(aux_data);

        let class_weights = config
            .balance_classes
            .then(|| balanced_class_weights_from_counts(&label_counts));
        let mut network = Self::build_network(config, seed);
        let history = {
            let mut batches =
                ProjectedBatchSource::new(source, &train_schema, &normalizer, &is_val, n_train);
            fit_network_streaming(
                config,
                &mut network,
                &mut batches,
                (&vx, &val_y),
                class_weights,
                window,
                SplitMix64::derive(seed, 2),
            )?
        };

        Ok(DiagNet::from_parts(
            config.clone(),
            network,
            normalizer,
            train_schema,
            auxiliary,
            history,
        ))
    }
}

impl BackendKind {
    /// Streaming twin of [`BackendKind::train`]: fit a backend of this
    /// kind from a chunked source. DiagNet trains with bounded memory
    /// under [`StreamOptions`]; the forest and naive-Bayes baselines are
    /// inherently materialised, so in the bounded regime they fit on the
    /// seed-pinned reservoir ([`StreamOptions::aux_reservoir`] samples)
    /// and in the full-window regime on the collected dataset.
    pub fn train_streaming(
        self,
        config: &BackendConfig,
        source: &mut dyn SampleSource,
        train_schema: &FeatureSchema,
        options: &StreamOptions,
        seed: u64,
    ) -> Result<Box<dyn Backend>, NnError> {
        match self {
            BackendKind::DiagNet => Ok(Box::new(DiagNet::train_streaming_with_schema(
                &config.diagnet,
                source,
                train_schema.clone(),
                options,
                seed,
            )?)),
            BackendKind::Forest | BackendKind::NaiveBayes => {
                let dataset = match options.shuffle_window {
                    None => collect_source(source),
                    Some(_) => {
                        let mut reservoir = Reservoir::new(
                            options.aux_reservoir.max(1),
                            SplitMix64::derive(seed, 4),
                        );
                        let schema = source.schema().clone();
                        source.reset();
                        while let Some(chunk) = source.next_chunk() {
                            for sample in &chunk.samples {
                                reservoir.offer(sample);
                            }
                        }
                        Dataset {
                            schema,
                            samples: reservoir.samples,
                        }
                    }
                };
                self.train(config, &dataset, train_schema, seed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diagnet_sim::dataset::DatasetConfig;
    use diagnet_sim::stream::{DatasetStream, MaterializedSource};
    use diagnet_sim::world::World;

    fn fast_config() -> DiagNetConfig {
        DiagNetConfig::fast()
    }

    #[test]
    fn full_window_streaming_equals_materialized_training() {
        let world = World::new();
        let mut cfg = DatasetConfig::small(&world, 61);
        cfg.n_scenarios = 10;
        let dataset = Dataset::generate(&world, &cfg).expect("generate");
        let reference = DiagNet::train(&fast_config(), &dataset, 9).expect("materialized training");
        // Generator-backed source, several chunk sizes incl. a non-divisor.
        for chunk_size in [97usize, 250, 1000] {
            let mut stream = DatasetStream::new(&world, &cfg, chunk_size).expect("stream");
            let model =
                DiagNet::train_streaming(&fast_config(), &mut stream, &StreamOptions::default(), 9)
                    .expect("streaming training");
            assert_eq!(model.network, reference.network, "chunk {chunk_size}");
            assert_eq!(model.normalizer, reference.normalizer);
            assert_eq!(model.history.train_loss, reference.history.train_loss);
        }
        // Materialised adapter source too.
        let mut source = MaterializedSource::new(&dataset, 128).expect("source");
        let model =
            DiagNet::train_streaming(&fast_config(), &mut source, &StreamOptions::default(), 9)
                .expect("streaming training");
        assert_eq!(model.network, reference.network);
    }

    #[test]
    fn bounded_window_is_chunk_size_independent() {
        let world = World::new();
        let mut cfg = DatasetConfig::small(&world, 62);
        cfg.n_scenarios = 8;
        let options = StreamOptions {
            shuffle_window: Some(200),
            max_validation_rows: 100,
            aux_reservoir: 300,
        };
        let run = |chunk_size: usize| {
            let mut stream = DatasetStream::new(&world, &cfg, chunk_size).expect("stream");
            DiagNet::train_streaming(&fast_config(), &mut stream, &options, 13)
                .expect("streaming training")
        };
        let a = run(64);
        let b = run(97);
        let c = run(800);
        assert_eq!(a.network, b.network);
        assert_eq!(a.network, c.network);
        assert_eq!(a.normalizer, b.normalizer);
        // The normaliser sees every row in order, so it is bit-identical
        // to the materialised fit even in the bounded regime.
        let dataset = Dataset::generate(&world, &cfg).expect("generate");
        let reference = DiagNet::train(&fast_config(), &dataset, 13).expect("training");
        assert_eq!(a.normalizer, reference.normalizer);
    }

    #[test]
    fn backend_factories_stream_all_kinds() {
        let world = World::new();
        let mut cfg = DatasetConfig::small(&world, 63);
        cfg.n_scenarios = 6;
        let dataset = Dataset::generate(&world, &cfg).expect("generate");
        let config = BackendConfig::from_diagnet(fast_config());
        let schema = FeatureSchema::known();
        for kind in [
            BackendKind::DiagNet,
            BackendKind::Forest,
            BackendKind::NaiveBayes,
        ] {
            // Full-window streaming must agree with materialised training
            // on scoring behaviour.
            let reference = kind
                .train(&config, &dataset, &schema, 5)
                .expect("materialized");
            let mut source = MaterializedSource::new(&dataset, 97).expect("source");
            let streamed = kind
                .train_streaming(&config, &mut source, &schema, &StreamOptions::default(), 5)
                .expect("streamed");
            let row = &dataset.samples[0];
            let a = reference.rank_causes(&row.features, &dataset.schema);
            let b = streamed.rank_causes(&row.features, &dataset.schema);
            assert_eq!(a.scores, b.scores, "{kind}");
            // Bounded regime trains end to end.
            let mut source = MaterializedSource::new(&dataset, 128).expect("source");
            let bounded = kind
                .train_streaming(
                    &config,
                    &mut source,
                    &schema,
                    &StreamOptions::bounded(150),
                    5,
                )
                .expect("bounded");
            assert!(!bounded
                .rank_causes(&row.features, &dataset.schema)
                .scores
                .is_empty());
        }
    }
}
