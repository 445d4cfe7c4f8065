//! # diagnet-bench — the experiment harness
//!
//! Regenerates every table and figure of the DiagNet paper's evaluation
//! section on the simulated testbed. One binary per artefact:
//!
//! | binary     | paper artefact | what it reports |
//! |------------|----------------|-----------------|
//! | `fig5`     | Fig. 5         | Recall@k (k = 1…5) near new vs known landmarks, 3 models |
//! | `fig6`     | Fig. 6         | Recall@5 per fault family and per fault region |
//! | `fig7`     | Fig. 7         | Coarse-classifier F1 per family + accuracy ± CI |
//! | `fig8`     | Fig. 8         | Recall@5 on new landmarks vs client diversity |
//! | `fig9`     | Fig. 9         | Loss curves + wall-clock cost, general vs specialised |
//! | `fig10`    | Fig. 10        | Simultaneous faults near BEAU + GRAV, general vs specialised |
//! | `headline` | §IV-C          | Combined Recall@1 (paper: 73.9 %) |
//! | `params`   | §IV-F          | Parameter counts, general vs specialised |
//! | `all`      | —              | Everything above, sharing one training run |
//!
//! Every binary honours three environment variables:
//!
//! * `DIAGNET_SCENARIOS` — number of fault scenarios (default 400 →
//!   40 000 samples);
//! * `DIAGNET_SEED` — master seed (default 42);
//! * `DIAGNET_CONFIG` — `paper` (default) or `fast`.
//!
//! Results are printed as aligned text tables and appended as JSON lines
//! to `target/experiments/<name>.jsonl` for machine consumption.
//!
//! This crate measures accuracy, not speed: every speed number comes from
//! the benchmark at the repository root (`benchmark/README.md`). The one
//! exception is the `scale` binary, a non-gated diagnostic of streaming
//! throughput and peak memory at a million probes (`BENCH_scale.json`).

pub mod experiments;
pub mod harness;
pub mod report;

pub use harness::{
    BackendEntry, EvalSample, ExperimentContext, HarnessConfig, ModelKind, Scorer, TrainedModels,
};
pub use report::{json_out, Table};
