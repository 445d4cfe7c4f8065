//! # diagnet-cli — command-line interface
//!
//! A small, dependency-free CLI over the DiagNet reproduction:
//!
//! ```text
//! diagnet simulate  --scenarios 100 --seed 42 --out dataset.json
//! diagnet train     --data dataset.json --out model.json [--config fast]
//!                   [--backend diagnet|forest|bayes]
//! diagnet specialize --model model.json --data dataset.json \
//!                    --service video.stream --out special.json
//! diagnet diagnose  --model model.json --data dataset.json --sample 3
//! diagnet evaluate  --model model.json --data dataset.json [--k 5]
//! diagnet info      --model model.json
//! diagnet serve     --addr 127.0.0.1:8080 --workers 4
//! ```
//!
//! Datasets and models are interchanged as JSON, so pipelines can be
//! scripted and artefacts inspected. Models are wrapped in a versioned
//! envelope tagged with their [`BackendKind`](diagnet::backend::BackendKind);
//! `--backend` selects the family on `train` and asserts the artefact's
//! kind elsewhere. Errors are the typed [`CliError`]: user errors exit
//! with status 2, environment errors with 1.

pub mod args;
pub mod commands;
pub mod error;
pub mod io;
pub mod serve;

pub use args::{Args, Command};
pub use commands::run;
pub use error::CliError;
