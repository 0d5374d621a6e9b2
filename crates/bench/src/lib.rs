//! # stwa-bench
//!
//! Experiment harness: one binary per table/figure of the paper
//! (`src/bin/table04.rs` … `fig10.rs`) plus Criterion micro-benchmarks
//! for the complexity claims (`benches/`).
//!
//! Every binary accepts the same flags (see [`cli`]), prints the paper's
//! table layout to stdout, and writes a CSV under `results/`.

pub mod cli;
pub mod harness;
pub mod host;

pub use cli::Args;
pub use harness::{dataset_for, run_named_model, ResultTable};
