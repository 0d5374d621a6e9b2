//! # stwa-bench
//!
//! Experiment harness: one binary per table/figure of the paper
//! (`src/bin/table04.rs` … `fig10.rs`), plus the five `bench_*`
//! binaries whose `--check` runs gate `just verify` through the shared
//! [`gate`] harness.
//!
//! Every table/figure binary accepts the same flags (see [`cli`]),
//! prints the paper's table layout to stdout, and writes a CSV under
//! `results/`.

pub mod cli;
pub mod gate;
pub mod harness;
pub mod host;

pub use cli::Args;
pub use harness::{dataset_for, run_named_model, ResultTable};
