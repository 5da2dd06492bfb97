//! # tputpred-bench — figure regeneration and micro-benchmarks
//!
//! One binary per table/figure of the paper's evaluation lives in
//! `src/bin/` (see DESIGN.md's per-experiment index); the Criterion
//! micro-benchmarks live in `benches/`. This library holds what they
//! share:
//!
//! * [`cli`] — the tiny `--preset <name> --data <dir>` argument parser
//!   every figure binary uses;
//! * [`analysis`] — applying the FB predictor (Eq. 3) to epoch records,
//!   per-trace RMSRE evaluation of HB predictors (named from
//!   `tputpred_core::catalog`), and dataset caching;
//! * [`profile`] — telemetry-enabled generation (the `perf_report`
//!   binary) and the `BENCH_gen_<preset>.json` perf report.
//!
//! Figure binaries print plain-text series/tables (via
//! [`tputpred_stats::render`]) so the output is diff- and grep-friendly;
//! run them in release mode, e.g.:
//!
//! ```text
//! cargo run --release -p tputpred-bench --bin fig02_fb_error_cdf -- --preset quick
//! ```

pub mod analysis;
pub mod cli;
pub mod profile;

pub use analysis::*;
pub use cli::Args;
pub use profile::{PerfReport, StageTiming};
