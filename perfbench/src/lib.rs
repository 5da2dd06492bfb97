//! The repository benchmark: three workloads (cold generation, warm
//! shard walk, predictor league), their end-to-end metrics, and a
//! traced run that splits the wall time by layer. See `README.md` in
//! this package for the workloads, every metric and how to run it.

pub mod checks;
pub mod report;
pub mod run;
pub mod spans;
pub mod summary;
pub mod sys;
pub mod walk;
pub mod workloads;
