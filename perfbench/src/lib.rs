//! The observatory's benchmark: four pipeline workloads driven through
//! the public API of `consent-crawler`, `consent-checkpoint`,
//! `consent-bundle` and `consent-analysis`, each repetition checked
//! against a reference computed at set-up. An untraced run reports the
//! end-to-end metrics; a traced run times calls into each layer from
//! this crate's own code and reports the per-layer ledger.
//!
//! See `README.md` in this directory for the workloads, the metrics
//! and how to run the benchmark.

#![forbid(unsafe_code)]

pub mod feed_replica;
pub mod ledger;
pub mod vfs;
pub mod workloads;

#[cfg(test)]
mod tests;
