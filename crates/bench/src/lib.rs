//! # consent-bench
//!
//! Criterion benches that regenerate the paper's tables and figures,
//! one target per table or figure under `benches/`, plus the design
//! ablations (`ablations`). Each prints its reproduced rows once, then
//! times the computation behind them:
//!
//! ```text
//! cargo bench --bench table1_vantage
//! ```
//!
//! This crate is not the performance harness. The repository's one
//! benchmark is `perfbench/` (declared by `BENCHMARK.json`, described in
//! `BENCHMARKS.md`): it runs the Table 1 campaign, the Figure 3 feed and
//! a durable, observed campaign end to end and per layer, and checks
//! every repetition's output. The library target exists only because
//! Cargo needs one beside the bench targets; it has no items.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
