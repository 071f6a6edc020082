//! # consent-obs
//!
//! The campaign flight recorder: observability for long-running
//! measurement campaigns. Where `consent-telemetry` answers "what
//! happened?" at the end of a run, this crate answers "what happened
//! when?" window by window — the paper's 547-day × multi-vantage
//! campaigns (and the roadmap's million-domain observatory) are
//! hour-scale jobs whose health must be visible before the final
//! report.
//!
//! Three pieces:
//!
//! - [`Sampler`] records each observation window
//!   `run_durable_campaign` closes (`DurableOpts::sampler`) — a
//!   [`Registry::delta`](consent_telemetry::Registry::delta) — into a
//!   ring-buffered [`TimeSeries`] of [`ObsSample`]s, whose
//!   `OBS_*.jsonl` export is byte-identical across thread counts and
//!   kill-halfway resumes.
//! - [`prometheus::exposition`] renders any snapshot in Prometheus
//!   text-exposition format for scraping.
//! - [`FlightReport`] digests the series + a cumulative snapshot into a
//!   post-run report: phase breakdown, throughput curve and fault
//!   heatmap over the series' windows, and cumulative pair latency.
//!
//! See the [`sampler`] module docs for the determinism boundary, and
//! `examples/flight_recorder.rs` for the end-to-end wiring.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod prometheus;
pub mod sampler;
pub mod series;

pub use flight::{
    ArchiveHealth, DegradeRow, FaultRow, FlightAlert, FlightReport, PhaseRow, StorageHealth,
    ThroughputPoint,
};
pub use sampler::{ObsConfig, Sampler, DEFAULT_DENY};
pub use series::{ObsSample, TimeSeries, OBS_SCHEMA_VERSION};
