//! consent-watch: a deterministic SLO & anomaly watchdog for
//! consent-observatory campaigns.
//!
//! Long measurement campaigns rot silently: a vantage starts getting
//! blocked, the CMP detection rate drifts as fingerprints age, the
//! dead-letter rate creeps up, a domain stops producing usable captures
//! and the longitudinal interpolation quietly loses confidence. This
//! crate watches for all of that *while the campaign runs*, with the
//! same determinism contract as the rest of the observability plane:
//! every verdict is a pure function of logical-tick counter deltas, so
//! the alert stream is byte-identical across thread counts and
//! kill-halfway resumes.
//!
//! Three detector families (see [`rules`] for the spec grammar, which
//! the `flight_recorder` example reads from `CONSENT_WATCH`):
//!
//! - **burn-rate SLO** (`slo:usable:700:3`, …) — short window breaches
//!   open a pending alert, the long-window aggregate confirms it to
//!   firing;
//! - **EWMA drift** (`drift:cmp:300:8`, …) — integer EWMA z-score over
//!   CMP detection rate or throughput;
//! - **coverage gap** (`gap:25`) — ticks since the last usable capture
//!   per vantage, the live warning mirror of the offline
//!   interpolation-confidence analysis.
//!
//! The [`Watch`] engine judges the durable campaign driver's
//! observation window — the same window the flight recorder samples —
//! through a two-phase stage/commit protocol, so that alerts, like obs
//! samples, only describe durable windows; its state is persisted in
//! the checkpoint (section [`WATCH_STATE_SECTION`]) and restored on
//! recovery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod rules;

pub use engine::{AlertEvent, Watch, WATCH_SCHEMA_VERSION, WATCH_STATE_SECTION};
pub use rules::{DriftMetric, DriftRule, GapRule, SloMetric, SloRule, WatchConfig};
