//! # consent-faultsim
//!
//! A deterministic chaos layer for the capture pipeline. The simulated
//! web (`consent-httpsim`) only produces the world's *deterministic*
//! failure modes — geo blocks, anti-bot CDNs, unreachable hosts. Real
//! crawls also suffer *transient* faults: dropped connections, network
//! timeouts, truncated records, and rate-limit escalation after repeated
//! hits from the same vantage (§3.2 retries "three times over a week"
//! precisely because of these). This crate injects those faults
//! reproducibly: a [`FaultPlan`] seeded from a
//! [`SeedTree`](consent_util::SeedTree) decides, as a pure function of
//! `(host, day, vantage, attempt)`, whether an attempt fails and how, and
//! [`FaultyEngine`] applies the decision to
//! [`Engine::capture`](consent_httpsim::Engine::capture) output.
//!
//! [`FaultProfile::none()`] is the identity: the wrapped engine returns
//! byte-identical captures, so the fault layer can stay permanently wired
//! into the pipeline. Callers name the profile they want
//! ([`FaultProfile::mild`], or [`FaultProfile::parse`] of `none`, `mild`
//! or `heavy`); the library never reads it from the environment.
//!
//! Beyond network faults, the crate models the *process itself* failing:
//! an injected [`Fault::Panic`] exercises the executors' panic
//! containment, and a [`CrashPlan`] (see [`crash`]) schedules
//! deterministic process deaths — after the Nth applied pair, or
//! tearing a checkpoint write after N bytes — for the crash-consistency
//! sweep in `tests/it_durability.rs`.
//!
//! The third failure domain is the *disk*: an [`IoFaultPlan`] (see
//! [`io`]) schedules deterministic storage faults — `ENOSPC`, `EIO`,
//! silent short writes — keyed on the checkpoint store's global
//! operation index, applied through [`FaultyVfs`] at the store's
//! [`Vfs`](consent_checkpoint::Vfs) seam. The campaign
//! supervisor classifies the resulting errors via [`classify_io_error`]
//! and retries or descends its degradation ladder.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crash;
pub mod engine;
pub mod io;
pub mod plan;
pub mod profile;

pub use crash::{CrashPlan, Crashpoint};
pub use engine::FaultyEngine;
pub use io::{classify_io_error, FaultyVfs, IoErrorClass, IoFaultKind, IoFaultPlan, IoOp, IoRate};
pub use plan::{Fault, FaultPlan};
pub use profile::FaultProfile;
