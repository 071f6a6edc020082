//! # consent-httpsim
//!
//! A deterministic browser/page-load simulator over the synthetic web.
//! It emits the same observables the Netograph platform records per crawl
//! — HTTP requests, cookies, dialog visibility, DOM snapshots — including
//! the §3.5 measurement distortions (geo gating, anti-bot CDN
//! interstitials for cloud address space, late CMP loads cut off by
//! aggressive timeouts). The analysis pipeline consumes only [`Capture`]
//! records, making this crate the substitution boundary between the
//! simulated web and the paper's real methodology.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod engine;
pub mod prober;
pub mod vantage;

pub use capture::{
    Capture, CaptureStatus, CookieRecord, CookieValue, DomSnapshot, Host, RequestRecord, Url,
};
pub use engine::{split_url, CaptureOptions, Engine, IDLE_TIMEOUT_MS, TOTAL_TIMEOUT_MS};
pub use prober::WorldProber;
pub use vantage::{Language, Location, Timing, Vantage};
