//! One module per paper table/figure; see DESIGN.md's experiment index.
//!
//! Every experiment has exactly one entry point. To record telemetry for
//! a run, wrap the call in [`run_reported`]:
//!
//! ```
//! use consent_core::{experiments::{fig1::related_work, run_reported}, Study};
//!
//! let study = Study::quick();
//! let studies = run_reported(&study, "fig1", related_work);
//! assert!(!studies.is_empty());
//! assert_eq!(study.reports().last().unwrap().name, "fig1");
//! ```
//!
//! The run is timed, the global telemetry registry is snapshotted
//! before and after, and the resulting
//! [`consent_telemetry::RunReport`] — capture counts per vantage and
//! `CaptureStatus`, retries, dedup skips — is recorded on the
//! [`Study`]. With telemetry disabled (the default) the wrapper costs
//! two empty snapshots and a clock read. For causal per-capture tracing,
//! [`run_traced`] additionally turns on the global `consent_trace` log
//! around a closure and hands back the byte-stable JSONL export (see
//! `examples/trace_explain.rs`).
//!
//! The campaign-shaped experiments ([`table1`]) crawl through
//! `consent_crawler::run_campaign_parallel` with one worker per
//! available core. The campaign driver's output is byte-identical at
//! any thread count, so the thread count only changes wall-clock time.

use crate::Study;
use consent_util::table::pct;

pub mod archive;
pub mod fig1;
pub mod fig10;
pub mod fig5;
pub mod fig6;
pub mod fig7_8;
pub mod fig9;
pub mod i3;
pub mod methodology;
pub mod table1;
pub mod tables_a;

/// The vantage-point comparison at `study`'s scale, as the
/// `vantage_compare` example prints it: Table A.3 (January 2020) and
/// Table 1 (May 2020), the US-cloud coverage between them, and the §4.1
/// I3 customization and jurisdiction reports over the May campaign's
/// EU-university records. `tests/fixtures/vantage_compare_quick_v1.txt`
/// pins the text at [`Study::quick`].
pub fn vantage_compare(study: &Study) -> String {
    let jan = table1::table_a3(study);
    let may = table1::table1(study);
    format!(
        "{}\n{}\n\
         US-cloud coverage: {} (January) -> {} (May)\n\
         Paper: 70% -> 79%, driven by CCPA adoption outside the EU.\n\n\
         {}\n{}\n\
         Paper: Quantcast 38.3% EU+UK TLDs, OneTrust 16.3%.\n",
        jan.render(),
        may.render(),
        pct(jan.table.coverage(0)),
        pct(may.table.coverage(0)),
        i3::i3_customization(&may).render(),
        i3::jurisdiction(&may).render(),
    )
}

/// Run `f` against the global telemetry registry and record the
/// resulting run report on `study`. Returns `f`'s value unchanged.
pub fn run_reported<T>(study: &Study, name: &str, f: impl FnOnce() -> T) -> T {
    let (value, report) =
        consent_telemetry::RunReport::collect(consent_telemetry::global(), name, f);
    study.record_report(report);
    value
}

/// Run `f` with the global trace log recording and return `f`'s value
/// together with the byte-stable JSONL export of every trace it
/// recorded. The log is cleared before the run (so the export contains
/// only this run's traces) and recording is restored to its previous
/// state afterward, making the helper safe to compose with
/// [`run_reported`] and with runs that leave tracing off.
pub fn run_traced<T>(f: impl FnOnce() -> T) -> (T, String) {
    let was_enabled = consent_trace::enabled();
    consent_trace::clear();
    consent_trace::enable();
    let value = f();
    let jsonl = consent_trace::global().export_jsonl();
    consent_trace::global().set_enabled(was_enabled);
    (value, jsonl)
}
