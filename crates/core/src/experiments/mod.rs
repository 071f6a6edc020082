//! One module per paper table/figure; see DESIGN.md's experiment index.
//!
//! Every experiment has exactly one entry point, and [`reproduce`]
//! renders them all in paper order. For causal per-capture tracing,
//! [`run_traced`] turns on the global `consent_trace` log around a
//! closure and hands back the byte-stable JSONL export (see
//! `examples/trace_explain.rs`):
//!
//! ```
//! use consent_core::{experiments::run_traced, Study};
//! use consent_crawler::{build_toplist, run_campaign_parallel, ParallelOpts};
//! use consent_httpsim::Vantage;
//! use consent_util::Day;
//!
//! let study = Study::quick();
//! let list = build_toplist(study.world(), 4, study.seed().child("doc-top"));
//! let (run, jsonl) = run_traced(|| {
//!     run_campaign_parallel(
//!         study.world(),
//!         &list,
//!         Day::from_ymd(2020, 5, 15),
//!         &[Vantage::eu_cloud()],
//!         study.seed().child("doc-campaign"),
//!         &ParallelOpts { threads: 1, ..ParallelOpts::default() },
//!     )
//! });
//! // One trace per crawled pair, each opened by its root `pair` span.
//! let roots = r#""name":"pair","parent":0,"ph":"B""#;
//! let traces = jsonl.lines().filter(|l| l.contains(roots)).count();
//! assert_eq!(traces as u64, run.state.pairs_done);
//! assert!(!consent_trace::enabled(), "recording is switched back off");
//! ```
//!
//! To count a run's metrics, enable `consent_telemetry`, take a
//! snapshot before the call and `consent_telemetry::global().delta(&before)`
//! after it; the paper's §3.5 capture account is
//! `consent_analysis::capture_quality` of the run's capture database.
//!
//! The campaign-shaped experiments ([`table1`]) crawl through
//! `consent_crawler::run_campaign_parallel` with one worker per
//! available core. The campaign driver's output is byte-identical at
//! any thread count, so the thread count only changes wall-clock time.

use crate::Study;
use consent_util::table::{pct, thousands};
use consent_util::Day;

pub mod ablations;
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

/// Every table and figure of the paper at `study`'s scale, in paper
/// order: Figure 1; Table A.3 and Table 1 with the US-cloud coverage
/// between them and the §4.1 I3 and jurisdiction reports over the May
/// campaign; Figures 4–10, Figure 5 at three snapshots; the §3.4–3.5
/// methodology statistics; Tables A.1 and A.2; and the
/// [`ablations`]. The paper's reference values follow the results
/// they compare with. `tests/fixtures/paper_quick_v1.txt` pins the
/// text at [`Study::quick`]; the `reproduce` example prints it.
pub fn reproduce(study: &Study) -> String {
    let jan = table1::table_a3(study);
    let may = table1::table1(study);
    let f6 = fig6::fig6(study);
    let gvl = fig7_8::gvl_figures(study);
    let fig5_snapshots = [
        ("Figure A.4 (January 2019)", Day::from_ymd(2019, 1, 15)),
        ("Figure A.5 (January 2020)", Day::from_ymd(2020, 1, 15)),
        ("Figure 5 (May 2020)", Day::from_ymd(2020, 5, 15)),
    ]
    .map(|(label, day)| format!("=== {label} ===\n{}", fig5::fig5_at(study, day).render()));
    let config = study.config();
    [
        format!(
            "Measuring the Emergence of Consent Management on the Web (IMC 2020), reproduced: \
             seed {}, {} sites, top {}, feed {} to {}\n",
            config.seed,
            thousands(u64::from(config.n_sites)),
            thousands(config.toplist_size as u64),
            config.window_start,
            config.window_end - 1,
        ),
        fig1::render(),
        format!(
            "{}\n{}\n\
             US-cloud coverage: {} (January) -> {} (May)\n\
             Paper: 70% -> 79%, driven by CCPA adoption outside the EU.\n\n\
             {}\n{}\n\
             Paper: Quantcast 38.3% EU+UK TLDs, OneTrust 16.3%.\n\
             Paper reference (May 2020, top 10k): OneTrust 341/368/403/412/412/414, \
             Quantcast 173/207/225/229/230/233, coverage 79%→100%\n\
             Paper reference: OneTrust 61% conventional banner / 2.4% opt-out button / \
             5.5% script banner / 7.5% footer link; Quantcast 55% direct reject, 13% \
             free-form wording; TrustArc 7% instant / 12% multi-partner opt-out; \
             ~8% of sites use CMP APIs with custom dialogs.\n",
            jan.render(),
            may.render(),
            pct(jan.table.coverage(0)),
            pct(may.table.coverage(0)),
            i3::i3_customization(&may).render(),
            i3::jurisdiction(&may).render(),
        ),
        f6.render_switching(),
        format!(
            "{}Paper reference (May 2020): ~4% at top 100, ~13% at top 1k, \
             1.51% cumulative over the top 1M; Quantcast leads the head, \
             OneTrust the 500–50k band.\n",
            fig5_snapshots.join("\n")
        ),
        format!(
            "{}Paper reference: <1% of the 10k in Feb 2018 rising to ~10% by Sep 2020, \
             doubling Jun18→Jun19→Jun20; Cookiebot loses ~10x what it gains.\n",
            f6.render()
        ),
        format!(
            "{}\n{}\
             Net toward consent: {:+} (paper: positive — vendors obtain more consent over time)\n\
             Paper reference: sharp vendor-count spike at GDPR, purpose 1 always most \
             popular, ≥1/5 of vendors claim legitimate interest per purpose, \
             activity bursts around GDPR and Mar/Apr 2020.\n",
            gvl.render_fig7(),
            gvl.render_fig8(),
            gvl.net_toward_consent()
        ),
        format!(
            "{}Paper reference: ≥7 clicks and ~34 s to opt out; +279 requests to 25 \
             domains; +1.2 MB / 5.8 MB compressed/uncompressed.\n",
            fig9::fig9(study).render()
        ),
        format!(
            "{}Paper reference: accept 3.2 s / reject 3.6 s with a direct button \
             (U(1344,279)=166582, z=-2.93, p<0.01); reject 6.7 s without one \
             (z=-11.57, p<0.001); consent rate 83% → 90%.\n",
            fig10::fig10(study).render()
        ),
        methodology::methodology(study, &f6).render(),
        format!("{}\n{}", tables_a::table_a1(), tables_a::table_a2()),
        ablations::render(study, &f6),
    ]
    .join("\n")
}

/// Run `f` with the global trace log recording and return `f`'s value
/// together with the byte-stable JSONL export of every trace it
/// recorded. The log is cleared before the run (so the export contains
/// only this run's traces) and recording is restored to its previous
/// state afterward, making the helper safe to compose with runs that
/// leave tracing off.
pub fn run_traced<T>(f: impl FnOnce() -> T) -> (T, String) {
    let was_enabled = consent_trace::enabled();
    consent_trace::clear();
    consent_trace::enable();
    let value = f();
    let jsonl = consent_trace::global().export_jsonl();
    consent_trace::global().set_enabled(was_enabled);
    (value, jsonl)
}
