//! Trace explain: run a small traced campaign and show every layer of
//! the observability stack for one `(domain, vantage)` pair — the
//! causal tree, the distilled provenance record, the byte-stable JSONL
//! export, and a Chrome `trace_event` file loadable in Perfetto or
//! `chrome://tracing`.
//!
//! ```sh
//! cargo run --release --bin trace_explain
//! CONSENT_CHAOS=mild cargo run --release --bin trace_explain
//! ```
//!
//! The fault profile is read from `CONSENT_CHAOS` (`mild`, `heavy`, or
//! unset for none; any other value is an error); the Chrome document is
//! written to `trace_explain.chrome.json` (override with
//! `TRACE_EXPLAIN_OUT`) and the full JSONL export next to it, at the same
//! path with the extension `.jsonl`.

mod env_knobs;

use consent_core::{experiments, Study};
use consent_crawler::{
    build_toplist, run_campaign_parallel, CampaignConfig, CampaignRun, ParallelOpts, RetryPolicy,
};
use consent_httpsim::Vantage;
use consent_trace::{Provenance, TraceTree};
use consent_util::Day;
use std::path::Path;

fn main() {
    println!("consent-observatory trace explain");
    println!("=================================\n");
    let profile = env_knobs::chaos("none");
    let study = Study::quick();
    println!(
        "fault profile: {}\n",
        if profile.is_none() {
            "none"
        } else {
            "chaos (CONSENT_CHAOS)"
        }
    );

    // A small two-vantage campaign with the global trace log recording;
    // run_traced hands back the byte-stable JSONL alongside the run.
    let toplist = build_toplist(study.world(), 40, study.seed().child("trace-top"));
    let vantages = [Vantage::eu_cloud(), Vantage::us_cloud()];
    let config = CampaignConfig {
        fault_profile: profile,
        retry: RetryPolicy::paper(),
        ..CampaignConfig::default()
    };
    let opts = ParallelOpts {
        threads: 1,
        config,
        max_pairs: None,
    };
    let (run, jsonl): (CampaignRun, String) = experiments::run_traced(|| {
        run_campaign_parallel(
            study.world(),
            &toplist,
            Day::from_ymd(2020, 5, 15),
            &vantages,
            study.seed().child("trace-campaign"),
            &opts,
        )
    });
    let log = consent_trace::global();
    let ids = log.trace_ids();
    println!(
        "{} traces, {} events, {} provenance records\n",
        ids.len(),
        log.len(),
        run.state.provenance.len()
    );

    // Pick the most interesting pair to explain: the one with the most
    // attempts (ties broken by trace id, so the choice is stable).
    let pick = run
        .state
        .provenance
        .records()
        .iter()
        .max_by_key(|p| (p.attempts.len(), p.trace_id))
        .expect("campaign recorded no pairs");
    let tree = TraceTree::build(&log.trace(pick.trace_id)).expect("pair trace builds");
    println!("causal tree of {} @ {}:", pick.domain, pick.vantage);
    println!("{}", tree.render());

    // The trace distills to the exact record the campaign persisted.
    let distilled = Provenance::from_tree(&tree).expect("pair trace distills");
    assert_eq!(
        &distilled, pick,
        "distilled provenance must equal the stored record"
    );
    println!("provenance (stored == distilled from the trace):");
    println!("{}\n", pick.to_json().to_compact());

    println!("JSONL export: {} lines, first two:", jsonl.lines().count());
    for line in jsonl.lines().take(2) {
        println!("  {line}");
    }

    // Chrome trace_event document: one thread track per vantage.
    let chrome = consent_trace::export_chrome_string(&log.snapshot());
    let out = std::env::var("TRACE_EXPLAIN_OUT")
        .unwrap_or_else(|_| "trace_explain.chrome.json".to_string());
    let jsonl_out = Path::new(&out).with_extension("jsonl");
    assert_ne!(
        jsonl_out,
        Path::new(&out),
        "TRACE_EXPLAIN_OUT must not end in .jsonl: the JSONL export goes there"
    );
    std::fs::write(&out, &chrome).expect("write chrome trace");
    std::fs::write(&jsonl_out, &jsonl).expect("write trace JSONL");
    println!(
        "\nwrote {} ({} bytes) — load it in Perfetto or chrome://tracing",
        out,
        chrome.len()
    );
    consent_trace::clear();
}
