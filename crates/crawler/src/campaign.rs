//! Toplist crawl campaigns (the Table 1 methodology).
//!
//! §3.2: the Tranco 10k is converted to seed URLs (TLS-validated ladder,
//! three rounds over a week), then every URL is crawled six times — US
//! cloud, EU cloud, and the EU university with default timing, extended
//! timing, and two language variants — with unsuccessful captures retried
//! three times over a week. DOM snapshots are stored for the university
//! crawls.
//!
//! This module is also where the robustness layer comes together: every
//! capture runs through the [`FaultyEngine`](consent_faultsim::FaultyEngine)
//! chaos wrapper, attempt
//! scheduling follows an explicit [`RetryPolicy`], permanent failures
//! short-circuit, a [`CircuitBreaker`]
//! stops hammering escalating anti-bot domains, and the whole campaign
//! checkpoints into a [`CampaignState`] that can be exported,
//! re-imported, and resumed without re-crawling completed
//! `(domain, vantage)` pairs.
//!
//! Each pair's one record is its [`Provenance`]: built on the worker
//! that crawled the pair, unconditionally, from the attempt history and
//! the pure fault plan (so checkpoints are byte-identical whether
//! tracing was on or off), and appended to the state's
//! [`ProvenanceLog`]. Abandoned pairs are the log's `dead_lettered`
//! records ([`CampaignState::dead_letters`]); no checkpoint stores them
//! a second time.
//!
//! Observability: each `(domain, vantage)` pair opens one
//! `consent_trace` trace (id from [`consent_trace::stable_id`], so
//! replays and resumes agree), with a child span per attempt and
//! instant events for injected faults, attempt outcomes, retry
//! decisions, breaker transitions, and dead-lettering.

use crate::capture_db::{CaptureDb, CaptureSummary, CmpSet};
use crate::durable::{SECTION_DB, SECTION_PROVENANCE};
use crate::export::{export as export_db, import as import_db, status_code, ImportError};
use crate::parallel::CampaignPlan;
use crate::resilience::{BreakerConfig, CircuitBreaker, Outcome, RetryPolicy};
use consent_faultsim::FaultProfile;
use consent_httpsim::{
    split_url, CaptureOptions, CaptureStatus, DomSnapshot, Language, Location, Timing, Vantage,
};
use consent_toplist::{default_providers, AggregationRule, SeedUrl, Toplist};
use consent_trace::{stable_id, AttemptProvenance, Provenance, ProvenanceLog};
use consent_util::{Day, SeedTree};
use consent_webgraph::World;

/// One crawled toplist entry at one vantage: what the analyses read of
/// its final capture (retried per §3.2 if unsuccessful). The capture
/// itself, with its request and cookie logs, is dropped on the worker
/// that crawled the pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignCapture {
    /// Tranco rank of the entry (1-based position in the aggregated list).
    pub rank: usize,
    /// Toplist domain.
    pub domain: String,
    /// Status of the final capture.
    pub status: CaptureStatus,
    /// Hostname of the final URL after redirects.
    pub final_host: String,
    /// Day the final capture ran.
    pub day: Day,
    /// How many attempts were needed (1 = first try).
    pub attempts: u8,
    /// Classification of the final attempt.
    pub outcome: Outcome,
    /// CMPs detected on the final capture.
    pub cmps: CmpSet,
    /// The final capture's DOM snapshot
    /// ([`Vantage::eu_university_extended`] column only).
    pub dom: Option<DomSnapshot>,
}

/// Results of a full campaign: one record list per vantage column.
#[derive(Debug, Default)]
pub struct CampaignResult {
    /// `(vantage, records)` in the same order as the input vantages.
    pub columns: Vec<(Vantage, Vec<CampaignCapture>)>,
    /// The resolved seed URLs, including speculative ones.
    pub seeds: Vec<SeedUrl>,
}

impl CampaignResult {
    /// The records of one location/timing column, if present.
    pub fn column(&self, vantage: Vantage) -> Option<&[CampaignCapture]> {
        self.columns
            .iter()
            .find(|(v, _)| *v == vantage)
            .map(|(_, c)| c.as_slice())
    }

    /// Append another partial result's records column-wise. Both halves
    /// must come from the same campaign (same seeds, same vantage order);
    /// since pairs are processed in a deterministic vantage-major order,
    /// concatenation reconstructs the uninterrupted result.
    pub fn merge(mut self, other: CampaignResult) -> CampaignResult {
        for (vantage, captures) in other.columns {
            match self.columns.iter_mut().find(|(v, _)| *v == vantage) {
                Some((_, mine)) => mine.extend(captures),
                None => self.columns.push((vantage, captures)),
            }
        }
        self
    }
}

/// How a campaign schedules, retries, and abandons captures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CampaignConfig {
    /// The chaos layer. [`FaultProfile::none`] (the default) is
    /// byte-identical to running the unwrapped engine.
    pub fault_profile: FaultProfile,
    /// Attempt schedule and retry classification (§3.2).
    pub retry: RetryPolicy,
    /// Anti-bot circuit breaker.
    pub breaker: BreakerConfig,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            fault_profile: FaultProfile::none(),
            retry: RetryPolicy::paper(),
            breaker: BreakerConfig::default(),
        }
    }
}

/// The checkpointable campaign state: everything a resumed run needs.
///
/// A campaign interrupted at any pair boundary round-trips through the
/// text checkpoint and resumes to the same bytes an uninterrupted run
/// produces (see the example on
/// [`resume_campaign_parallel`](crate::resume_campaign_parallel)).
#[derive(Debug, Default)]
pub struct CampaignState {
    /// Capture summaries, one per processed `(domain, vantage)` pair.
    pub db: CaptureDb,
    /// One acquisition record per processed pair, in processing order —
    /// the audit trail joining every [`CaptureDb`] row back to its
    /// attempt history, injected faults, and trace id. The only
    /// per-pair record: [`dead_letters`](Self::dead_letters) is a view
    /// of it.
    pub provenance: ProvenanceLog,
    /// Cursor into the deterministic vantage-major, rank-minor pair
    /// order: the number of pairs already processed. Each processed pair
    /// inserts exactly one [`CaptureDb`] row and one [`ProvenanceLog`]
    /// record, so `pairs_done` always equals [`CaptureDb::len`]; no
    /// export stores it.
    pub pairs_done: u64,
}

/// How the provenance section's header line starts: where
/// [`CampaignState::import`] splits an export.
const PROVENANCE_HEADER: &str = "#consent-provenance";

impl CampaignState {
    /// Fresh state (nothing crawled).
    pub fn new() -> CampaignState {
        CampaignState::default()
    }

    /// The pairs abandoned without a usable capture: the
    /// `dead_lettered` records of the provenance log, in processing
    /// order.
    pub fn dead_letters(&self) -> impl Iterator<Item = &Provenance> {
        self.provenance.records().iter().filter(|p| p.dead_lettered)
    }

    /// The state's two logs as `(name, body)` pairs, in export order:
    /// the capture-db section, then the provenance section (each with
    /// its own header). Checkpoints and bundles store exactly these
    /// bodies.
    pub(crate) fn sections(&self) -> [(&'static str, String); 2] {
        [
            (SECTION_DB, export_db(&self.db)),
            (SECTION_PROVENANCE, self.provenance.export()),
        ]
    }

    /// Serialize the checkpoint: the capture-db section, then the
    /// provenance section.
    pub fn export(&self) -> String {
        self.sections().map(|(_, body)| body).concat()
    }

    /// Parse a checkpoint produced by [`export`](Self::export): split
    /// it at the provenance header and import the two bodies with the
    /// importer checkpoint recovery and bundle replay use, which
    /// rejects a state whose row and record counts differ.
    pub fn import(text: &str) -> Result<CampaignState, ImportError> {
        // No capture-db line after the section's own header starts
        // with `#`, so the first line that starts with the provenance
        // header begins the second section.
        let split = text
            .match_indices(PROVENANCE_HEADER)
            .map(|(at, _)| at)
            .find(|&at| at == 0 || text.as_bytes()[at - 1] == b'\n')
            .ok_or_else(|| ImportError {
                line: text.lines().count() + 1,
                message: "missing provenance section".into(),
            })?;
        let (db, provenance) = text.split_at(split);
        CampaignState::from_sections(db, provenance)
    }

    /// Build a state from its capture-db and provenance section bodies:
    /// the one importer behind [`import`](Self::import), checkpoint
    /// recovery (a full, salvaged or chain-reassembled generation) and
    /// bundle replay. Each processed pair stored one row and one
    /// record, so the two counts must agree, and they are the cursor.
    /// Errors name lines of the two bodies concatenated, the state's
    /// [`export`](Self::export).
    pub(crate) fn from_sections(db: &str, provenance: &str) -> Result<CampaignState, ImportError> {
        // Section importers count lines from their own header, 0 for a
        // header problem. The provenance header follows the db's last
        // line; only an error pays for counting them.
        let bad = |line: usize, message: String| ImportError { line, message };
        let at_provenance = |local: usize| db.lines().count() + local.max(1);
        let rows = import_db(db)
            .map_err(|e| bad(e.line.max(1), format!("capture-db section: {}", e.message)))?;
        let log = ProvenanceLog::import(provenance).map_err(|e| {
            bad(
                at_provenance(e.line),
                format!("provenance section: {}", e.message),
            )
        })?;
        if log.len() as u64 != rows.len() {
            return Err(bad(
                at_provenance(0),
                format!(
                    "provenance section: {} records for {} capture rows",
                    log.len(),
                    rows.len()
                ),
            ));
        }
        Ok(CampaignState {
            pairs_done: rows.len(),
            db: rows,
            provenance: log,
        })
    }
}

/// A (possibly partial) campaign run: the in-memory result of the pairs
/// processed by this invocation plus the cumulative checkpoint state.
pub struct CampaignRun {
    /// Records of the pairs processed by this invocation only. After a
    /// resume, [`CampaignResult::merge`] the halves to reconstruct the
    /// whole.
    pub result: CampaignResult,
    /// Cumulative state across this and any prior resumed-from runs.
    pub state: CampaignState,
    /// True once every `(domain, vantage)` pair has been processed.
    pub complete: bool,
}

/// Build the study's Tranco-style toplist over the synthetic world:
/// four noisy provider observations of the ground-truth ranking,
/// aggregated with the Dowdall rule, truncated to `n`.
pub fn build_toplist(world: &World, n: usize, seed: SeedTree) -> Vec<String> {
    // Providers observe slightly more of the world than we keep, so
    // entries can fall in and out across the cut like in real lists.
    let m = ((n as f64 * 1.2) as u32).min(world.n_sites());
    let ground_truth: Vec<String> = (1..=m).map(|r| world.profile(r).domain.clone()).collect();
    let providers = default_providers(&ground_truth, seed.child("providers"));
    let toplist = Toplist::aggregate(&providers, AggregationRule::Dowdall);
    toplist.top(n).map(str::to_owned).collect()
}

/// Compact stable code for a vantage, `location-timing-language`
/// (e.g. `uni-ext-de`). Shared by the provenance line format, the
/// bundle `config` document and trace attributes, so every persistence
/// layer names the six Table 1 columns identically.
pub fn vantage_code(v: Vantage) -> &'static str {
    use Language::{De, EnGb, EnUs};
    use Location::{EuCloud, EuUniversity, UsCloud};
    use Timing::{Aggressive, Extended};
    match (v.location, v.timing, v.language) {
        (UsCloud, Aggressive, EnUs) => "us-fast-enus",
        (UsCloud, Aggressive, De) => "us-fast-de",
        (UsCloud, Aggressive, EnGb) => "us-fast-engb",
        (UsCloud, Extended, EnUs) => "us-ext-enus",
        (UsCloud, Extended, De) => "us-ext-de",
        (UsCloud, Extended, EnGb) => "us-ext-engb",
        (EuCloud, Aggressive, EnUs) => "eu-fast-enus",
        (EuCloud, Aggressive, De) => "eu-fast-de",
        (EuCloud, Aggressive, EnGb) => "eu-fast-engb",
        (EuCloud, Extended, EnUs) => "eu-ext-enus",
        (EuCloud, Extended, De) => "eu-ext-de",
        (EuCloud, Extended, EnGb) => "eu-ext-engb",
        (EuUniversity, Aggressive, EnUs) => "uni-fast-enus",
        (EuUniversity, Aggressive, De) => "uni-fast-de",
        (EuUniversity, Aggressive, EnGb) => "uni-fast-engb",
        (EuUniversity, Extended, EnUs) => "uni-ext-enus",
        (EuUniversity, Extended, De) => "uni-ext-de",
        (EuUniversity, Extended, EnGb) => "uni-ext-engb",
    }
}

/// Parse a [`vantage_code`] back into its [`Vantage`].
pub fn vantage_from(code: &str) -> Option<Vantage> {
    let mut parts = code.split('-');
    let location = match parts.next()? {
        "us" => Location::UsCloud,
        "eu" => Location::EuCloud,
        "uni" => Location::EuUniversity,
        _ => return None,
    };
    let timing = match parts.next()? {
        "fast" => Timing::Aggressive,
        "ext" => Timing::Extended,
        _ => return None,
    };
    let language = match parts.next()? {
        "enus" => Language::EnUs,
        "de" => Language::De,
        "engb" => Language::EnGb,
        _ => return None,
    };
    if parts.next().is_some() {
        return None;
    }
    Some(Vantage {
        location,
        timing,
        language,
    })
}

/// Everything one processed `(domain, vantage)` pair contributes to the
/// campaign, produced by [`process_pair`] and folded into the cumulative
/// state by [`apply_pair`].
///
/// The split is what makes the worker pool of
/// [`resume_campaign_parallel`](crate::parallel::resume_campaign_parallel)
/// deterministic: production is a pure function of the pair identity
/// (every random draw is keyed by `(host, day, vantage, attempt)` and
/// trace ids come from [`stable_id`]), so any number of crawling
/// threads can produce outputs in any order, and the pool's reorder
/// buffer applies them in pair order — reproducing the in-order run
/// byte for byte.
#[derive(Clone, Debug)]
pub(crate) struct PairOutput {
    /// Index into the campaign's vantage columns.
    pub(crate) col: usize,
    /// The final capture's [`CaptureDb`] row.
    pub(crate) row: CaptureSummary<'static>,
    /// The final capture's result record.
    pub(crate) record: CampaignCapture,
    /// The pair's provenance: identity, trace id, every attempt with its
    /// injected fault, outcome and flags.
    pub(crate) provenance: Provenance,
}

/// The provenance record of the pair at position `idx` with only its
/// identity filled in: domain, rank, vantage code, day and trace id.
/// The trace id is a pure function of the pair identity, so a resumed
/// replay assigns the same ids an uninterrupted one would.
fn pair_record(plan: &CampaignPlan<'_>, idx: u64) -> Provenance {
    let (s, rank, _, vantage) = plan.locate(idx);
    let vantage = vantage_code(vantage);
    Provenance {
        trace_id: stable_id(&["pair", &s.domain, vantage, &plan.day_text]),
        domain: s.domain.clone(),
        rank: rank as u64,
        vantage: vantage.to_owned(),
        day: plan.day_text.clone(),
        attempts: Vec::new(),
        outcome: String::new(),
        final_status: String::new(),
        breaker_opened: false,
        dead_lettered: false,
    }
}

/// Close a pair's provenance on its final capture and turn the capture
/// into the pair's [`CaptureDb`] row and result record. The capture is
/// consumed: its request and cookie logs end here.
fn finish(
    plan: &CampaignPlan<'_>,
    col: usize,
    mut provenance: Provenance,
    capture: consent_httpsim::Capture,
    outcome: Outcome,
    cmps: CmpSet,
) -> PairOutput {
    // The log keeps every record for the whole campaign; most pairs
    // take one attempt, so do not keep the growth headroom.
    provenance.attempts.shrink_to_fit();
    provenance.outcome = outcome.name().to_string();
    provenance.final_status = status_code(capture.status).to_string();
    provenance.dead_lettered = !capture.usable();
    let row = CaptureSummary::of(&capture, cmps, &plan.psl);
    let record = CampaignCapture {
        rank: provenance.rank as usize,
        domain: provenance.domain.clone(),
        status: capture.status,
        final_host: capture.final_host,
        day: capture.day,
        attempts: provenance.attempts.len() as u8,
        outcome,
        cmps,
        dom: capture.dom,
    };
    PairOutput {
        col,
        row,
        record,
        provenance,
    }
}

/// Crawl the `(domain, vantage)` pair at position `idx` of the plan's
/// pair order: open its trace, walk the retry schedule through the
/// fault-injecting engine with a per-pair circuit breaker, run CMP
/// detection, and return everything the merge step needs: the pair's
/// capture-db row, its result record and its provenance. Thread-safe:
/// touches only the immutable plan, the per-thread trace context, and
/// the commutative telemetry registry.
pub(crate) fn process_pair(plan: &CampaignPlan<'_>, idx: u64) -> PairOutput {
    let _pair_span = consent_telemetry::span("campaign.pair");
    let (s, _, col, vantage) = plan.locate(idx);
    // Only §4.1's customization analysis reads a DOM, and only this
    // column's.
    let collect_dom = vantage == Vantage::eu_university_extended();
    // One trace per pair.
    let mut record = pair_record(plan, idx);
    let _trace = consent_trace::start_trace("pair", record.trace_id, |a| {
        a.push("domain", &record.domain);
        a.push("rank", record.rank);
        a.push("vantage", &record.vantage);
        a.push("day", &record.day);
    });
    let (host, _) = split_url(&s.url);

    let mut breaker = CircuitBreaker::new(plan.config.breaker);
    let mut capture = None;
    let mut outcome = Outcome::Permanent;
    for (attempt, (attempt_day, day_text)) in plan.schedule.iter().enumerate() {
        let attempt_day = *attempt_day;
        let attempt_no = attempt as u8 + 1;
        let _span = consent_trace::span("attempt", |a| {
            a.push("attempt", attempt_no);
            a.push("day", attempt_day);
        });
        let c = plan.engine.capture_attempt(
            &s.url,
            attempt_day,
            vantage,
            CaptureOptions { collect_dom },
            attempt_no,
        );
        outcome = Outcome::classify(c.status);
        record.breaker_opened = breaker.record(c.status);
        consent_trace::event("attempt.outcome", |a| {
            a.push("status", status_code(c.status));
            a.push("outcome", outcome.name());
        });
        record.attempts.push(AttemptProvenance {
            day: day_text.clone(),
            status: status_code(c.status).to_string(),
            // Re-derive the decided fault from the pure plan so the
            // record is identical with tracing on or off (and matches
            // the in-trace `fault.injected` event).
            fault: plan
                .engine
                .plan()
                .decide(host, attempt_day, vantage, attempt_no)
                .map(|f| f.name().to_string()),
        });
        capture = Some(c);
        if record.breaker_opened {
            consent_telemetry::count("campaign.breaker.open", 1);
            consent_telemetry::gauge_add("campaign.breaker.open_pairs", 1);
            consent_trace::event("breaker.open", |a| {
                a.push("attempt", attempt_no);
            });
            break;
        }
        let retry = plan.config.retry.should_retry(outcome);
        consent_trace::event("retry.decision", |a| {
            a.push("retry", if retry { "yes" } else { "no" });
            a.push("outcome", outcome.name());
        });
        if !retry {
            break;
        }
    }
    let capture = capture.expect("schedule has at least one attempt");
    // Detection runs here — on the worker, while the pair's trace is
    // still open — so its trace events land inside the pair trace with
    // the same sequence numbers at any thread count.
    let cmps = CmpSet::from_iter(plan.detector.detect(&capture));
    if !capture.usable() {
        consent_trace::event("dead_letter", |a| {
            a.push("outcome", outcome.name());
            a.push("attempts", record.attempts.len());
        });
    }
    finish(plan, col, record, capture, outcome, cmps)
}

/// [`process_pair`] with panic containment: a panic anywhere inside the
/// capture path (an injected [`Fault::Panic`](consent_faultsim::Fault),
/// or a genuine bug) unwinds to here and becomes a classified
/// [`Outcome::Panic`] output instead of poisoning the driver — the
/// in-order loop survives, and a pool worker thread keeps draining
/// pairs. The synthetic output is a pure function of the pair identity,
/// so exports stay byte-identical at any thread count, and its capture
/// is unusable, so its provenance record is dead-lettered like any
/// other abandoned pair's.
///
/// The driver routes every pair through this wrapper.
pub(crate) fn process_pair_contained(plan: &CampaignPlan<'_>, idx: u64) -> PairOutput {
    let attempt =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| process_pair(plan, idx)));
    let payload = match attempt {
        Ok(out) => return out,
        Err(payload) => payload,
    };
    let (s, _, col, vantage) = plan.locate(idx);
    let mut record = pair_record(plan, idx);
    // The unwind already closed the pair's own trace (armed guards emit
    // their End events during the unwind), so the containment marker
    // goes in a sibling trace keyed by the same pair identity — reusing
    // the pair's trace id would restart its sequence numbers.
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload")
        .to_string();
    consent_telemetry::count("campaign.panic", 1);
    let panic_trace = stable_id(&["pair.panic", &record.domain, &record.vantage, &record.day]);
    {
        let _t = consent_trace::start_trace("pair.panic", panic_trace, |a| {
            a.push("domain", &record.domain);
            a.push("vantage", &record.vantage);
            a.push("day", &record.day);
            a.push("message", &message);
        });
    }
    let (host, _) = split_url(&s.url);
    // One synthetic connection-failed attempt on the first scheduled
    // day: the real history died with the stack, but downstream
    // invariants (≥1 attempt per pair, `pairs_done == db.len()`,
    // unusable ⇒ dead-lettered) must hold regardless.
    let (first_day, first_text) = plan
        .schedule
        .first()
        .map_or((plan.day, &plan.day_text), |(day, text)| (*day, text));
    let capture = consent_httpsim::Capture {
        seed_url: s.url.clone(),
        final_url: s.url.clone(),
        final_host: host.to_owned(),
        day: first_day,
        vantage,
        status: CaptureStatus::ConnectionFailed,
        requests: Vec::new(),
        cookies: Vec::new(),
        dialog_visible: false,
        dom: None,
    };
    record.attempts.push(AttemptProvenance {
        day: first_text.clone(),
        status: status_code(capture.status).to_string(),
        fault: Some("panic".to_string()),
    });
    finish(plan, col, record, capture, Outcome::Panic, CmpSet::empty())
}

/// Fold one [`PairOutput`] into the cumulative campaign state and the
/// per-vantage result columns: count it, insert its row, push its
/// record and move its provenance into the log. Single-threaded by
/// construction: the driver calls it on the calling thread in ascending
/// pair order — right after each pair with `threads <= 1`, after the
/// pool joins otherwise — so the [`CaptureDb`] insertion order, and with
/// it the checkpoint export, is identical at any thread count.
pub(crate) fn apply_pair(
    state: &mut CampaignState,
    columns: &mut [(Vantage, Vec<CampaignCapture>)],
    out: PairOutput,
) {
    let PairOutput {
        col,
        row,
        record,
        provenance,
    } = out;
    let (attempts, outcome) = (record.attempts, record.outcome);
    if consent_telemetry::enabled() {
        consent_telemetry::observe("campaign.attempts", u64::from(attempts));
        consent_telemetry::count("campaign.retries", u64::from(attempts).saturating_sub(1));
        consent_telemetry::count_labeled("campaign.outcome", &[("outcome", outcome.name())], 1);
    }
    state.db.insert(row);
    state.pairs_done += 1;
    if provenance.dead_lettered {
        consent_telemetry::count_labeled("campaign.dead_letter", &[("outcome", outcome.name())], 1);
        consent_telemetry::observe("campaign.dead_letter.attempts", u64::from(attempts));
    }
    state.provenance.push(provenance);
    columns[col].1.push(record);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{run_campaign_parallel, ParallelOpts};
    use consent_util::Day;
    use consent_webgraph::{AdoptionConfig, WorldConfig};

    fn world() -> World {
        World::new(WorldConfig {
            n_sites: 5_000,
            seed: 42,
            adoption: AdoptionConfig::default(),
        })
    }

    fn quiet() -> CampaignConfig {
        CampaignConfig {
            fault_profile: FaultProfile::none(),
            retry: RetryPolicy::paper(),
            breaker: BreakerConfig::default(),
        }
    }

    /// A fault-free campaign on 2020-05-15, crawled in pair order.
    fn crawl(w: &World, list: &[String], vantages: &[Vantage]) -> CampaignRun {
        let opts = ParallelOpts {
            threads: 1,
            config: quiet(),
            max_pairs: None,
        };
        let day = Day::from_ymd(2020, 5, 15);
        run_campaign_parallel(w, list, day, vantages, SeedTree::new(9), &opts)
    }

    #[test]
    fn toplist_roughly_tracks_ground_truth() {
        let w = world();
        let list = build_toplist(&w, 1_000, SeedTree::new(7));
        assert_eq!(list.len(), 1_000);
        // The true top 20 should mostly make the aggregated top 60.
        let head: Vec<&String> = list.iter().take(60).collect();
        let mut recovered = 0;
        for rank in 1..=20u32 {
            let d = w.profile(rank).domain.clone();
            if head.contains(&&d) {
                recovered += 1;
            }
        }
        assert!(recovered >= 14, "recovered {recovered}/20");
        // No duplicates.
        let mut dedup = list.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 1_000);
    }

    #[test]
    fn campaign_covers_all_columns() {
        let w = world();
        let list = build_toplist(&w, 150, SeedTree::new(7));
        let vantages = Vantage::table1_columns();
        let run = crawl(&w, &list, &vantages);
        let result = run.result;
        assert!(run.complete);
        assert_eq!(run.state.pairs_done, 6 * 150);
        assert_eq!(run.state.db.len(), 6 * 150);
        assert_eq!(run.state.provenance.len(), 6 * 150);
        // Under FaultProfile::none no attempt carries an injected fault,
        // and a record is dead-lettered exactly when its pair's capture
        // is unusable. Records are in pair order: column by column.
        let captures = result
            .columns
            .iter()
            .flat_map(|(v, c)| c.iter().map(|c| (*v, c)));
        for (p, (v, c)) in run.state.provenance.records().iter().zip(captures) {
            assert!(p.injected_faults().next().is_none(), "{}", p.domain);
            assert_eq!(
                (p.domain.as_str(), p.vantage.as_str()),
                (c.domain.as_str(), vantage_code(v))
            );
            assert_eq!(p.dead_lettered, !c.status.usable(), "{}", p.domain);
        }
        assert_eq!(result.columns.len(), 6);
        assert_eq!(result.seeds.len(), 150);
        for (_, captures) in &result.columns {
            assert_eq!(captures.len(), 150);
        }
        // The extended en-US university column carries DOM; the other
        // university columns and the cloud columns don't.
        let uni = result.column(Vantage::eu_university_extended()).unwrap();
        let usable_with_dom = uni
            .iter()
            .filter(|c| c.status.usable() && c.dom.is_some())
            .count();
        assert!(usable_with_dom > 100);
        for v in vantages
            .iter()
            .filter(|&&v| v != Vantage::eu_university_extended())
        {
            let column = result.column(*v).unwrap();
            assert!(column.iter().all(|c| c.dom.is_none()), "{}", v.label());
        }
    }

    #[test]
    fn eu_university_sees_at_least_as_many_cmps_as_us_cloud() {
        let w = world();
        let list = build_toplist(&w, 400, SeedTree::new(7));
        let day = Day::from_ymd(2020, 5, 15);
        let vantages = Vantage::table1_columns();
        for profile in [FaultProfile::none(), FaultProfile::mild()] {
            let opts = ParallelOpts {
                config: CampaignConfig {
                    fault_profile: profile,
                    ..CampaignConfig::default()
                },
                ..ParallelOpts::default()
            };
            let result =
                run_campaign_parallel(&w, &list, day, &vantages, SeedTree::new(9), &opts).result;
            let count = |vantage: Vantage| {
                result
                    .column(vantage)
                    .unwrap()
                    .iter()
                    .filter(|c| !c.cmps.is_empty())
                    .count()
            };
            let us = count(vantages[0]);
            let eu_cloud = count(vantages[1]);
            let uni_ext = count(vantages[3]);
            assert!(us <= eu_cloud, "us {us} > eu cloud {eu_cloud} ({profile})");
            assert!(
                eu_cloud <= uni_ext,
                "eu cloud {eu_cloud} > uni {uni_ext} ({profile})"
            );
            assert!(uni_ext > 0);
        }
    }

    #[test]
    fn retries_bounded_and_permanent_failures_short_circuit() {
        let w = world();
        let list = build_toplist(&w, 100, SeedTree::new(7));
        let day = Day::from_ymd(2020, 5, 15);
        let run = crawl(&w, &list, &[Vantage::eu_university_extended()]);
        for c in run.result.column(run.result.columns[0].0).unwrap() {
            assert!((1..=4).contains(&c.attempts));
            if c.outcome == Outcome::Permanent {
                // The §3.2 schedule is for *transient* failures; a 451
                // geo-block or dead host must not burn retry budget.
                assert_eq!(c.attempts, 1, "{} retried a permanent failure", c.domain);
                assert_eq!(c.day, day);
            }
            if c.outcome == Outcome::Success && c.attempts == 1 {
                assert_eq!(c.day, day);
            }
        }
    }

    #[test]
    fn legally_blocked_eu_sites_are_dead_lettered_once() {
        let w = world();
        let list = build_toplist(&w, 300, SeedTree::new(7));
        let run = crawl(&w, &list, &[Vantage::eu_cloud()]);
        let blocked: Vec<&Provenance> = run
            .state
            .dead_letters()
            .filter(|r| r.attempts.iter().any(|a| a.status == "blocked451"))
            .collect();
        assert!(!blocked.is_empty(), "no 451 sites in a 300-domain EU crawl");
        for dl in blocked {
            assert_eq!(dl.outcome, Outcome::Permanent.name());
            assert_eq!(dl.attempts.len(), 1, "{} retried", dl.domain);
            assert!(!dl.breaker_opened);
        }
    }

    #[test]
    fn state_roundtrips_through_export() {
        let w = world();
        let list = build_toplist(&w, 80, SeedTree::new(7));
        let run = crawl(&w, &list, &[Vantage::us_cloud(), Vantage::eu_cloud()]);
        let text = run.state.export();
        let back = CampaignState::import(&text).unwrap();
        assert_eq!(back.pairs_done, run.state.pairs_done);
        assert_eq!(back.db.len(), run.state.db.len());
        assert_eq!(back.provenance, run.state.provenance);
        assert_eq!(back.export(), text);
        // Every db row has a provenance record and vice versa.
        assert_eq!(back.provenance.len() as u64, back.db.len());
    }

    /// The empty capture-db section.
    const EMPTY_DB: &str = "#consent-capture-db v3\nhosts=0\n";
    /// The empty provenance section.
    const EMPTY_PROV: &str = "#consent-provenance v1\n";

    /// The export of a three-pair campaign with its last provenance
    /// record cut.
    fn one_record_short() -> String {
        let w = world();
        let list = build_toplist(&w, 3, SeedTree::new(7));
        let text = crawl(&w, &list, &[Vantage::us_cloud()]).state.export();
        let kept = text.trim_end_matches('\n').rsplit_once('\n').unwrap().0;
        format!("{kept}\n")
    }

    #[test]
    fn state_import_rejects_corruption() {
        assert!(CampaignState::import("").is_err());
        assert!(CampaignState::import("#wrong\n").is_err());
        let empty = CampaignState::new().export();
        assert_eq!(empty, format!("{EMPTY_DB}{EMPTY_PROV}"));
        assert_eq!(CampaignState::import(&empty).unwrap().pairs_done, 0);
        // A section missing or out of order is corruption.
        assert!(CampaignState::import(EMPTY_DB).is_err());
        assert!(CampaignState::import(EMPTY_PROV).is_err());
        assert!(CampaignState::import(&format!("{EMPTY_PROV}{EMPTY_DB}")).is_err());
        // A provenance section one record short of the capture rows is
        // corruption even though both sections parse.
        let e = CampaignState::import(&one_record_short()).unwrap_err();
        assert!(
            e.message.contains("2 records for 3 capture rows"),
            "{}",
            e.message
        );
    }

    #[test]
    fn state_import_reports_whole_file_line_numbers() {
        // Layout: line 1 db header, 2 host count, 3 provenance header.
        // A garbage row injected into a section must be reported at its
        // line number in the whole export, not relative to the section
        // header.
        let garbage_at = |at: usize| -> String {
            let mut lines = vec![
                "#consent-capture-db v3",
                "hosts=0",
                "#consent-provenance v1",
            ];
            lines.insert(at, "garbage row");
            lines.join("\n") + "\n"
        };
        for (at, want_line, want_msg) in
            [(2, 3, "capture-db section"), (3, 4, "provenance section")]
        {
            let e = CampaignState::import(&garbage_at(at)).unwrap_err();
            assert_eq!(e.line, want_line, "{}", e.message);
            assert!(e.message.contains(want_msg), "{}", e.message);
        }
        // A count mismatch is reported at the provenance header.
        let short = one_record_short();
        let e = CampaignState::import(&short).unwrap_err();
        let header = short.lines().position(|l| l == "#consent-provenance v1");
        assert_eq!(Some(e.line), header.map(|i| i + 1), "{}", e.message);
        // A missing section points past the end of what's there.
        let e = CampaignState::import(EMPTY_DB).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("missing provenance section"));
    }

    #[test]
    fn vantage_codes_are_unique_and_roundtrip() {
        let mut codes = Vec::new();
        for (location, loc) in [
            (Location::UsCloud, "us"),
            (Location::EuCloud, "eu"),
            (Location::EuUniversity, "uni"),
        ] {
            for (timing, t) in [(Timing::Aggressive, "fast"), (Timing::Extended, "ext")] {
                for (language, lang) in [
                    (Language::EnUs, "enus"),
                    (Language::De, "de"),
                    (Language::EnGb, "engb"),
                ] {
                    let v = Vantage {
                        location,
                        timing,
                        language,
                    };
                    let code = vantage_code(v);
                    assert_eq!(code, format!("{loc}-{t}-{lang}"));
                    assert_eq!(vantage_from(code), Some(v));
                    codes.push(code);
                }
            }
        }
        codes.sort();
        codes.dedup();
        assert_eq!(codes.len(), 18);
        assert_eq!(vantage_from("us-fast"), None);
        assert_eq!(vantage_from("us-fast-enus-extra"), None);
        assert_eq!(vantage_from("moon-fast-enus"), None);
    }
}
