//! Campaign bundles: packing a campaign into a content-addressed
//! archive and replaying analyses from the archive alone.
//!
//! `consent-bundle` provides the container (blobs, manifest, fsck);
//! this module decides *what* a campaign bundle contains and proves the
//! Hantke-et-al. reproducibility property: every `experiments::*`
//! export can be recomputed byte-for-byte from the bundle without
//! re-crawling ([`replay_campaign_bundle`]).
//!
//! # Sections
//!
//! | section    | documents                                        |
//! |------------|--------------------------------------------------|
//! | `config`   | `config` — day, seed, ranked domains, vantages   |
//! | `state`    | `capture-db`, `provenance` (the exact checkpoint section bodies) |
//! | `gvl`      | `vendor-list` when a GVL snapshot was supplied   |
//! | `analysis` | the live run's `experiments::*` exports (provider-supplied) |
//!
//! A bundle holds what replay reads and what a caller supplies, and no
//! recording of the run: no per-capture request or cookie log, no
//! trace, no OBS or ALERTS export. No replay reads them, and on a
//! resumed campaign they would cover only the last incarnation, so a
//! bundle holding them could not equal an uninterrupted run's. Nor can
//! a re-crawl from the bundle reproduce them yet: `config` records the
//! day, seed, domains and vantages, but not the world they were
//! crawled in or the fault profile, retry schedule and breaker
//! ([`CampaignConfig`](crate::CampaignConfig)) a chaotic campaign's
//! captures depend on.

use std::io;
use std::path::Path;

use consent_bundle::{
    first_divergence, pack_verified, read_section, BlobStore, BundleDoc, BundleInput,
    DivergenceReport, Manifest, PackReport, SectionInput, VerifyReport,
};
use consent_util::{Day, SeedTree};

use crate::campaign::{vantage_code, CampaignResult, CampaignState};
use crate::durable::{SECTION_DB, SECTION_PROVENANCE};
use crate::export::check_domains;

/// First line of the bundle's `config` document.
pub const CONFIG_HEADER: &str = "#consent-bundle-config v1";

/// How many fsck-and-repair rounds a durable pack may take before
/// giving up on the disk.
pub const SCRUB_ROUNDS: u32 = 8;

/// The campaign identity a bundle carries: everything replay needs to
/// re-parameterize the analyses (and a future re-crawl) without the
/// original process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArchiveContext {
    /// Campaign day.
    pub day: Day,
    /// Root seed of the campaign's [`SeedTree`].
    pub seed: u64,
    /// Crawled domains in toplist rank order (rank = index + 1) — the
    /// rank strata the market-share analysis is computed over.
    pub domains: Vec<String>,
    /// Vantage codes (see [`vantage_code`]) in campaign column order.
    pub vantages: Vec<String>,
}

impl ArchiveContext {
    /// Build from the arguments a campaign driver already has in hand.
    pub fn from_campaign(
        day: Day,
        domains: &[String],
        vantages: &[consent_httpsim::Vantage],
        seed: &SeedTree,
    ) -> ArchiveContext {
        ArchiveContext {
            day,
            seed: seed.seed(),
            domains: domains.to_vec(),
            vantages: vantages
                .iter()
                .map(|&v| vantage_code(v).to_owned())
                .collect(),
        }
    }

    /// Serialize as the `config` document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(CONFIG_HEADER);
        out.push('\n');
        out.push_str(&format!("day={}\n", self.day));
        out.push_str(&format!("seed={}\n", self.seed));
        for v in &self.vantages {
            out.push_str(&format!("vantage={v}\n"));
        }
        for d in &self.domains {
            out.push_str(&format!("domain={d}\n"));
        }
        out
    }

    /// Parse a `config` document (inverse of [`ArchiveContext::render`]).
    /// A document with a second `day=` or `seed=` line is refused, not
    /// read with the last one winning.
    pub fn parse(text: &str) -> Result<ArchiveContext, String> {
        let mut lines = text.lines();
        if lines.next() != Some(CONFIG_HEADER) {
            return Err(format!("bad config header (want {CONFIG_HEADER:?})"));
        }
        let mut day = None;
        let mut seed = None;
        let mut domains = Vec::new();
        let mut vantages = Vec::new();
        for line in lines {
            if let Some(v) = line.strip_prefix("day=") {
                if day.is_some() {
                    return Err(format!("repeated day line: {line:?}"));
                }
                day = Some(v.parse::<Day>().map_err(|e| format!("bad day: {e:?}"))?);
            } else if let Some(v) = line.strip_prefix("seed=") {
                if seed.is_some() {
                    return Err(format!("repeated seed line: {line:?}"));
                }
                seed = Some(v.parse::<u64>().map_err(|e| format!("bad seed: {e}"))?);
            } else if let Some(v) = line.strip_prefix("vantage=") {
                vantages.push(v.to_string());
            } else if let Some(v) = line.strip_prefix("domain=") {
                domains.push(v.to_string());
            } else {
                return Err(format!("unrecognized config line: {line:?}"));
            }
        }
        Ok(ArchiveContext {
            day: day.ok_or("config missing day")?,
            seed: seed.ok_or("config missing seed")?,
            domains,
            vantages,
        })
    }
}

/// The derived-exports provider: given the re-imported campaign state
/// and the bundle's context, produce `(label, document)` pairs for the
/// `analysis` section. Supplied by `consent-analysis` (the crawler
/// cannot depend on it — the dependency points the other way), wired
/// through here so pack and replay are guaranteed to run the *same*
/// code over the live and the re-imported state.
pub type ExportFn = dyn Fn(&CampaignState, &ArchiveContext) -> Vec<(String, String)> + Send + Sync;

/// The caller-supplied inputs that accompany the campaign state into a
/// bundle. All optional: a bundle of a bare state is still a valid
/// (and replayable) archive.
#[derive(Default)]
pub struct CampaignArtifacts<'a> {
    /// Unused: no section is built from campaign results. Kept so that
    /// callers which still pass their results compile; it goes once
    /// none does.
    pub results: Vec<&'a CampaignResult>,
    /// A GVL snapshot (compact JSON).
    pub gvl_json: Option<String>,
}

/// Build the full [`BundleInput`] for one campaign: context, checkpoint
/// section bodies, the GVL snapshot and the provider's analysis
/// exports. Pure — the same state and artifacts build the same input,
/// which is what makes packs byte-comparable across thread counts and
/// kill-halfway resumes.
pub fn build_bundle_input(
    state: &CampaignState,
    ctx: &ArchiveContext,
    artifacts: &CampaignArtifacts<'_>,
    provider: Option<&ExportFn>,
) -> BundleInput {
    let mut sections = vec![
        SectionInput {
            name: "config".into(),
            docs: vec![BundleDoc::new("config", ctx.render())],
        },
        SectionInput {
            name: "state".into(),
            docs: state
                .sections()
                .into_iter()
                .map(|(name, body)| BundleDoc::new(name, body))
                .collect(),
        },
    ];
    if let Some(gvl) = &artifacts.gvl_json {
        sections.push(SectionInput {
            name: "gvl".into(),
            docs: vec![BundleDoc::new("vendor-list", gvl.clone())],
        });
    }
    if let Some(provider) = provider {
        sections.push(SectionInput {
            name: "analysis".into(),
            docs: provider(state, ctx)
                .into_iter()
                .map(|(label, body)| BundleDoc::new(label, body))
                .collect(),
        });
    }
    BundleInput {
        meta: vec![
            ("day".into(), ctx.day.to_string()),
            ("seed".into(), ctx.seed.to_string()),
            ("pairs".into(), state.pairs_done.to_string()),
        ],
        sections,
    }
}

/// Pack a campaign into `store` with fsck-and-repair scrubbing
/// ([`pack_verified`]): the returned report's fsck is clean or the pack
/// failed. Storage faults reach the pack through the store's
/// [`Vfs`](consent_checkpoint::Vfs).
///
/// Refuses, with [`io::ErrorKind::InvalidInput`] naming the domain and
/// before writing a blob, a context holding a domain the durable driver
/// refuses too: one with a tab, newline or carriage return, or whose
/// host (the part before any `/`) is empty or has a dot-separated label
/// that starts with `#`.
pub fn pack_campaign_bundle(
    store: &BlobStore,
    state: &CampaignState,
    ctx: &ArchiveContext,
    artifacts: &CampaignArtifacts<'_>,
    provider: Option<&ExportFn>,
) -> io::Result<(PackReport, VerifyReport)> {
    check_domains(&ctx.domains)?;
    let input = build_bundle_input(state, ctx, artifacts, provider);
    pack_verified(store, &input, SCRUB_ROUNDS)
}

/// What a replay proved (or disproved).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayReport {
    /// Pairs in the re-imported state.
    pub pairs: u64,
    /// Documents byte-compared (state re-exports + analysis exports).
    pub docs_compared: u64,
    /// The first divergence, if any. `None` is the reproducibility
    /// proof: every compared export is byte-identical.
    pub divergence: Option<DivergenceReport>,
}

impl ReplayReport {
    /// True when every compared document was byte-identical.
    pub fn ok(&self) -> bool {
        self.divergence.is_none()
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        match &self.divergence {
            None => format!(
                "replay ok: {} pairs, {} documents byte-identical",
                self.pairs, self.docs_compared
            ),
            Some(d) => format!("replay FAILED: {d}"),
        }
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// [`replay_bundle`] of the bundle directory at `dir`, opened on the
/// real filesystem.
pub fn replay_campaign_bundle(dir: &Path, provider: Option<&ExportFn>) -> io::Result<ReplayReport> {
    replay_bundle(&BlobStore::open(dir)?, provider)
}

/// Re-run the campaign analyses from the bundle in `store` alone and
/// byte-compare against the archived exports.
///
/// Steps: parse the manifest, re-import the `state` section's
/// `capture-db` and `provenance` documents (the same importer
/// checkpoint recovery uses; other documents, such as the cursor and
/// dead-letter view older bundles stored, are not read), re-*export*
/// the state and compare against the archived documents (proving it
/// round-trips), then run `provider` over the
/// re-imported state and compare each produced document against the
/// archived `analysis` section. The first mismatch is returned as a
/// [`DivergenceReport`] naming section, document, and line.
pub fn replay_bundle(store: &BlobStore, provider: Option<&ExportFn>) -> io::Result<ReplayReport> {
    let _span = consent_telemetry::span("bundle.replay");
    let text = store.read_manifest()?;
    let manifest = Manifest::parse(&text).map_err(|e| invalid(format!("bundle manifest: {e}")))?;

    let config_docs = read_section(store, &manifest, "config")?;
    let config = config_docs
        .iter()
        .find(|d| d.label == "config")
        .ok_or_else(|| invalid("bundle has no config document".into()))?;
    let ctx =
        ArchiveContext::parse(&config.body).map_err(|e| invalid(format!("bundle config: {e}")))?;

    let state_docs = read_section(store, &manifest, "state")?;
    let doc = |label: &str| -> io::Result<&str> {
        state_docs
            .iter()
            .find(|d| d.label == label)
            .map(|d| d.body.as_str())
            .ok_or_else(|| invalid(format!("bundle state section missing {label:?}")))
    };
    let state =
        CampaignState::from_sections(doc(SECTION_DB)?, doc(SECTION_PROVENANCE)?).map_err(|e| {
            invalid(format!(
                "bundle state unimportable: line {}: {}",
                e.line, e.message
            ))
        })?;

    let mut report = ReplayReport {
        pairs: state.pairs_done,
        docs_compared: 0,
        divergence: None,
    };
    // Round-trip proof: the re-imported state re-exports to the exact
    // archived section bodies.
    'compare: {
        for (label, got) in state.sections() {
            report.docs_compared += 1;
            if let Some(d) = first_divergence("state", label, doc(label)?, &got) {
                report.divergence = Some(d);
                break 'compare;
            }
        }
        // Analysis proof: the provider over the re-imported state
        // reproduces the archived exports.
        if let Some(provider) = provider {
            let archived_docs = read_section(store, &manifest, "analysis")?;
            let recomputed = provider(&state, &ctx);
            for doc in &archived_docs {
                report.docs_compared += 1;
                let Some((_, body)) = recomputed.iter().find(|(l, _)| *l == doc.label) else {
                    report.divergence = Some(DivergenceReport {
                        section: "analysis".into(),
                        label: doc.label.clone(),
                        line: 1,
                        expected: doc.body.lines().next().map(str::to_string),
                        actual: None,
                    });
                    break 'compare;
                };
                if let Some(d) = first_divergence("analysis", &doc.label, &doc.body, body) {
                    report.divergence = Some(d);
                    break 'compare;
                }
            }
            if let Some((label, body)) = recomputed
                .iter()
                .find(|(l, _)| !archived_docs.iter().any(|d| d.label == *l))
            {
                report.divergence = Some(DivergenceReport {
                    section: "analysis".into(),
                    label: label.clone(),
                    line: 1,
                    expected: None,
                    actual: body.lines().next().map(str::to_string),
                });
            }
        }
    }
    consent_telemetry::count("bundle.replayed", 1);
    if report.divergence.is_some() {
        consent_telemetry::count("bundle.replay.divergence", 1);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{build_toplist, CampaignConfig};
    use crate::parallel::{run_campaign_parallel, ParallelOpts};
    use crate::resilience::{BreakerConfig, RetryPolicy};
    use consent_faultsim::FaultProfile;
    use consent_httpsim::Vantage;
    use consent_webgraph::{AdoptionConfig, World, WorldConfig};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir() -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "consent-archive-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn quiet() -> CampaignConfig {
        CampaignConfig {
            fault_profile: FaultProfile::none(),
            retry: RetryPolicy::paper(),
            breaker: BreakerConfig::default(),
        }
    }

    fn small_campaign() -> (CampaignState, CampaignResult, ArchiveContext) {
        let world = World::new(WorldConfig {
            n_sites: 400,
            seed: 42,
            adoption: AdoptionConfig::default(),
        });
        let list = build_toplist(&world, 8, SeedTree::new(7));
        let day = Day::from_ymd(2020, 5, 15);
        let vantages = [Vantage::us_cloud(), Vantage::eu_cloud()];
        let seed = SeedTree::new(9);
        let opts = ParallelOpts {
            threads: 1,
            config: quiet(),
            max_pairs: None,
        };
        let run = run_campaign_parallel(&world, &list, day, &vantages, seed, &opts);
        let ctx = ArchiveContext::from_campaign(day, &list, &vantages, &seed);
        (run.state, run.result, ctx)
    }

    #[test]
    fn context_round_trips() {
        let (_, _, ctx) = small_campaign();
        let back = ArchiveContext::parse(&ctx.render()).unwrap();
        assert_eq!(back, ctx);
        assert_eq!(back.vantages, vec!["us-fast-enus", "eu-fast-enus"]);
        assert!(ArchiveContext::parse("#wrong\n").is_err());
        assert!(ArchiveContext::parse(CONFIG_HEADER).is_err(), "missing day");
    }

    /// A tab, a `#` label and a newline: the last would write a second
    /// `day=` line into the `config` document.
    const HOSTILE: [&str; 3] = [
        "evil\tdomain.example",
        "a.#b.example",
        "smuggle.example\nday=2001-01-01",
    ];

    #[test]
    fn pack_refuses_domains_a_campaign_state_cannot_hold() {
        let (state, _, ctx) = small_campaign();
        for hostile in HOSTILE {
            let mut ctx = ctx.clone();
            ctx.domains.insert(3, hostile.to_string());
            let dir = tmp_dir();
            let store = BlobStore::open(&dir).unwrap();
            let err =
                pack_campaign_bundle(&store, &state, &ctx, &CampaignArtifacts::default(), None)
                    .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{hostile:?}");
            assert!(err.to_string().contains(&format!("{hostile:?}")), "{err}");
            let written: Vec<_> = walk(&dir);
            assert!(written.is_empty(), "{hostile:?} wrote {written:?}");
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    /// Every file under `dir`.
    fn walk(dir: &Path) -> Vec<PathBuf> {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                files.extend(walk(&path));
            } else {
                files.push(path);
            }
        }
        files
    }

    #[test]
    fn parse_refuses_a_repeated_day_or_seed() {
        let (_, _, ctx) = small_campaign();
        let text = ctx.render();
        for extra in ["day=2001-01-01\n", "seed=1\n"] {
            let err = ArchiveContext::parse(&format!("{text}{extra}")).unwrap_err();
            assert!(err.starts_with("repeated"), "{extra:?}: {err}");
        }
        // What the newline domain renders no longer parses to 2001-01-01.
        for hostile in HOSTILE {
            let mut ctx = ctx.clone();
            ctx.domains.push(hostile.to_string());
            let parsed = ArchiveContext::parse(&ctx.render());
            if hostile.contains('\n') {
                assert!(parsed.is_err(), "{hostile:?}: {parsed:?}");
            } else {
                assert_eq!(parsed.unwrap(), ctx, "{hostile:?}");
            }
        }
    }

    #[test]
    fn pack_then_replay_round_trips_state() {
        let (state, result, ctx) = small_campaign();
        let artifacts = CampaignArtifacts {
            results: vec![&result],
            gvl_json: Some("{}".into()),
        };
        let dir = tmp_dir();
        let store = BlobStore::open(&dir).unwrap();
        let (pack, fsck) = pack_campaign_bundle(&store, &state, &ctx, &artifacts, None).unwrap();
        assert!(fsck.clean(), "{}", fsck.render());
        // Results are accepted and ignored: no capture log is archived.
        let sections: Vec<&str> = pack
            .manifest
            .sections
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(sections, ["config", "state", "gvl"]);
        let replay = replay_campaign_bundle(&dir, None).unwrap();
        assert!(replay.ok(), "{}", replay.summary());
        assert_eq!(replay.pairs, state.pairs_done);
        assert_eq!(replay.docs_compared, 2, "two state documents");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn replay_runs_the_provider_and_detects_divergence() {
        let (state, _, ctx) = small_campaign();
        // A deterministic stand-in provider (the real one lives in
        // consent-analysis, above this crate in the dependency DAG).
        let provider: Box<ExportFn> = Box::new(|state: &CampaignState, ctx: &ArchiveContext| {
            vec![(
                "summary".to_string(),
                format!(
                    "pairs={}\ndomains={}\n",
                    state.pairs_done,
                    ctx.domains.len()
                ),
            )]
        });
        let dir = tmp_dir();
        pack_campaign_bundle(
            &BlobStore::open(&dir).unwrap(),
            &state,
            &ctx,
            &CampaignArtifacts::default(),
            Some(&*provider),
        )
        .unwrap();
        let replay = replay_campaign_bundle(&dir, Some(&*provider)).unwrap();
        assert!(replay.ok(), "{}", replay.summary());
        assert_eq!(replay.docs_compared, 3);

        // A drifted provider (simulating an analysis-code change) is
        // caught and localized.
        let drifted: Box<ExportFn> = Box::new(|state: &CampaignState, _| {
            vec![(
                "summary".to_string(),
                format!("pairs={}\ndomains=DRIFT\n", state.pairs_done),
            )]
        });
        let replay = replay_campaign_bundle(&dir, Some(&*drifted)).unwrap();
        let d = replay.divergence.expect("divergence detected");
        assert_eq!(
            (d.section.as_str(), d.label.as_str()),
            ("analysis", "summary")
        );
        assert_eq!(d.line, 2);
        assert!(d.expected.unwrap().starts_with("domains="));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn replay_rejects_a_tampered_state_section() {
        let (state, _, ctx) = small_campaign();
        let dir = tmp_dir();
        let store = BlobStore::open(&dir).unwrap();
        pack_campaign_bundle(&store, &state, &ctx, &CampaignArtifacts::default(), None).unwrap();
        // A provenance log one record short of the capture rows fails
        // the semantic import loudly.
        let manifest = Manifest::parse(&store.read_manifest().unwrap()).unwrap();
        let provenance = &manifest.section("state").unwrap().blobs[1];
        assert_eq!(provenance.label, SECTION_PROVENANCE);
        // Rewrite the provenance blob in place (bit-rot with a fixed-up
        // CRC is indistinguishable from an honest blob to the container,
        // so this models a *semantic* attack the import layer must
        // catch).
        let exported = state.provenance.export();
        let forged = format!(
            "{}\n",
            exported.trim_end_matches('\n').rsplit_once('\n').unwrap().0
        );
        let addr = consent_bundle::BlobAddr::of(forged.as_bytes());
        store.put(forged.as_bytes()).unwrap();
        let mut m = manifest.clone();
        for s in &mut m.sections {
            for b in &mut s.blobs {
                if b.label == SECTION_PROVENANCE {
                    b.addr = addr;
                    b.len = forged.len() as u64;
                }
            }
        }
        m.compute_stats();
        store.write_manifest(&m.serialize()).unwrap();
        let err = replay_campaign_bundle(&dir, None).unwrap_err();
        assert!(err.to_string().contains("unimportable"), "{err}");
        assert!(err.to_string().contains("capture rows"), "{err}");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
