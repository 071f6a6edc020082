//! # consent-crawler
//!
//! The Netograph-style measurement platform: a reshare-skewed social
//! media URL feed ([`feed`]), the 1h/48h deduplication queue ([`queue`]),
//! the end-to-end capture pipeline with 50/50 US/EU vantage assignment
//! ([`platform`]), the central capture database and query API
//! ([`capture_db`]), toplist crawl campaigns across the six Table 1
//! vantage configurations ([`campaign`]), and the robustness layer:
//! outcome classification, retry policy, and circuit breaking
//! ([`resilience`]), per-pair provenance records (`consent_trace`) whose
//! dead-letter flag marks the abandoned pairs, causal traces, and
//! checkpoint/resume via [`campaign::CampaignState`], which stores
//! exactly its two logs: the capture database and the provenance log.
//! Every campaign runs through one driver,
//! [`resume_campaign_parallel`] (and [`run_campaign_parallel`] for a
//! fresh start), whose output is byte-identical at any thread count:
//! `threads <= 1` crawls in pair order on the calling thread, more
//! threads crawl batches of pairs on the caller and `threads - 1`
//! helpers of the deterministic [`parallel`] pool. That pool is the
//! crate's one executor: [`Platform::run`] runs the social feed on it
//! too, with the caller admitting URLs and inserting rows in order
//! while every core captures, and its capture database is the same at
//! any core count. Campaigns persist across process deaths with the
//! [`durable`] driver, which runs the same loop chunk by chunk,
//! checkpoints into a crash-safe
//! [`consent_checkpoint::CheckpointStore`] and salvages corrupt
//! checkpoints on recovery. When the *disk itself* fails, the
//! [`supervisor`] self-heals: transient storage faults are retried out
//! of a budget and persistent ones descend a degradation ladder
//! (widen cadence → memory-only), so campaigns always end
//! `Complete`, `Degraded`, or `Crashed` — never wedged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod campaign;
pub mod capture_db;
pub mod durable;
pub mod export;
pub mod feed;
pub mod parallel;
pub mod platform;
pub mod queue;
pub mod resilience;
pub mod supervisor;

pub use archive::{
    build_bundle_input, pack_campaign_bundle, replay_bundle, replay_campaign_bundle,
    ArchiveContext, CampaignArtifacts, ExportFn, ReplayReport, CONFIG_HEADER,
};
pub use campaign::{
    build_toplist, vantage_code, vantage_from, CampaignCapture, CampaignConfig, CampaignResult,
    CampaignRun, CampaignState,
};
pub use capture_db::{
    shard_of, CaptureDb, CaptureSummary, CmpSet, DbMarks, SEGMENT_ROWS, SHARD_COUNT,
};
pub use durable::{
    recover_state, run_durable_campaign, BundleSpec, CheckpointMode, DurableOpts, DurableOutcome,
    DurableRun, SECTION_DB, SECTION_DELTA_META, SECTION_PROVENANCE,
};
pub use export::{export as export_db, import as import_db, FORMAT_VERSION};
pub use feed::{Feed, FeedConfig, FeedItem, FeedSource};
pub use parallel::{resume_campaign_parallel, run_campaign_parallel, ParallelOpts};
pub use platform::{Platform, RunStats};
pub use queue::{Admission, DedupQueue};
pub use resilience::{BreakerConfig, BreakerState, CircuitBreaker, Outcome, RetryPolicy};
pub use supervisor::{
    DegradeLevel, HealthEvent, HealthReport, SaveVerdict, Supervisor, SupervisorPolicy,
};
