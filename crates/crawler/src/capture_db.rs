//! The central capture database: a sharded, columnar, append-only store.
//!
//! §3.2: "All crawl data is stored in a central database, which can be
//! queried using a custom API." Like Netograph (which "does not store
//! page contents due to storage constraints") we keep a compact summary
//! per capture: the final eTLD+1, day, vantage, outcome, and the detected
//! CMPs — everything the longitudinal analyses consume.
//!
//! # Layout
//!
//! The store is organized for a million-domain longitudinal crawl where
//! the hot path is *append* (one row per processed pair) and the cold
//! path is *scan* (analyses and exports). Rows live in [`SHARD_COUNT`]
//! shards keyed by a stable FNV-1a hash of the domain, each shard a list
//! of fixed-capacity columnar segments. The interned host id is the
//! store's only key: an insert looks the host's name up once, and
//! everything after that, the per-host row list included, is indexed by
//! the id.
//!
//! ```text
//! CaptureDb
//! ├── interner: host string ↔ u32 id (id = first-insert order)
//! ├── index:    id → (shard, row indexes within the shard)
//! ├── shard 0: [ sealed seg ][ sealed seg ][ active tail → ]
//! ├── shard 1: [ sealed seg ][ active tail → ]
//! │   ...                 each segment = SEGMENT_ROWS parallel columns:
//! └── shard 15             domain_id:u32 | day:i32 | loc:u8 | status:u8
//!                          | cmps:u8 bitmask | flags:u8 (redir, dialog)
//! ```
//!
//! A segment seals when it reaches [`SEGMENT_ROWS`] rows and a fresh
//! active tail starts; sealed segments are never mutated again. Because
//! sealing depends only on the shard's row count, the full layout is a
//! pure function of the insertion history — which is what lets the
//! columnar checkpoint export stay byte-identical across thread counts
//! and kill-halfway resumes (insertions always happen on the merge
//! thread in deterministic pair order).
//!
//! The per-shard row counts (see [`CaptureDb::marks`]) are the delta-
//! checkpoint cursor: everything past a mark is exactly the set of rows
//! appended since that mark was taken. `docs/STORAGE.md` is the
//! normative spec of the on-disk serialization of this layout.
//!
//! Reads ([`CaptureDb::iter`], [`CaptureDb::domain_history`]) return
//! rows whose domain borrows the interned name, so a scan allocates one
//! `Vec` per domain and nothing per row.
//!
//! # Append and seal
//!
//! ```
//! use consent_crawler::{CaptureDb, CaptureSummary, CmpSet, SEGMENT_ROWS};
//! use consent_httpsim::{CaptureStatus, Location};
//! use consent_util::Day;
//!
//! let mut db = CaptureDb::new();
//! let row = |i: u32| CaptureSummary {
//!     domain: "example.com".into(),
//!     day: Day::from_ymd(2020, 1, 1) + i as i32,
//!     location: Location::EuCloud,
//!     status: CaptureStatus::Ok,
//!     cmps: CmpSet::empty(),
//!     redirected: false,
//!     dialog_visible: false,
//! };
//! // Fill one segment exactly: the tail seals and a new one opens on
//! // the next append.
//! for i in 0..SEGMENT_ROWS as u32 {
//!     db.insert(row(i));
//! }
//! assert_eq!(db.sealed_segments(), 1);
//! db.insert(row(SEGMENT_ROWS as u32));
//! assert_eq!(db.len(), SEGMENT_ROWS as u64 + 1);
//! assert_eq!(db.domain_history("example.com").len(), SEGMENT_ROWS + 1);
//! ```

use consent_httpsim::{Capture, CaptureStatus, Location};
use consent_psl::PublicSuffixList;
use consent_util::Day;
use consent_webgraph::{Cmp, ALL_CMPS};
use std::borrow::Cow;
use std::collections::HashMap;

/// Number of domain shards. Fixed by the storage format (STORAGE.md):
/// changing it changes every shard assignment and therefore the export
/// bytes.
pub const SHARD_COUNT: usize = 16;

/// Rows per segment. A segment seals exactly when it holds this many
/// rows, so segment boundaries are a pure function of insert history.
pub const SEGMENT_ROWS: usize = 256;

/// Stable shard assignment: FNV-1a over the domain bytes, mod
/// [`SHARD_COUNT`]. Part of the storage format — see STORAGE.md.
pub fn shard_of(domain: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in domain.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % SHARD_COUNT as u64) as usize
}

/// Compact bitmask of detected CMPs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CmpSet(u8);

impl CmpSet {
    /// Empty set.
    pub fn empty() -> CmpSet {
        CmpSet(0)
    }

    /// Add a CMP.
    pub fn insert(&mut self, cmp: Cmp) {
        self.0 |= 1 << cmp_index(cmp);
    }

    /// Membership test.
    pub fn contains(&self, cmp: Cmp) -> bool {
        self.0 & (1 << cmp_index(cmp)) != 0
    }

    /// Number of CMPs in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterate members in [`ALL_CMPS`] order, which is `Cmp`'s `Ord`
    /// order: the order of the `BTreeSet` that `Detector::detect`
    /// returns, so a reader that takes the first member takes the same
    /// CMP from either.
    pub fn iter(&self) -> CmpSetIter {
        CmpSetIter { set: *self, pos: 0 }
    }

    /// The raw bitmask, bit i = `ALL_CMPS[i]` (the storage column value).
    pub(crate) fn bits(self) -> u8 {
        self.0
    }

    /// Rebuild from a raw bitmask (inverse of [`bits`](Self::bits)), or
    /// `None` if a bit is set that no CMP of [`ALL_CMPS`] owns.
    pub(crate) fn from_bits(bits: u8) -> Option<CmpSet> {
        (bits >> ALL_CMPS.len() == 0).then_some(CmpSet(bits))
    }
}

/// Iterator over a [`CmpSet`]'s members, in [`ALL_CMPS`] order.
#[derive(Clone, Debug)]
pub struct CmpSetIter {
    set: CmpSet,
    pos: usize,
}

impl Iterator for CmpSetIter {
    type Item = Cmp;

    fn next(&mut self) -> Option<Cmp> {
        while self.pos < ALL_CMPS.len() {
            let cmp = ALL_CMPS[self.pos];
            self.pos += 1;
            if self.set.contains(cmp) {
                return Some(cmp);
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Remaining members are exactly the set bits not yet visited.
        let remaining = ALL_CMPS[self.pos..]
            .iter()
            .filter(|&&c| self.set.contains(c))
            .count();
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for CmpSetIter {}

impl IntoIterator for CmpSet {
    type Item = Cmp;
    type IntoIter = CmpSetIter;

    fn into_iter(self) -> CmpSetIter {
        self.iter()
    }
}

impl IntoIterator for &CmpSet {
    type Item = Cmp;
    type IntoIter = CmpSetIter;

    fn into_iter(self) -> CmpSetIter {
        self.iter()
    }
}

impl FromIterator<Cmp> for CmpSet {
    fn from_iter<I: IntoIterator<Item = Cmp>>(cmps: I) -> CmpSet {
        let mut s = CmpSet(0);
        for c in cmps {
            s.insert(c);
        }
        s
    }
}

fn cmp_index(cmp: Cmp) -> u8 {
    ALL_CMPS
        .iter()
        .position(|&c| c == cmp)
        .expect("cmp in registry") as u8
}

/// One stored capture summary (the materialized row view).
///
/// The domain is owned when [`CaptureSummary::of`] builds the row and
/// borrowed from the store's host table when [`CaptureDb::iter`] or
/// [`CaptureDb::domain_history`] reads it back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaptureSummary<'a> {
    /// Final registrable domain (eTLD+1) after redirects.
    pub domain: Cow<'a, str>,
    /// Capture day.
    pub day: Day,
    /// Crawl location.
    pub location: Location,
    /// Outcome.
    pub status: CaptureStatus,
    /// Detected CMPs (usually 0 or 1).
    pub cmps: CmpSet,
    /// True if the seed URL's eTLD+1 differs from the final one
    /// (top-level redirect, §3.2: ~11 % of crawls).
    pub redirected: bool,
    /// A consent dialog was visible.
    pub dialog_visible: bool,
}

impl CaptureSummary<'static> {
    /// The row a full capture stores: its final eTLD+1, day, location,
    /// status, the CMPs detected on it, whether the seed URL redirected
    /// across eTLD+1, and the dialog flag. Pure, so a campaign worker
    /// builds the row and the merge thread only inserts it.
    pub fn of(capture: &Capture, cmps: CmpSet, psl: &PublicSuffixList) -> CaptureSummary<'static> {
        let host = capture.final_host.as_str();
        let domain = psl
            .registrable_domain(host)
            .unwrap_or(Cow::Borrowed(host))
            .into_owned();
        let (seed_host, _) = consent_httpsim::split_url(&capture.seed_url);
        let seed_domain = psl
            .registrable_domain(seed_host)
            .unwrap_or(Cow::Borrowed(seed_host));
        CaptureSummary {
            redirected: seed_domain != domain.as_str(),
            domain: Cow::Owned(domain),
            day: capture.day,
            location: capture.vantage.location,
            status: capture.status,
            cmps,
            dialog_visible: capture.dialog_visible,
        }
    }
}

/// Row flag bits (the `flags` column).
pub(crate) const FLAG_REDIRECTED: u8 = 1;
pub(crate) const FLAG_DIALOG: u8 = 2;

/// One fixed-capacity columnar segment: six parallel columns of at most
/// [`SEGMENT_ROWS`] values each. Sealed segments are immutable.
#[derive(Debug, Default, Clone)]
pub(crate) struct Segment {
    pub(crate) domain_ids: Vec<u32>,
    pub(crate) days: Vec<i32>,
    pub(crate) locations: Vec<u8>,
    pub(crate) statuses: Vec<u8>,
    pub(crate) cmps: Vec<u8>,
    pub(crate) flags: Vec<u8>,
}

impl Segment {
    fn with_capacity() -> Segment {
        Segment {
            domain_ids: Vec::with_capacity(SEGMENT_ROWS),
            days: Vec::with_capacity(SEGMENT_ROWS),
            locations: Vec::with_capacity(SEGMENT_ROWS),
            statuses: Vec::with_capacity(SEGMENT_ROWS),
            cmps: Vec::with_capacity(SEGMENT_ROWS),
            flags: Vec::with_capacity(SEGMENT_ROWS),
        }
    }

    pub(crate) fn rows(&self) -> usize {
        self.domain_ids.len()
    }

    fn is_full(&self) -> bool {
        self.rows() == SEGMENT_ROWS
    }
}

/// One domain shard: zero or more sealed segments plus the active tail.
#[derive(Debug, Default)]
struct Shard {
    /// All segments; every segment but the last is sealed (full).
    segments: Vec<Segment>,
}

impl Shard {
    /// Rows in the shard. Every segment but the tail is full, so this
    /// reads only the tail.
    fn rows(&self) -> u32 {
        self.segments.last().map_or(0, |tail| {
            ((self.segments.len() - 1) * SEGMENT_ROWS + tail.rows()) as u32
        })
    }

    /// Append one row, sealing the tail when it fills. Returns true if
    /// a segment sealed on this append.
    fn append(
        &mut self,
        domain_id: u32,
        day: i32,
        loc: u8,
        status: u8,
        cmps: u8,
        flags: u8,
    ) -> bool {
        if self.segments.last().is_none_or(Segment::is_full) {
            self.segments.push(Segment::with_capacity());
        }
        let tail = self.segments.last_mut().expect("tail segment");
        tail.domain_ids.push(domain_id);
        tail.days.push(day);
        tail.locations.push(loc);
        tail.statuses.push(status);
        tail.cmps.push(cmps);
        tail.flags.push(flags);
        tail.is_full()
    }
}

/// Per-shard row counts at one instant: the delta-checkpoint cursor.
///
/// Taken with [`CaptureDb::marks`] at a durable checkpoint cut;
/// everything appended past the marks is exactly the set of rows the
/// next delta section must carry (see `docs/STORAGE.md`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DbMarks {
    /// Interned host count at the mark.
    pub hosts: u32,
    /// Row count per shard at the mark, indexed by shard.
    pub shard_rows: Vec<u32>,
}

/// Where one interned host's rows live: its shard and its row indexes
/// within that shard, in insertion order.
#[derive(Debug)]
struct HostRows {
    shard: u8,
    rows: Vec<u32>,
}

/// The capture store: interned hosts plus [`SHARD_COUNT`] columnar
/// shards (see the [module docs](self) for the layout).
#[derive(Debug)]
pub struct CaptureDb {
    /// Host names in id order; `hosts[id]` is the interned string.
    hosts: Vec<String>,
    /// Host name → id (inverse of `hosts`). The default hasher, because
    /// hosts also come from checkpoint files.
    host_ids: HashMap<String, u32>,
    /// Per-host row index, indexed by host id like `hosts`.
    index: Vec<HostRows>,
    /// The columnar shards.
    shards: Vec<Shard>,
    total: u64,
    redirected: u64,
    multi_cmp: u64,
    sealed: u64,
}

impl Default for CaptureDb {
    fn default() -> CaptureDb {
        CaptureDb {
            hosts: Vec::new(),
            host_ids: HashMap::new(),
            index: Vec::new(),
            shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect(),
            total: 0,
            redirected: 0,
            multi_cmp: 0,
            sealed: 0,
        }
    }
}

pub(crate) fn location_bits(l: Location) -> u8 {
    match l {
        Location::UsCloud => 0,
        Location::EuCloud => 1,
        Location::EuUniversity => 2,
    }
}

pub(crate) fn location_from_bits(b: u8) -> Option<Location> {
    Some(match b {
        0 => Location::UsCloud,
        1 => Location::EuCloud,
        2 => Location::EuUniversity,
        _ => return None,
    })
}

pub(crate) fn status_bits(s: CaptureStatus) -> u8 {
    match s {
        CaptureStatus::Ok => 0,
        CaptureStatus::Timeout => 1,
        CaptureStatus::AntiBotInterstitial => 2,
        CaptureStatus::LegallyBlocked => 3,
        CaptureStatus::HttpError => 4,
        CaptureStatus::ConnectionFailed => 5,
        CaptureStatus::ConnectionReset => 6,
        CaptureStatus::Truncated => 7,
    }
}

pub(crate) fn status_from_bits(b: u8) -> Option<CaptureStatus> {
    Some(match b {
        0 => CaptureStatus::Ok,
        1 => CaptureStatus::Timeout,
        2 => CaptureStatus::AntiBotInterstitial,
        3 => CaptureStatus::LegallyBlocked,
        4 => CaptureStatus::HttpError,
        5 => CaptureStatus::ConnectionFailed,
        6 => CaptureStatus::ConnectionReset,
        7 => CaptureStatus::Truncated,
        _ => return None,
    })
}

impl CaptureDb {
    /// Empty database.
    pub fn new() -> CaptureDb {
        CaptureDb::default()
    }

    /// Summarize a full capture and insert it:
    /// [`insert`](Self::insert) of [`CaptureSummary::of`].
    pub fn ingest(&mut self, capture: &Capture, cmps: CmpSet, psl: &PublicSuffixList) {
        self.insert(CaptureSummary::of(capture, cmps, psl));
    }

    /// Insert a pre-built summary, appending one row to the domain's
    /// shard (sealing the tail segment when it fills). The row's domain
    /// moves into the host table only when the host is new.
    pub fn insert(&mut self, summary: CaptureSummary<'_>) {
        let id = match self.host_ids.get(summary.domain.as_ref()) {
            Some(&id) => id,
            None => self.intern(summary.domain.into_owned()),
        };
        let mut flags = 0u8;
        if summary.redirected {
            flags |= FLAG_REDIRECTED;
        }
        if summary.dialog_visible {
            flags |= FLAG_DIALOG;
        }
        self.append(
            id,
            summary.day.0,
            summary.location,
            summary.status,
            summary.cmps,
            flags,
        );
    }

    /// Append one row of host `id`, which must be interned.
    ///
    /// This is the telemetry reconciliation anchor: the
    /// `capture_db.insert{location,status}` counter family increments
    /// here and nowhere else, so its sum always equals [`len`](Self::len)
    /// across all databases touched while recording was on. Segment
    /// seals are counted as `capture_db.segment.sealed`.
    fn append(
        &mut self,
        id: u32,
        day: i32,
        location: Location,
        status: CaptureStatus,
        cmps: CmpSet,
        flags: u8,
    ) {
        if consent_telemetry::enabled() {
            consent_telemetry::count_labeled(
                consent_telemetry::CAPTURE_FAMILY,
                &[("location", location.name()), ("status", status.name())],
                1,
            );
        }
        self.total += 1;
        if flags & FLAG_REDIRECTED != 0 {
            self.redirected += 1;
        }
        if cmps.len() > 1 {
            self.multi_cmp += 1;
        }
        let host = &mut self.index[id as usize];
        let shard = &mut self.shards[usize::from(host.shard)];
        host.rows.push(shard.rows());
        let sealed = shard.append(
            id,
            day,
            location_bits(location),
            status_bits(status),
            cmps.bits(),
            flags,
        );
        if sealed {
            self.sealed += 1;
            consent_telemetry::count("capture_db.segment.sealed", 1);
        }
    }

    /// Intern a host the table does not hold yet, under the next id.
    fn intern(&mut self, name: String) -> u32 {
        let id = self.hosts.len() as u32;
        self.index.push(HostRows {
            shard: shard_of(&name) as u8,
            rows: Vec::new(),
        });
        self.host_ids.insert(name.clone(), id);
        self.hosts.push(name);
        id
    }

    /// Intern the next host of a checkpoint's host table (import path),
    /// or return false if the table already holds it: a repeated host
    /// would shift every later id. The caller must feed hosts in exactly
    /// their original first-insert order or later appends would diverge.
    pub(crate) fn preintern(&mut self, name: String) -> bool {
        if self.host_ids.contains_key(&name) {
            return false;
        }
        self.intern(name);
        true
    }

    /// Interned host names, in id order.
    pub(crate) fn host_table(&self) -> &[String] {
        &self.hosts
    }

    /// The segments of one shard, sealed-first with the active tail last.
    pub(crate) fn shard_segments(&self, shard: usize) -> &[Segment] {
        &self.shards[shard].segments
    }

    /// Append a raw row of shard `shard` by column values (the full and
    /// the delta import). Every value is checked, the host's shard
    /// included, and the row goes through the same append as
    /// [`insert`](Self::insert), so counters and telemetry reconcile
    /// identically to original inserts.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn insert_row(
        &mut self,
        shard: usize,
        domain_id: u32,
        day: i32,
        loc: u8,
        status: u8,
        cmps: u8,
        flags: u8,
    ) -> Result<(), String> {
        let host = self
            .index
            .get(domain_id as usize)
            .ok_or_else(|| format!("domain id {domain_id} out of range"))?;
        if usize::from(host.shard) != shard {
            let name = &self.hosts[domain_id as usize];
            return Err(format!("host {name:?} does not belong to shard {shard}"));
        }
        let location = location_from_bits(loc).ok_or_else(|| format!("bad location {loc}"))?;
        let status = status_from_bits(status).ok_or_else(|| format!("bad status {status}"))?;
        let cmps = CmpSet::from_bits(cmps).ok_or_else(|| format!("bad cmps {cmps}"))?;
        if flags & !(FLAG_REDIRECTED | FLAG_DIALOG) != 0 {
            return Err(format!("bad flags {flags}"));
        }
        self.append(domain_id, day, location, status, cmps, flags);
        Ok(())
    }

    /// Materialize the rows of one host, in insertion order, with the
    /// domain borrowed from the host table.
    fn history(&self, id: usize) -> Vec<CaptureSummary<'_>> {
        let domain = self.hosts[id].as_str();
        let host = &self.index[id];
        let segments = &self.shards[usize::from(host.shard)].segments;
        host.rows
            .iter()
            .map(|&row| {
                let seg = &segments[row as usize / SEGMENT_ROWS];
                let i = row as usize % SEGMENT_ROWS;
                CaptureSummary {
                    domain: Cow::Borrowed(domain),
                    day: Day(seg.days[i]),
                    location: location_from_bits(seg.locations[i]).expect("stored location"),
                    status: status_from_bits(seg.statuses[i]).expect("stored status"),
                    cmps: CmpSet(seg.cmps[i]),
                    redirected: seg.flags[i] & FLAG_REDIRECTED != 0,
                    dialog_visible: seg.flags[i] & FLAG_DIALOG != 0,
                }
            })
            .collect()
    }

    /// Total stored captures.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True if no captures stored.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of distinct domains observed: the interned hosts that
    /// have rows.
    pub fn domain_count(&self) -> usize {
        self.index.iter().filter(|h| !h.rows.is_empty()).count()
    }

    /// Number of sealed (immutable, full) segments across all shards.
    pub fn sealed_segments(&self) -> u64 {
        self.sealed
    }

    /// The delta cursor: current per-shard row counts and host count.
    pub fn marks(&self) -> DbMarks {
        DbMarks {
            hosts: self.hosts.len() as u32,
            shard_rows: self.shards.iter().map(Shard::rows).collect(),
        }
    }

    /// Fraction of captures whose seed redirected across eTLD+1.
    pub fn redirect_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.redirected as f64 / self.total as f64
        }
    }

    /// Fraction of captures with more than one CMP (paper: 0.01 %).
    pub fn multi_cmp_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.multi_cmp as f64 / self.total as f64
        }
    }

    /// All captures of one domain, materialized in insertion (time)
    /// order from the domain's shard.
    pub fn domain_history(&self, domain: &str) -> Vec<CaptureSummary<'_>> {
        consent_telemetry::count("capture_db.query.domain_history", 1);
        match self.host_ids.get(domain) {
            Some(&id) => self.history(id as usize),
            None => Vec::new(),
        }
    }

    /// Iterate all `(domain, history)` pairs in host-id order, which is
    /// the order of each domain's first insert, each history
    /// materialized from its shard's columns as
    /// [`domain_history`](Self::domain_history) would.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Vec<CaptureSummary<'_>>)> {
        consent_telemetry::count("capture_db.query.scan", 1);
        self.index
            .iter()
            .enumerate()
            .filter(|(_, host)| !host.rows.is_empty())
            .map(|(id, _)| (self.hosts[id].as_str(), self.history(id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(domain: &str, day: Day, cmps: CmpSet, redirected: bool) -> CaptureSummary<'_> {
        CaptureSummary {
            domain: domain.into(),
            day,
            location: Location::EuCloud,
            status: CaptureStatus::Ok,
            cmps,
            redirected,
            dialog_visible: false,
        }
    }

    #[test]
    fn cmp_set_semantics() {
        let mut s = CmpSet::empty();
        assert!(s.is_empty());
        s.insert(Cmp::Quantcast);
        s.insert(Cmp::OneTrust);
        s.insert(Cmp::Quantcast); // idempotent
        assert_eq!(s.len(), 2);
        assert!(s.contains(Cmp::OneTrust));
        assert!(!s.contains(Cmp::TrustArc));
        let members: Vec<Cmp> = s.iter().collect();
        assert_eq!(members, [Cmp::OneTrust, Cmp::Quantcast]);
        let from = CmpSet::from_iter([Cmp::LiveRamp]);
        assert!(from.contains(Cmp::LiveRamp));
        assert_eq!(from.len(), 1);
        assert_eq!(CmpSet::from_bits(s.bits()), Some(s));
        // Bits past the six CMPs belong to none of them.
        assert_eq!(CmpSet::from_bits(1 << ALL_CMPS.len()), None);
    }

    #[test]
    fn cmp_set_into_iterator() {
        // The full set round-trips through IntoIterator in ALL_CMPS order.
        let full = CmpSet::from_iter(ALL_CMPS);
        let members: Vec<Cmp> = full.into_iter().collect();
        assert_eq!(members, ALL_CMPS);
        assert_eq!(full.iter().len(), ALL_CMPS.len());

        // Both owned and by-reference forms drive a for loop.
        let set = CmpSet::from_iter([Cmp::Cookiebot, Cmp::OneTrust]);
        let mut seen = Vec::new();
        for cmp in &set {
            seen.push(cmp);
        }
        for cmp in set {
            assert!(seen.contains(&cmp));
        }
        assert_eq!(seen.len(), 2);
        assert_eq!(CmpSet::empty().into_iter().count(), 0);

        // ALL_CMPS order is Cmp's Ord order, so a set iterates like the
        // BTreeSet detection returns.
        assert!(ALL_CMPS.windows(2).all(|w| w[0] < w[1]));

        // size_hint stays exact midway through iteration.
        let mut it = full.iter();
        assert_eq!(it.size_hint(), (ALL_CMPS.len(), Some(ALL_CMPS.len())));
        it.next();
        assert_eq!(it.len(), ALL_CMPS.len() - 1);
    }

    #[test]
    fn db_counters() {
        let mut db = CaptureDb::new();
        assert!(db.is_empty());
        let d = Day::from_ymd(2020, 1, 1);
        db.insert(summary(
            "a.com",
            d,
            CmpSet::from_iter([Cmp::OneTrust]),
            false,
        ));
        db.insert(summary("a.com", d + 1, CmpSet::empty(), true));
        db.insert(summary(
            "b.com",
            d,
            CmpSet::from_iter([Cmp::OneTrust, Cmp::Quantcast]),
            false,
        ));
        assert_eq!(db.len(), 3);
        assert_eq!(db.domain_count(), 2);
        assert!((db.redirect_rate() - 1.0 / 3.0).abs() < 1e-9);
        assert!((db.multi_cmp_rate() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(db.domain_history("a.com").len(), 2);
        assert_eq!(db.domain_history("missing.com").len(), 0);
        assert_eq!(db.iter().count(), 2);
    }

    #[test]
    fn shard_function_is_stable() {
        // Pinned values: changing the hash or shard count is a format
        // break and must fail loudly (STORAGE.md pins these).
        assert_eq!(shard_of("example.com"), shard_of("example.com"));
        assert!(shard_of("example.com") < SHARD_COUNT);
        let spread: std::collections::HashSet<usize> = (0..200)
            .map(|i| shard_of(&format!("site-{i}.net")))
            .collect();
        assert!(spread.len() > SHARD_COUNT / 2, "degenerate shard spread");
    }

    #[test]
    fn segments_seal_at_fixed_capacity() {
        let mut db = CaptureDb::new();
        let d = Day::from_ymd(2020, 1, 1);
        // All rows of one domain land in one shard.
        for i in 0..(SEGMENT_ROWS as i32 * 2 + 10) {
            db.insert(summary("seal.me", d + i, CmpSet::empty(), false));
        }
        assert_eq!(db.sealed_segments(), 2);
        let shard = shard_of("seal.me");
        let segs = db.shard_segments(shard);
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].rows(), SEGMENT_ROWS);
        assert_eq!(segs[1].rows(), SEGMENT_ROWS);
        assert_eq!(segs[2].rows(), 10);
        // History is materialized back in insertion order.
        let hist = db.domain_history("seal.me");
        assert_eq!(hist.len(), SEGMENT_ROWS * 2 + 10);
        assert_eq!(hist[0].day, d);
        assert_eq!(hist.last().unwrap().day, d + (SEGMENT_ROWS as i32 * 2 + 9));
    }

    #[test]
    fn marks_track_per_shard_growth() {
        let mut db = CaptureDb::new();
        let d = Day::from_ymd(2020, 1, 1);
        let before = db.marks();
        assert_eq!(before.hosts, 0);
        assert_eq!(before.shard_rows, vec![0; SHARD_COUNT]);
        db.insert(summary("a.com", d, CmpSet::empty(), false));
        db.insert(summary("b.com", d, CmpSet::empty(), false));
        let after = db.marks();
        assert_eq!(after.hosts, 2);
        assert_eq!(after.shard_rows.iter().sum::<u32>(), 2);
        assert!(after.shard_rows[shard_of("a.com")] >= 1);
    }

    #[test]
    fn ingest_normalizes_to_etld1() {
        use consent_httpsim::{Capture, Vantage};
        let psl = PublicSuffixList::embedded();
        let mut db = CaptureDb::new();
        let capture = Capture {
            seed_url: "https://short-alias.net/x".into(),
            final_url: "https://www.example.co.uk/".into(),
            final_host: "www.example.co.uk".into(),
            day: Day::from_ymd(2020, 5, 1),
            vantage: Vantage::eu_cloud(),
            status: CaptureStatus::Ok,
            requests: vec![],
            cookies: vec![],
            dialog_visible: true,
            dom: None,
        };
        db.ingest(&capture, CmpSet::from_iter([Cmp::Quantcast]), &psl);
        let hist = db.domain_history("example.co.uk");
        assert_eq!(hist.len(), 1);
        assert!(hist[0].redirected);
        assert!(hist[0].dialog_visible);
        assert!(hist[0].cmps.contains(Cmp::Quantcast));
    }
}
