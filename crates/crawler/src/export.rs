//! Capture-database export/import: the columnar v3 format and O(new-rows)
//! delta sections.
//!
//! Netograph's capture store persists for multi-year analyses (§3.2); this
//! module gives [`CaptureDb`] a compact text serialization so a long
//! platform run can be saved once and re-analyzed many times. Since v3
//! the layout mirrors the in-memory store: an interning table of host
//! strings in id order, then one block per non-empty shard, each segment
//! written as six column lines. `docs/STORAGE.md` is the normative spec.
//!
//! ```text
//! #consent-capture-db v3
//! hosts=<n>            interning table, one host per line, id order
//! <host 0>
//! ...
//! shard=<s> rows=<r>   ceil(r / SEGMENT_ROWS) segments follow
//! d=<domain ids>       six comma-joined columns per segment:
//! t=<days>             domain id, day number, location, status,
//! l=<locations>        CMP bitmask, flags (bit0 redirect, bit1 dialog)
//! s=<statuses>
//! c=<cmp masks>
//! f=<flags>
//! ```
//!
//! # Versions
//!
//! [`import`] reads only the current version, [`FORMAT_VERSION`]; any
//! other header, the flat v2 line format of the pre-columnar store
//! included, is an `unsupported header` error. A committed fixture
//! (`tests/fixtures/capture_db_v3.txt`) pins the grammar.
//!
//! # Deltas
//!
//! `export_delta` serializes only the rows appended since a
//! [`DbMarks`] cursor (per-shard row counts + host count), and
//! `apply_delta` replays them through the normal insert path — so a
//! base checkpoint plus its delta chain reassembles the exact in-memory
//! store (segment seals included), which is what the delta-generation
//! checkpoints in [`crate::durable`] are built on.

use crate::capture_db::{CaptureDb, DbMarks, SEGMENT_ROWS};
use consent_httpsim::CaptureStatus;
use std::fmt::{self, Write as _};
use std::io;

/// Current format version: the columnar sharded layout.
pub const FORMAT_VERSION: u32 = 3;

/// Header of a delta section (see `export_delta`).
pub const DELTA_HEADER: &str = "#consent-capture-db-delta v1";

/// Import error with a line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImportError {
    /// 1-based line number (0 for header problems).
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "import error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ImportError {}

pub(crate) fn status_code(s: CaptureStatus) -> &'static str {
    match s {
        CaptureStatus::Ok => "ok",
        CaptureStatus::Timeout => "timeout",
        CaptureStatus::AntiBotInterstitial => "antibot",
        CaptureStatus::LegallyBlocked => "blocked451",
        CaptureStatus::HttpError => "httperr",
        CaptureStatus::ConnectionFailed => "connfail",
        CaptureStatus::ConnectionReset => "reset",
        CaptureStatus::Truncated => "truncated",
    }
}

/// An upper bound on the bytes one row adds to the six column lines:
/// a `u32` domain id, an `i32` day and four `u8` codes at their widest,
/// each with its separator.
const ROW_BYTES: usize = 10 + 11 + 4 * 3 + 6;

/// An upper bound on the bytes a segment adds beyond its rows: the six
/// column tags (`d=` … `f=` and their newlines) and a shard header.
const SEGMENT_BYTES: usize = 6 * 3 + 48;

/// Append one column line: `<tag>=` and the comma-joined values.
fn push_column<T: fmt::Display>(out: &mut String, tag: &str, vals: &[T]) {
    out.push_str(tag);
    out.push('=');
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{v}");
    }
    out.push('\n');
}

fn push_segment_columns(out: &mut String, seg: &crate::capture_db::Segment, lo: usize, hi: usize) {
    push_column(out, "d", &seg.domain_ids[lo..hi]);
    push_column(out, "t", &seg.days[lo..hi]);
    push_column(out, "l", &seg.locations[lo..hi]);
    push_column(out, "s", &seg.statuses[lo..hi]);
    push_column(out, "c", &seg.cmps[lo..hi]);
    push_column(out, "f", &seg.flags[lo..hi]);
}

/// Serialize the database to the columnar v3 format. The bytes are a
/// pure function of the insertion history, so exports stay identical
/// across thread counts and kill-halfway resumes.
pub fn export(db: &CaptureDb) -> String {
    let hosts = db.host_table();
    let host_bytes: usize = hosts.iter().map(|h| h.len() + 1).sum();
    let segments: usize = (0..crate::capture_db::SHARD_COUNT)
        .map(|shard| db.shard_segments(shard).len())
        .sum();
    let bound = 64 + host_bytes + db.len() as usize * ROW_BYTES + segments * SEGMENT_BYTES;
    let mut out = String::with_capacity(bound);
    out.push_str(&format!("#consent-capture-db v{FORMAT_VERSION}\n"));
    out.push_str(&format!("hosts={}\n", hosts.len()));
    for h in hosts {
        out.push_str(h);
        out.push('\n');
    }
    for shard in 0..crate::capture_db::SHARD_COUNT {
        let segments = db.shard_segments(shard);
        let rows: usize = segments.iter().map(|s| s.rows()).sum();
        if rows == 0 {
            continue;
        }
        out.push_str(&format!("shard={shard} rows={rows}\n"));
        for seg in segments {
            push_segment_columns(&mut out, seg, 0, seg.rows());
        }
    }
    out
}

/// Serialize only the rows appended since `marks` as a delta section
/// (header [`DELTA_HEADER`]): the newly interned hosts in id order,
/// then one six-column block per shard that grew. Cost is proportional
/// to the rows since the marks, not the database size.
pub(crate) fn export_delta(db: &CaptureDb, marks: &DbMarks) -> String {
    let mut out = String::new();
    out.push_str(DELTA_HEADER);
    out.push('\n');
    let hosts = db.host_table();
    let base = marks.hosts as usize;
    out.push_str(&format!("hosts={}+{}\n", base, hosts.len() - base));
    for h in &hosts[base..] {
        out.push_str(h);
        out.push('\n');
    }
    for shard in 0..crate::capture_db::SHARD_COUNT {
        let segments = db.shard_segments(shard);
        let rows: usize = segments.iter().map(|s| s.rows()).sum();
        let from = marks.shard_rows[shard] as usize;
        if rows == from {
            continue;
        }
        out.push_str(&format!("shard={shard} from={from} rows={}\n", rows - from));
        // Walk the segments covering [from, rows).
        let (mut seg, mut off) = (from / SEGMENT_ROWS, from % SEGMENT_ROWS);
        while seg < segments.len() {
            let s = &segments[seg];
            if off < s.rows() {
                push_segment_columns(&mut out, s, off, s.rows());
            }
            seg += 1;
            off = 0;
        }
    }
    out
}

struct Parser<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    line: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            lines: text.lines().enumerate(),
            line: 0,
        }
    }

    fn err(&self, message: String) -> ImportError {
        ImportError {
            line: self.line,
            message,
        }
    }

    fn next(&mut self) -> Option<&'a str> {
        let (i, l) = self.lines.next()?;
        self.line = i + 1;
        Some(l)
    }

    fn expect(&mut self, what: &str) -> Result<&'a str, ImportError> {
        self.next().ok_or(ImportError {
            line: self.line + 1,
            message: format!("missing {what}"),
        })
    }

    fn column<T: std::str::FromStr>(&mut self, tag: &str, n: usize) -> Result<Vec<T>, ImportError> {
        let l = self.expect(&format!("{tag}= column"))?;
        let body = l
            .strip_prefix(tag)
            .and_then(|r| r.strip_prefix('='))
            .ok_or_else(|| self.err(format!("expected {tag}= column, got {l:?}")))?;
        let vals: Vec<T> = body
            .split(',')
            .filter(|v| !v.is_empty())
            .map(|v| {
                v.parse()
                    .map_err(|_| self.err(format!("bad {tag} value {v:?}")))
            })
            .collect::<Result<_, _>>()?;
        if vals.len() != n {
            return Err(self.err(format!("{tag} column has {} of {n} values", vals.len())));
        }
        Ok(vals)
    }
}

/// Whether `host` can be one line of an interning table: not empty,
/// not a `#` header marker, and free of the tab, newline and carriage
/// return that could split it or smuggle rows or sections into an
/// export. The durable driver and the bundle writer hold a campaign's
/// domains to the same rule ([`check_domains`]).
pub(crate) fn is_host_line(host: &str) -> bool {
    !host.is_empty() && !host.starts_with('#') && !host.contains(['\t', '\n', '\r'])
}

/// Refuse a toplist whose campaign state could not hold it, with
/// [`io::ErrorKind::InvalidInput`] naming the first such domain. The
/// provenance log stores each domain as it is, and a capture row stores
/// the host a seed URL of the domain names (up to any `/`) or a
/// registrable suffix of that host, so all of them must pass the
/// capture-db host rule ([`is_host_line`]). A bundle's `config` document
/// writes one domain per line, which the same rule keeps whole.
pub(crate) fn check_domains(domains: &[String]) -> io::Result<()> {
    for domain in domains {
        let host = domain
            .split_once('/')
            .map_or(domain.as_str(), |(host, _)| host);
        let suffixes = host
            .match_indices('.')
            .map(|(at, _)| &host[at + 1..])
            .filter(|suffix| !suffix.is_empty());
        if ![domain.as_str(), host]
            .into_iter()
            .chain(suffixes)
            .all(is_host_line)
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("domain {domain:?} cannot be stored in a campaign state"),
            ));
        }
    }
    Ok(())
}

/// Read the next `n` host lines of an interning table (see
/// [`is_host_line`]) into `db`'s host table. A host the table already
/// holds is refused: it would shift the id of every later host.
fn read_hosts(p: &mut Parser<'_>, db: &mut CaptureDb, n: usize) -> Result<(), ImportError> {
    for _ in 0..n {
        let l = p.expect("host line")?;
        if !is_host_line(l) {
            return Err(p.err(format!("bad host {l:?}")));
        }
        if !db.preintern(l.to_owned()) {
            return Err(p.err(format!("repeated host {l:?}")));
        }
    }
    Ok(())
}

/// Parse one shard block's rows into `db` via the insert path.
fn import_shard_rows(
    p: &mut Parser<'_>,
    db: &mut CaptureDb,
    shard: usize,
    rows: usize,
) -> Result<(), ImportError> {
    let mut remaining = rows;
    // v3 full exports split columns at segment boundaries; deltas write
    // chunks that cover the remainder of each touched segment. Both are
    // "at most SEGMENT_ROWS values per chunk, aligned to seal points",
    // so the reader only needs the current shard fill to know chunk
    // sizes.
    while remaining > 0 {
        let fill = db.marks().shard_rows[shard] as usize % SEGMENT_ROWS;
        let n = remaining.min(SEGMENT_ROWS - fill);
        let d: Vec<u32> = p.column("d", n)?;
        let t: Vec<i32> = p.column("t", n)?;
        let l: Vec<u8> = p.column("l", n)?;
        let s: Vec<u8> = p.column("s", n)?;
        let c: Vec<u8> = p.column("c", n)?;
        let f: Vec<u8> = p.column("f", n)?;
        for i in 0..n {
            db.insert_row(shard, d[i], t[i], l[i], s[i], c[i], f[i])
                .map_err(|m| p.err(m))?;
        }
        remaining -= n;
    }
    Ok(())
}

/// Parse a database exported by [`export`]. Only the current
/// [`FORMAT_VERSION`] header is accepted.
pub fn import(text: &str) -> Result<CaptureDb, ImportError> {
    let mut p = Parser::new(text);
    let header = p.next().ok_or(ImportError {
        line: 0,
        message: "empty input".into(),
    })?;
    if header != format!("#consent-capture-db v{FORMAT_VERSION}") {
        return Err(ImportError {
            line: 0,
            message: format!("unsupported header {header:?}"),
        });
    }
    let mut db = CaptureDb::new();
    let hosts_line = p.expect("hosts= line")?;
    let n: usize = hosts_line
        .strip_prefix("hosts=")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| p.err(format!("bad hosts line {hosts_line:?}")))?;
    read_hosts(&mut p, &mut db, n)?;
    let mut prev_shard = None;
    while let Some(l) = p.next() {
        if l.is_empty() {
            continue;
        }
        let (shard, rows) = l
            .strip_prefix("shard=")
            .and_then(|r| r.split_once(" rows="))
            .and_then(|(s, r)| Some((s.parse::<usize>().ok()?, r.parse::<usize>().ok()?)))
            .ok_or_else(|| p.err(format!("expected shard header, got {l:?}")))?;
        if shard >= crate::capture_db::SHARD_COUNT {
            return Err(p.err(format!("shard {shard} out of range")));
        }
        if prev_shard.is_some_and(|prev| shard <= prev) {
            return Err(p.err(format!("shard {shard} out of order")));
        }
        prev_shard = Some(shard);
        if rows == 0 {
            return Err(p.err("empty shard block".into()));
        }
        import_shard_rows(&mut p, &mut db, shard, rows)?;
    }
    Ok(db)
}

/// Replay a delta section produced by [`export_delta`] onto `db`,
/// which must be at exactly the marks the delta was cut from (host
/// count and per-shard row counts are validated). Rows go through the
/// normal insert path, so seals, counters, and telemetry reconcile
/// identically to the original inserts.
pub(crate) fn apply_delta(db: &mut CaptureDb, text: &str) -> Result<(), ImportError> {
    let mut p = Parser::new(text);
    let header = p.next().ok_or(ImportError {
        line: 0,
        message: "empty delta".into(),
    })?;
    if header != DELTA_HEADER {
        return Err(ImportError {
            line: 0,
            message: format!("unsupported delta header {header:?}"),
        });
    }
    let hosts_line = p.expect("hosts= line")?;
    let (base, new): (usize, usize) = hosts_line
        .strip_prefix("hosts=")
        .and_then(|r| r.split_once('+'))
        .and_then(|(b, n)| Some((b.parse().ok()?, n.parse().ok()?)))
        .ok_or_else(|| p.err(format!("bad hosts line {hosts_line:?}")))?;
    if base != db.host_table().len() {
        return Err(p.err(format!(
            "delta expects {base} interned hosts, store has {}",
            db.host_table().len()
        )));
    }
    read_hosts(&mut p, db, new)?;
    let mut prev_shard = None;
    while let Some(l) = p.next() {
        if l.is_empty() {
            continue;
        }
        let (shard, rest) = l
            .strip_prefix("shard=")
            .and_then(|r| r.split_once(" from="))
            .ok_or_else(|| p.err(format!("expected shard header, got {l:?}")))?;
        let shard: usize = shard
            .parse()
            .map_err(|_| p.err(format!("bad shard in {l:?}")))?;
        let (from, rows) = rest
            .split_once(" rows=")
            .and_then(|(f, r)| Some((f.parse::<usize>().ok()?, r.parse::<usize>().ok()?)))
            .ok_or_else(|| p.err(format!("bad shard header {l:?}")))?;
        if shard >= crate::capture_db::SHARD_COUNT {
            return Err(p.err(format!("shard {shard} out of range")));
        }
        if prev_shard.is_some_and(|prev| shard <= prev) {
            return Err(p.err(format!("shard {shard} out of order")));
        }
        prev_shard = Some(shard);
        let have = db.marks().shard_rows[shard] as usize;
        if from != have {
            return Err(p.err(format!(
                "delta for shard {shard} starts at row {from}, store has {have}"
            )));
        }
        if rows == 0 {
            return Err(p.err("empty shard block".into()));
        }
        import_shard_rows(&mut p, db, shard, rows)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture_db::{CaptureSummary, CmpSet};
    use consent_httpsim::Location;
    use consent_util::Day;
    use consent_webgraph::Cmp;

    fn sample_db() -> CaptureDb {
        let mut db = CaptureDb::new();
        db.insert(CaptureSummary {
            domain: "a.com".into(),
            day: Day::from_ymd(2020, 5, 1),
            location: Location::EuCloud,
            status: CaptureStatus::Ok,
            cmps: CmpSet::from_iter([Cmp::Quantcast]),
            redirected: false,
            dialog_visible: true,
        });
        db.insert(CaptureSummary {
            domain: "a.com".into(),
            day: Day::from_ymd(2020, 5, 3),
            location: Location::UsCloud,
            status: CaptureStatus::AntiBotInterstitial,
            cmps: CmpSet::empty(),
            redirected: true,
            dialog_visible: false,
        });
        db.insert(CaptureSummary {
            domain: "b.co.uk".into(),
            day: Day::from_ymd(2020, 5, 2),
            location: Location::EuUniversity,
            status: CaptureStatus::Ok,
            cmps: CmpSet::from_iter([Cmp::OneTrust, Cmp::Quantcast]),
            redirected: false,
            dialog_visible: true,
        });
        db.insert(CaptureSummary {
            domain: "c.net".into(),
            day: Day::from_ymd(2020, 5, 4),
            location: Location::EuCloud,
            status: CaptureStatus::Truncated,
            cmps: CmpSet::empty(),
            redirected: false,
            dialog_visible: false,
        });
        db.insert(CaptureSummary {
            domain: "c.net".into(),
            day: Day::from_ymd(2020, 5, 6),
            location: Location::UsCloud,
            status: CaptureStatus::ConnectionReset,
            cmps: CmpSet::empty(),
            redirected: false,
            dialog_visible: false,
        });
        db
    }

    #[test]
    fn roundtrip() {
        let db = sample_db();
        let text = export(&db);
        assert!(text.starts_with("#consent-capture-db v3\n"));
        let back = import(&text).unwrap();
        assert_eq!(back.len(), db.len());
        assert_eq!(back.domain_count(), db.domain_count());
        assert_eq!(back.domain_history("a.com"), db.domain_history("a.com"));
        assert_eq!(back.domain_history("b.co.uk"), db.domain_history("b.co.uk"));
        assert_eq!(back.domain_history("c.net"), db.domain_history("c.net"));
        assert_eq!(back.redirect_rate(), db.redirect_rate());
        assert_eq!(back.multi_cmp_rate(), db.multi_cmp_rate());
        // Export is deterministic and the import is layout-exact.
        assert_eq!(export(&back), text);
        assert_eq!(back.marks(), db.marks());
    }

    #[test]
    fn roundtrip_across_segment_seals() {
        // A domain with more rows than one segment exercises the
        // multi-segment column blocks.
        let mut db = CaptureDb::new();
        for i in 0..(crate::capture_db::SEGMENT_ROWS as i32 + 40) {
            db.insert(CaptureSummary {
                domain: "big.example".into(),
                day: Day::from_ymd(2020, 1, 1) + i,
                location: Location::EuCloud,
                status: CaptureStatus::Ok,
                cmps: CmpSet::empty(),
                redirected: i % 3 == 0,
                dialog_visible: i % 2 == 0,
            });
        }
        let text = export(&db);
        let back = import(&text).unwrap();
        assert_eq!(back.sealed_segments(), 1);
        assert_eq!(export(&back), text);
        assert_eq!(
            back.domain_history("big.example"),
            db.domain_history("big.example")
        );
    }

    #[test]
    fn delta_roundtrip_matches_direct_inserts() {
        let mut db = sample_db();
        let marks = db.marks();
        // Grow past the marks, including a brand-new host.
        db.insert(CaptureSummary {
            domain: "d.org".into(),
            day: Day::from_ymd(2020, 6, 1),
            location: Location::UsCloud,
            status: CaptureStatus::Ok,
            cmps: CmpSet::from_iter([Cmp::TrustArc]),
            redirected: false,
            dialog_visible: true,
        });
        db.insert(CaptureSummary {
            domain: "a.com".into(),
            day: Day::from_ymd(2020, 6, 2),
            location: Location::EuCloud,
            status: CaptureStatus::Timeout,
            cmps: CmpSet::empty(),
            redirected: false,
            dialog_visible: false,
        });
        let delta = export_delta(&db, &marks);
        assert!(delta.starts_with(DELTA_HEADER));
        // Rebuild: base at the marks + the delta = the grown store.
        let mut base = sample_db();
        apply_delta(&mut base, &delta).unwrap();
        assert_eq!(export(&base), export(&db));
        assert_eq!(base.marks(), db.marks());
        // An empty delta is valid and a no-op.
        let empty = export_delta(&db, &db.marks());
        apply_delta(&mut base, &empty).unwrap();
        assert_eq!(export(&base), export(&db));
    }

    #[test]
    fn delta_rejects_wrong_base() {
        let mut db = sample_db();
        let marks = db.marks();
        db.insert(CaptureSummary {
            domain: "d.org".into(),
            day: Day::from_ymd(2020, 6, 1),
            location: Location::UsCloud,
            status: CaptureStatus::Ok,
            cmps: CmpSet::empty(),
            redirected: false,
            dialog_visible: false,
        });
        let delta = export_delta(&db, &marks);
        // Applying to an empty store: host base disagrees.
        let mut empty = CaptureDb::new();
        assert!(apply_delta(&mut empty, &delta).is_err());
        // Applying twice: shard row cursors disagree.
        let mut base = sample_db();
        apply_delta(&mut base, &delta).unwrap();
        assert!(apply_delta(&mut base, &delta).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(import("").is_err());
        assert!(import("#wrong header\n").is_err());
        // v1 never existed as an importable version.
        assert!(import("#consent-capture-db v1\n").is_err());
        // v3 structural corruption.
        let h = "#consent-capture-db v3\n";
        assert!(import(&format!("{h}hosts=notanumber\n")).is_err());
        assert!(
            import(&format!("{h}hosts=1\n")).is_err(),
            "missing host line"
        );
        assert!(import(&format!("{h}hosts=1\n#evil\n")).is_err());
        assert!(import(&format!("{h}hosts=0\nshard=99 rows=1\n")).is_err());
        assert!(import(&format!("{h}hosts=0\nshard=0 rows=0\n")).is_err());
        assert!(import(&format!(
            "{h}hosts=1\na.com\nshard=0 rows=1\nd=0\nt=18383\nl=9\ns=0\nc=0\nf=0\n"
        ))
        .is_err());
        // A host in the wrong shard block is corruption.
        let wrong_shard = {
            let shard = (crate::capture_db::shard_of("a.com") + 1) % crate::capture_db::SHARD_COUNT;
            format!("{h}hosts=1\na.com\nshard={shard} rows=1\nd=0\nt=18383\nl=0\ns=0\nc=0\nf=0\n")
        };
        assert!(import(&wrong_shard).is_err());
        // The flat v2 format of the pre-columnar store is no longer read.
        let e = import("#consent-capture-db v2\na.com\t2020-05-01\teu\tok\t\t0\t0\n").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.message.contains("unsupported header"), "{}", e.message);
        // Error display includes the line number.
        let e = import(&format!("{h}hosts=0\nbad line\n")).unwrap_err();
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn a_repeated_host_is_refused_on_its_line() {
        // sample_db interns a.com, b.co.uk and c.net, in that order.
        let text = export(&sample_db());
        let repeated = text.replacen("hosts=3\na.com\n", "hosts=4\na.com\na.com\n", 1);
        let e = import(&repeated).unwrap_err();
        assert_eq!(e.line, 4, "{e}");
        assert_eq!(e.message, "repeated host \"a.com\"");

        let mut db = sample_db();
        let marks = db.marks();
        db.insert(CaptureSummary {
            domain: "d.org".into(),
            day: Day::from_ymd(2020, 6, 1),
            location: Location::UsCloud,
            status: CaptureStatus::Ok,
            cmps: CmpSet::empty(),
            redirected: false,
            dialog_visible: false,
        });
        let delta = export_delta(&db, &marks);
        // A host repeated within the delta, and one the base holds.
        for (hosts, line, host) in [
            ("hosts=3+2\nd.org\nd.org\n", 4, "d.org"),
            ("hosts=3+2\nb.co.uk\nd.org\n", 3, "b.co.uk"),
        ] {
            let bad = delta.replacen("hosts=3+1\nd.org\n", hosts, 1);
            assert_ne!(bad, delta);
            let mut base = sample_db();
            let e = apply_delta(&mut base, &bad).unwrap_err();
            assert_eq!(e.line, line, "{e}");
            assert_eq!(e.message, format!("repeated host {host:?}"));
        }
    }

    #[test]
    fn cmp_bits_that_no_cmp_owns_are_refused() {
        let shard = crate::capture_db::shard_of("a.com");
        let db = |c: u8| {
            format!(
                "#consent-capture-db v3\nhosts=1\na.com\nshard={shard} rows=1\n\
                 d=0\nt=18383\nl=0\ns=0\nc={c}\nf=0\n"
            )
        };
        // Bits 0–5 are the six CMPs of ALL_CMPS.
        let all = import(&db(63)).unwrap();
        assert_eq!(all.domain_history("a.com")[0].cmps.len(), 6);
        for c in [64, 128, 192] {
            let e = import(&db(c)).unwrap_err();
            assert_eq!(e.message, format!("bad cmps {c}"));
        }
    }

    #[test]
    fn empty_db_roundtrips() {
        let db = CaptureDb::new();
        let text = export(&db);
        assert_eq!(text, "#consent-capture-db v3\nhosts=0\n");
        let back = import(&text).unwrap();
        assert!(back.is_empty());
    }
}
