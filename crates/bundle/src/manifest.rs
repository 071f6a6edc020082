//! The bundle manifest: a self-CRC'd text index of every blob.
//!
//! Grammar (normative copy in `docs/BUNDLES.md`):
//!
//! ```text
//! #consent-bundle v1
//! meta=<key> <value>                         # zero or more
//! section=<name> blobs=<n> bytes=<len>       # one per section, in order
//! blob=<addr> <len> <label>                  #   n reference lines
//! stats total=<n> unique=<n> logical=<b> stored=<b>
//! manifest_crc=<crc32:08x>                   # CRC of everything above
//! #end-manifest
//! ```
//!
//! The layout deliberately mirrors the checkpoint container's header:
//! ordered `section=` declarations with per-item lengths, closed by a
//! self-CRC over every prior byte — so the manifest detects its own
//! corruption exactly the way a checkpoint header does, and `verify`
//! can localize a flipped byte to "the manifest" as precisely as to
//! any blob.

use std::fmt;

use consent_util::crc32;

use crate::address::BlobAddr;

/// First line of every manifest.
pub const BUNDLE_HEADER: &str = "#consent-bundle v1";
/// Last line of every manifest.
pub const END_MANIFEST: &str = "#end-manifest";

/// One reference from a section to a blob.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlobRef {
    /// Content address of the referenced blob.
    pub addr: BlobAddr,
    /// Byte length of the content (recorded so fsck can distinguish
    /// truncation from bit rot without reading anything else).
    pub len: u64,
    /// The document label within the owning section (e.g.
    /// `req/2020-05-15/eu-fast-enus/travel.example`).
    pub label: String,
}

/// One named, ordered group of blob references.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BundleSection {
    /// Section name (checkpoint-style: lowercase, digits, `-_.`).
    pub name: String,
    /// References in document order.
    pub blobs: Vec<BlobRef>,
}

impl BundleSection {
    /// Total logical bytes referenced by this section.
    pub fn bytes(&self) -> u64 {
        self.blobs.iter().map(|b| b.len).sum()
    }
}

/// Dedup accounting across the whole bundle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BundleStats {
    /// Blob references across every section.
    pub total_blobs: u64,
    /// Distinct content addresses among them.
    pub unique_blobs: u64,
    /// Bytes the bundle *represents* (sum over references).
    pub logical_bytes: u64,
    /// Bytes actually on disk (sum over distinct addresses).
    pub stored_bytes: u64,
}

impl BundleStats {
    /// Structural dedup ratio: logical over stored bytes (1.0 when
    /// nothing repeats; an empty bundle reports 1.0).
    pub fn dedup_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            1.0
        } else {
            self.logical_bytes as f64 / self.stored_bytes as f64
        }
    }
}

/// Why a manifest failed to parse or validate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestError {
    /// 1-based line of the offending input (0 for whole-file problems).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "manifest line {}: {}", self.line, self.message)
    }
}

fn err(line: usize, message: impl Into<String>) -> ManifestError {
    ManifestError {
        line,
        message: message.into(),
    }
}

/// The summed length of `blobs`, or `None` when it overflows `u64`. A
/// parsed manifest's lengths are untrusted even when its CRC checks out:
/// anyone can recompute a CRC.
fn total_len<'a>(blobs: impl IntoIterator<Item = &'a BlobRef>) -> Option<u64> {
    blobs
        .into_iter()
        .try_fold(0u64, |total, b| total.checked_add(b.len))
}

/// The parsed (or to-be-serialized) bundle index.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Free-form metadata (`meta=<key> <value>` lines), in order.
    pub meta: Vec<(String, String)>,
    /// Sections in pack order.
    pub sections: Vec<BundleSection>,
    /// Dedup accounting, recomputed on serialize and cross-checked on
    /// parse.
    pub stats: BundleStats,
}

impl Manifest {
    /// Recompute [`BundleStats`] from the current sections.
    pub fn compute_stats(&mut self) {
        let mut stats = BundleStats::default();
        let mut seen = std::collections::BTreeSet::new();
        for s in &self.sections {
            for b in &s.blobs {
                stats.total_blobs += 1;
                stats.logical_bytes += b.len;
                if seen.insert(b.addr) {
                    stats.unique_blobs += 1;
                    stats.stored_bytes += b.len;
                }
            }
        }
        self.stats = stats;
    }

    /// Look up a section by name.
    pub fn section(&self, name: &str) -> Option<&BundleSection> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Serialize to the manifest text (with a freshly computed
    /// self-CRC).
    pub fn serialize(&self) -> String {
        let mut body = String::new();
        body.push_str(BUNDLE_HEADER);
        body.push('\n');
        for (k, v) in &self.meta {
            body.push_str(&format!("meta={k} {v}\n"));
        }
        for s in &self.sections {
            body.push_str(&format!(
                "section={} blobs={} bytes={}\n",
                s.name,
                s.blobs.len(),
                s.bytes()
            ));
            for b in &s.blobs {
                body.push_str(&format!("blob={} {} {}\n", b.addr, b.len, b.label));
            }
        }
        body.push_str(&format!(
            "stats total={} unique={} logical={} stored={}\n",
            self.stats.total_blobs,
            self.stats.unique_blobs,
            self.stats.logical_bytes,
            self.stats.stored_bytes
        ));
        let crc = crc32(body.as_bytes());
        body.push_str(&format!("manifest_crc={crc:08x}\n"));
        body.push_str(END_MANIFEST);
        body.push('\n');
        body
    }

    /// Parse and validate manifest text: self-CRC, line grammar,
    /// per-section blob counts and byte totals, stats cross-check.
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        // Locate the CRC line first so the checksum covers exactly the
        // bytes above it.
        let crc_at = text
            .find("\nmanifest_crc=")
            .ok_or_else(|| err(0, "missing manifest_crc line"))?;
        let covered = &text[..crc_at + 1];
        let rest = &text[crc_at + 1..];
        let mut tail = rest.lines();
        let crc_line = tail.next().unwrap_or_default();
        let declared = crc_line
            .strip_prefix("manifest_crc=")
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| err(0, format!("malformed crc line: {crc_line:?}")))?;
        let actual = crc32(covered.as_bytes());
        if declared != actual {
            return Err(err(
                0,
                format!("manifest_crc mismatch: declared {declared:08x}, computed {actual:08x}"),
            ));
        }
        if tail.next() != Some(END_MANIFEST) {
            return Err(err(0, format!("missing {END_MANIFEST} terminator")));
        }

        let mut lines = covered.lines().enumerate();
        let (_, first) = lines.next().ok_or_else(|| err(0, "empty manifest"))?;
        if first != BUNDLE_HEADER {
            return Err(err(1, format!("bad header: {first:?}")));
        }
        let mut m = Manifest::default();
        let mut declared_stats: Option<BundleStats> = None;
        let mut open: Option<(BundleSection, u64, u64)> = None; // (section, want_blobs, want_bytes)
        let close = |m: &mut Manifest,
                     open: Option<(BundleSection, u64, u64)>,
                     at: usize|
         -> Result<(), ManifestError> {
            if let Some((s, want_blobs, want_bytes)) = open {
                if s.blobs.len() as u64 != want_blobs {
                    return Err(err(
                        at,
                        format!(
                            "section {} declares {} blobs but lists {}",
                            s.name,
                            want_blobs,
                            s.blobs.len()
                        ),
                    ));
                }
                let bytes = total_len(&s.blobs).ok_or_else(|| {
                    err(at, format!("section {} byte total overflows u64", s.name))
                })?;
                if bytes != want_bytes {
                    return Err(err(
                        at,
                        format!(
                            "section {} declares {} bytes but lists {}",
                            s.name, want_bytes, bytes
                        ),
                    ));
                }
                m.sections.push(s);
            }
            Ok(())
        };
        for (i, line) in lines {
            let at = i + 1;
            if let Some(rest) = line.strip_prefix("meta=") {
                let (k, v) = rest
                    .split_once(' ')
                    .ok_or_else(|| err(at, format!("malformed meta line: {line:?}")))?;
                m.meta.push((k.to_string(), v.to_string()));
            } else if let Some(rest) = line.strip_prefix("section=") {
                let mut parts = rest.split(' ');
                let name = parts.next().unwrap_or_default();
                let blobs = parts
                    .next()
                    .and_then(|p| p.strip_prefix("blobs="))
                    .and_then(|n| n.parse().ok());
                let bytes = parts
                    .next()
                    .and_then(|p| p.strip_prefix("bytes="))
                    .and_then(|n| n.parse().ok());
                let (Some(blobs), Some(bytes), None) = (blobs, bytes, parts.next()) else {
                    return Err(err(at, format!("malformed section line: {line:?}")));
                };
                close(&mut m, open.take(), at)?;
                if m.sections.iter().any(|s| s.name == name) {
                    return Err(err(at, format!("duplicate section {name}")));
                }
                open = Some((
                    BundleSection {
                        name: name.to_string(),
                        blobs: Vec::new(),
                    },
                    blobs,
                    bytes,
                ));
            } else if let Some(rest) = line.strip_prefix("blob=") {
                let mut parts = rest.splitn(3, ' ');
                let addr = parts.next().and_then(BlobAddr::parse);
                let len = parts.next().and_then(|n| n.parse().ok());
                let label = parts.next();
                let (Some(addr), Some(len), Some(label)) = (addr, len, label) else {
                    return Err(err(at, format!("malformed blob line: {line:?}")));
                };
                let Some((s, _, _)) = open.as_mut() else {
                    return Err(err(at, "blob line outside any section"));
                };
                s.blobs.push(BlobRef {
                    addr,
                    len,
                    label: label.to_string(),
                });
            } else if let Some(rest) = line.strip_prefix("stats ") {
                close(&mut m, open.take(), at)?;
                let mut want = BundleStats::default();
                for part in rest.split(' ') {
                    let (k, v) = part
                        .split_once('=')
                        .ok_or_else(|| err(at, format!("malformed stats line: {line:?}")))?;
                    let v: u64 = v
                        .parse()
                        .map_err(|_| err(at, format!("malformed stats value: {part:?}")))?;
                    match k {
                        "total" => want.total_blobs = v,
                        "unique" => want.unique_blobs = v,
                        "logical" => want.logical_bytes = v,
                        "stored" => want.stored_bytes = v,
                        _ => return Err(err(at, format!("unknown stats field: {k}"))),
                    }
                }
                declared_stats = Some(want);
            } else {
                return Err(err(at, format!("unrecognized line: {line:?}")));
            }
        }
        close(&mut m, open.take(), 0)?;
        let declared_stats = declared_stats.ok_or_else(|| err(0, "missing stats line"))?;
        if total_len(m.sections.iter().flat_map(|s| &s.blobs)).is_none() {
            return Err(err(0, "logical byte total overflows u64"));
        }
        m.compute_stats();
        if m.stats != declared_stats {
            return Err(err(
                0,
                format!(
                    "stats mismatch: declared {declared_stats:?}, computed {:?}",
                    m.stats
                ),
            ));
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let doc_a = b"request log a\n";
        let doc_b = b"cookie set b\n";
        let mut m = Manifest {
            meta: vec![
                ("day".into(), "2020-05-15".into()),
                ("seed".into(), "9".into()),
            ],
            sections: vec![
                BundleSection {
                    name: "artifacts".into(),
                    blobs: vec![
                        BlobRef {
                            addr: BlobAddr::of(doc_a),
                            len: doc_a.len() as u64,
                            label: "req/a.example".into(),
                        },
                        BlobRef {
                            addr: BlobAddr::of(doc_a),
                            len: doc_a.len() as u64,
                            label: "req/b.example".into(),
                        },
                    ],
                },
                BundleSection {
                    name: "state".into(),
                    blobs: vec![BlobRef {
                        addr: BlobAddr::of(doc_b),
                        len: doc_b.len() as u64,
                        label: "capture-db".into(),
                    }],
                },
            ],
            stats: BundleStats::default(),
        };
        m.compute_stats();
        m
    }

    #[test]
    fn serialize_parse_round_trips() {
        let m = sample();
        let text = m.serialize();
        assert!(text.starts_with(BUNDLE_HEADER));
        assert!(text.ends_with(&format!("{END_MANIFEST}\n")));
        let back = Manifest::parse(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.serialize(), text, "byte-stable");
    }

    #[test]
    fn stats_count_dedup_savings() {
        let m = sample();
        assert_eq!(m.stats.total_blobs, 3);
        assert_eq!(m.stats.unique_blobs, 2, "doc_a referenced twice");
        assert!(m.stats.logical_bytes > m.stats.stored_bytes);
        assert!(m.stats.dedup_ratio() > 1.0);
        assert_eq!(BundleStats::default().dedup_ratio(), 1.0);
    }

    #[test]
    fn any_flipped_byte_fails_the_self_crc() {
        let text = m_text();
        for at in 0..text.len() - END_MANIFEST.len() - 1 {
            let mut bad = text.clone().into_bytes();
            bad[at] ^= 0x01;
            let Ok(bad) = String::from_utf8(bad) else {
                continue;
            };
            assert!(
                Manifest::parse(&bad).is_err(),
                "flip at byte {at} went undetected"
            );
        }
    }

    fn m_text() -> String {
        sample().serialize()
    }

    #[test]
    fn parse_rejects_count_and_byte_lies() {
        let text = m_text();
        // Fix up the CRC after each mutation so only the *semantic*
        // check can catch it.
        let relabel = |text: &str, from: &str, to: &str| {
            let body = text.replace(from, to);
            let cut = body.find("\nmanifest_crc=").unwrap() + 1;
            let crc = crc32(&body.as_bytes()[..cut]);
            format!("{}manifest_crc={crc:08x}\n{END_MANIFEST}\n", &body[..cut])
        };
        let lie = relabel(&text, "blobs=2", "blobs=3");
        assert!(Manifest::parse(&lie)
            .unwrap_err()
            .message
            .contains("declares 3 blobs"));
        let lie = relabel(&text, "stats total=3", "stats total=4");
        assert!(Manifest::parse(&lie)
            .unwrap_err()
            .message
            .contains("stats mismatch"));
    }

    #[test]
    fn parse_rejects_lengths_that_overflow() {
        // CRC-valid, and without overflow checks the byte total wraps
        // to exactly the declared `bytes=1`.
        let (a, b) = (BlobAddr::of(b"a"), BlobAddr::of(b"b"));
        let mut body = format!("{BUNDLE_HEADER}\nsection=state blobs=2 bytes=1\n");
        body.push_str(&format!("blob={a} {} big\nblob={b} 2 small\n", u64::MAX));
        body.push_str("stats total=2 unique=2 logical=1 stored=1\n");
        let crc = crc32(body.as_bytes());
        let text = format!("{body}manifest_crc={crc:08x}\n{END_MANIFEST}\n");
        let e = Manifest::parse(&text).unwrap_err();
        assert!(e.message.contains("overflows u64"), "{e}");
    }

    #[test]
    fn parse_rejects_structural_damage() {
        assert!(Manifest::parse("").is_err());
        assert!(Manifest::parse("#consent-bundle v1\n").is_err());
        let text = m_text();
        let truncated = &text[..text.len() - 5];
        assert!(Manifest::parse(truncated).is_err());
        // Duplicate section name.
        let mut m = sample();
        m.sections[1].name = "artifacts".into();
        m.compute_stats();
        assert!(Manifest::parse(&m.serialize())
            .unwrap_err()
            .message
            .contains("duplicate section"));
    }

    #[test]
    fn section_lookup_finds_by_name() {
        let m = sample();
        assert_eq!(m.section("state").unwrap().blobs.len(), 1);
        assert!(m.section("missing").is_none());
    }
}
