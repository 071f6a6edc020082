//! Checkpoint container format v3.
//!
//! A checkpoint file is a self-describing container: a small text header
//! carrying a per-section manifest (name, byte length, CRC-32), its own
//! header CRC, and then the concatenated section payloads. The layout:
//!
//! ```text
//! #consent-checkpoint v3
//! generation=7
//! sections=2
//! section=capture-db 1834 9c2f11aa
//! section=provenance 922 77aa1b02
//! header_crc=4e0c19d7
//! #end-header
//! <payload: section bodies, concatenated in manifest order>
//! ```
//!
//! `header_crc` covers every header byte before its own line, so a bit
//! flip anywhere in the manifest (including a length digit) is detected
//! before any section is trusted. Each section body is independently
//! checked against its manifest CRC, which is what lets [`scan_bytes`]
//! salvage the longest valid prefix of whole sections from a torn file.

use consent_util::crc32::crc32;

/// Magic first line of a v3 checkpoint container.
pub const CONTAINER_HEADER: &str = "#consent-checkpoint v3";

/// Marker line separating the manifest from the payload.
pub const END_HEADER: &str = "#end-header";

/// One named payload carried by a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Manifest name (ascii `[a-z0-9._-]`, validated at save time).
    pub name: String,
    /// Section payload (UTF-8 text; the container checksums its bytes).
    pub body: String,
}

impl Section {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, body: impl Into<String>) -> Section {
        Section {
            name: name.into(),
            body: body.into(),
        }
    }
}

/// A fully validated checkpoint: every manifest entry present and
/// CRC-clean.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Generation number from the header (monotonic per store).
    pub generation: u64,
    /// Sections in manifest order.
    pub sections: Vec<Section>,
}

impl Checkpoint {
    /// Look up a section body by manifest name.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }
}

/// Integrity verdict for one manifest entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionStatus {
    /// Present, CRC-clean, valid UTF-8.
    Intact,
    /// The file ends before this section's declared byte range does.
    Truncated,
    /// The bytes are present but fail the CRC (or are not UTF-8).
    Corrupt,
}

impl SectionStatus {
    /// Stable lowercase name for reports and JSON export.
    pub fn name(self) -> &'static str {
        match self {
            SectionStatus::Intact => "intact",
            SectionStatus::Truncated => "truncated",
            SectionStatus::Corrupt => "corrupt",
        }
    }
}

/// Per-section integrity result from a scan.
#[derive(Debug, Clone)]
pub struct SectionVerdict {
    /// Manifest name.
    pub name: String,
    /// Declared byte length from the manifest.
    pub declared_len: u64,
    /// Integrity status of the stored bytes.
    pub status: SectionStatus,
    /// Human-readable detail for non-intact sections.
    pub detail: String,
}

/// Result of scanning one checkpoint file, torn or not.
///
/// A scan never fails on corruption: it reports what it found. Only
/// filesystem-level errors surface as `io::Error` from the store.
#[derive(Debug, Clone)]
pub struct Scan {
    /// Generation number (from the filename; cross-checked against the
    /// header when the header is readable).
    pub generation: u64,
    /// Set when the container header itself is unusable (missing magic,
    /// bad `header_crc`, truncated before `#end-header`, ...). When set,
    /// no section can be trusted and `verdicts` is empty.
    pub header_error: Option<String>,
    /// One verdict per manifest entry, in manifest order.
    pub verdicts: Vec<SectionVerdict>,
    /// Aligned with `verdicts`; `Some` iff the section is intact.
    pub sections: Vec<Option<Section>>,
}

impl Scan {
    /// True when the header and every section validated.
    pub fn intact(&self) -> bool {
        self.header_error.is_none()
            && !self.verdicts.is_empty()
            && self
                .verdicts
                .iter()
                .all(|v| v.status == SectionStatus::Intact)
    }

    /// Number of leading sections that are intact — the longest valid
    /// prefix of whole sections that can be salvaged from a torn file.
    pub fn valid_prefix(&self) -> usize {
        self.verdicts
            .iter()
            .take_while(|v| v.status == SectionStatus::Intact)
            .count()
    }

    /// Every individually intact section (not just the prefix); torn
    /// tails keep their leading sections, bit flips keep everything
    /// around the damaged entry.
    pub fn salvageable(&self) -> Vec<Section> {
        self.sections.iter().flatten().cloned().collect()
    }

    /// Intact section by name.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().flatten().find(|s| s.name == name)
    }

    /// Convert a fully intact scan into a [`Checkpoint`].
    pub fn into_checkpoint(self) -> Option<Checkpoint> {
        if !self.intact() {
            return None;
        }
        Some(Checkpoint {
            generation: self.generation,
            sections: self.sections.into_iter().flatten().collect(),
        })
    }

    /// One-line summary of what is wrong (empty for intact scans).
    pub fn describe(&self) -> String {
        if let Some(e) = &self.header_error {
            return format!("header: {e}");
        }
        let bad: Vec<String> = self
            .verdicts
            .iter()
            .filter(|v| v.status != SectionStatus::Intact)
            .map(|v| format!("{} {}", v.name, v.status.name()))
            .collect();
        bad.join(", ")
    }
}

/// Error for section names the manifest cannot carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameError(pub String);

impl std::fmt::Display for NameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid section name {:?}: must be non-empty ascii [a-z0-9._-]",
            self.0
        )
    }
}

impl std::error::Error for NameError {}

/// Validate a manifest name: non-empty ascii `[a-z0-9._-]`.
pub fn validate_name(name: &str) -> Result<(), NameError> {
    let ok = !name.is_empty()
        && name.bytes().all(|b| {
            b.is_ascii_lowercase() || b.is_ascii_digit() || matches!(b, b'-' | b'_' | b'.')
        });
    if ok {
        Ok(())
    } else {
        Err(NameError(name.to_string()))
    }
}

/// Serialize sections into the v3 container byte layout.
///
/// Section names must already be validated (the store does this).
pub fn serialize(generation: u64, sections: &[Section]) -> Vec<u8> {
    let mut header = String::new();
    header.push_str(CONTAINER_HEADER);
    header.push('\n');
    header.push_str(&format!("generation={generation}\n"));
    header.push_str(&format!("sections={}\n", sections.len()));
    for s in sections {
        header.push_str(&format!(
            "section={} {} {:08x}\n",
            s.name,
            s.body.len(),
            crc32(s.body.as_bytes())
        ));
    }
    let hcrc = crc32(header.as_bytes());
    header.push_str(&format!("header_crc={hcrc:08x}\n"));
    header.push_str(END_HEADER);
    header.push('\n');

    let mut out = header.into_bytes();
    for s in sections {
        out.extend_from_slice(s.body.as_bytes());
    }
    out
}

fn header_scan_error(generation: u64, msg: impl Into<String>) -> Scan {
    Scan {
        generation,
        header_error: Some(msg.into()),
        verdicts: Vec::new(),
        sections: Vec::new(),
    }
}

/// Scan raw checkpoint bytes, tolerating truncation and bit flips.
///
/// `generation` is the caller's expectation (from the filename); a
/// readable header that disagrees is reported as a header error.
pub fn scan_bytes(generation: u64, bytes: &[u8]) -> Scan {
    let marker = format!("{END_HEADER}\n");
    let marker_bytes = marker.as_bytes();
    let Some(pos) = bytes
        .windows(marker_bytes.len())
        .position(|w| w == marker_bytes)
    else {
        return header_scan_error(generation, "missing #end-header marker (torn header?)");
    };
    let header_bytes = &bytes[..pos];
    let payload = &bytes[pos + marker_bytes.len()..];
    let Ok(header) = std::str::from_utf8(header_bytes) else {
        return header_scan_error(generation, "header is not valid UTF-8");
    };

    let lines: Vec<&str> = header.lines().collect();
    if lines.len() < 4 {
        return header_scan_error(generation, "header too short");
    }
    if lines[0] != CONTAINER_HEADER {
        return header_scan_error(generation, format!("bad magic line {:?}", lines[0]));
    }

    // header_crc covers every header byte before its own line.
    let crc_line = lines[lines.len() - 1];
    let Some(declared_hcrc) = crc_line
        .strip_prefix("header_crc=")
        .and_then(|h| u32::from_str_radix(h, 16).ok())
    else {
        return header_scan_error(generation, format!("bad header_crc line {crc_line:?}"));
    };
    let covered_len = header.len() - crc_line.len() - 1; // trailing '\n' of crc line is outside `header`
    let actual_hcrc = crc32(&header.as_bytes()[..covered_len]);
    if actual_hcrc != declared_hcrc {
        return header_scan_error(
            generation,
            format!(
                "header_crc mismatch: declared {declared_hcrc:08x}, computed {actual_hcrc:08x}"
            ),
        );
    }

    // From here on the manifest is trustworthy.
    let Some(file_gen) = lines[1]
        .strip_prefix("generation=")
        .and_then(|g| g.parse::<u64>().ok())
    else {
        return header_scan_error(generation, format!("bad generation line {:?}", lines[1]));
    };
    if file_gen != generation {
        return header_scan_error(
            generation,
            format!("generation mismatch: filename says {generation}, header says {file_gen}"),
        );
    }
    let Some(n_sections) = lines[2]
        .strip_prefix("sections=")
        .and_then(|n| n.parse::<usize>().ok())
    else {
        return header_scan_error(generation, format!("bad sections line {:?}", lines[2]));
    };
    let manifest_lines = &lines[3..lines.len() - 1];
    if manifest_lines.len() != n_sections {
        return header_scan_error(
            generation,
            format!(
                "manifest declares {n_sections} sections but lists {}",
                manifest_lines.len()
            ),
        );
    }

    let mut manifest: Vec<(String, u64, u32)> = Vec::with_capacity(n_sections);
    for line in manifest_lines {
        let Some(rest) = line.strip_prefix("section=") else {
            return header_scan_error(generation, format!("bad manifest line {line:?}"));
        };
        let parts: Vec<&str> = rest.split(' ').collect();
        let parsed = match parts.as_slice() {
            [name, len, crc] => len
                .parse::<u64>()
                .ok()
                .zip(u32::from_str_radix(crc, 16).ok())
                .map(|(l, c)| (name.to_string(), l, c)),
            _ => None,
        };
        let Some(entry) = parsed else {
            return header_scan_error(generation, format!("bad manifest line {line:?}"));
        };
        manifest.push(entry);
    }

    // The CRC proves the header is what the writer wrote, not that a
    // writer was honest: a recomputed CRC can cover any lengths.
    let Some(declared_total) = manifest
        .iter()
        .try_fold(0u64, |total, (_, l, _)| total.checked_add(*l))
    else {
        return header_scan_error(generation, "declared section lengths overflow u64");
    };
    if (payload.len() as u64) > declared_total {
        return header_scan_error(
            generation,
            format!(
                "payload has {} trailing bytes beyond the {declared_total} declared",
                payload.len() as u64 - declared_total
            ),
        );
    }

    let mut verdicts = Vec::with_capacity(manifest.len());
    let mut sections = Vec::with_capacity(manifest.len());
    let mut offset: u64 = 0;
    for (name, len, declared_crc) in manifest {
        let end = offset + len; // at most `declared_total`
        if end > payload.len() as u64 {
            let have = (payload.len() as u64).saturating_sub(offset);
            verdicts.push(SectionVerdict {
                name,
                declared_len: len,
                status: SectionStatus::Truncated,
                detail: format!("declared {len} bytes, only {have} present"),
            });
            sections.push(None);
            offset = end;
            continue;
        }
        let body = &payload[offset as usize..end as usize];
        offset = end;
        let actual_crc = crc32(body);
        if actual_crc != declared_crc {
            verdicts.push(SectionVerdict {
                name,
                declared_len: len,
                status: SectionStatus::Corrupt,
                detail: format!(
                    "crc mismatch: declared {declared_crc:08x}, computed {actual_crc:08x}"
                ),
            });
            sections.push(None);
            continue;
        }
        match std::str::from_utf8(body) {
            Ok(text) => {
                verdicts.push(SectionVerdict {
                    name: name.clone(),
                    declared_len: len,
                    status: SectionStatus::Intact,
                    detail: String::new(),
                });
                sections.push(Some(Section::new(name, text)));
            }
            Err(_) => {
                verdicts.push(SectionVerdict {
                    name,
                    declared_len: len,
                    status: SectionStatus::Corrupt,
                    detail: "body is not valid UTF-8".to_string(),
                });
                sections.push(None);
            }
        }
    }

    Scan {
        generation,
        header_error: None,
        verdicts,
        sections,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_sections() -> Vec<Section> {
        vec![
            Section::new("meta", "#consent-campaign-state v3\npairs_done=2\n"),
            Section::new("capture-db", "row-a\nrow-b\n"),
            Section::new("provenance", "#consent-provenance v1\n"),
        ]
    }

    #[test]
    fn round_trip_is_intact() {
        let bytes = serialize(5, &demo_sections());
        let scan = scan_bytes(5, &bytes);
        assert!(scan.intact(), "{:?}", scan);
        let ckpt = scan.into_checkpoint().unwrap();
        assert_eq!(ckpt.generation, 5);
        assert_eq!(ckpt.sections, demo_sections());
    }

    #[test]
    fn empty_sections_round_trip() {
        let sections = vec![Section::new("meta", ""), Section::new("capture-db", "")];
        let scan = scan_bytes(1, &serialize(1, &sections));
        assert!(scan.intact());
        assert_eq!(scan.into_checkpoint().unwrap().sections, sections);
    }

    #[test]
    fn payload_bit_flip_is_localized() {
        let sections = demo_sections();
        let mut bytes = serialize(3, &sections);
        // Flip a bit in the second section's payload.
        let marker = format!("{END_HEADER}\n");
        let payload_start = bytes
            .windows(marker.len())
            .position(|w| w == marker.as_bytes())
            .unwrap()
            + marker.len();
        let second_off = payload_start + sections[0].body.len() + 1;
        bytes[second_off] ^= 0x40;
        let scan = scan_bytes(3, &bytes);
        assert!(!scan.intact());
        assert_eq!(scan.valid_prefix(), 1);
        assert_eq!(scan.verdicts[1].status, SectionStatus::Corrupt);
        // The undamaged third section is still individually salvageable.
        assert_eq!(scan.verdicts[2].status, SectionStatus::Intact);
        assert_eq!(scan.salvageable().len(), 2);
    }

    #[test]
    fn truncation_keeps_valid_prefix() {
        let sections = demo_sections();
        let full = serialize(9, &sections);
        // Cut inside the last section.
        let cut = full.len() - 5;
        let scan = scan_bytes(9, &full[..cut]);
        assert!(!scan.intact());
        assert_eq!(scan.valid_prefix(), 2);
        assert_eq!(scan.verdicts[2].status, SectionStatus::Truncated);
    }

    #[test]
    fn header_bit_flip_rejects_whole_file() {
        let mut bytes = serialize(2, &demo_sections());
        // Flip a bit inside a manifest length digit (still in the header).
        let line_off = bytes
            .windows(b"section=capture-db".len())
            .position(|w| w == b"section=capture-db")
            .unwrap();
        bytes[line_off + b"section=capture-db ".len()] ^= 0x01;
        let scan = scan_bytes(2, &bytes);
        assert!(scan.header_error.is_some(), "{scan:?}");
    }

    #[test]
    fn truncation_inside_header_rejects_whole_file() {
        let bytes = serialize(2, &demo_sections());
        let scan = scan_bytes(2, &bytes[..10]);
        assert!(scan.header_error.is_some());
        assert_eq!(scan.valid_prefix(), 0);
    }

    #[test]
    fn generation_mismatch_is_header_error() {
        let bytes = serialize(7, &demo_sections());
        let scan = scan_bytes(8, &bytes);
        assert!(scan
            .header_error
            .as_deref()
            .unwrap()
            .contains("generation mismatch"));
    }

    #[test]
    fn trailing_garbage_is_header_error() {
        let mut bytes = serialize(4, &demo_sections());
        bytes.extend_from_slice(b"junk");
        let scan = scan_bytes(4, &bytes);
        assert!(scan.header_error.as_deref().unwrap().contains("trailing"));
    }

    #[test]
    fn overflowing_declared_lengths_are_a_header_error() {
        // A CRC-valid header whose lengths sum past u64::MAX.
        let mut header = format!("{CONTAINER_HEADER}\ngeneration=2\nsections=2\n");
        header.push_str(&format!("section=meta {} 00000000\n", u64::MAX));
        header.push_str("section=capture-db 11 00000000\n");
        let hcrc = crc32(header.as_bytes());
        header.push_str(&format!("header_crc={hcrc:08x}\n{END_HEADER}\n"));
        let mut bytes = header.into_bytes();
        bytes.extend_from_slice(b"0123456789");
        let scan = scan_bytes(2, &bytes);
        assert!(
            scan.header_error.as_deref().unwrap().contains("overflow"),
            "{scan:?}"
        );
        assert!(scan.sections.is_empty());
    }

    #[test]
    fn name_validation() {
        assert!(validate_name("capture-db").is_ok());
        assert!(validate_name("trace_v1.jsonl").is_ok());
        assert!(validate_name("").is_err());
        assert!(validate_name("has space").is_err());
        assert!(validate_name("Upper").is_err());
        assert!(validate_name("new\nline").is_err());
    }
}
