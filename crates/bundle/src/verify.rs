//! `bundle verify`: a full fsck of a packed bundle.
//!
//! Re-reads the manifest (self-CRC + grammar + stats cross-check),
//! re-hashes every referenced blob (length, CRC-32, FNV-1a — all three
//! must match the address), and sweeps the blob directory for orphans.
//! Corruption is *localized*: every verdict names the owning section,
//! the document label, and the exact blob file, so an operator can tell
//! "one request log of one domain rotted" from "the archive is gone".
//!
//! Verification never panics and never aborts early — a bundle with
//! twelve bad blobs yields twelve verdicts, not one error.

use std::collections::BTreeMap;
use std::io;

use consent_util::{crc32, Json};

use crate::address::{fnv64, BlobAddr};
use crate::manifest::Manifest;
use crate::store::BlobStore;

/// The fsck verdict for one blob reference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlobStatus {
    /// Bytes on disk hash back to the address and match the length.
    Ok,
    /// The blob file could not be read at all.
    Unreadable(String),
    /// The bytes on disk do not match the address (detail says how).
    Corrupt(String),
}

/// One verified manifest reference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlobVerdict {
    /// Owning section.
    pub section: String,
    /// Document label within the section.
    pub label: String,
    /// The address the manifest declares.
    pub addr: BlobAddr,
    /// The verdict.
    pub status: BlobStatus,
}

impl BlobVerdict {
    /// One-line rendering (`section/label addr: verdict`).
    pub fn describe(&self) -> String {
        let status = match &self.status {
            BlobStatus::Ok => "ok".to_string(),
            BlobStatus::Unreadable(e) => format!("unreadable: {e}"),
            BlobStatus::Corrupt(e) => format!("CORRUPT: {e}"),
        };
        format!("{}/{} {} {status}", self.section, self.label, self.addr)
    }
}

/// The full fsck result.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VerifyReport {
    /// Whether the manifest itself parsed and self-validated.
    pub manifest_ok: bool,
    /// The manifest failure, when `manifest_ok` is false.
    pub manifest_error: Option<String>,
    /// One verdict per manifest blob reference, in manifest order.
    pub blobs: Vec<BlobVerdict>,
    /// Blob files on disk that no manifest reference points at, as
    /// [`BlobStore::list_blobs`] found them (`<dir>/<name>`) — including
    /// a blob file under a shard directory its address does not map to.
    pub orphans: Vec<String>,
    /// Distinct blob files actually read and hashed.
    pub unique_checked: u64,
}

impl VerifyReport {
    /// True when the manifest validated, every blob hashed clean, and
    /// no orphans were found.
    pub fn clean(&self) -> bool {
        self.manifest_ok
            && self.orphans.is_empty()
            && self.blobs.iter().all(|b| b.status == BlobStatus::Ok)
    }

    /// The references that failed, in manifest order.
    pub fn corrupt(&self) -> Vec<&BlobVerdict> {
        self.blobs
            .iter()
            .filter(|b| b.status != BlobStatus::Ok)
            .collect()
    }

    /// Multi-line human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::from("bundle verify\n");
        match &self.manifest_error {
            Some(e) => out.push_str(&format!("  manifest: FAILED ({e})\n")),
            None => out.push_str("  manifest: ok\n"),
        }
        out.push_str(&format!(
            "  blobs: {} refs, {} unique, {} bad, {} orphaned\n",
            self.blobs.len(),
            self.unique_checked,
            self.corrupt().len(),
            self.orphans.len()
        ));
        for v in self.corrupt() {
            out.push_str(&format!("  {}\n", v.describe()));
        }
        for o in &self.orphans {
            out.push_str(&format!("  orphan blob {o}\n"));
        }
        if self.clean() {
            out.push_str("  clean\n");
        }
        out
    }

    /// Machine-readable JSON (CI validates this shape).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("manifest_ok".to_string(), Json::Bool(self.manifest_ok)),
            (
                "manifest_error".to_string(),
                match &self.manifest_error {
                    Some(e) => Json::str(e.clone()),
                    None => Json::Null,
                },
            ),
            ("refs".to_string(), Json::int(self.blobs.len() as i64)),
            (
                "unique_checked".to_string(),
                Json::int(self.unique_checked as i64),
            ),
            (
                "corrupt".to_string(),
                Json::array(self.corrupt().iter().map(|v| Json::str(v.describe()))),
            ),
            (
                "orphans".to_string(),
                Json::array(self.orphans.iter().map(|o| Json::str(o.clone()))),
            ),
            ("clean".to_string(), Json::Bool(self.clean())),
        ])
    }
}

/// Run the full fsck over `store`. Only environment-level failures
/// (e.g. an unreadable blob *directory*) return `Err`; damage inside
/// the bundle is reported, not raised.
pub fn verify(store: &BlobStore) -> io::Result<VerifyReport> {
    let _span = consent_telemetry::span("bundle.verify");
    let mut report = VerifyReport::default();
    let manifest = match crate::store::retry_read(|| store.read_manifest())
        .map_err(|e| e.to_string())
        .and_then(|text| match Manifest::parse(&text) {
            Ok(m) => Ok(m),
            Err(e) => Err(e.to_string()),
        }) {
        Ok(m) => {
            report.manifest_ok = true;
            m
        }
        Err(e) => {
            report.manifest_error = Some(e);
            consent_telemetry::count("bundle.verify.failures", 1);
            return Ok(report);
        }
    };
    // Hash each distinct address once; attribute the verdict to every
    // reference so corruption still names all owning sections.
    let mut cache: BTreeMap<BlobAddr, BlobStatus> = BTreeMap::new();
    for section in &manifest.sections {
        for b in &section.blobs {
            let status = cache
                .entry(b.addr)
                .or_insert_with(|| check_blob(store, &b.addr, b.len))
                .clone();
            report.blobs.push(BlobVerdict {
                section: section.name.clone(),
                label: b.label.clone(),
                addr: b.addr,
                status,
            });
        }
    }
    report.unique_checked = cache.len() as u64;
    let referenced: std::collections::BTreeSet<String> =
        cache.keys().map(BlobStore::blob_entry).collect();
    for entry in store.list_blobs()? {
        if !referenced.contains(&entry) {
            report.orphans.push(entry);
        }
    }
    let bad = report.corrupt().len() as u64 + report.orphans.len() as u64;
    if bad > 0 {
        consent_telemetry::count("bundle.verify.failures", bad);
    }
    Ok(report)
}

fn check_blob(store: &BlobStore, addr: &BlobAddr, want_len: u64) -> BlobStatus {
    let bytes = match crate::store::retry_read(|| store.get(addr)) {
        Ok(b) => b,
        Err(e) => return BlobStatus::Unreadable(e.to_string()),
    };
    if bytes.len() as u64 != want_len {
        return BlobStatus::Corrupt(format!(
            "length mismatch: manifest says {want_len}, disk has {}",
            bytes.len()
        ));
    }
    let crc = crc32(&bytes);
    if crc != addr.crc {
        return BlobStatus::Corrupt(format!(
            "crc mismatch: address says {:08x}, content hashes {crc:08x}",
            addr.crc
        ));
    }
    let fnv = fnv64(&bytes);
    if fnv != addr.fnv {
        return BlobStatus::Corrupt(format!(
            "fnv mismatch: address says {:016x}, content hashes {fnv:016x}",
            addr.fnv
        ));
    }
    BlobStatus::Ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{pack, BundleDoc, BundleInput, SectionInput};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir() -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "consent-bundle-verify-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn packed_store() -> (PathBuf, BlobStore) {
        let dir = tmp_dir();
        let store = BlobStore::open(&dir).unwrap();
        let input = BundleInput {
            meta: vec![],
            sections: vec![
                SectionInput {
                    name: "state".into(),
                    docs: vec![BundleDoc::new("capture-db", "#db v3\nrow one\nrow two\n")],
                },
                SectionInput {
                    name: "artifacts".into(),
                    docs: vec![
                        BundleDoc::new("req/a.example", "GET / 200\n"),
                        BundleDoc::new("req/b.example", "GET / 200\n"),
                    ],
                },
            ],
        };
        pack(&store, &input).unwrap();
        (dir, store)
    }

    #[test]
    fn clean_bundle_verifies_clean() {
        let (dir, store) = packed_store();
        let report = verify(&store).unwrap();
        assert!(report.clean(), "{}", report.render());
        assert_eq!(report.blobs.len(), 3);
        assert_eq!(report.unique_checked, 2);
        assert!(report.render().contains("clean"));
        assert_eq!(report.to_json().get("clean"), Some(&Json::Bool(true)));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn flipped_byte_is_localized_to_blob_and_section() {
        let (dir, store) = packed_store();
        let manifest = Manifest::parse(&store.read_manifest().unwrap()).unwrap();
        let target = &manifest.section("state").unwrap().blobs[0];
        let path = store.blob_path(&target.addr);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[3] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let report = verify(&store).unwrap();
        assert!(!report.clean());
        let bad = report.corrupt();
        assert_eq!(bad.len(), 1, "{}", report.render());
        assert_eq!(bad[0].section, "state");
        assert_eq!(bad[0].label, "capture-db");
        assert!(matches!(bad[0].status, BlobStatus::Corrupt(_)));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn shared_blob_corruption_names_every_owner() {
        let (dir, store) = packed_store();
        let manifest = Manifest::parse(&store.read_manifest().unwrap()).unwrap();
        let shared = &manifest.section("artifacts").unwrap().blobs[0];
        let path = store.blob_path(&shared.addr);
        // Truncate instead of flip: exercises the length check.
        std::fs::write(&path, b"GET").unwrap();
        let report = verify(&store).unwrap();
        let bad = report.corrupt();
        assert_eq!(bad.len(), 2, "both labels implicated");
        assert_eq!(bad[0].label, "req/a.example");
        assert_eq!(bad[1].label, "req/b.example");
        assert!(bad
            .iter()
            .all(|v| matches!(&v.status, BlobStatus::Corrupt(e) if e.contains("length"))));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn missing_blob_reports_unreadable() {
        let (dir, store) = packed_store();
        let manifest = Manifest::parse(&store.read_manifest().unwrap()).unwrap();
        let target = &manifest.section("artifacts").unwrap().blobs[0];
        std::fs::remove_file(store.blob_path(&target.addr)).unwrap();
        let report = verify(&store).unwrap();
        assert!(report
            .corrupt()
            .iter()
            .all(|v| matches!(v.status, BlobStatus::Unreadable(_))));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_is_its_own_verdict() {
        let (dir, store) = packed_store();
        let path = store.manifest_path();
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let report = verify(&store).unwrap();
        assert!(!report.manifest_ok);
        assert!(!report.clean());
        assert!(report.manifest_error.is_some(), "{}", report.render());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn orphan_blobs_are_reported() {
        let (dir, store) = packed_store();
        store.put(b"never referenced by the manifest").unwrap();
        let report = verify(&store).unwrap();
        assert!(!report.clean());
        assert_eq!(report.orphans.len(), 1);
        assert!(report.render().contains("orphan blob"));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
