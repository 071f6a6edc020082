//! Packing: documents in, deduplicated blobs + manifest out.

use std::io;

use consent_checkpoint::validate_name;

use crate::manifest::{BlobRef, BundleSection, Manifest};
use crate::store::BlobStore;

/// One labeled text document destined for a bundle section.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BundleDoc {
    /// Label within the section — unique per section, printable ASCII,
    /// no spaces (labels live on manifest lines).
    pub label: String,
    /// Document body.
    pub body: String,
}

impl BundleDoc {
    /// Convenience constructor.
    pub fn new(label: impl Into<String>, body: impl Into<String>) -> BundleDoc {
        BundleDoc {
            label: label.into(),
            body: body.into(),
        }
    }
}

/// One named section of documents, in order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SectionInput {
    /// Section name (checkpoint naming rules).
    pub name: String,
    /// Documents in the order the manifest will list them.
    pub docs: Vec<BundleDoc>,
}

/// Everything a pack writes: metadata plus ordered sections.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BundleInput {
    /// `meta=` lines for the manifest.
    pub meta: Vec<(String, String)>,
    /// Sections in pack order.
    pub sections: Vec<SectionInput>,
}

/// What one [`pack`] call did.
#[derive(Clone, Debug, PartialEq)]
pub struct PackReport {
    /// The manifest as written (its `stats` carry the dedup counts).
    pub manifest: Manifest,
    /// Blobs physically written by this pack.
    pub new_blobs: u64,
    /// References resolved without a write — either duplicated within
    /// this pack or already on disk from a previous one.
    pub deduped_blobs: u64,
}

impl PackReport {
    /// Structural dedup ratio (logical bytes / stored bytes).
    pub fn dedup_ratio(&self) -> f64 {
        self.manifest.stats.dedup_ratio()
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        let s = &self.manifest.stats;
        format!(
            "packed {} refs ({} unique blobs, {} written) logical={}B stored={}B dedup={:.2}x",
            s.total_blobs,
            s.unique_blobs,
            self.new_blobs,
            s.logical_bytes,
            s.stored_bytes,
            self.dedup_ratio()
        )
    }
}

fn validate_label(label: &str) -> io::Result<()> {
    let ok = !label.is_empty() && label.bytes().all(|b| (0x21..=0x7e).contains(&b));
    if ok {
        Ok(())
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("invalid bundle document label: {label:?}"),
        ))
    }
}

/// Write every document of `input` into `store` (write-once, dedup by
/// content address) and atomically publish the manifest.
///
/// Deterministic: the manifest bytes are a pure function of the input —
/// the same documents pack to the same manifest whatever was on disk
/// before, which is what makes "pack at 1/2/4 threads" byte-comparable
/// and a crashed pack safely re-runnable.
pub fn pack(store: &BlobStore, input: &BundleInput) -> io::Result<PackReport> {
    let _span = consent_telemetry::span("bundle.pack");
    let mut manifest = Manifest {
        meta: input.meta.clone(),
        ..Manifest::default()
    };
    let mut new_blobs = 0u64;
    let mut deduped = 0u64;
    for section in &input.sections {
        validate_name(&section.name).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("invalid bundle section name: {e}"),
            )
        })?;
        let mut refs = Vec::with_capacity(section.docs.len());
        let mut seen = std::collections::BTreeSet::new();
        for doc in &section.docs {
            validate_label(&doc.label)?;
            if !seen.insert(doc.label.as_str()) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "duplicate label {:?} in bundle section {}",
                        doc.label, section.name
                    ),
                ));
            }
            let out = store.put(doc.body.as_bytes())?;
            if out.new {
                new_blobs += 1;
            } else {
                deduped += 1;
            }
            refs.push(BlobRef {
                addr: out.addr,
                len: doc.body.len() as u64,
                label: doc.label.clone(),
            });
        }
        manifest.sections.push(BundleSection {
            name: section.name.clone(),
            blobs: refs,
        });
    }
    manifest.compute_stats();
    store.write_manifest(&manifest.serialize())?;
    let s = manifest.stats;
    consent_telemetry::count("bundle.packed", 1);
    consent_telemetry::count("bundle.blobs_written", new_blobs);
    consent_telemetry::count("bundle.blobs_deduped", s.total_blobs - s.unique_blobs);
    consent_telemetry::count("bundle.bytes_logical", s.logical_bytes);
    consent_telemetry::count("bundle.bytes_stored", s.stored_bytes);
    Ok(PackReport {
        manifest,
        new_blobs,
        deduped_blobs: deduped,
    })
}

/// [`pack`] with archive scrubbing: pack, fsck, repair, repeat.
///
/// Storage chaos can fail a pack outright (an injected `EIO`) or —
/// worse — *silently truncate* a blob (a short write reports success
/// and leaves rot in place). Because blobs are write-once and
/// content-addressed, both damage classes are mechanically repairable
/// from the input still in hand: re-run the pack (existing intact blobs
/// are skipped), verify, delete every blob the fsck condemns, and go
/// again. Each round only rewrites the damaged remainder, so under a
/// transient fault rate the loop converges; `max_rounds` bounds it
/// against genuinely dead storage, where the last error (or a
/// scrub-failure summary) is returned instead.
pub fn pack_verified(
    store: &BlobStore,
    input: &BundleInput,
    max_rounds: u32,
) -> io::Result<(PackReport, crate::verify::VerifyReport)> {
    let mut last_err: Option<io::Error> = None;
    for round in 0..max_rounds.max(1) {
        if round > 0 {
            consent_telemetry::count("bundle.scrub.rounds", 1);
        }
        let report = match pack(store, input) {
            Ok(r) => r,
            Err(e) => {
                if e.kind() == io::ErrorKind::InvalidInput {
                    return Err(e); // malformed input never heals
                }
                last_err = Some(e);
                continue;
            }
        };
        let fsck = crate::verify::verify(store)?;
        if fsck.clean() {
            return Ok((report, fsck));
        }
        // Condemned blobs are deleted so the next round's pack rewrites
        // them; a failed delete just leaves the repair for that round.
        let mut repaired = 0u64;
        for bad in fsck.corrupt() {
            if store.remove_blob(&bad.addr).is_ok() {
                repaired += 1;
            }
        }
        for entry in &fsck.orphans {
            if store.remove_orphan(entry).is_ok() {
                repaired += 1;
            }
        }
        consent_telemetry::count("bundle.scrub.repaired", repaired);
        last_err = Some(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "bundle fsck found {} damaged refs, {} orphans",
                fsck.corrupt().len(),
                fsck.orphans.len()
            ),
        ));
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("bundle pack made no attempt")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir() -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "consent-bundle-pack-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample_input() -> BundleInput {
        BundleInput {
            meta: vec![("day".into(), "2020-05-15".into())],
            sections: vec![
                SectionInput {
                    name: "state".into(),
                    docs: vec![BundleDoc::new("capture-db", "#db v3\nrow\n")],
                },
                SectionInput {
                    name: "artifacts".into(),
                    docs: vec![
                        BundleDoc::new("req/a.example", "GET /\n"),
                        BundleDoc::new("req/b.example", "GET /\n"),
                        BundleDoc::new("req/c.example", "GET /other\n"),
                    ],
                },
            ],
        }
    }

    #[test]
    fn pack_writes_blobs_and_manifest() {
        let dir = tmp_dir();
        let store = BlobStore::open(&dir).unwrap();
        let report = pack(&store, &sample_input()).unwrap();
        assert_eq!(report.manifest.stats.total_blobs, 4);
        assert_eq!(report.manifest.stats.unique_blobs, 3, "a==b dedups");
        assert_eq!(report.new_blobs, 3);
        assert_eq!(report.deduped_blobs, 1);
        assert!(report.dedup_ratio() > 1.0);
        assert!(report.summary().contains("dedup="));
        let text = store.read_manifest().unwrap();
        assert_eq!(Manifest::parse(&text).unwrap(), report.manifest);
        // Every referenced blob is readable.
        for s in &report.manifest.sections {
            for b in &s.blobs {
                assert!(store.get(&b.addr).is_ok(), "{} unreadable", b.label);
            }
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn repack_is_idempotent_and_byte_identical() {
        let dir = tmp_dir();
        let store = BlobStore::open(&dir).unwrap();
        let first = pack(&store, &sample_input()).unwrap();
        let second = pack(&store, &sample_input()).unwrap();
        assert_eq!(second.new_blobs, 0, "everything already on disk");
        assert_eq!(second.deduped_blobs, 4);
        assert_eq!(first.manifest.serialize(), second.manifest.serialize());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn pack_verified_repairs_silent_corruption() {
        let dir = tmp_dir();
        let store = BlobStore::open(&dir).unwrap();
        let input = sample_input();
        let first = pack(&store, &input).unwrap();
        // Silently rot one blob and plant an orphan — the scrub loop
        // must repair both and converge to a clean fsck.
        let victim = first.manifest.sections[1].blobs[0].addr;
        std::fs::write(store.blob_path(&victim), b"rotted").unwrap();
        store.put(b"stray, unreferenced").unwrap();
        let (report, fsck) = pack_verified(&store, &input, 4).unwrap();
        assert!(fsck.clean(), "{}", fsck.render());
        assert_eq!(report.manifest.serialize(), first.manifest.serialize());
        assert_eq!(store.get(&victim).unwrap(), b"GET /\n");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn pack_verified_removes_blob_files_outside_their_shard() {
        let dir = tmp_dir();
        let store = BlobStore::open(&dir).unwrap();
        let input = sample_input();
        let first = pack(&store, &input).unwrap();
        // Two stray files the shard layout cannot name: one whose name
        // is no address, and a copy of a referenced blob under a shard
        // its address does not map to.
        let blobs = dir.join("blobs");
        let addr = first.manifest.sections[0].blobs[0].addr;
        let wrong = if addr.shard() == "ab" { "cd" } else { "ab" };
        std::fs::create_dir_all(blobs.join("ab")).unwrap();
        std::fs::write(blobs.join("ab").join("zz.blob"), b"stray").unwrap();
        std::fs::create_dir_all(blobs.join(wrong)).unwrap();
        let misplaced = blobs.join(wrong).join(format!("{addr}.blob"));
        std::fs::copy(store.blob_path(&addr), &misplaced).unwrap();
        let mut strays = vec!["ab/zz.blob".to_string(), format!("{wrong}/{addr}.blob")];
        strays.sort();
        assert_eq!(crate::verify::verify(&store).unwrap().orphans, strays);

        let (report, fsck) = pack_verified(&store, &input, 4).unwrap();
        assert!(fsck.clean(), "{}", fsck.render());
        assert_eq!(report.manifest.serialize(), first.manifest.serialize());
        assert!(!misplaced.exists(), "the misplaced copy survived");
        assert!(
            store.get(&addr).is_ok(),
            "the blob in its place was removed"
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn pack_verified_survives_injected_io_chaos() {
        use consent_faultsim::{FaultyVfs, IoFaultPlan};
        use std::sync::Arc;
        let dir = tmp_dir();
        // A hostile 10% background fault rate over every op kind —
        // ten times the CI `mild` profile.
        let store =
            BlobStore::with_vfs(&dir, Arc::new(FaultyVfs::new(IoFaultPlan::rate(7, 100)))).unwrap();
        let input = sample_input();
        let (report, fsck) = pack_verified(&store, &input, 16).unwrap();
        assert!(fsck.clean(), "{}", fsck.render());
        // The published bundle is byte-identical to a chaos-free pack.
        let calm_dir = tmp_dir();
        let calm = BlobStore::open(&calm_dir).unwrap();
        let baseline = pack(&calm, &input).unwrap();
        assert_eq!(report.manifest.serialize(), baseline.manifest.serialize());
        std::fs::remove_dir_all(dir).unwrap();
        std::fs::remove_dir_all(calm_dir).unwrap();
    }

    #[test]
    fn pack_rejects_bad_names_and_duplicate_labels() {
        let dir = tmp_dir();
        let store = BlobStore::open(&dir).unwrap();
        let mut input = sample_input();
        input.sections[0].name = "Bad Name".into();
        assert!(pack(&store, &input).is_err());
        let mut input = sample_input();
        input.sections[1].docs[1].label = "req/a.example".into();
        assert!(pack(&store, &input)
            .unwrap_err()
            .to_string()
            .contains("duplicate label"));
        let mut input = sample_input();
        input.sections[1].docs[0].label = "has space".into();
        assert!(pack(&store, &input).is_err());
        std::fs::remove_dir_all(dir).unwrap();
    }
}
