//! Durable on-disk checkpoint store.
//!
//! One directory per campaign. Live checkpoints are `gen-NNNNNNNN.ckpt`;
//! files that fail validation are moved (never deleted) into a
//! `quarantine/` subdirectory so a post-mortem can inspect exactly what
//! was on disk. Writes are atomic: serialize to a temp file in the same
//! directory, `fsync` it, `rename` over the final name, then `fsync`
//! the directory — a crash at any instant leaves either the old
//! generation set or the old set plus one complete new file.
//!
//! Every durable operation goes through the store's [`Vfs`] (the real
//! filesystem by default), so storage faults can be injected
//! deterministically — see [`vfs`](crate::vfs) and
//! `consent-faultsim`'s `FaultyVfs`. Storage failures are **surfaced,
//! never swallowed**: a failed directory fsync is counted
//! (`checkpoint.dir_fsync_fail`) and returned as an error for the
//! campaign supervisor to classify, retry, or degrade around.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::format::{scan_bytes, serialize, validate_name, Checkpoint, Scan, Section};
use crate::salvage::{QuarantinedGeneration, SalvageReport};
use crate::vfs::{RealVfs, Vfs};

/// Default number of generations retained by [`CheckpointStore::open`].
pub const DEFAULT_KEEP: usize = 4;

const QUARANTINE_DIR: &str = "quarantine";

/// A rotating store of checkpoint generations in one directory.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
    vfs: Arc<dyn Vfs>,
}

impl CheckpointStore {
    /// Open (creating if needed) a store keeping [`DEFAULT_KEEP`]
    /// generations on the real filesystem.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<CheckpointStore> {
        CheckpointStore::with_keep(dir, DEFAULT_KEEP)
    }

    /// Open (creating if needed) a store with an explicit retention
    /// window on the real filesystem. `keep` is clamped to at least 1.
    pub fn with_keep(dir: impl AsRef<Path>, keep: usize) -> io::Result<CheckpointStore> {
        CheckpointStore::with_vfs(dir, keep, Arc::new(RealVfs))
    }

    /// Open (creating if needed) a store whose file operations go
    /// through an explicit [`Vfs`] — the hook for deterministic storage
    /// fault injection. `keep` is clamped to at least 1.
    ///
    /// Opening also sweeps orphaned `.tmp-gen-*.ckpt` files: a write
    /// that failed between create and rename leaves its temp file
    /// behind (deliberately — the dying process must not mutate the
    /// store further), and the next open reclaims the space. Swept
    /// files are counted via `checkpoint.tmp_swept`.
    pub fn with_vfs(
        dir: impl AsRef<Path>,
        keep: usize,
        vfs: Arc<dyn Vfs>,
    ) -> io::Result<CheckpointStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let store = CheckpointStore {
            dir,
            keep: keep.max(1),
            vfs,
        };
        store.sweep_tmp_files()?;
        Ok(store)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The filesystem seam this store writes through, for opening a
    /// sibling store (such as a campaign's bundle) on the same disk.
    pub fn vfs(&self) -> Arc<dyn Vfs> {
        Arc::clone(&self.vfs)
    }

    /// Path of a generation's checkpoint file.
    pub fn path_for(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("gen-{generation:08}.ckpt"))
    }

    /// Path of the quarantine subdirectory.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join(QUARANTINE_DIR)
    }

    /// Live generation numbers, ascending.
    pub fn generations(&self) -> io::Result<Vec<u64>> {
        let mut gens = generations_in(&self.dir)?;
        gens.sort_unstable();
        Ok(gens)
    }

    /// Quarantined generation numbers, ascending.
    pub fn quarantined_generations(&self) -> io::Result<Vec<u64>> {
        let qdir = self.quarantine_dir();
        if !qdir.is_dir() {
            return Ok(Vec::new());
        }
        let mut gens = generations_in(&qdir)?;
        gens.sort_unstable();
        Ok(gens)
    }

    /// Remove orphaned temp files left by writes that died between
    /// create and rename. Returns how many were swept.
    fn sweep_tmp_files(&self) -> io::Result<u64> {
        let mut swept = 0u64;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with(".tmp-gen-") && name.ends_with(".ckpt") {
                self.vfs.remove_file(&entry.path())?;
                swept += 1;
            }
        }
        if swept > 0 {
            consent_telemetry::count("checkpoint.tmp_swept", swept);
        }
        Ok(swept)
    }

    fn next_generation(&self) -> io::Result<u64> {
        // Quarantined generations still count: a salvaged campaign must
        // never reuse a generation number that exists in quarantine.
        let mut max = 0u64;
        for g in generations_in(&self.dir)? {
            max = max.max(g);
        }
        let qdir = self.quarantine_dir();
        if qdir.is_dir() {
            for g in generations_in(&qdir)? {
                max = max.max(g);
            }
        }
        Ok(max + 1)
    }

    /// Atomically write a new generation and prune old ones. Returns
    /// the generation number written.
    pub fn save(&self, sections: &[Section]) -> io::Result<u64> {
        self.save_with_min_retained(sections, u64::MAX)
    }

    /// Like [`save`](Self::save), but generations numbered `keep_from`
    /// or higher are exempt from pruning even when they fall outside
    /// the retention window. Delta checkpointing uses this with
    /// `keep_from` = the chain's base generation: a delta is useless
    /// without its base, so the base (and every chain member after it)
    /// must outlive the rotation that would otherwise drop it. Passing
    /// `u64::MAX` imposes no floor and behaves exactly like `save`.
    pub fn save_with_min_retained(&self, sections: &[Section], keep_from: u64) -> io::Result<u64> {
        let _span = consent_telemetry::span("checkpoint.write");
        let generation = self.prepare(sections)?;
        let bytes = serialize(generation, sections);
        self.write_atomic(generation, &bytes)?;
        consent_telemetry::count("checkpoint.writes", 1);
        consent_telemetry::observe("checkpoint.write.bytes", bytes.len() as u64);
        self.prune(keep_from)?;
        Ok(generation)
    }

    /// Fault-injection write: serialize like [`CheckpointStore::save`]
    /// but persist only the first `keep_bytes` bytes, simulating a torn
    /// write on a filesystem without atomic-rename guarantees. Skips
    /// pruning (a crashing process never got that far).
    pub fn save_torn(&self, sections: &[Section], keep_bytes: u64) -> io::Result<u64> {
        let generation = self.prepare(sections)?;
        let bytes = serialize(generation, sections);
        let cut = (keep_bytes as usize).min(bytes.len());
        self.write_atomic(generation, &bytes[..cut])?;
        Ok(generation)
    }

    fn prepare(&self, sections: &[Section]) -> io::Result<u64> {
        for s in sections {
            validate_name(&s.name)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        }
        for (i, s) in sections.iter().enumerate() {
            if sections[..i].iter().any(|p| p.name == s.name) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("duplicate section name {:?}", s.name),
                ));
            }
        }
        self.next_generation()
    }

    fn write_atomic(&self, generation: u64, bytes: &[u8]) -> io::Result<()> {
        let final_path = self.path_for(generation);
        let tmp_path = self.dir.join(format!(".tmp-gen-{generation:08}.ckpt"));
        self.vfs.create(&tmp_path)?;
        self.vfs.write(&tmp_path, bytes)?;
        self.vfs.sync(&tmp_path)?;
        self.vfs.rename(&tmp_path, &final_path)?;
        self.dir_fsync()
    }

    /// Persist the directory entry table (the rename itself). Failures
    /// are counted and **returned**: a rename that is not known durable
    /// is a storage fault the supervisor must see, not a shrug.
    fn dir_fsync(&self) -> io::Result<()> {
        self.vfs.dir_sync(&self.dir).inspect_err(|_| {
            consent_telemetry::count("checkpoint.dir_fsync_fail", 1);
        })
    }

    /// Drop generations that are both outside the last-`keep` window
    /// *and* below `keep_from`. The second condition is what keeps a
    /// delta chain's base alive: rotation alone would delete it while
    /// newer deltas still depend on it.
    fn prune(&self, keep_from: u64) -> io::Result<()> {
        let gens = self.generations()?;
        let mut kept = gens.len();
        if gens.len() > self.keep {
            let window_start = gens[gens.len() - self.keep];
            let mut dropped = 0u64;
            for &g in &gens {
                if g >= window_start || g >= keep_from {
                    continue;
                }
                self.vfs.remove_file(&self.path_for(g))?;
                dropped += 1;
            }
            kept = gens.len() - dropped as usize;
            if dropped > 0 {
                // How many old generations a run sheds depends on what a
                // crash left on disk, so this counter is denied from
                // deterministic samples (see consent-obs DEFAULT_DENY).
                consent_telemetry::count("checkpoint.pruned", dropped);
            }
        }
        consent_telemetry::gauge_set("checkpoint.generations", kept as i64);
        Ok(())
    }

    /// Bound `quarantine/` growth to the same window the live set uses:
    /// at most `keep` quarantined generations survive, pruning oldest
    /// first and never touching the newest. The count is exposed as the
    /// `checkpoint.quarantine.generations` gauge.
    fn prune_quarantine(&self) -> io::Result<()> {
        let mut gens = self.quarantined_generations()?;
        if gens.len() > self.keep {
            let dropped = gens.len() - self.keep;
            let qdir = self.quarantine_dir();
            for &g in &gens[..dropped] {
                self.vfs
                    .remove_file(&qdir.join(format!("gen-{g:08}.ckpt")))?;
            }
            gens.drain(..dropped);
            consent_telemetry::count("checkpoint.quarantine.pruned", dropped as u64);
        }
        consent_telemetry::gauge_set("checkpoint.quarantine.generations", gens.len() as i64);
        Ok(())
    }

    /// Scan one generation's file for integrity without moving it.
    pub fn scan_generation(&self, generation: u64) -> io::Result<Scan> {
        let bytes = self.vfs.read(&self.path_for(generation))?;
        Ok(scan_bytes(generation, &bytes))
    }

    /// Move a generation's file into `quarantine/`, returning the new
    /// path. The quarantine window is bounded (see
    /// `prune_quarantine` — oldest pruned
    /// beyond the store's `keep`, newest always retained).
    pub fn quarantine(&self, generation: u64) -> io::Result<PathBuf> {
        let qdir = self.quarantine_dir();
        fs::create_dir_all(&qdir)?;
        let from = self.path_for(generation);
        let to = qdir.join(format!("gen-{generation:08}.ckpt"));
        self.vfs.rename(&from, &to)?;
        self.dir_fsync()?;
        consent_telemetry::count("checkpoint.quarantined", 1);
        self.prune_quarantine()?;
        Ok(to)
    }

    /// [`quarantine`](Self::quarantine) a generation and return its
    /// salvage record: `reason`, plus what `scan` found in the file
    /// (verdicts, valid prefix, intact sections; nothing when the file
    /// could not be read). Counts `checkpoint.salvage.{sections,bytes}`.
    pub fn quarantine_generation(
        &self,
        generation: u64,
        scan: Option<Scan>,
        reason: String,
    ) -> io::Result<QuarantinedGeneration> {
        let path = self.quarantine(generation)?;
        // Relative to the store root, so the report of a store does not
        // depend on the directory it was opened in.
        let relative = path.strip_prefix(&self.dir).unwrap_or(&path);
        let (valid_prefix, salvaged, verdicts) = match scan {
            Some(scan) => (scan.valid_prefix(), scan.salvageable(), scan.verdicts),
            None => (0, Vec::new(), Vec::new()),
        };
        consent_telemetry::observe("checkpoint.salvage.sections", salvaged.len() as u64);
        consent_telemetry::count(
            "checkpoint.salvage.bytes",
            salvaged.iter().map(|s| s.body.len() as u64).sum(),
        );
        Ok(QuarantinedGeneration {
            generation,
            reason,
            verdicts,
            valid_prefix,
            salvaged,
            quarantine_path: Some(relative.display().to_string()),
        })
    }

    /// Load the newest generation that validates end-to-end.
    ///
    /// Generations are scanned newest-first. Every newer generation that
    /// fails validation is quarantined and recorded in the returned
    /// [`SalvageReport`] together with its per-section verdicts, the
    /// longest valid prefix, and every individually intact section body
    /// (so callers can attempt domain-level salvage). Returns
    /// `(None, report)` when no generation is usable.
    pub fn open_latest(&self) -> io::Result<(Option<Checkpoint>, SalvageReport)> {
        let _span = consent_telemetry::span("checkpoint.open");
        let mut report = SalvageReport::default();
        let mut gens = self.generations()?;
        gens.reverse();
        for g in gens {
            let scan = self.scan_generation(g)?;
            if scan.intact() {
                report.used_generation = Some(g);
                consent_telemetry::count("checkpoint.opens", 1);
                return Ok((scan.into_checkpoint(), report));
            }
            let reason = scan.describe();
            report.record_quarantine(self.quarantine_generation(g, Some(scan), reason)?);
        }
        Ok((None, report))
    }
}

fn generations_in(dir: &Path) -> io::Result<Vec<u64>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(g) = name
            .strip_prefix("gen-")
            .and_then(|r| r.strip_suffix(".ckpt"))
            .and_then(|n| n.parse::<u64>().ok())
        {
            out.push(g);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_store(keep: usize) -> (PathBuf, CheckpointStore) {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "consent-ckpt-store-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let store = CheckpointStore::with_keep(&dir, keep).unwrap();
        (dir, store)
    }

    fn sections(tag: &str) -> Vec<Section> {
        vec![
            Section::new("meta", format!("meta-{tag}\n")),
            Section::new("capture-db", format!("db-{tag}\nrow\n")),
        ]
    }

    #[test]
    fn save_then_open_latest_round_trips() {
        let (dir, store) = tmp_store(3);
        let g1 = store.save(&sections("a")).unwrap();
        let g2 = store.save(&sections("b")).unwrap();
        assert_eq!((g1, g2), (1, 2));
        let (ckpt, report) = store.open_latest().unwrap();
        let ckpt = ckpt.unwrap();
        assert_eq!(ckpt.generation, 2);
        assert_eq!(ckpt.section("meta").unwrap().body, "meta-b\n");
        assert!(report.is_clean());
        assert_eq!(report.used_generation, Some(2));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rotation_keeps_last_k() {
        let (dir, store) = tmp_store(2);
        for i in 0..5 {
            store.save(&sections(&i.to_string())).unwrap();
        }
        assert_eq!(store.generations().unwrap(), vec![4, 5]);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn min_retained_floor_pins_chain_bases_through_rotation() {
        let (dir, store) = tmp_store(2);
        // Generation 1 plays the chain base: every later save names it
        // as the retention floor, so rotation may drop nothing — every
        // generation from the base onward is a live chain member.
        store.save(&sections("base")).unwrap();
        for i in 0..4 {
            store
                .save_with_min_retained(&sections(&i.to_string()), 1)
                .unwrap();
        }
        assert_eq!(store.generations().unwrap(), vec![1, 2, 3, 4, 5]);
        // Once the floor moves past it, the old base is prunable again.
        store
            .save_with_min_retained(&sections("rebased"), 6)
            .unwrap();
        assert_eq!(store.generations().unwrap(), vec![5, 6]);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn torn_write_falls_back_to_previous_generation() {
        let (dir, store) = tmp_store(3);
        store.save(&sections("good")).unwrap();
        store.save_torn(&sections("torn"), 30).unwrap();
        let (ckpt, report) = store.open_latest().unwrap();
        assert_eq!(ckpt.unwrap().section("meta").unwrap().body, "meta-good\n");
        assert_eq!(report.used_generation, Some(1));
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].generation, 2);
        // The torn file was preserved for post-mortem, not deleted.
        assert!(store.quarantine_dir().join("gen-00000002.ckpt").is_file());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn salvage_reports_do_not_depend_on_the_store_directory() {
        let report = || {
            let (dir, store) = tmp_store(3);
            store.save(&sections("good")).unwrap();
            store.save_torn(&sections("torn"), 30).unwrap();
            let (_, report) = store.open_latest().unwrap();
            fs::remove_dir_all(dir).unwrap();
            report
        };
        let (a, b) = (report(), report());
        assert_eq!(
            a.quarantined[0].quarantine_path.as_deref(),
            Some("quarantine/gen-00000002.ckpt")
        );
        assert_eq!(a.to_json().to_compact(), b.to_json().to_compact());
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn torn_write_of_zero_bytes_is_still_detected() {
        let (dir, store) = tmp_store(3);
        store.save(&sections("good")).unwrap();
        store.save_torn(&sections("torn"), 0).unwrap();
        let (ckpt, report) = store.open_latest().unwrap();
        assert!(ckpt.is_some());
        assert_eq!(report.quarantined.len(), 1);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn quarantined_generation_numbers_are_never_reused() {
        let (dir, store) = tmp_store(3);
        store.save_torn(&sections("torn"), 10).unwrap();
        let (ckpt, _) = store.open_latest().unwrap();
        assert!(ckpt.is_none());
        let g = store.save(&sections("fresh")).unwrap();
        assert_eq!(g, 2);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn bit_flip_quarantines_and_reports_prefix() {
        let (dir, store) = tmp_store(3);
        let g = store.save(&sections("x")).unwrap();
        let path = store.path_for(g);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        let (ckpt, report) = store.open_latest().unwrap();
        assert!(ckpt.is_none());
        let q = &report.quarantined[0];
        assert_eq!(q.valid_prefix, 1, "{report:?}");
        assert_eq!(q.salvaged.len(), 1);
        assert_eq!(q.salvaged[0].name, "meta");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn empty_store_opens_clean() {
        let (dir, store) = tmp_store(3);
        let (ckpt, report) = store.open_latest().unwrap();
        assert!(ckpt.is_none());
        assert!(report.is_clean());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn duplicate_section_names_rejected() {
        let (dir, store) = tmp_store(3);
        let dup = vec![Section::new("meta", "a"), Section::new("meta", "b")];
        assert!(store.save(&dup).is_err());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn orphaned_tmp_files_are_swept_on_open() {
        let (dir, store) = tmp_store(3);
        store.save(&sections("a")).unwrap();
        // A write that died between create and rename leaves its temp
        // file behind; it must not survive the next open.
        let orphan = dir.join(".tmp-gen-00000042.ckpt");
        fs::write(&orphan, b"half a checkpoint").unwrap();
        drop(store);
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(!orphan.exists(), "orphaned tmp file survived open");
        // The live generation was untouched by the sweep.
        let (ckpt, report) = store.open_latest().unwrap();
        assert_eq!(ckpt.unwrap().section("meta").unwrap().body, "meta-a\n");
        assert!(report.is_clean());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn quarantine_growth_is_bounded_to_keep() {
        let (dir, store) = tmp_store(2);
        // Quarantine five generations one at a time; only the newest
        // `keep` (2) survive, and the newest is always among them.
        for i in 0..5u64 {
            store.save_torn(&sections(&i.to_string()), 5).unwrap();
            let (ckpt, _) = store.open_latest().unwrap();
            assert!(ckpt.is_none());
        }
        let qgens = store.quarantined_generations().unwrap();
        assert_eq!(qgens, vec![4, 5], "oldest pruned, newest kept");
        fs::remove_dir_all(dir).unwrap();
    }

    /// A `Vfs` that fails directory syncs but passes everything else
    /// through, to prove the failure is surfaced rather than swallowed.
    #[derive(Debug)]
    struct FailingDirSync(RealVfs);

    impl Vfs for FailingDirSync {
        fn create(&self, path: &Path) -> io::Result<()> {
            self.0.create(path)
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            self.0.write(path, bytes)
        }
        fn sync(&self, path: &Path) -> io::Result<()> {
            self.0.sync(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.0.rename(from, to)
        }
        fn dir_sync(&self, _dir: &Path) -> io::Result<()> {
            Err(io::Error::other("EIO: injected dir fsync failure"))
        }
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.0.read(path)
        }
        fn remove_file(&self, path: &Path) -> io::Result<()> {
            self.0.remove_file(path)
        }
    }

    #[test]
    fn dir_fsync_failures_surface_and_count() {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "consent-ckpt-dirsync-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let store = CheckpointStore::with_vfs(&dir, 3, Arc::new(FailingDirSync(RealVfs))).unwrap();
        consent_telemetry::reset();
        consent_telemetry::enable();
        let err = store.save(&sections("a")).unwrap_err();
        consent_telemetry::disable();
        assert!(err.to_string().contains("dir fsync"), "{err}");
        let counted = consent_telemetry::global()
            .snapshot()
            .counter("checkpoint.dir_fsync_fail");
        consent_telemetry::reset();
        assert_eq!(counted, 1, "dir fsync failure was not counted");
        fs::remove_dir_all(dir).unwrap();
    }

    /// Byte-identity of the Vfs seam itself: a store on an explicit
    /// [`RealVfs`] produces exactly the same file bytes as the default
    /// constructor (which is the pre-Vfs write path).
    #[test]
    fn explicit_real_vfs_is_byte_identical_to_default() {
        let (dir_a, store_a) = tmp_store(3);
        static N: AtomicU64 = AtomicU64::new(0);
        let dir_b = std::env::temp_dir().join(format!(
            "consent-ckpt-vfs-ident-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let store_b = CheckpointStore::with_vfs(&dir_b, 3, Arc::new(RealVfs)).unwrap();
        let g_a = store_a.save(&sections("same")).unwrap();
        let g_b = store_b.save(&sections("same")).unwrap();
        assert_eq!(g_a, g_b);
        assert_eq!(
            fs::read(store_a.path_for(g_a)).unwrap(),
            fs::read(store_b.path_for(g_b)).unwrap(),
        );
        fs::remove_dir_all(dir_a).unwrap();
        fs::remove_dir_all(dir_b).unwrap();
    }
}
