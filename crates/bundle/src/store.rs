//! The on-disk blob store under a bundle directory.
//!
//! Layout:
//!
//! ```text
//! <bundle>/
//!   MANIFEST                  # self-CRC'd manifest (see manifest.rs)
//!   blobs/<xx>/<addr>.blob    # content-addressed bodies, write-once
//! ```
//!
//! Every durable byte moves through the checkpoint store's
//! [`Vfs`] seam with the same discipline: write to a
//! temp name, fsync the file, rename into place, fsync the directory.
//! Blobs are write-once — `put` of content that already exists on disk
//! is a no-op (the dedup hit), so re-packing after a crash converges
//! instead of rewriting.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use consent_checkpoint::{RealVfs, Vfs};

use crate::address::BlobAddr;

/// The manifest's filename under the bundle directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// What [`BlobStore::put`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PutOutcome {
    /// The content address of the blob.
    pub addr: BlobAddr,
    /// True if the blob was written; false if identical content was
    /// already on disk (a dedup hit).
    pub new: bool,
}

/// A content-addressed blob store rooted at a bundle directory.
#[derive(Debug)]
pub struct BlobStore {
    root: PathBuf,
    vfs: Arc<dyn Vfs>,
}

impl BlobStore {
    /// Open (creating if needed) a bundle directory with the production
    /// filesystem.
    pub fn open(root: impl AsRef<Path>) -> io::Result<BlobStore> {
        BlobStore::with_vfs(root, Arc::new(RealVfs))
    }

    /// Open with an explicit [`Vfs`] (tests inject `FaultyVfs` here).
    pub fn with_vfs(root: impl AsRef<Path>, vfs: Arc<dyn Vfs>) -> io::Result<BlobStore> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(root.join("blobs"))?;
        Ok(BlobStore { root, vfs })
    }

    /// The bundle directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where a blob with `addr` lives (whether or not it exists yet).
    pub fn blob_path(&self, addr: &BlobAddr) -> PathBuf {
        self.root.join("blobs").join(Self::blob_entry(addr))
    }

    /// Where a blob with `addr` belongs, in the form
    /// [`list_blobs`](Self::list_blobs) reports files:
    /// `<shard>/<addr>.blob`, relative to `blobs/`.
    pub fn blob_entry(addr: &BlobAddr) -> String {
        format!("{}/{addr}.blob", addr.shard())
    }

    /// The manifest path.
    pub fn manifest_path(&self) -> PathBuf {
        self.root.join(MANIFEST_FILE)
    }

    /// Store `bytes`, returning its address and whether a write
    /// happened. Write-once: existing content is never touched.
    ///
    /// Each durable step retries through transient faults (counted
    /// under `bundle.write.fault`); a silent short write reports
    /// success here and is caught by the fsck instead, which is
    /// `pack_verified`'s job.
    pub fn put(&self, bytes: &[u8]) -> io::Result<PutOutcome> {
        let addr = BlobAddr::of(bytes);
        let path = self.blob_path(&addr);
        if path.is_file() {
            return Ok(PutOutcome { addr, new: false });
        }
        let dir = path.parent().expect("blob path has a shard directory");
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!("{addr}.tmp"));
        retry_write(|| self.vfs.write(&tmp, bytes))?;
        retry_write(|| self.vfs.sync(&tmp))?;
        retry_write(|| self.vfs.rename(&tmp, &path))?;
        retry_write(|| self.vfs.dir_sync(dir))?;
        Ok(PutOutcome { addr, new: true })
    }

    /// Read the blob at `addr` (whatever bytes are on disk — callers
    /// that care about integrity re-hash, which is `verify`'s job).
    pub fn get(&self, addr: &BlobAddr) -> io::Result<Vec<u8>> {
        self.vfs.read(&self.blob_path(addr))
    }

    /// Remove the blob at `addr` — the scrub path's repair primitive
    /// (delete the damaged copy so the next pack rewrites it).
    pub fn remove_blob(&self, addr: &BlobAddr) -> io::Result<()> {
        retry_write(|| self.vfs.remove_file(&self.blob_path(addr)))
    }

    /// Remove an orphaned blob file by the entry
    /// [`list_blobs`](Self::list_blobs) reported for it, wherever it
    /// was found.
    pub fn remove_orphan(&self, entry: &str) -> io::Result<()> {
        let path = self.root.join("blobs").join(entry);
        retry_write(|| self.vfs.remove_file(&path))
    }

    /// Atomically replace the manifest.
    pub fn write_manifest(&self, text: &str) -> io::Result<()> {
        let tmp = self.root.join("MANIFEST.tmp");
        retry_write(|| self.vfs.write(&tmp, text.as_bytes()))?;
        retry_write(|| self.vfs.sync(&tmp))?;
        retry_write(|| self.vfs.rename(&tmp, &self.manifest_path()))?;
        retry_write(|| self.vfs.dir_sync(&self.root))?;
        Ok(())
    }

    /// Read the manifest text.
    pub fn read_manifest(&self) -> io::Result<String> {
        let bytes = self.vfs.read(&self.manifest_path())?;
        String::from_utf8(bytes)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "manifest is not UTF-8"))
    }

    /// Every `*.blob` file on disk as it was found, sorted: its shard
    /// directory and file name, `<dir>/<name>` relative to `blobs/` —
    /// the physical side of the fsck's orphan check. A blob in its
    /// place reads as its [`blob_entry`](Self::blob_entry). Directory
    /// enumeration is read-only and goes straight to `std::fs` (the
    /// [`Vfs`] seam covers durable writes, not listing).
    pub fn list_blobs(&self) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for shard in std::fs::read_dir(self.root.join("blobs"))? {
            let shard = shard?;
            let (path, dir) = (shard.path(), shard.file_name());
            let Some(dir) = dir.to_str().filter(|_| path.is_dir()) else {
                continue;
            };
            for entry in std::fs::read_dir(&path)? {
                let file = entry?.path();
                if file.extension().is_some_and(|e| e == "blob") {
                    if let Some(name) = file.file_name().and_then(|s| s.to_str()) {
                        out.push(format!("{dir}/{name}"));
                    }
                }
            }
        }
        out.sort();
        Ok(out)
    }
}

/// Retry one filesystem operation through transient injected faults,
/// counting each absorbed fault under `counter`.
///
/// A background fault rate (`IoFaultPlan::mild()` behind a
/// `FaultyVfs`) faults each operation index independently, so every
/// rate fault is transient by construction — a bounded retry lands on
/// a fresh index and succeeds.
/// Three attempts push the per-operation failure probability from 1%
/// to 1e-6 under the mild profile without masking genuinely dead
/// storage (a persistent `ENOSPC` still surfaces after the budget).
fn retry_io<T>(counter: &'static str, mut attempt: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut last = None;
    for _ in 0..3 {
        match attempt() {
            Ok(v) => return Ok(v),
            Err(e) => {
                consent_telemetry::count(counter, 1);
                last = Some(e);
            }
        }
    }
    Err(last.expect("at least one attempt ran"))
}

/// [`retry_io`] for the read paths (`get`, manifest and blob reads
/// during verify/replay).
pub(crate) fn retry_read<T>(attempt: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    retry_io("bundle.read.fault", attempt)
}

/// [`retry_io`] for the durable write paths (`put`, manifest publish,
/// scrub deletes). Without this, a single transient fault anywhere in
/// a several-hundred-operation pack fails the whole round; with it,
/// only multi-fault bursts on one operation escalate to the scrub
/// loop's pack-level retry.
fn retry_write<T>(attempt: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    retry_io("bundle.write.fault", attempt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir() -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "consent-bundle-store-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn put_get_round_trips() {
        let dir = tmp_dir();
        let store = BlobStore::open(&dir).unwrap();
        let out = store.put(b"hello bundle\n").unwrap();
        assert!(out.new);
        assert_eq!(store.get(&out.addr).unwrap(), b"hello bundle\n");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn identical_content_is_stored_once() {
        let dir = tmp_dir();
        let store = BlobStore::open(&dir).unwrap();
        let a = store.put(b"same bytes").unwrap();
        let b = store.put(b"same bytes").unwrap();
        assert!(a.new);
        assert!(!b.new, "second put is a dedup hit");
        assert_eq!(a.addr, b.addr);
        assert_eq!(store.list_blobs().unwrap().len(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn no_temp_files_survive_a_put() {
        let dir = tmp_dir();
        let store = BlobStore::open(&dir).unwrap();
        store.put(b"one").unwrap();
        store.put(b"two").unwrap();
        store.write_manifest("m\n").unwrap();
        let mut stack = vec![dir.clone()];
        while let Some(d) = stack.pop() {
            for e in std::fs::read_dir(&d).unwrap() {
                let p = e.unwrap().path();
                if p.is_dir() {
                    stack.push(p);
                } else {
                    assert!(
                        p.extension().is_none_or(|e| e != "tmp"),
                        "leftover temp file {p:?}"
                    );
                }
            }
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn manifest_round_trips_and_replaces() {
        let dir = tmp_dir();
        let store = BlobStore::open(&dir).unwrap();
        store.write_manifest("first\n").unwrap();
        store.write_manifest("second\n").unwrap();
        assert_eq!(store.read_manifest().unwrap(), "second\n");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn list_blobs_is_sorted_and_complete() {
        let dir = tmp_dir();
        let store = BlobStore::open(&dir).unwrap();
        let mut want: Vec<String> = ["a", "b", "c", "d"]
            .iter()
            .map(|s| BlobStore::blob_entry(&store.put(s.as_bytes()).unwrap().addr))
            .collect();
        want.sort();
        assert_eq!(store.list_blobs().unwrap(), want);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
