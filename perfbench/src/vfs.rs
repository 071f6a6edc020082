//! A pass-through [`Vfs`] that counts and times every operation.
//!
//! Traced runs hand it to `CheckpointStore::with_vfs` and
//! `BlobStore::with_vfs`, so the checkpoint and bundle ledgers come from
//! the storage seam itself rather than from instrumentation inside the
//! stores. Each call goes straight to [`RealVfs`]; the bytes on disk
//! are the same as with the production seam.
//!
//! `BlobStore::put` calls `create_dir_all` and `is_file` on `std::fs`
//! directly, past the seam, so those steps are not counted.

use consent_checkpoint::{RealVfs, Vfs};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One kind of filesystem operation the seam offers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `Vfs::create`.
    Create,
    /// `Vfs::write`.
    Write,
    /// `Vfs::sync` (file fsync).
    Sync,
    /// `Vfs::rename`.
    Rename,
    /// `Vfs::dir_sync` (directory fsync).
    DirSync,
    /// `Vfs::read`.
    Read,
    /// `Vfs::remove_file`.
    Remove,
}

const OPS: usize = 7;

/// Counts and times of every operation since a [`CountingVfs`] was made.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VfsTally {
    calls: [u64; OPS],
    nanos: [u64; OPS],
    /// Bytes handed to successful `write` calls.
    pub bytes_written: u64,
}

impl VfsTally {
    /// Calls of `op`.
    pub fn calls(&self, op: Op) -> u64 {
        self.calls[op as usize]
    }

    /// Seconds spent in `op`.
    pub fn seconds(&self, op: Op) -> f64 {
        self.nanos[op as usize] as f64 / 1e9
    }

    /// Seconds spent in every operation.
    pub fn total_s(&self) -> f64 {
        self.nanos.iter().sum::<u64>() as f64 / 1e9
    }

    /// File plus directory fsyncs.
    pub fn syncs(&self) -> u64 {
        self.calls(Op::Sync) + self.calls(Op::DirSync)
    }

    /// Seconds spent in file plus directory fsyncs.
    pub fn sync_s(&self) -> f64 {
        self.seconds(Op::Sync) + self.seconds(Op::DirSync)
    }
}

/// The counting pass-through seam. See the [module docs](self).
#[derive(Debug, Default)]
pub struct CountingVfs {
    calls: [AtomicU64; OPS],
    nanos: [AtomicU64; OPS],
    bytes_written: AtomicU64,
}

impl CountingVfs {
    /// A snapshot of the counts so far.
    pub fn tally(&self) -> VfsTally {
        let load = |a: &[AtomicU64; OPS]| a.each_ref().map(|v| v.load(Ordering::Relaxed));
        VfsTally {
            calls: load(&self.calls),
            nanos: load(&self.nanos),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }

    fn count<T>(&self, op: Op, f: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        let start = Instant::now();
        let out = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Statistics only: they publish no other data.
        self.calls[op as usize].fetch_add(1, Ordering::Relaxed);
        self.nanos[op as usize].fetch_add(ns, Ordering::Relaxed);
        out
    }
}

impl Vfs for CountingVfs {
    fn create(&self, path: &Path) -> io::Result<()> {
        self.count(Op::Create, || RealVfs.create(path))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.count(Op::Write, || RealVfs.write(path, bytes))?;
        self.bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        self.count(Op::Sync, || RealVfs.sync(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.count(Op::Rename, || RealVfs.rename(from, to))
    }

    fn dir_sync(&self, dir: &Path) -> io::Result<()> {
        self.count(Op::DirSync, || RealVfs.dir_sync(dir))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.count(Op::Read, || RealVfs.read(path))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.count(Op::Remove, || RealVfs.remove_file(path))
    }
}
