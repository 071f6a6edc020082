//! # consent-bundle
//!
//! A content-addressed archival container for campaign outputs — the
//! storage layer behind the "measurements must be reproducible *from
//! the archive*" requirement (Web Execution Bundles, Hantke et al.).
//!
//! A bundle is a directory holding a [`Manifest`] plus a flat
//! blob store: every document (a capture-db section, a per-page request
//! log, an analysis export) is serialized to text, addressed by
//! [`BlobAddr::of`] (FNV-1a 64 over the bytes, paired with a CRC-32
//! check value), and stored once under `blobs/`. Identical documents —
//! the same request skeleton captured on two days, the same cookie set
//! from two vantages, the empty log of every failed load — share one
//! blob; the manifest records each reference and counts the dedup
//! savings ([`BundleStats`]).
//!
//! Three robustness layers sit on top:
//!
//! * [`pack`] writes blobs write-once through the same
//!   [`Vfs`](consent_checkpoint::Vfs) seam the checkpoint store uses
//!   (create temp → write → fsync → rename → dir fsync), so
//!   `consent-faultsim`'s `FaultyVfs` can fail every individual
//!   filesystem operation of a pack (pass one to
//!   [`BlobStore::with_vfs`]).
//! * [`verify`] is a full fsck: it re-hashes every blob, re-validates
//!   the manifest's self-CRC and reference counts, and localizes any
//!   corruption to the exact blob *and the section that owns it*
//!   ([`VerifyReport`]).
//! * [`read_section`] + [`first_divergence`] are the replay
//!   primitives: a downstream replayer reconstructs section documents
//!   from the bundle alone, re-runs its analyses, and byte-compares
//!   against the archived exports, failing loudly with a
//!   [`DivergenceReport`] naming the first diverging section, document,
//!   and line.
//!
//! The manifest grammar is specified normatively in `docs/BUNDLES.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod manifest;
mod pack;
mod replay;
mod store;
mod verify;

pub use address::{fnv64, BlobAddr};
pub use manifest::{
    BlobRef, BundleSection, BundleStats, Manifest, ManifestError, BUNDLE_HEADER, END_MANIFEST,
};
pub use pack::{pack, pack_verified, BundleDoc, BundleInput, PackReport, SectionInput};
pub use replay::{first_divergence, read_section, DivergenceReport};
pub use store::{BlobStore, PutOutcome};
pub use verify::{verify, BlobStatus, BlobVerdict, VerifyReport};
