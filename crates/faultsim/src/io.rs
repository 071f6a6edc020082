//! Deterministic storage-layer fault injection.
//!
//! Network faults model the world failing and crashpoints model the
//! process failing; an [`IoFaultPlan`] models the *disk* failing. It
//! decides, as a pure function of the global **operation index** (the
//! Nth filesystem operation the checkpoint store performs) and the
//! operation kind, whether that operation fails and how: `ENOSPC`,
//! `EIO`, or a silent short write that persists only a prefix.
//!
//! [`FaultyVfs`] applies the plan to a wrapped
//! [`Vfs`] (the real filesystem by default).
//! With [`IoFaultPlan::none`] it is a byte-identical passthrough, so
//! the seam can stay permanently wired into the durable campaign
//! driver. Rules with a finite `count` model *transient-then-recovers*
//! faults — a retry lands on a later operation index and succeeds —
//! while `count = *` (forever) models persistent faults like a full
//! disk. A seeded `rate:` component hashes each operation index for
//! soak-style background fault rates.
//!
//! A plan reaches a store only through the [`FaultyVfs`] its caller
//! passes to the store's constructor; [`IoFaultPlan::parse`] reads the
//! spec grammar the example binaries accept in `CONSENT_IO_CHAOS`.
//! Injected errors carry a stable `ENOSPC:` / `EIO:` message prefix,
//! which is what [`classify_io_error`] keys on — the campaign
//! supervisor treats `ENOSPC` as persistent (descend the degradation
//! ladder immediately) and everything else as transient (worth
//! retrying).

use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use consent_checkpoint::{RealVfs, Vfs};

/// The filesystem operation kinds a [`Vfs`] performs, for rule
/// filtering and fault accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// Create/truncate a file.
    Create,
    /// Write a whole buffer.
    Write,
    /// `fsync` a file.
    Sync,
    /// Atomic rename.
    Rename,
    /// `fsync` a directory (make a rename durable).
    DirSync,
    /// Read a whole file.
    Read,
    /// Remove a file.
    Remove,
}

impl IoOp {
    /// All operation kinds, in spec order.
    pub const ALL: [IoOp; 7] = [
        IoOp::Create,
        IoOp::Write,
        IoOp::Sync,
        IoOp::Rename,
        IoOp::DirSync,
        IoOp::Read,
        IoOp::Remove,
    ];

    /// Stable lowercase label used in specs and telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            IoOp::Create => "create",
            IoOp::Write => "write",
            IoOp::Sync => "sync",
            IoOp::Rename => "rename",
            IoOp::DirSync => "dirsync",
            IoOp::Read => "read",
            IoOp::Remove => "remove",
        }
    }

    fn parse(s: &str) -> Option<Option<IoOp>> {
        match s {
            "*" => Some(None),
            "create" => Some(Some(IoOp::Create)),
            "write" => Some(Some(IoOp::Write)),
            "sync" => Some(Some(IoOp::Sync)),
            "rename" => Some(Some(IoOp::Rename)),
            "dirsync" => Some(Some(IoOp::DirSync)),
            "read" => Some(Some(IoOp::Read)),
            "remove" => Some(Some(IoOp::Remove)),
            _ => None,
        }
    }
}

/// How an injected storage fault manifests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IoFaultKind {
    /// The device is out of space (`ENOSPC:` error). Classified
    /// persistent by [`classify_io_error`].
    Enospc,
    /// A generic I/O error (`EIO:` error). Classified transient.
    Eio,
    /// A silent short write: only a prefix of the buffer is persisted
    /// and the operation *reports success*. Detected later by the
    /// checkpoint CRC manifest. On non-write operations this degrades
    /// to [`IoFaultKind::Eio`].
    Short,
}

impl IoFaultKind {
    fn label(&self) -> &'static str {
        match self {
            IoFaultKind::Enospc => "enospc",
            IoFaultKind::Eio => "eio",
            IoFaultKind::Short => "short",
        }
    }

    fn parse(s: &str) -> Option<IoFaultKind> {
        match s {
            "enospc" => Some(IoFaultKind::Enospc),
            "eio" => Some(IoFaultKind::Eio),
            "short" => Some(IoFaultKind::Short),
            _ => None,
        }
    }
}

/// One scheduled fault: fail operations of kind `op` (or any, when
/// `None`) whose global index falls in `[at, at + count)`.
///
/// `count = 1` is a transient fault — the driver's retry executes the
/// same logical step at a later operation index and succeeds.
/// `count = u64::MAX` (spelled `*`) never stops firing: a persistent
/// fault the supervisor cannot retry its way out of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoFaultRule {
    /// How the fault manifests.
    pub kind: IoFaultKind,
    /// Which operation kind it hits; `None` = any.
    pub op: Option<IoOp>,
    /// First global operation index affected (0-based).
    pub at: u64,
    /// How many *matching* subsequent indexes stay faulty.
    pub count: u64,
}

impl IoFaultRule {
    fn matches(&self, index: u64, op: IoOp) -> bool {
        if let Some(want) = self.op {
            if want != op {
                return false;
            }
        }
        index >= self.at && index - self.at < self.count
    }
}

/// A seeded background fault rate: each operation index is hashed and
/// faults with probability `per_mille / 1000`, independently of every
/// other index — so every rate fault is transient by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoRate {
    /// Hash seed; different seeds fault different operation indexes.
    pub seed: u64,
    /// Fault probability in 0..=1000 parts per thousand.
    pub per_mille: u64,
}

impl IoRate {
    fn decide(&self, index: u64) -> Option<IoFaultKind> {
        let h = mix(self.seed, index);
        if h % 1000 >= self.per_mille.min(1000) {
            return None;
        }
        Some(match (h / 1000) % 10 {
            0 => IoFaultKind::Enospc,
            1 | 2 => IoFaultKind::Short,
            _ => IoFaultKind::Eio,
        })
    }
}

/// splitmix64-style finalizer: uniform, seed-separated, allocation-free.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic schedule of storage faults, applied by [`FaultyVfs`].
///
/// Spec grammar (also what [`fmt::Display`] emits, so specs round-trip):
///
/// ```text
/// none                      no faults (the default)
/// mild                      named soak profile: rate:2020:10
/// kind@op:at[:count]        scheduled rule; kind ∈ enospc|eio|short,
///                           op ∈ create|write|sync|rename|dirsync|read|remove|*,
///                           count ∈ N|* (default 1, * = forever)
/// rate:seed:permille        seeded background fault rate
/// a;b;c                     any of the above, semicolon-joined
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IoFaultPlan {
    rules: Vec<IoFaultRule>,
    rate: Option<IoRate>,
}

impl IoFaultPlan {
    /// No faults: [`FaultyVfs`] becomes a byte-identical passthrough.
    pub fn none() -> IoFaultPlan {
        IoFaultPlan::default()
    }

    /// The named `mild` soak profile: a 1% seeded background fault rate
    /// (`rate:2020:10`), gentle enough that retries and the degradation
    /// ladder keep campaigns completing.
    pub fn mild() -> IoFaultPlan {
        IoFaultPlan::rate(2020, 10)
    }

    /// A plan with only a seeded background fault rate.
    pub fn rate(seed: u64, per_mille: u64) -> IoFaultPlan {
        IoFaultPlan {
            rules: Vec::new(),
            rate: Some(IoRate {
                seed,
                per_mille: per_mille.min(1000),
            }),
        }
    }

    /// A plan with a single scheduled rule.
    pub fn rule(kind: IoFaultKind, op: Option<IoOp>, at: u64, count: u64) -> IoFaultPlan {
        IoFaultPlan {
            rules: vec![IoFaultRule {
                kind,
                op,
                at,
                count,
            }],
            rate: None,
        }
    }

    /// Append a scheduled rule (builder style).
    pub fn with_rule(mut self, kind: IoFaultKind, op: Option<IoOp>, at: u64, count: u64) -> Self {
        self.rules.push(IoFaultRule {
            kind,
            op,
            at,
            count,
        });
        self
    }

    /// True when this plan never injects anything.
    pub fn is_none(&self) -> bool {
        self.rules.is_empty() && self.rate.is_none_or(|r| r.per_mille == 0)
    }

    /// The fault (if any) for the operation with global `index` of kind
    /// `op`. Scheduled rules win over the background rate; the first
    /// matching rule wins.
    pub fn decide(&self, index: u64, op: IoOp) -> Option<IoFaultKind> {
        for rule in &self.rules {
            if rule.matches(index, op) {
                return Some(rule.kind);
            }
        }
        self.rate.and_then(|r| r.decide(index))
    }

    /// Parse a spec (see the type docs for the grammar).
    pub fn parse(spec: &str) -> Option<IoFaultPlan> {
        let mut plan = IoFaultPlan::none();
        for token in spec.split(';') {
            let token = token.trim();
            match token {
                "" => return None,
                "none" => {}
                "mild" => {
                    let mild = IoFaultPlan::mild();
                    plan.rules.extend(mild.rules);
                    plan.rate = mild.rate;
                }
                _ => {
                    if let Some(rest) = token.strip_prefix("rate:") {
                        let mut parts = rest.split(':');
                        let seed: u64 = parts.next()?.parse().ok()?;
                        let per_mille: u64 = parts.next()?.parse().ok()?;
                        if parts.next().is_some() || per_mille > 1000 {
                            return None;
                        }
                        plan.rate = Some(IoRate { seed, per_mille });
                    } else {
                        let (kind, rest) = token.split_once('@')?;
                        let kind = IoFaultKind::parse(kind)?;
                        let mut parts = rest.split(':');
                        let op = IoOp::parse(parts.next()?)?;
                        let at: u64 = parts.next()?.parse().ok()?;
                        let count = match parts.next() {
                            None => 1,
                            Some("*") => u64::MAX,
                            Some(n) => {
                                let n: u64 = n.parse().ok()?;
                                if n == 0 {
                                    return None;
                                }
                                n
                            }
                        };
                        if parts.next().is_some() {
                            return None;
                        }
                        plan.rules.push(IoFaultRule {
                            kind,
                            op,
                            at,
                            count,
                        });
                    }
                }
            }
        }
        Some(plan)
    }

    /// Stable description for logs and health reports.
    pub fn describe(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for IoFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            return f.write_str("none");
        }
        let mut first = true;
        for r in &self.rules {
            if !first {
                f.write_str(";")?;
            }
            first = false;
            let op = r.op.map_or("*", |o| o.label());
            write!(f, "{}@{}:{}", r.kind.label(), op, r.at)?;
            match r.count {
                1 => {}
                u64::MAX => f.write_str(":*")?,
                n => write!(f, ":{n}")?,
            }
        }
        if let Some(r) = self.rate {
            if !first {
                f.write_str(";")?;
            }
            write!(f, "rate:{}:{}", r.seed, r.per_mille)?;
        }
        Ok(())
    }
}

/// How the campaign supervisor should treat a storage error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoErrorClass {
    /// Worth retrying: the next attempt may succeed (`EIO`, contention,
    /// anything unrecognized).
    Transient,
    /// Retrying cannot help (`ENOSPC`): descend the degradation ladder
    /// immediately instead of burning the retry budget.
    Persistent,
}

/// Classify a storage error by its stable message prefix (see the
/// [module docs](self)). Unrecognized errors are treated as transient —
/// the retry budget, not the classifier, bounds how long we hope.
pub fn classify_io_error(err: &io::Error) -> IoErrorClass {
    if err.to_string().starts_with("ENOSPC") {
        IoErrorClass::Persistent
    } else {
        IoErrorClass::Transient
    }
}

/// A [`Vfs`] decorator that injects the faults an [`IoFaultPlan`]
/// schedules, keyed on a process-wide operation index per instance.
///
/// Injections are counted via the `faultsim.injected{fault=io-*}`
/// labeled telemetry counters, so storage faults appear in the obs
/// flight report's fault heatmap alongside network faults.
#[derive(Debug)]
pub struct FaultyVfs {
    inner: Arc<dyn Vfs>,
    plan: IoFaultPlan,
    next_op: AtomicU64,
    injected: AtomicU64,
}

impl FaultyVfs {
    /// Wrap the real filesystem.
    pub fn new(plan: IoFaultPlan) -> FaultyVfs {
        FaultyVfs::wrapping(Arc::new(RealVfs), plan)
    }

    /// Wrap an arbitrary inner [`Vfs`].
    pub fn wrapping(inner: Arc<dyn Vfs>, plan: IoFaultPlan) -> FaultyVfs {
        FaultyVfs {
            inner,
            plan,
            next_op: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// The plan driving this instance.
    pub fn plan(&self) -> &IoFaultPlan {
        &self.plan
    }

    /// Total operations observed so far (the next operation's index).
    /// A fault-free probe run reads this to learn how many operation
    /// indexes an exhaustive sweep must cover.
    pub fn ops(&self) -> u64 {
        self.next_op.load(Ordering::Relaxed)
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    fn inject(&self, kind: IoFaultKind, index: u64, op: IoOp) -> io::Error {
        self.injected.fetch_add(1, Ordering::Relaxed);
        let label = match kind {
            IoFaultKind::Enospc => "io-enospc",
            IoFaultKind::Eio => "io-eio",
            IoFaultKind::Short => "io-short",
        };
        consent_telemetry::count_labeled("faultsim.injected", &[("fault", label)], 1);
        match kind {
            IoFaultKind::Enospc => io::Error::other(format!(
                "ENOSPC: injected out-of-space at op {index} ({})",
                op.label()
            )),
            _ => io::Error::other(format!(
                "EIO: injected i/o error at op {index} ({})",
                op.label()
            )),
        }
    }

    /// Decide the fate of the next operation of kind `op`.
    fn gate(&self, op: IoOp) -> Result<(), io::Error> {
        let index = self.next_op.fetch_add(1, Ordering::Relaxed);
        match self.plan.decide(index, op) {
            None => Ok(()),
            // A "short" fault on anything but a write has no prefix to
            // persist; it degrades to a plain I/O error.
            Some(IoFaultKind::Short) if op != IoOp::Write => {
                Err(self.inject(IoFaultKind::Eio, index, op))
            }
            Some(IoFaultKind::Short) => Err(self.inject(IoFaultKind::Short, index, op)),
            Some(kind) => Err(self.inject(kind, index, op)),
        }
    }
}

impl Vfs for FaultyVfs {
    fn create(&self, path: &Path) -> io::Result<()> {
        self.gate(IoOp::Create)?;
        self.inner.create(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let index = self.next_op.fetch_add(1, Ordering::Relaxed);
        match self.plan.decide(index, IoOp::Write) {
            None => self.inner.write(path, bytes),
            Some(IoFaultKind::Short) => {
                // Persist half the buffer and *report success*: the lie
                // a failing disk tells. The checkpoint CRC manifest is
                // what catches it, on the next open.
                let _ = self.inject(IoFaultKind::Short, index, IoOp::Write);
                self.inner.write(path, &bytes[..bytes.len() / 2])
            }
            Some(kind) => Err(self.inject(kind, index, IoOp::Write)),
        }
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        self.gate(IoOp::Sync)?;
        self.inner.sync(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.gate(IoOp::Rename)?;
        self.inner.rename(from, to)
    }

    fn dir_sync(&self, dir: &Path) -> io::Result<()> {
        self.gate(IoOp::DirSync)?;
        self.inner.dir_sync(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.gate(IoOp::Read)?;
        self.inner.read(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.gate(IoOp::Remove)?;
        self.inner.remove_file(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_default_and_inert() {
        let plan = IoFaultPlan::none();
        assert!(plan.is_none());
        for i in 0..2000 {
            for op in IoOp::ALL {
                assert_eq!(plan.decide(i, op), None);
            }
        }
        assert_eq!(plan.to_string(), "none");
    }

    #[test]
    fn scheduled_rule_fires_in_window_only() {
        let plan = IoFaultPlan::rule(IoFaultKind::Eio, Some(IoOp::Sync), 3, 2);
        assert_eq!(plan.decide(2, IoOp::Sync), None);
        assert_eq!(plan.decide(3, IoOp::Sync), Some(IoFaultKind::Eio));
        assert_eq!(plan.decide(4, IoOp::Sync), Some(IoFaultKind::Eio));
        assert_eq!(plan.decide(5, IoOp::Sync), None);
        // Other operation kinds don't consume the window.
        assert_eq!(plan.decide(3, IoOp::Write), None);
    }

    #[test]
    fn forever_rule_never_stops() {
        let plan = IoFaultPlan::rule(IoFaultKind::Enospc, None, 5, u64::MAX);
        assert_eq!(plan.decide(4, IoOp::Write), None);
        for i in [5u64, 6, 1000, u64::MAX - 1] {
            assert_eq!(plan.decide(i, IoOp::DirSync), Some(IoFaultKind::Enospc));
        }
    }

    #[test]
    fn rate_is_deterministic_and_roughly_calibrated() {
        let rate = IoRate {
            seed: 2020,
            per_mille: 100,
        };
        let hits: Vec<u64> = (0..10_000).filter(|&i| rate.decide(i).is_some()).collect();
        let again: Vec<u64> = (0..10_000).filter(|&i| rate.decide(i).is_some()).collect();
        assert_eq!(hits, again, "rate decisions must be pure");
        // 10% nominal; allow wide slack, only guard against gross bias.
        assert!((500..2000).contains(&hits.len()), "{} hits", hits.len());
        let other = IoRate {
            seed: 2021,
            per_mille: 100,
        };
        let moved: Vec<u64> = (0..10_000).filter(|&i| other.decide(i).is_some()).collect();
        assert_ne!(hits, moved, "seed must matter");
    }

    #[test]
    fn parse_round_trips_display() {
        for spec in [
            "none",
            "enospc@write:5",
            "eio@sync:3:2",
            "short@write:7:*",
            "eio@*:0",
            "rate:2020:10",
            "enospc@dirsync:2;eio@rename:9:3;rate:7:250",
        ] {
            let plan = IoFaultPlan::parse(spec).expect(spec);
            let shown = plan.to_string();
            assert_eq!(IoFaultPlan::parse(&shown).unwrap(), plan, "{spec}");
            if spec != "none" {
                assert_eq!(shown, spec);
            }
        }
        assert_eq!(IoFaultPlan::parse("mild").unwrap(), IoFaultPlan::mild());
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for spec in [
            "",
            ";",
            "enospc",
            "enospc@write",
            "enospc@write:x",
            "enospc@floppy:1",
            "boom@write:1",
            "eio@write:1:0",
            "eio@write:1:2:3",
            "rate:1",
            "rate:1:2000",
            "rate:a:b",
        ] {
            assert!(IoFaultPlan::parse(spec).is_none(), "{spec:?} parsed");
        }
    }

    #[test]
    fn faulty_vfs_none_is_passthrough_and_counts_ops() {
        let dir =
            std::env::temp_dir().join(format!("consent-io-passthrough-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let vfs = FaultyVfs::new(IoFaultPlan::none());
        let path = dir.join("f");
        vfs.create(&path).unwrap();
        vfs.write(&path, b"bytes on disk").unwrap();
        vfs.sync(&path).unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"bytes on disk");
        assert_eq!(vfs.ops(), 4);
        assert_eq!(vfs.injected(), 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn short_write_persists_prefix_and_reports_success() {
        let dir = std::env::temp_dir().join(format!("consent-io-short-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let vfs = FaultyVfs::new(IoFaultPlan::rule(
            IoFaultKind::Short,
            Some(IoOp::Write),
            0,
            1,
        ));
        let path = dir.join("f");
        vfs.write(&path, b"0123456789").unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"01234", "half persisted");
        assert_eq!(vfs.injected(), 1);
        // Window passed: the next write is whole.
        vfs.write(&path, b"0123456789").unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"0123456789");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn injected_errors_classify_by_prefix() {
        let vfs = FaultyVfs::new(
            IoFaultPlan::rule(IoFaultKind::Enospc, None, 0, 1).with_rule(
                IoFaultKind::Eio,
                None,
                1,
                1,
            ),
        );
        let missing = Path::new("/nonexistent/consent-io-classify");
        let enospc = vfs.sync(missing).unwrap_err();
        let eio = vfs.sync(missing).unwrap_err();
        assert_eq!(classify_io_error(&enospc), IoErrorClass::Persistent);
        assert_eq!(classify_io_error(&eio), IoErrorClass::Transient);
        // Real-world errors we don't recognize default to transient.
        assert_eq!(
            classify_io_error(&io::Error::other("weird disk burp")),
            IoErrorClass::Transient
        );
    }

    #[test]
    fn short_on_non_write_degrades_to_eio() {
        let vfs = FaultyVfs::new(IoFaultPlan::rule(
            IoFaultKind::Short,
            Some(IoOp::Sync),
            0,
            1,
        ));
        let err = vfs.sync(Path::new("/nonexistent")).unwrap_err();
        assert!(err.to_string().starts_with("EIO"), "{err}");
    }
}
