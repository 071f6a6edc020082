//! The three workloads and the loop that runs one of them.
//!
//! Every workload is a closed loop with one client: one process runs
//! back-to-back repetitions of a batch job, checks each repetition's
//! output against a reference computed at set-up, and reports either
//! the end-to-end metrics (untraced run) or the per-layer ledger
//! (traced run). Why each workload exists is recorded in
//! `BENCHMARK.json` and in this directory's `README.md`.

mod durable;
mod feed;
mod table1;

pub use durable::DurableObserved;
pub use feed::FeedLongitudinal;
pub use table1::Table1Campaign;

use crate::ledger::{host_speed, median, peak_rss_mb, repeat_for, timed, Ledger, END_TO_END};
use consent_crawler::{BreakerConfig, CampaignConfig, RetryPolicy};
use consent_faultsim::FaultProfile;
use consent_util::Day;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["table1_campaign", "feed_longitudinal", "durable_observed"];

/// Independent set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Untimed repetitions between set-up and measuring.
pub const WARMUP_REPS: usize = 2;

/// Input size: `Full` is the benchmark, `Tiny` exercises every code
/// path in well under a second (tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Minimal inputs with the same structure (tests).
    Tiny,
}

/// Checked operations and how many of them failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checked {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that errored or differed from the reference.
    pub failed: u64,
}

impl Checked {
    /// Record one operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Record `n` operations that failed together.
    pub fn fail(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
    }

    /// Fold in another tally.
    pub fn add(&mut self, other: Checked) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// What one repetition hands to [`finish`](Self::finish).
    type Output;
    /// Operations one repetition checks (all count as failed when the
    /// repetition returns an error).
    const OPS: u64;

    /// Build the inputs from `seed` and compute the reference outputs
    /// (which also fills the `World` profile cache). Scratch
    /// directories go under `work`.
    fn setup(seed: u64, size: Size, work: &Path) -> io::Result<Self>;

    /// Work items one repetition completes.
    fn items(&self) -> u64;

    /// FNV-64 digest of the reference output.
    fn digest(&self) -> u64;

    /// One timed repetition.
    fn rep(&mut self) -> io::Result<Self::Output>;

    /// Check a repetition's output against the reference and release
    /// what it holds (untimed).
    fn finish(&mut self, out: Self::Output) -> Checked;

    /// Traced repetitions for about `seconds`, with the benchmark's
    /// timer around each layer call, filling `ledger`. Returns the
    /// traced repetition times and the checks made.
    fn traced(&mut self, seconds: f64, ledger: &mut Ledger) -> io::Result<(Vec<f64>, Checked)>;
}

/// How to run a workload.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Report the per-layer ledger instead of the end-to-end metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// What one workload run measured.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Checked operations of every repetition.
    pub checked: Checked,
    /// Wall time of each untraced repetition, in run order.
    pub reps: Vec<f64>,
    /// The host's speed measured right after each of them.
    pub speeds: Vec<f64>,
    /// Digest of the reference output.
    pub digest: u64,
    /// `(name, value, unit)`: the end-to-end metrics, or with `trace`
    /// the per-layer ledger.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Run the workload called `name`.
pub fn run(name: &str, args: &RunArgs) -> io::Result<RunResult> {
    let work = WorkDir::create(name)?;
    match name {
        "table1_campaign" => run_one::<Table1Campaign>(args, work.path()),
        "feed_longitudinal" => run_one::<FeedLongitudinal>(args, work.path()),
        "durable_observed" => run_one::<DurableObserved>(args, work.path()),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown workload {name:?}"),
        )),
    }
}

fn run_one<W: Workload>(args: &RunArgs, work: &Path) -> io::Result<RunResult> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        let (made, secs) = timed(|| W::setup(args.seed, args.size, work));
        workload = Some(made?);
        setup_s.push(secs * host_speed());
    }
    let mut w = workload.expect("at least one set-up");

    let mut checked = Checked::default();
    let mut speeds = Vec::new();
    let mut rep = || {
        let (out, secs) = timed(|| w.rep());
        match out {
            Ok(out) => checked.add(w.finish(out)),
            Err(e) => {
                eprintln!("perfbench: repetition failed: {e}");
                checked.fail(W::OPS);
            }
        }
        speeds.push(host_speed());
        secs
    };
    // The reference ran in another configuration (one thread, no
    // recorders), and the first repetitions after it still grow the
    // allocator's per-thread arenas: warm up in the timed one.
    for _ in 0..WARMUP_REPS {
        rep();
    }
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let reps = repeat_for(budget, 1, rep);
    let speeds = speeds.split_off(WARMUP_REPS);
    // Each repetition's time at the reference speed.
    let scaled: Vec<f64> = reps.iter().zip(&speeds).map(|(s, v)| s * v).collect();
    let wall_p50 = median(&reps);

    let metrics = if args.trace {
        let mut ledger = Ledger::default();
        let (traced, traced_checked) = w.traced(args.seconds / 2.0, &mut ledger)?;
        checked.add(traced_checked);
        let traced_p50 = median(&traced);
        ledger.set("bench.host_speed", median(&speeds));
        ledger.set("bench.rep_s_wall_p50", wall_p50);
        ledger.set("bench.rep_s_traced", traced_p50);
        ledger.set(
            "bench.trace_overhead_pct",
            (traced_p50 / wall_p50 - 1.0) * 100.0,
        );
        ledger.metrics()
    } else {
        let rss = peak_rss_mb()
            .ok_or_else(|| io::Error::other("VmHWM not readable from /proc/self/status"))?;
        let total_s: f64 = scaled.iter().sum();
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "setup_s" => median(&setup_s),
                    // Over every timed repetition, not only the median.
                    "items_per_s" => (w.items() * reps.len() as u64) as f64 / total_s,
                    "rep_s_p50" => median(&scaled),
                    "peak_rss_mb" => rss,
                    _ => unreachable!("every end-to-end metric is measured here"),
                };
                (name, value, unit)
            })
            .collect()
    };
    Ok(RunResult {
        checked,
        reps,
        speeds,
        digest: w.digest(),
        metrics,
    })
}

/// The run's scratch directory under `.bench_work/` in the current
/// directory; removed with everything in it when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(name: &str) -> io::Result<WorkDir> {
        let path = Path::new(".bench_work").join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_work` itself only if another run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// A directory under `work` that no other call has returned.
fn fresh_dir(work: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    work.join(format!("d{}", NEXT.fetch_add(1, Ordering::Relaxed)))
}

/// The campaign day of every toplist campaign.
fn campaign_day() -> Day {
    Day::from_ymd(2020, 5, 15)
}

/// The campaign behaviour of every workload: no injected faults (so no
/// operation fails by design), the paper's retries, default breaker.
fn campaign_config() -> CampaignConfig {
    CampaignConfig {
        fault_profile: FaultProfile::none(),
        retry: RetryPolicy::paper(),
        breaker: BreakerConfig::default(),
    }
}

/// FNV-64 of `text`.
fn digest(text: &str) -> u64 {
    consent_bundle::fnv64(text.as_bytes())
}
