//! Heap allocations on the capture path and in a capture-store scan,
//! counted without a clock.
//!
//! This binary installs a counting global allocator. Counts are kept
//! per thread, so the tests of this binary, which the harness runs on
//! parallel threads, never see each other's allocations. Every call
//! into the allocator that can hand out fresh memory counts once:
//! `alloc`, `alloc_zeroed` and `realloc`.
//!
//! Only [`a_traced_pair_allocates_little_more_than_an_untraced_one`]
//! opens a trace. While it has the process-global trace log enabled,
//! the other tests' capture paths check the flag and find no trace open
//! on their threads, so they record nothing and their counts stay as
//! they are.

use consent_crawler::{
    build_toplist, run_campaign_parallel, Admission, BreakerConfig, CampaignConfig, CaptureDb,
    CaptureSummary, CmpSet, DedupQueue, Feed, FeedConfig, ParallelOpts, RetryPolicy,
};
use consent_faultsim::{FaultProfile, FaultyEngine};
use consent_fingerprint::Detector;
use consent_httpsim::{CaptureOptions, CaptureStatus, Location, Vantage};
use consent_psl::PublicSuffixList;
use consent_util::{Day, SeedTree};
use consent_webgraph::site::rank_of_host;
use consent_webgraph::{AdoptionConfig, World, WorldConfig, ALL_CMPS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Hosts of every shape the suffix list distinguishes: plain, private,
/// wildcard and exception rules, unknown TLDs, synthetic-web hosts and
/// aliases, and the inputs `split` refuses, all in lowercase.
const HOSTS: [&str; 16] = [
    "www.cedifogu.co.uk",
    "cedifogu.de",
    "www.ceba-alt.net",
    "foo.example.github.io",
    "quantcast.mgr.consensu.org",
    "cdn.cookielaw.org",
    "metrics.analytico.net",
    "a.b.example.zz",
    "co.uk",
    "www.ck",
    "sub.foo.ck",
    "city.kawasaki.jp",
    "192.168.0.1",
    "a..b",
    "[::1]",
    "",
];

#[test]
fn suffix_list_split_and_rank_decoding_allocate_nothing() {
    let psl = PublicSuffixList::embedded();
    for host in HOSTS {
        let (n, _) = counted(|| black_box(psl.split(black_box(host))));
        assert_eq!(n, 0, "split({host:?}) allocated {n} times");
        let (n, _) = counted(|| black_box(rank_of_host(black_box(host))));
        assert_eq!(n, 0, "rank_of_host({host:?}) allocated {n} times");
    }
}

#[test]
fn registrable_domain_allocates_nothing_for_a_lowercase_host() {
    let psl = PublicSuffixList::embedded();
    for host in HOSTS {
        let (n, domain) = counted(|| psl.registrable_domain(black_box(host)));
        assert_eq!(n, 0, "registrable_domain({host:?}) = {domain:?}");
    }
}

/// Allocations per URL that capture, detection and the row took on the
/// sample of [`feed_urls_and_captures_allocate_little`] while request
/// and cookie records still owned their first-party hosts, asset URLs
/// and cookie values (87.27 before the capture path stopped copying
/// constant strings and URL slices).
const OLD_ALLOCS_PER_URL: f64 = 25.48;

/// At most this many allocations per URL for capture, detection and the
/// row: a capture's three strings and its two record `Vec`s growing,
/// the row's domain, and little else.
const ALLOCS_PER_URL: f64 = 10.0;

#[test]
fn feed_urls_and_captures_allocate_little() {
    let world = World::new(WorldConfig {
        n_sites: 50_000,
        seed: 42,
        adoption: AdoptionConfig::default(),
    });
    let seed = SeedTree::new(5);
    let config = FeedConfig {
        urls_per_day: 400,
        ..FeedConfig::default()
    };
    let feed = Feed::new(&world, config, seed.child("feed"));
    let day = Day::from_ymd(2020, 3, 2);
    let mut queue = DedupQueue::new();
    let urls: Vec<String> = feed
        .day_items(day)
        .into_iter()
        .filter(|item| {
            let ts = i64::from(day.0) * 86_400 + i64::from(item.seconds);
            queue.offer(&item.url, ts) == Admission::Accepted
        })
        .map(|item| item.url)
        .collect();
    assert!(urls.len() > 200, "{} admitted URLs", urls.len());
    // The same day again, its sites' profiles now cached: one
    // allocation per URL, beside the day's `Vec` and the sort's buffer.
    let (n, items) = counted(|| feed.day_items(day));
    assert!(
        n <= items.len() as u64 + 2,
        "{n} allocations for {} feed items",
        items.len()
    );

    let engine = FaultyEngine::from_world(&world, FaultProfile::none(), seed);
    let detector = Detector::hostname_only();
    let psl = PublicSuffixList::embedded();
    let crawl = |url: &str, i: usize| {
        let vantage = if i % 2 == 0 {
            Vantage::eu_cloud()
        } else {
            Vantage::us_cloud()
        };
        let capture = engine.capture(url, day, vantage, CaptureOptions::default());
        let cmps = CmpSet::from_iter(detector.detect(&capture));
        black_box(CaptureSummary::of(&capture, cmps, &psl));
    };
    // A first pass fills the world's profile cache, whose misses are
    // not the capture path's.
    for (i, url) in urls.iter().enumerate() {
        crawl(url, i);
    }
    let (n, ()) = counted(|| {
        for (i, url) in urls.iter().enumerate() {
            crawl(url, i);
        }
    });
    let per_url = n as f64 / urls.len() as f64;
    println!("{per_url:.2} allocations per URL over {} URLs", urls.len());
    assert!(
        per_url <= ALLOCS_PER_URL,
        "{per_url:.2} allocations per URL, more than {ALLOCS_PER_URL} (from {OLD_ALLOCS_PER_URL})"
    );
}

#[test]
fn a_capture_db_scan_allocates_once_per_domain() {
    let mut db = CaptureDb::new();
    let day = Day::from_ymd(2020, 1, 1);
    for i in 0..3_000u32 {
        let domain = format!("site-{}.example", i % 700);
        db.insert(CaptureSummary {
            domain: domain.into(),
            day: day + (i / 7) as i32,
            location: Location::EuCloud,
            status: CaptureStatus::Ok,
            cmps: CmpSet::from_iter(ALL_CMPS.get(i as usize % 9).copied()),
            redirected: i % 5 == 0,
            dialog_visible: i % 3 == 0,
        });
    }
    let scan = || {
        for (domain, history) in db.iter() {
            black_box((domain, history));
        }
    };
    // A first scan initializes the telemetry registry the scan counter
    // checks.
    scan();
    let (n, ()) = counted(scan);
    let domains = db.domain_count() as u64;
    println!(
        "{n} allocations to scan {} rows of {domains} domains",
        db.len()
    );
    assert!(
        n <= domains,
        "a scan of {} rows of {domains} domains allocated {n} times",
        db.len()
    );
}

/// Allocations tracing added to a pair of
/// [`a_traced_pair_allocates_little_more_than_an_untraced_one`] when
/// every event and attribute value was an allocation of its own.
const OLD_TRACE_ALLOCS_PER_PAIR: f64 = 92.38;

/// At most this many more allocations for a traced pair than for the
/// same pair untraced.
const TRACE_ALLOCS_PER_PAIR: f64 = 8.0;

/// Allocations per pair of the untraced campaign of
/// [`a_traced_pair_allocates_little_more_than_an_untraced_one`] while
/// request and cookie records owned their strings and every pair
/// formatted its vantage code and day strings.
const OLD_UNTRACED_ALLOCS_PER_PAIR: f64 = 47.35;

/// At most this many allocations per pair of that untraced campaign,
/// its set-up included.
const UNTRACED_ALLOCS_PER_PAIR: f64 = 30.0;

#[test]
fn a_traced_pair_allocates_little_more_than_an_untraced_one() {
    let world = World::new(WorldConfig {
        n_sites: 2_000,
        seed: 42,
        adoption: AdoptionConfig::default(),
    });
    let list = build_toplist(&world, 20, SeedTree::new(7));
    let vantages = Vantage::table1_columns();
    let opts = ParallelOpts {
        threads: 1,
        config: CampaignConfig {
            fault_profile: FaultProfile::none(),
            retry: RetryPolicy::paper(),
            breaker: BreakerConfig::default(),
        },
        max_pairs: None,
    };
    let day = Day::from_ymd(2020, 5, 15);
    let campaign = || {
        black_box(run_campaign_parallel(
            &world,
            &list,
            day,
            &vantages,
            SeedTree::new(3),
            &opts,
        ))
    };
    // First runs fill the world's profile cache, the thread's trace
    // buffers and the log's shards; `clear` keeps the shards' capacity.
    campaign();
    consent_trace::enable();
    campaign();
    consent_trace::clear();
    consent_trace::disable();

    let (untraced, _) = counted(campaign);
    consent_trace::enable();
    let (traced, _) = counted(campaign);
    consent_trace::disable();
    let events = consent_trace::global().len();
    consent_trace::clear();

    let pairs = (list.len() * vantages.len()) as f64;
    assert!(
        events as f64 > 10.0 * pairs,
        "{events} events for {pairs} pairs"
    );
    let per_pair = untraced as f64 / pairs;
    assert!(
        per_pair <= UNTRACED_ALLOCS_PER_PAIR,
        "an untraced pair made {per_pair:.2} allocations, over {UNTRACED_ALLOCS_PER_PAIR} \
         (from {OLD_UNTRACED_ALLOCS_PER_PAIR})"
    );
    let extra = (traced as f64 - untraced as f64) / pairs;
    println!(
        "{extra:.2} more allocations per traced pair ({untraced} untraced, {traced} traced, {pairs} pairs)"
    );
    assert!(
        extra <= TRACE_ALLOCS_PER_PAIR,
        "a traced pair made {extra:.2} more allocations than an untraced one, over \
         {TRACE_ALLOCS_PER_PAIR} (from {OLD_TRACE_ALLOCS_PER_PAIR})"
    );
}
