//! The streaming watch engine: folds the durable driver's observation
//! windows into detector state and a deterministic alert-event log.
//!
//! # Detectors
//!
//! Every detector is a pure function of one window's counter deltas
//! and its cursor bounds — never wall time:
//!
//! - **Burn-rate SLO rules** ([`SloRule`]): the current window's ratio
//!   crossing the threshold opens a *pending* alert; the aggregate
//!   ratio over the rule's long window crossing it too escalates to
//!   *firing* (short window reacts, long window confirms). Ratios are
//!   usable-capture rate per vantage location, dead-letter rate, and
//!   checkpoint `io_fault`/`retry` rates.
//! - **EWMA drift rules** ([`DriftRule`]): integer EWMA mean and mean
//!   absolute deviation (scaled ×1000, update weight 1/8) over CMP
//!   detection rate or per-window throughput; after warmup, a window
//!   deviating by more than the configured z-score fires immediately.
//!   Integer arithmetic keeps the state exactly serializable.
//! - **Coverage gap** ([`GapRule`]): ticks since the last window with a
//!   usable capture per vantage location — pending at the configured
//!   gap, firing at twice it, resolved by the next usable capture.
//!
//! # Deterministic lifecycle
//!
//! Alerts move pending → firing → resolved. Every transition is an
//! [`AlertEvent`] with the tick it happened at (recorded, not
//! wall-clock) and a stable FNV id derived from (rule, label, opened
//! tick) — so the `ALERTS_*.jsonl` export is byte-identical across
//! thread counts and, with the two-phase [`stage`](Watch::stage) /
//! [`commit`](Watch::commit) protocol plus checkpoint-persisted state,
//! across kill-halfway resumes (concatenating the incarnations' exports
//! reproduces the uninterrupted run's bytes).
//!
//! # Two-phase observation
//!
//! The watch keeps no registry baseline: the durable driver owns the
//! window and calls [`Watch::stage`] with it and its registry delta at
//! every checkpoint write attempt — the state blob rides inside the
//! checkpoint — and [`Watch::commit`] only after the write proved
//! durable, where the sampler records the same window (or
//! [`Watch::abort`] when it was skipped or torn). An alert event
//! therefore exists iff its window is durable. On resume,
//! [`Watch::import_state`] restores the persisted detector state.

use crate::rules::{DriftMetric, SloMetric, WatchConfig};
use consent_obs::FlightAlert;
use consent_telemetry::registry::parse_key;
use consent_telemetry::{Registry, Snapshot};
use consent_util::Json;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Version stamped into every exported alert line and state blob.
pub const WATCH_SCHEMA_VERSION: i64 = 1;

/// Checkpoint section name the durable driver stores the watch state
/// blob under.
pub const WATCH_STATE_SECTION: &str = "watch-state";

/// Capture statuses that count as usable — must match
/// `CaptureStatus::usable()` (Ok, Timeout, Truncated: content present,
/// possibly degraded).
const USABLE_STATUSES: &[&str] = &["Ok", "Timeout", "Truncated"];

/// Outcome labels that are *not* dead-lettered — must match the
/// executor's rule (a pair is dead-lettered when its final capture is
/// unusable, i.e. outcome transient/permanent/panic).
const LIVE_OUTCOMES: &[&str] = &["success", "degraded"];

/// One alert lifecycle transition, exported as one `ALERTS_*.jsonl`
/// line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlertEvent {
    /// Stable FNV id shared by every transition of one alert:
    /// `stable_id(rule, label, opened-tick)` in hex.
    pub id: String,
    /// The rule's canonical spec form (`slo:usable:700:3`, …).
    pub rule: String,
    /// Instance label (vantage location) — empty for global rules.
    pub label: String,
    /// `pending`, `firing`, or `resolved`.
    pub state: &'static str,
    /// Tick (campaign cursor) this transition happened at.
    pub tick: u64,
    /// Tick the alert opened (went pending).
    pub opened: u64,
    /// Tick the alert escalated to firing, if it did.
    pub fired: Option<u64>,
    /// Detector value at this transition (per-mille ratio, centi-z, or
    /// gap ticks, per the rule family).
    pub value: i64,
    /// The rule threshold the value is compared against.
    pub threshold: i64,
}

impl AlertEvent {
    /// Serialize as one `ALERTS_*.jsonl` line (no trailing newline).
    /// Keys are emitted in a fixed order, so equal events yield equal
    /// bytes.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("kind".to_string(), Json::str("alert")),
            ("schema".to_string(), Json::int(WATCH_SCHEMA_VERSION)),
            ("id".to_string(), Json::str(self.id.clone())),
            ("rule".to_string(), Json::str(self.rule.clone())),
        ];
        if !self.label.is_empty() {
            fields.push(("label".to_string(), Json::str(self.label.clone())));
        }
        fields.push(("state".to_string(), Json::str(self.state)));
        fields.push(("tick".to_string(), Json::int(self.tick as i64)));
        fields.push(("opened".to_string(), Json::int(self.opened as i64)));
        if let Some(f) = self.fired {
            fields.push(("fired".to_string(), Json::int(f as i64)));
        }
        fields.push(("value".to_string(), Json::int(self.value)));
        fields.push(("threshold".to_string(), Json::int(self.threshold)));
        Json::object(fields)
    }
}

/// Stable alert id: FNV over rule, label, and opening tick.
fn alert_id(rule: &str, label: &str, opened: u64) -> String {
    format!(
        "{:016x}",
        consent_trace::stable_id(&[rule, label, &opened.to_string()])
    )
}

/// Lifecycle phase of an open alert instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Pending,
    Firing,
}

/// One open alert (an instance of a rule for one label).
#[derive(Clone, Debug, PartialEq, Eq)]
struct Instance {
    phase: Phase,
    opened: u64,
    fired: Option<u64>,
}

/// Integer EWMA state for one drift rule: mean and mean absolute
/// deviation, scaled ×1000.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct DriftState {
    mean_m: i64,
    mad_m: i64,
    seen: u64,
}

/// The full fold state: everything needed to continue evaluation from
/// a checkpoint. Serialized into the `watch-state` checkpoint section.
#[derive(Clone, Debug, Default, PartialEq)]
struct EngineState {
    /// Open alerts by instance key (`s<idx>|<label>`, `d<idx>`,
    /// `g|<label>`).
    instances: BTreeMap<String, Instance>,
    /// Per-SLO-instance ring of the last `long_windows` (num, den)
    /// window pairs.
    rings: BTreeMap<String, VecDeque<(u64, u64)>>,
    /// Per-drift-rule EWMA state.
    drift: BTreeMap<String, DriftState>,
    /// Per-location tick of the last window with a usable capture.
    gap: BTreeMap<String, u64>,
}

impl EngineState {
    /// Open alerts in the firing phase.
    fn firing(&self) -> usize {
        self.instances
            .values()
            .filter(|i| i.phase == Phase::Firing)
            .count()
    }
}

/// Ratio in parts per thousand (caller guarantees `den > 0`).
fn rate_pm(num: u64, den: u64) -> u64 {
    num.saturating_mul(1000) / den
}

/// The window metrics every detector reads, extracted from one window's
/// counter deltas.
#[derive(Debug, Default)]
struct WindowMetrics {
    /// Per vantage location: (usable captures, total captures).
    capture: BTreeMap<String, (u64, u64)>,
    /// (dead-lettered outcomes, total outcomes).
    dead: (u64, u64),
    /// (io faults, io faults + 1).
    iofault: (u64, u64),
    /// (retries, retries + 1).
    retry: (u64, u64),
    /// (CMP detection hits, hits + misses).
    cmp: (u64, u64),
    /// Pairs processed this window.
    pairs: u64,
}

impl WindowMetrics {
    /// Extract the metrics from one window's counter deltas.
    fn from_counters(counters: &BTreeMap<String, u64>) -> WindowMetrics {
        let mut m = WindowMetrics::default();
        let mut hits = 0u64;
        let mut misses = 0u64;
        for (key, v) in counters {
            let (base, labels) = parse_key(key);
            match base {
                consent_telemetry::CAPTURE_FAMILY => {
                    let loc = labels
                        .iter()
                        .find(|(k, _)| *k == "location")
                        .map(|(_, v)| *v)
                        .unwrap_or("");
                    let status = labels
                        .iter()
                        .find(|(k, _)| *k == "status")
                        .map(|(_, v)| *v)
                        .unwrap_or("");
                    let entry = m.capture.entry(loc.to_string()).or_insert((0, 0));
                    entry.1 += v;
                    if USABLE_STATUSES.contains(&status) {
                        entry.0 += v;
                    }
                }
                "campaign.outcome" => {
                    let outcome = labels
                        .iter()
                        .find(|(k, _)| *k == "outcome")
                        .map(|(_, v)| *v)
                        .unwrap_or("");
                    m.dead.1 += v;
                    if !LIVE_OUTCOMES.contains(&outcome) {
                        m.dead.0 += v;
                    }
                }
                "fingerprint.detect.hit" => hits += v,
                "fingerprint.detect.miss" | "fingerprint.detect.miss_degraded" => misses += v,
                "checkpoint.io_fault" => m.iofault.0 += v,
                "checkpoint.retry" => m.retry.0 += v,
                _ => {}
            }
        }
        // Every attempt of the write that closes this window is either
        // a fault (or retry) or that one durable write, which carries
        // the state this evaluation produces.
        m.iofault.1 = m.iofault.0 + 1;
        m.retry.1 = m.retry.0 + 1;
        m.cmp = (hits, hits + misses);
        m.pairs = counters.get("campaign.progress").copied().unwrap_or(0);
        m
    }
}

/// Advance one instance's lifecycle given this window's breach verdict.
/// `confirm` is the escalation condition (long-window breach for SLO
/// rules; immediate for drift; 2× gap for coverage).
#[allow(clippy::too_many_arguments)]
fn transition(
    instances: &mut BTreeMap<String, Instance>,
    events: &mut Vec<AlertEvent>,
    key: &str,
    rule: &str,
    label: &str,
    breach: bool,
    confirm: bool,
    tick: u64,
    value: i64,
    threshold: i64,
) {
    let event = |inst: &Instance, state: &'static str| AlertEvent {
        id: alert_id(rule, label, inst.opened),
        rule: rule.to_string(),
        label: label.to_string(),
        state,
        tick,
        opened: inst.opened,
        fired: inst.fired,
        value,
        threshold,
    };
    match instances.get_mut(key) {
        None => {
            if breach {
                let mut inst = Instance {
                    phase: Phase::Pending,
                    opened: tick,
                    fired: None,
                };
                events.push(event(&inst, "pending"));
                if confirm {
                    inst.phase = Phase::Firing;
                    inst.fired = Some(tick);
                    events.push(event(&inst, "firing"));
                }
                instances.insert(key.to_string(), inst);
            }
        }
        Some(inst) => {
            if breach {
                if confirm && inst.phase == Phase::Pending {
                    inst.phase = Phase::Firing;
                    inst.fired = Some(tick);
                    let ev = event(inst, "firing");
                    events.push(ev);
                }
            } else {
                let ev = event(inst, "resolved");
                events.push(ev);
                instances.remove(key);
            }
        }
    }
}

/// Evaluate every configured rule against the window `(from, tick]`
/// with counter deltas `counters`, mutating `state` and returning the
/// lifecycle transitions, in deterministic rule/label order.
fn eval(
    config: &WatchConfig,
    state: &mut EngineState,
    (from, tick): (u64, u64),
    counters: &BTreeMap<String, u64>,
) -> Vec<AlertEvent> {
    let m = WindowMetrics::from_counters(counters);
    let mut events = Vec::new();

    for (i, rule) in config.slo.iter().enumerate() {
        let rule_str = rule.to_string();
        let step = |state: &mut EngineState,
                    events: &mut Vec<AlertEvent>,
                    label: &str,
                    num: u64,
                    den: u64| {
            let key = format!("s{i}|{label}");
            let ring = state.rings.entry(key.clone()).or_default();
            ring.push_back((num, den));
            while ring.len() as u64 > rule.long_windows {
                ring.pop_front();
            }
            let value_pm = if den > 0 { rate_pm(num, den) } else { 0 };
            let short = den > 0 && rule.breaches(value_pm);
            let (lnum, lden) = ring
                .iter()
                .fold((0u64, 0u64), |(n, d), (rn, rd)| (n + rn, d + rd));
            let long = ring.len() as u64 == rule.long_windows
                && lden > 0
                && rule.breaches(rate_pm(lnum, lden));
            transition(
                &mut state.instances,
                events,
                &key,
                &rule_str,
                label,
                short,
                short && long,
                tick,
                value_pm as i64,
                rule.threshold_pm as i64,
            );
            // A label with no open alert and no data left in its ring
            // stops being tracked (keeps the persisted state compact).
            if !state.instances.contains_key(&key)
                && state.rings[&key].iter().all(|&(n, d)| n == 0 && d == 0)
            {
                state.rings.remove(&key);
            }
        };
        match rule.metric {
            SloMetric::Usable => {
                // Every location seen this window plus every location
                // still tracked by this rule, in sorted order.
                let prefix = format!("s{i}|");
                let mut labels: BTreeSet<String> = m.capture.keys().cloned().collect();
                labels.extend(
                    state
                        .rings
                        .keys()
                        .filter_map(|k| k.strip_prefix(&prefix))
                        .map(|l| l.to_string()),
                );
                for loc in labels {
                    let (usable, total) = m.capture.get(&loc).copied().unwrap_or((0, 0));
                    step(state, &mut events, &loc, usable, total);
                }
            }
            SloMetric::DeadLetter => step(state, &mut events, "", m.dead.0, m.dead.1),
            SloMetric::IoFault => step(state, &mut events, "", m.iofault.0, m.iofault.1),
            SloMetric::Retry => step(state, &mut events, "", m.retry.0, m.retry.1),
        }
    }

    for (i, rule) in config.drift.iter().enumerate() {
        let (x, has_data) = match rule.metric {
            DriftMetric::Cmp => (
                if m.cmp.1 > 0 {
                    rate_pm(m.cmp.0, m.cmp.1)
                } else {
                    0
                },
                m.cmp.1 > 0,
            ),
            DriftMetric::Throughput => (m.pairs, m.pairs > 0),
        };
        if !has_data {
            // A window with no signal neither updates the EWMA nor
            // resolves an open alert — no verdict either way.
            continue;
        }
        let key = format!("d{i}");
        let rule_str = rule.to_string();
        let ds = state.drift.entry(key.clone()).or_default();
        let x_m = (x as i64).saturating_mul(1000);
        let (z_centi, armed) = if ds.seen == 0 {
            (0i64, false)
        } else {
            let diff = x_m - ds.mean_m;
            // MAD floor of 1.0 natural unit: a flat series must not
            // turn rounding noise into infinite z-scores.
            (
                diff.abs().saturating_mul(100) / ds.mad_m.max(1000),
                ds.seen >= rule.warmup,
            )
        };
        if ds.seen == 0 {
            ds.mean_m = x_m;
            ds.mad_m = 0;
        } else {
            let diff = x_m - ds.mean_m;
            ds.mean_m += diff / 8;
            ds.mad_m += (diff.abs() - ds.mad_m) / 8;
        }
        ds.seen += 1;
        let breach = armed && z_centi as u64 >= rule.z_centi;
        transition(
            &mut state.instances,
            &mut events,
            &key,
            &rule_str,
            "",
            breach,
            breach,
            tick,
            z_centi,
            rule.z_centi as i64,
        );
    }

    if let Some(rule) = &config.gap {
        let rule_str = rule.to_string();
        for (loc, (usable, _)) in &m.capture {
            match state.gap.get_mut(loc) {
                None => {
                    // First sight of this location: a usable capture
                    // anchors the gap at this tick; an unusable-only
                    // window anchors it at the window start.
                    let anchor = if *usable > 0 { tick } else { from };
                    state.gap.insert(loc.clone(), anchor);
                }
                Some(last) => {
                    if *usable > 0 {
                        *last = tick;
                    }
                }
            }
        }
        for (loc, last) in state.gap.clone() {
            let gap = tick.saturating_sub(last);
            transition(
                &mut state.instances,
                &mut events,
                &format!("g|{loc}"),
                &rule_str,
                &loc,
                gap >= rule.ticks,
                gap >= 2 * rule.ticks,
                tick,
                gap as i64,
                rule.ticks as i64,
            );
        }
    }

    events
}

/// Serialize the engine state (plus config and cursor) as the
/// `watch-state` checkpoint blob: one compact JSON object, trailing
/// newline, byte-deterministic.
fn export_state(config: &WatchConfig, state: &EngineState, last_tick: u64) -> String {
    let instances = Json::object(state.instances.iter().map(|(k, inst)| {
        let mut fields: Vec<(String, Json)> = vec![
            (
                "phase".to_string(),
                Json::str(match inst.phase {
                    Phase::Pending => "pending",
                    Phase::Firing => "firing",
                }),
            ),
            ("opened".to_string(), Json::int(inst.opened as i64)),
        ];
        if let Some(f) = inst.fired {
            fields.push(("fired".to_string(), Json::int(f as i64)));
        }
        (k.clone(), Json::object(fields))
    }));
    let rings = Json::object(state.rings.iter().map(|(k, ring)| {
        (
            k.clone(),
            Json::array(
                ring.iter()
                    .map(|&(n, d)| Json::array([Json::int(n as i64), Json::int(d as i64)])),
            ),
        )
    }));
    let drift = Json::object(state.drift.iter().map(|(k, ds)| {
        (
            k.clone(),
            Json::object([
                ("mean_m".to_string(), Json::int(ds.mean_m)),
                ("mad_m".to_string(), Json::int(ds.mad_m)),
                ("seen".to_string(), Json::int(ds.seen as i64)),
            ]),
        )
    }));
    let gap = Json::object(
        state
            .gap
            .iter()
            .map(|(k, v)| (k.clone(), Json::int(*v as i64))),
    );
    let doc = Json::object([
        ("kind".to_string(), Json::str("watch_state")),
        ("schema".to_string(), Json::int(WATCH_SCHEMA_VERSION)),
        ("config".to_string(), Json::str(config.to_string())),
        ("last_tick".to_string(), Json::int(last_tick as i64)),
        ("instances".to_string(), instances),
        ("rings".to_string(), rings),
        ("drift".to_string(), drift),
        ("gap".to_string(), gap),
    ]);
    let mut out = doc.to_compact();
    out.push('\n');
    out
}

/// The value as `u64`, if it is an integral number in range (like
/// [`Json::as_u32`]): a negative, fractional or oversized number in a
/// persisted blob is malformed, not something to round.
fn json_u64(j: &Json) -> Option<u64> {
    j.as_f64()
        .filter(|f| f.fract() == 0.0 && *f >= 0.0 && *f < u64::MAX as f64)
        .map(|f| f as u64)
}

/// The value as `i64`, if it is an integral number in range.
fn json_i64(j: &Json) -> Option<i64> {
    j.as_f64()
        .filter(|f| f.fract() == 0.0 && *f >= i64::MIN as f64 && *f < i64::MAX as f64)
        .map(|f| f as i64)
}

/// Parse a state blob back, validating kind, schema, and that the
/// persisting run used the same rule config (resuming under different
/// rules voids the byte-identity contract, so it restarts fresh).
fn import_state(config: &WatchConfig, blob: &str) -> Result<(EngineState, u64), String> {
    let doc = Json::parse(blob.trim_end()).map_err(|e| format!("unparseable watch state: {e}"))?;
    if doc.get("kind").and_then(Json::as_str) != Some("watch_state") {
        return Err("not a watch_state blob".to_string());
    }
    if doc.get("schema").and_then(Json::as_u32) != Some(WATCH_SCHEMA_VERSION as u32) {
        return Err("unsupported watch_state schema".to_string());
    }
    let persisted = doc.get("config").and_then(Json::as_str).unwrap_or("");
    if persisted != config.to_string() {
        return Err(format!(
            "watch config changed (checkpoint: {persisted}, now: {config})"
        ));
    }
    let last_tick = doc
        .get("last_tick")
        .and_then(json_u64)
        .ok_or("missing last_tick")?;
    let mut state = EngineState::default();
    if let Some(obj) = doc.get("instances").and_then(Json::as_object) {
        for (k, v) in obj {
            let phase = match v.get("phase").and_then(Json::as_str) {
                Some("pending") => Phase::Pending,
                Some("firing") => Phase::Firing,
                _ => return Err(format!("bad phase for instance {k}")),
            };
            let opened = v.get("opened").and_then(json_u64).ok_or("missing opened")?;
            let fired = v.get("fired").and_then(json_u64);
            state.instances.insert(
                k.clone(),
                Instance {
                    phase,
                    opened,
                    fired,
                },
            );
        }
    }
    if let Some(obj) = doc.get("rings").and_then(Json::as_object) {
        for (k, v) in obj {
            let ring = v
                .as_array()
                .ok_or("ring is not an array")?
                .iter()
                .map(|pair| {
                    let n = pair.at(0).and_then(json_u64)?;
                    let d = pair.at(1).and_then(json_u64)?;
                    Some((n, d))
                })
                .collect::<Option<VecDeque<_>>>()
                .ok_or("bad ring entry")?;
            state.rings.insert(k.clone(), ring);
        }
    }
    if let Some(obj) = doc.get("drift").and_then(Json::as_object) {
        for (k, v) in obj {
            state.drift.insert(
                k.clone(),
                DriftState {
                    mean_m: v.get("mean_m").and_then(json_i64).ok_or("missing mean_m")?,
                    mad_m: v.get("mad_m").and_then(json_i64).ok_or("missing mad_m")?,
                    seen: v.get("seen").and_then(json_u64).ok_or("missing seen")?,
                },
            );
        }
    }
    if let Some(obj) = doc.get("gap").and_then(Json::as_object) {
        for (k, v) in obj {
            state
                .gap
                .insert(k.clone(), json_u64(v).ok_or("bad gap tick")?);
        }
    }
    Ok((state, last_tick))
}

/// A staged (not yet durable) observation: the end of the evaluated
/// window and the state and events whose blob went into the checkpoint
/// attempt.
struct Staged {
    tick: u64,
    state: EngineState,
    events: Vec<AlertEvent>,
}

struct WatchInner {
    /// End of the last committed window (or of the imported one); 0
    /// until then, since every window ends past 0.
    last_tick: u64,
    state: EngineState,
    events: VecDeque<AlertEvent>,
    capacity: usize,
    dropped: u64,
    staged: Option<Staged>,
}

/// The watchdog attached to one campaign run (see the
/// [crate docs](crate)).
pub struct Watch {
    /// Where the watch publishes its own alert counters and gauges.
    registry: &'static Registry,
    config: WatchConfig,
    inner: Mutex<WatchInner>,
}

impl std::fmt::Debug for Watch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Watch")
            .field("config", &self.config.to_string())
            .field("events", &inner.events.len())
            .field("last_tick", &inner.last_tick)
            .finish()
    }
}

impl Watch {
    /// Attach a watch with `config` that publishes its alert counters
    /// and gauges into `registry` (see [`commit`](Self::commit)). The
    /// windows it judges come from the caller, through
    /// [`stage`](Self::stage). Retains up to 4096 alert events (oldest
    /// evicted beyond that, counted in [`dropped`](Self::dropped)).
    pub fn attach(registry: &'static Registry, config: WatchConfig) -> Arc<Watch> {
        Arc::new(Watch {
            registry,
            config,
            inner: Mutex::new(WatchInner {
                last_tick: 0,
                state: EngineState::default(),
                events: VecDeque::new(),
                capacity: 4096,
                dropped: 0,
                staged: None,
            }),
        })
    }

    /// The rule configuration this watch evaluates.
    pub fn config(&self) -> &WatchConfig {
        &self.config
    }

    /// True when this watch has observed nothing and holds no state —
    /// the only condition under which [`import_state`](Self::import_state)
    /// is allowed.
    pub fn is_fresh(&self) -> bool {
        let inner = self.inner.lock();
        inner.last_tick == 0 && inner.state == EngineState::default()
    }

    /// Restore detector state persisted by a previous incarnation
    /// (the `watch-state` checkpoint section). Fails if this watch has
    /// already observed traffic or if the blob was written under a
    /// different rule config.
    pub fn import_state(&self, blob: &str) -> Result<(), String> {
        if !self.is_fresh() {
            return Err("watch already has state; import only before the first window".into());
        }
        let (state, last_tick) = import_state(&self.config, blob)?;
        let mut inner = self.inner.lock();
        inner.state = state;
        inner.last_tick = last_tick;
        Ok(())
    }

    /// Stage the window `(from, to]`: evaluate every rule on `delta`,
    /// the registry traffic of that window, and return the post-window
    /// state blob for the checkpoint write that will close it. Staging
    /// again replaces the staged observation, so the driver re-stages
    /// at every write attempt. Nothing becomes observable until
    /// [`commit`](Self::commit); [`abort`](Self::abort) (or a process
    /// death) discards it. Returns `None` when the window is empty or
    /// ends at or before the last committed tick.
    pub fn stage(&self, (from, to): (u64, u64), delta: &Snapshot) -> Option<String> {
        let mut inner = self.inner.lock();
        if to <= from.max(inner.last_tick) {
            return None;
        }
        let mut state = inner.state.clone();
        let events = eval(&self.config, &mut state, (from, to), &delta.counters);
        let blob = export_state(&self.config, &state, to);
        inner.staged = Some(Staged {
            tick: to,
            state,
            events,
        });
        Some(blob)
    }

    /// Make the staged observation durable-visible: record the alert
    /// events and publish lifecycle counters (`watch.alert{rule,state}`)
    /// and firing/pending gauges into the attached registry, while it
    /// is enabled. No-op without a staged observation.
    pub fn commit(&self) {
        let mut inner = self.inner.lock();
        let Some(staged) = inner.staged.take() else {
            return;
        };
        inner.last_tick = staged.tick;
        inner.state = staged.state;
        let enabled = self.registry.enabled();
        for ev in staged.events {
            if enabled {
                self.registry
                    .counter_labeled("watch.alert", &[("rule", &ev.rule), ("state", ev.state)])
                    .add(1);
            }
            if inner.events.len() == inner.capacity {
                inner.events.pop_front();
                inner.dropped += 1;
            }
            inner.events.push_back(ev);
        }
        if enabled {
            let firing = inner.state.firing() as i64;
            let pending = inner.state.instances.len() as i64 - firing;
            for (name, v) in [
                ("watch.alerts.firing", firing),
                ("watch.alerts.pending", pending),
            ] {
                self.registry.gauge(name).set(v);
            }
        }
    }

    /// Discard the staged observation (the checkpoint write was skipped
    /// or torn): the window stays open and the next
    /// [`stage`](Self::stage) covers it too.
    pub fn abort(&self) {
        self.inner.lock().staged = None;
    }

    /// Alert events recorded by this incarnation, oldest first.
    pub fn events(&self) -> Vec<AlertEvent> {
        self.inner.lock().events.iter().cloned().collect()
    }

    /// Number of retained alert events.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// Is the event log empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Alerts currently in the firing phase.
    pub fn firing(&self) -> usize {
        self.inner.lock().state.firing()
    }

    /// Export this incarnation's alert events as `ALERTS_*.jsonl`: one
    /// compact JSON object per line, trailing newline. An empty log
    /// exports the empty string, so a resumed process can append its
    /// export to the previous incarnation's and the concatenation reads
    /// as one well-formed stream.
    pub fn export_jsonl(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::new();
        for ev in &inner.events {
            out.push_str(&ev.to_json().to_compact());
            out.push('\n');
        }
        out
    }

    /// One summary line per firing transition, for the supervisor's
    /// `HealthReport` annotation.
    pub fn fired_summaries(&self) -> Vec<String> {
        self.inner
            .lock()
            .events
            .iter()
            .filter(|e| e.state == "firing")
            .map(|e| {
                let label = if e.label.is_empty() {
                    String::new()
                } else {
                    format!(" [{}]", e.label)
                };
                format!(
                    "{}{} fired @{} (value {}, threshold {})",
                    e.rule, label, e.tick, e.value, e.threshold
                )
            })
            .collect()
    }

    /// This incarnation's alerts aggregated per id (latest state wins),
    /// for the flight report's alerts section. Ordered by first
    /// appearance.
    pub fn flight_alerts(&self) -> Vec<FlightAlert> {
        let inner = self.inner.lock();
        let mut order: Vec<String> = Vec::new();
        let mut by_id: BTreeMap<String, FlightAlert> = BTreeMap::new();
        for ev in &inner.events {
            let entry = by_id.entry(ev.id.clone()).or_insert_with(|| {
                order.push(ev.id.clone());
                FlightAlert {
                    id: ev.id.clone(),
                    rule: ev.rule.clone(),
                    label: ev.label.clone(),
                    state: ev.state.to_string(),
                    opened: ev.opened,
                    fired: ev.fired,
                    resolved: None,
                    value: ev.value,
                    threshold: ev.threshold,
                }
            });
            entry.state = ev.state.to_string();
            entry.fired = ev.fired.or(entry.fired);
            if ev.state == "resolved" {
                entry.resolved = Some(ev.tick);
            }
            entry.value = ev.value;
            entry.threshold = ev.threshold;
        }
        order
            .into_iter()
            .filter_map(|id| by_id.remove(&id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{DriftRule, GapRule, SloRule};

    /// Stage the window `(from, to]` with these counter deltas and
    /// commit it, as the durable driver does at a cut whose write
    /// succeeds.
    fn observe(w: &Watch, window: (u64, u64), counters: &[(&str, u64)]) {
        let delta = Snapshot {
            counters: counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            ..Snapshot::default()
        };
        w.stage(window, &delta);
        w.commit();
    }

    fn leaked_registry() -> &'static Registry {
        Box::leak(Box::new(Registry::new()))
    }

    fn usable_watch(threshold_pm: u64, long_windows: u64) -> Arc<Watch> {
        Watch::attach(
            leaked_registry(),
            WatchConfig {
                slo: vec![SloRule {
                    metric: SloMetric::Usable,
                    threshold_pm,
                    long_windows,
                }],
                ..WatchConfig::none()
            },
        )
    }

    #[test]
    fn slo_usable_walks_pending_firing_resolved() {
        let w = usable_watch(700, 2);
        let bad = &[
            ("capture_db.insert{location=EU cloud,status=Ok}", 1u64),
            (
                "capture_db.insert{location=EU cloud,status=ConnectionReset}",
                4,
            ),
        ][..];
        let good = &[("capture_db.insert{location=EU cloud,status=Ok}", 5u64)][..];
        // Window 1: short breach only (long window not full) → pending.
        observe(&w, (0, 5), bad);
        // Window 2: short + long breach → firing.
        observe(&w, (5, 10), bad);
        // Window 3: healthy → resolved.
        observe(&w, (10, 15), good);
        let states: Vec<&str> = w.events().iter().map(|e| e.state).collect();
        assert_eq!(states, vec!["pending", "firing", "resolved"]);
        let evs = w.events();
        assert_eq!(evs[0].tick, 5);
        assert_eq!(evs[1].tick, 10);
        assert_eq!(evs[2].tick, 15);
        assert_eq!(evs[0].opened, 5);
        assert_eq!(evs[2].fired, Some(10));
        assert!(
            evs.iter().all(|e| e.id == evs[0].id),
            "one lifecycle, one id"
        );
        assert_eq!(evs[0].label, "EU cloud");
        assert_eq!(evs[0].value, 200, "1 usable of 5 = 200pm");
        assert_eq!(w.firing(), 0);
    }

    #[test]
    fn slo_threshold_is_not_a_breach_without_data() {
        let w = usable_watch(700, 1);
        observe(&w, (0, 5), &[("campaign.progress", 5)]);
        assert!(w.events().is_empty(), "no captures → no usable verdict");
    }

    #[test]
    fn drift_fires_on_throughput_step_change() {
        let w = Watch::attach(
            leaked_registry(),
            WatchConfig {
                drift: vec![DriftRule {
                    metric: DriftMetric::Throughput,
                    z_centi: 300,
                    warmup: 2,
                }],
                ..WatchConfig::none()
            },
        );
        for i in 1..=4u64 {
            observe(&w, ((i - 1) * 5, i * 5), &[("campaign.progress", 5)]);
        }
        assert!(w.events().is_empty(), "flat series never drifts");
        // Throughput collapses 5 → 1: |1000 - 5000| / max(mad,1000) ≫ 3σ.
        observe(&w, (20, 21), &[("campaign.progress", 1)]);
        let states: Vec<&str> = w.events().iter().map(|e| e.state).collect();
        assert_eq!(states, vec!["pending", "firing"], "drift fires immediately");
        assert_eq!(w.firing(), 1);
        // Back to normal: resolved (EWMA only absorbed 1/8 of the dip).
        observe(&w, (21, 26), &[("campaign.progress", 5)]);
        assert_eq!(w.events().last().unwrap().state, "resolved");
    }

    #[test]
    fn coverage_gap_pending_then_firing_then_resolved_by_usable_capture() {
        let w = Watch::attach(
            leaked_registry(),
            WatchConfig {
                gap: Some(GapRule { ticks: 5 }),
                ..WatchConfig::none()
            },
        );
        let usable = &[("capture_db.insert{location=EU cloud,status=Ok}", 2u64)][..];
        let blocked = &[(
            "capture_db.insert{location=EU cloud,status=LegallyBlocked}",
            2u64,
        )][..];
        observe(&w, (0, 5), usable);
        assert!(w.events().is_empty());
        observe(&w, (5, 10), blocked); // gap 5 → pending
        observe(&w, (10, 15), blocked); // gap 10 → firing (2×)
        observe(&w, (15, 20), usable); // usable again → resolved
        let states: Vec<&str> = w.events().iter().map(|e| e.state).collect();
        assert_eq!(states, vec!["pending", "firing", "resolved"]);
        assert_eq!(w.events()[1].value, 10, "gap in ticks");
    }

    #[test]
    fn stage_commit_abort_protocol() {
        let reg = leaked_registry();
        let w = Watch::attach(
            reg,
            WatchConfig {
                slo: vec![SloRule {
                    metric: SloMetric::DeadLetter,
                    threshold_pm: 300,
                    long_windows: 1,
                }],
                ..WatchConfig::none()
            },
        );
        reg.counter("campaign.outcome{outcome=permanent}").add(4);
        reg.counter("campaign.outcome{outcome=success}").add(1);
        let delta = reg.snapshot();
        assert!(w.stage((5, 5), &delta).is_none(), "empty window");
        let blob = w.stage((0, 5), &delta).expect("window is open");
        assert!(blob.contains("watch_state"));
        assert!(w.events().is_empty(), "staged events are not visible");
        w.abort();
        w.commit();
        assert!(w.events().is_empty(), "an aborted stage never commits");
        // Same window, staged again and committed this time.
        let blob2 = w
            .stage((0, 5), &delta)
            .expect("abort keeps the window open");
        assert_eq!(blob, blob2, "staging is repeatable");
        w.commit();
        let states: Vec<&str> = w.events().iter().map(|e| e.state).collect();
        assert_eq!(states, vec!["pending", "firing"]);
        assert!(
            w.stage((0, 5), &delta).is_none(),
            "committed ticks never re-stage"
        );
        // The alert counters and gauges land in the attached registry.
        let after = reg.snapshot();
        assert_eq!(
            after.counter("watch.alert{rule=slo:deadletter:300:1,state=firing}"),
            1
        );
        assert_eq!(after.gauges.get("watch.alerts.firing"), Some(&1));
    }

    #[test]
    fn state_blob_round_trips_into_a_fresh_watch() {
        let reg = leaked_registry();
        let config =
            WatchConfig::parse("slo:deadletter:300:2;drift:throughput:300:2;gap:9").unwrap();
        let w = Watch::attach(reg, config.clone());
        reg.counter("campaign.outcome{outcome=permanent}").add(3);
        reg.counter("campaign.progress").add(5);
        reg.counter("capture_db.insert{location=EU cloud,status=Ok}")
            .add(2);
        let blob = w.stage((0, 5), &reg.snapshot()).unwrap();
        w.commit();

        let w2 = Watch::attach(leaked_registry(), config.clone());
        assert!(w2.is_fresh());
        w2.import_state(&blob).expect("blob imports");
        assert!(!w2.is_fresh());
        // Continuing from the blob reproduces the uninterrupted state.
        let base = reg.snapshot();
        reg.counter("campaign.progress").add(4);
        let next = reg.delta(&base);
        assert_eq!(w2.stage((5, 9), &next), w.stage((5, 9), &next));
        // Mismatched config is rejected.
        let w3 = Watch::attach(
            leaked_registry(),
            WatchConfig::parse("slo:deadletter:301:2").unwrap(),
        );
        assert!(w3.import_state(&blob).is_err());
        // A used watch refuses imports.
        assert!(w.import_state(&blob).is_err());
    }

    #[test]
    fn state_blob_with_unrepresentable_numbers_is_rejected() {
        let reg = leaked_registry();
        let config = WatchConfig::parse("drift:throughput:300:2").unwrap();
        let w = Watch::attach(reg, config.clone());
        reg.counter("campaign.progress").add(5);
        let blob = w.stage((0, 5), &reg.snapshot()).unwrap();
        w.commit();
        let (head, tail) = blob
            .split_once("\"seen\":")
            .expect("blob has a drift entry");
        let digits = tail.find(|c: char| !c.is_ascii_digit()).unwrap();
        let with_seen = |value: &str| format!("{head}\"seen\":{value}{}", &tail[digits..]);

        let intact = Watch::attach(leaked_registry(), config.clone());
        intact
            .import_state(&with_seen(&tail[..digits]))
            .expect("blob imports");
        for bad in ["-1", "2.5", "1e30"] {
            let fresh = Watch::attach(leaked_registry(), config.clone());
            assert!(
                fresh.import_state(&with_seen(bad)).is_err(),
                "seen={bad} imported"
            );
            assert!(fresh.is_fresh(), "a rejected blob leaves the watch fresh");
        }
    }

    #[test]
    fn export_jsonl_is_parseable_and_empty_when_no_events() {
        let w = usable_watch(700, 1);
        assert_eq!(w.export_jsonl(), "", "empty log exports empty string");
        observe(
            &w,
            (0, 5),
            &[("capture_db.insert{location=EU cloud,status=HttpError}", 3)],
        );
        let out = w.export_jsonl();
        assert_eq!(out.lines().count(), 2);
        for line in out.lines() {
            let j = Json::parse(line).expect("valid JSON");
            assert_eq!(j.get("kind").and_then(Json::as_str), Some("alert"));
            assert_eq!(j.get("schema").and_then(Json::as_u32), Some(1));
            assert!(j.get("id").and_then(Json::as_str).unwrap().len() == 16);
        }
    }

    #[test]
    fn flight_alerts_aggregate_lifecycles() {
        let w = usable_watch(700, 1);
        let bad = &[(
            "capture_db.insert{location=EU cloud,status=HttpError}",
            3u64,
        )][..];
        let good = &[("capture_db.insert{location=EU cloud,status=Ok}", 3u64)][..];
        observe(&w, (0, 5), bad);
        observe(&w, (5, 10), good);
        let rows = w.flight_alerts();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].state, "resolved");
        assert_eq!(rows[0].opened, 5);
        assert_eq!(rows[0].fired, Some(5));
        assert_eq!(rows[0].resolved, Some(10));
    }
}
