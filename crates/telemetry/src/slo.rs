//! Declarative SLO evaluation over the live instruments (`QCF_SLO`).
//!
//! The registry, sampler, ledger mirrors and latency sketches measure
//! everything but judge nothing. This module closes the loop: an
//! [`SloSpec`] declares *objectives* — named inequalities over registry
//! keys and derived signals — and a multi-window burn-rate evaluator
//! checks them against the [`crate::timeseries`] ring, driving each
//! objective through a deterministic `Ok → Pending → Firing → Resolved`
//! alert lifecycle.
//!
//! ## Spec grammar
//!
//! `QCF_SLO` is either inline rules or `@<path>` / a readable file path
//! whose contents are the rules. Clauses are separated by `;` or
//! newlines; `#` starts a comment. Directive clauses:
//!
//! * `windows=F/S` — fast/slow evaluation windows in *samples*
//!   (defaults 6/24; wall time is `samples · interval · stride`);
//! * `pending=N` — consecutive breaching ticks before a pending alert
//!   fires (default 2);
//! * `resolve=N` — consecutive clean ticks before a firing alert
//!   resolves (default 3).
//!
//! Objective clauses are `NAME: EXPR <= VALUE` or `NAME: EXPR >= VALUE`
//! where `VALUE` is a float with an optional `k`/`m`/`g` binary suffix
//! and `EXPR` is one of:
//!
//! * `KEY` — level signal: mean over the window of the key's sampled
//!   value (counter, gauge, float gauge, or histogram count);
//! * `p50(KEY)` / `p90(KEY)` / `p95(KEY)` / `p99(KEY)` — latency
//!   quantile of histogram `KEY` over the window (bucket *deltas*, so a
//!   quiet window is judged on its own events, not the whole run);
//! * `rate(KEY)` — counter increase per second over the window;
//! * `hitrate(A, B)` — `ΔA / (ΔA + ΔB)` over the window (cache and
//!   prefetch hit rates).
//!
//! ```text
//! QCF_SLO="latency.stall: rate(state.prefetch.stall_us) <= 100000; \
//!          fidelity.quarantine: state.ledger.quarantines <= 0"
//! ```
//!
//! A signal with no data in the window (key never sampled, zero
//! denominator, empty quantile window) is a *hold*: the tick neither
//! breaches nor clears, so alerts never resolve merely because the
//! signal went dark.
//!
//! ## Burn-rate evaluation and lifecycle
//!
//! Each tick evaluates every objective over both windows; a tick
//! *breaches* only when **both** the fast and the slow window violate
//! the inequality — the fast window catches a fresh burn quickly, the
//! slow window keeps one spiky sample from flapping an alert. The
//! lifecycle applies deterministic hysteresis on top:
//!
//! * `Ok`/`Resolved` + breach → `Pending` (straight to `Firing` when
//!   `pending=1`);
//! * `Pending` + `pending` consecutive breaches → `Firing`; a single
//!   clean tick demotes `Pending` back to `Ok`;
//! * `Firing` + `resolve` consecutive clean ticks → `Resolved`.
//!
//! Transitions append to a bounded log, become [`crate::journal`] events
//! (kind [`crate::journal::EventKind::Slo`], chunk id
//! [`JOURNAL_BASE`]` + objective index`) and flight-recorder
//! checkpoints, and the engine maintains exact `slo.*` registry
//! counters/gauges — which therefore flow through the Prometheus and
//! NDJSON exporters like every other instrument.
//!
//! ## Arming and cost
//!
//! Exactly the `QCF_FAULTS` pattern: disarmed (the default when
//! `QCF_SLO` is unset), [`tick`] is one relaxed atomic load. Armed, the
//! sampler drives [`tick`] once per retained sample; engine hot paths
//! never call into this module. [`evaluate_ring`] is the pure replay of
//! the same machine over a finished ring — `qcfz slo` and tests use it
//! for fully deterministic verdicts.

use crate::lock_unpoisoned;
use crate::metrics::{quantile_from_buckets, Snapshot};
use crate::timeseries::Sample;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// 0 = uninitialized, 1 = armed, 2 = disarmed.
static ARMED: AtomicU8 = AtomicU8::new(0);

/// Transitions retained in the log; older ones are dropped and counted.
pub const TRANSITION_LOG: usize = 256;

/// Journal chunk-id base for SLO alert events: objective `i` journals to
/// chunk `JOURNAL_BASE + i`, far above any real chunk index, so alert
/// chains and chunk chains share one sequence-ordered journal without
/// id collisions.
pub const JOURNAL_BASE: u64 = 1 << 62;

/// Comparison direction of an objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Signal must stay `<= threshold` (budgets, latency ceilings).
    Le,
    /// Signal must stay `>= threshold` (hit rates, throughput floors).
    Ge,
}

impl Op {
    /// Exact spec-grammar token.
    pub fn label(self) -> &'static str {
        match self {
            Op::Le => "<=",
            Op::Ge => ">=",
        }
    }

    /// True when `value` breaks the objective (NaN compares as a break:
    /// a signal that answers garbage is not meeting its service level).
    pub fn violated(self, value: f64, threshold: f64) -> bool {
        if value.is_nan() {
            return true;
        }
        match self {
            Op::Le => value > threshold,
            Op::Ge => value < threshold,
        }
    }
}

/// A derived signal expression (see the module docs for the grammar).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Mean of the key's sampled value over the window.
    Level(String),
    /// Histogram quantile over the window's bucket deltas.
    Quantile(String, f64),
    /// Counter increase per second over the window.
    Rate(String),
    /// `Δhits / (Δhits + Δmisses)` over the window.
    HitRate(String, String),
}

impl Expr {
    /// The expression in spec-grammar form (round-trips through
    /// [`SloSpec::parse`]).
    pub fn to_text(&self) -> String {
        match self {
            Expr::Level(k) => k.clone(),
            Expr::Quantile(k, q) => format!("p{:.0}({k})", q * 100.0),
            Expr::Rate(k) => format!("rate({k})"),
            Expr::HitRate(a, b) => format!("hitrate({a}, {b})"),
        }
    }
}

/// One declared objective: `name: expr op threshold`.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// Dotted name (`dimension.detail`), also the alert name.
    pub name: String,
    /// The signal under judgment.
    pub expr: Expr,
    /// Comparison direction.
    pub op: Op,
    /// The service-level target.
    pub threshold: f64,
}

impl Objective {
    /// The objective as one spec-grammar clause.
    pub fn to_text(&self) -> String {
        format!(
            "{}: {} {} {}",
            self.name,
            self.expr.to_text(),
            self.op.label(),
            fmt_threshold(self.threshold)
        )
    }
}

/// A parsed SLO specification: evaluation parameters plus objectives.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Fast window length in samples.
    pub fast: usize,
    /// Slow window length in samples (≥ fast).
    pub slow: usize,
    /// Consecutive breaching ticks before `Pending` promotes to `Firing`.
    pub pending_for: u32,
    /// Consecutive clean ticks before `Firing` demotes to `Resolved`.
    pub resolve_after: u32,
    /// Declared objectives, spec order.
    pub objectives: Vec<Objective>,
}

impl Default for SloSpec {
    fn default() -> Self {
        SloSpec {
            fast: 6,
            slow: 24,
            pending_for: 2,
            resolve_after: 3,
            objectives: Vec::new(),
        }
    }
}

impl SloSpec {
    /// The built-in objectives: the paper's viability claims restated as
    /// service levels. Thresholds are deliberately forgiving — a clean
    /// in-core run must stay green; they exist to catch fault storms,
    /// budget blowouts and pathological device latency, not jitter.
    /// `QCF_MEM_BUDGET` (when set) tightens the capacity envelope to
    /// 1.5× the declared budget.
    pub fn defaults() -> Self {
        let mut spec = SloSpec::default();
        let resident_cap = match crate::config::config().mem_budget {
            // Enforcement keeps residency at or under budget; 1.5×
            // headroom means only a broken enforcer fires this.
            Some(b) => (b as f64) * 1.5,
            None => 2.0 * 1024.0 * 1024.0 * 1024.0,
        };
        let mut obj = |name: &str, expr: Expr, op: Op, threshold: f64| {
            spec.objectives.push(Objective {
                name: name.to_string(),
                expr,
                op,
                threshold,
            });
        };
        obj(
            "fidelity.quarantine",
            Expr::Level("state.ledger.quarantines".into()),
            Op::Le,
            0.0,
        );
        obj(
            "fidelity.bound",
            Expr::Level("state.ledger.accumulated_rss".into()),
            Op::Le,
            1e-2,
        );
        obj(
            "latency.apply_p99",
            Expr::Quantile("state.apply_us".into(), 0.99),
            Op::Le,
            100_000.0,
        );
        obj(
            "latency.decode_p95",
            Expr::Quantile("state.decode_us".into(), 0.95),
            Op::Le,
            100_000.0,
        );
        obj(
            "latency.stall",
            Expr::Rate("state.prefetch.stall_us".into()),
            Op::Le,
            200_000.0,
        );
        // The efficiency signal is the schedule-aware prefetcher's hit
        // rate: CI already demands it cover half the fetches, and the
        // signal simply holds when nothing ever spills.
        obj(
            "efficiency.prefetch",
            Expr::HitRate("state.prefetch.hits".into(), "state.prefetch.misses".into()),
            Op::Ge,
            0.5,
        );
        obj(
            "capacity.resident",
            Expr::Level("state.resident_bytes".into()),
            Op::Le,
            resident_cap,
        );
        // Compaction keeps the spill log's dead space churn-proportional
        // (at most ~4x the live payload plus the 4 KiB floor); a log that
        // accumulates a megabyte of dead records means the compactor
        // stopped running and a long-lived session is leaking disk.
        obj(
            "capacity.spill_dead",
            Expr::Level("state.spill.dead_bytes".into()),
            Op::Le,
            1e6,
        );
        spec
    }

    /// The spec the process should run: `QCF_SLO` when set (inline rules,
    /// or `@path`/path to a rules file), the built-in defaults otherwise.
    pub fn active() -> Self {
        crate::config::config()
            .slo
            .clone()
            .unwrap_or_else(Self::defaults)
    }

    /// Parses an env-style value: `@path` or a readable file path loads
    /// the file, anything else parses inline.
    pub fn from_env_value(raw: &str) -> Result<Self, String> {
        let raw = raw.trim();
        let text = if let Some(path) = raw.strip_prefix('@') {
            std::fs::read_to_string(path.trim())
                .map_err(|e| format!("cannot read SLO file {path:?}: {e}"))?
        } else if !raw.contains([':', ';', '\n', '=']) && std::path::Path::new(raw).is_file() {
            std::fs::read_to_string(raw)
                .map_err(|e| format!("cannot read SLO file {raw:?}: {e}"))?
        } else {
            raw.to_string()
        };
        Self::parse(&text)
    }

    /// Parses rules text (see the module docs for the grammar).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut spec = SloSpec::default();
        for clause in text.split([';', '\n']) {
            let clause = clause.split('#').next().unwrap_or("").trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(v) = clause.strip_prefix("windows=") {
                let (f, s) = v
                    .split_once('/')
                    .ok_or_else(|| format!("windows wants F/S in {clause:?}"))?;
                spec.fast = f
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad fast window in {clause:?}"))?;
                spec.slow = s
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad slow window in {clause:?}"))?;
                if spec.fast == 0 || spec.slow < spec.fast {
                    return Err(format!("need 0 < fast <= slow in {clause:?}"));
                }
                continue;
            }
            if let Some(v) = clause.strip_prefix("pending=") {
                spec.pending_for = parse_positive(v, clause)?;
                continue;
            }
            if let Some(v) = clause.strip_prefix("resolve=") {
                spec.resolve_after = parse_positive(v, clause)?;
                continue;
            }
            let (name, rest) = clause
                .split_once(':')
                .ok_or_else(|| format!("expected NAME: EXPR OP VALUE in {clause:?}"))?;
            let name = name.trim();
            if name.is_empty()
                || !name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
            {
                return Err(format!("bad objective name {name:?}"));
            }
            if spec.objectives.iter().any(|o| o.name == name) {
                return Err(format!("duplicate objective {name:?}"));
            }
            let (expr_txt, op, thr_txt) = if let Some((e, t)) = rest.split_once("<=") {
                (e, Op::Le, t)
            } else if let Some((e, t)) = rest.split_once(">=") {
                (e, Op::Ge, t)
            } else {
                return Err(format!("expected <= or >= in {clause:?}"));
            };
            let threshold = parse_threshold(thr_txt.trim())
                .ok_or_else(|| format!("bad threshold {:?} in {clause:?}", thr_txt.trim()))?;
            spec.objectives.push(Objective {
                name: name.to_string(),
                expr: parse_expr(expr_txt.trim())?,
                op,
                threshold,
            });
        }
        if spec.objectives.is_empty() {
            return Err("no objectives in SLO spec".into());
        }
        Ok(spec)
    }

    /// The spec as rules text ([`SloSpec::parse`] round-trips it).
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "windows={}/{}; pending={}; resolve={}\n",
            self.fast, self.slow, self.pending_for, self.resolve_after
        );
        for o in &self.objectives {
            out.push_str(&o.to_text());
            out.push('\n');
        }
        out
    }
}

fn parse_positive(v: &str, clause: &str) -> Result<u32, String> {
    match v.trim().parse::<u32>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("expected a positive integer in {clause:?}")),
    }
}

/// Threshold literal: float with optional binary `k`/`m`/`g` suffix.
fn parse_threshold(t: &str) -> Option<f64> {
    let lower = t.to_ascii_lowercase();
    let (digits, mul) = if let Some(d) = lower.strip_suffix('k') {
        (d, 1024.0)
    } else if let Some(d) = lower.strip_suffix('m') {
        (d, 1024.0 * 1024.0)
    } else if let Some(d) = lower.strip_suffix('g') {
        (d, 1024.0 * 1024.0 * 1024.0)
    } else {
        (lower.as_str(), 1.0)
    };
    let v: f64 = digits.trim().parse().ok()?;
    v.is_finite().then_some(v * mul)
}

fn fmt_threshold(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v}")
    } else {
        format!("{v:e}")
    }
}

fn parse_expr(e: &str) -> Result<Expr, String> {
    let func = |name: &str| -> Option<&str> {
        e.strip_prefix(name)
            .and_then(|r| r.trim().strip_prefix('('))
            .and_then(|r| r.trim_end().strip_suffix(')'))
    };
    for (prefix, q) in [("p50", 0.50), ("p90", 0.90), ("p95", 0.95), ("p99", 0.99)] {
        if let Some(inner) = func(prefix) {
            return Ok(Expr::Quantile(parse_key(inner)?, q));
        }
    }
    if let Some(inner) = func("rate") {
        return Ok(Expr::Rate(parse_key(inner)?));
    }
    if let Some(inner) = func("hitrate") {
        let (a, b) = inner
            .split_once(',')
            .ok_or_else(|| format!("hitrate wants two keys in {e:?}"))?;
        return Ok(Expr::HitRate(parse_key(a)?, parse_key(b)?));
    }
    Ok(Expr::Level(parse_key(e)?))
}

fn parse_key(k: &str) -> Result<String, String> {
    let k = k.trim();
    if k.is_empty()
        || !k
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
    {
        return Err(format!("bad metric key {k:?}"));
    }
    Ok(k.to_string())
}

// ---------------------------------------------------------------------------
// Signal evaluation
// ---------------------------------------------------------------------------

/// The key's level value in one snapshot: counter value, gauge value,
/// float-gauge value, or histogram event count.
fn level_in(s: &Snapshot, key: &str) -> Option<f64> {
    if let Some(v) = s.counters.get(key) {
        return Some(*v as f64);
    }
    if let Some((v, _)) = s.gauges.get(key) {
        return Some(*v as f64);
    }
    if let Some(v) = s.float_gauges.get(key) {
        return Some(*v);
    }
    s.histograms.get(key).map(|h| h.count as f64)
}

/// Monotone count for rate/hitrate signals: a counter, or a histogram's
/// event count.
fn count_in(s: &Snapshot, key: &str) -> Option<u64> {
    if let Some(v) = s.counters.get(key) {
        return Some(*v);
    }
    s.histograms.get(key).map(|h| h.count)
}

/// Evaluates `expr` over a window of samples (oldest first). `None`
/// means the window carries no signal (hold — neither breach nor clean).
pub fn eval_window(expr: &Expr, window: &[Sample]) -> Option<f64> {
    if window.is_empty() {
        return None;
    }
    match expr {
        Expr::Level(key) => {
            let mut sum = 0.0;
            let mut n = 0u64;
            for s in window {
                if let Some(v) = level_in(&s.metrics, key) {
                    sum += v;
                    n += 1;
                }
            }
            (n > 0).then(|| sum / n as f64)
        }
        Expr::Rate(key) => {
            let (first, last) = (window.first()?, window.last()?);
            let dt_us = last.t_us.saturating_sub(first.t_us);
            if dt_us == 0 {
                return None;
            }
            let a = count_in(&first.metrics, key)?;
            let b = count_in(&last.metrics, key)?;
            Some(b.saturating_sub(a) as f64 * 1e6 / dt_us as f64)
        }
        Expr::HitRate(hit_key, miss_key) => {
            let (first, last) = (window.first()?, window.last()?);
            // A key absent at window start (registered mid-window) reads
            // as zero so the first real events still count.
            let d = |key: &str| -> u64 {
                let a = count_in(&first.metrics, key).unwrap_or(0);
                let b = count_in(&last.metrics, key).unwrap_or(0);
                b.saturating_sub(a)
            };
            let (hits, misses) = (d(hit_key), d(miss_key));
            let total = hits + misses;
            (total > 0).then(|| hits as f64 / total as f64)
        }
        Expr::Quantile(key, q) => {
            let last = window.last()?.metrics.histograms.get(key)?;
            let delta_count;
            let delta_buckets: Vec<(f64, u64)>;
            match window.first().and_then(|s| s.metrics.histograms.get(key)) {
                Some(first) if first.buckets.len() == last.buckets.len() => {
                    delta_count = last.count.saturating_sub(first.count);
                    delta_buckets = last
                        .buckets
                        .iter()
                        .zip(&first.buckets)
                        .map(|(&(bound, b), &(_, a))| (bound, b.saturating_sub(a)))
                        .collect();
                }
                _ => {
                    delta_count = last.count;
                    delta_buckets = last.buckets.clone();
                }
            }
            if delta_count == 0 {
                return None;
            }
            let v = quantile_from_buckets(&delta_buckets, delta_count, *q);
            if v.is_nan() {
                None
            } else {
                Some(v)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Alert lifecycle
// ---------------------------------------------------------------------------

/// Lifecycle state of one objective's alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// No sustained breach observed.
    Ok,
    /// Breaching, not yet long enough to fire.
    Pending,
    /// Sustained breach — the objective is being violated.
    Firing,
    /// Was firing; the breach has cleared.
    Resolved,
}

impl AlertState {
    /// Display / export label.
    pub fn label(self) -> &'static str {
        match self {
            AlertState::Ok => "ok",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }

    /// Stable numeric code for the `slo.state.<name>` gauges.
    pub fn code(self) -> i64 {
        match self {
            AlertState::Ok => 0,
            AlertState::Pending => 1,
            AlertState::Firing => 2,
            AlertState::Resolved => 3,
        }
    }
}

/// One recorded lifecycle transition.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Evaluation tick index (0-based) that caused the transition.
    pub tick: u64,
    /// Timestamp of the sample that closed the window.
    pub t_us: u64,
    /// Objective / alert name.
    pub name: String,
    /// State before.
    pub from: AlertState,
    /// State after.
    pub to: AlertState,
    /// Fast-window signal value at the transition (`NaN` when held).
    pub fast: f64,
    /// Slow-window signal value at the transition (`NaN` when held).
    pub slow: f64,
}

/// One objective's lifecycle machine.
#[derive(Debug, Clone, Default)]
struct Machine {
    state: Option<AlertState>, // None until first tick
    breach_streak: u32,
    clean_streak: u32,
    breach_ticks: u64,
    transitions: u64,
    last_fast: f64,
    last_slow: f64,
}

impl Machine {
    fn state(&self) -> AlertState {
        self.state.unwrap_or(AlertState::Ok)
    }

    /// Advances one tick. `breach` is `None` on hold. Returns the
    /// transition, if any.
    fn step(&mut self, breach: Option<bool>, spec: &SloSpec) -> Option<(AlertState, AlertState)> {
        let from = self.state();
        self.state = Some(from);
        let to = match breach {
            None => from, // hold: no signal, no movement
            Some(true) => {
                self.breach_ticks += 1;
                self.clean_streak = 0;
                self.breach_streak += 1;
                match from {
                    AlertState::Ok | AlertState::Resolved => {
                        self.breach_streak = 1;
                        if spec.pending_for <= 1 {
                            AlertState::Firing
                        } else {
                            AlertState::Pending
                        }
                    }
                    AlertState::Pending if self.breach_streak >= spec.pending_for => {
                        AlertState::Firing
                    }
                    other => other,
                }
            }
            Some(false) => {
                self.breach_streak = 0;
                match from {
                    AlertState::Pending => AlertState::Ok,
                    AlertState::Firing => {
                        self.clean_streak += 1;
                        if self.clean_streak >= spec.resolve_after {
                            AlertState::Resolved
                        } else {
                            AlertState::Firing
                        }
                    }
                    other => {
                        self.clean_streak = 0;
                        other
                    }
                }
            }
        };
        self.state = Some(to);
        if to != from {
            self.transitions += 1;
            Some((from, to))
        } else {
            None
        }
    }
}

/// Point-in-time view of one alert (from [`alerts`] or a replay report).
#[derive(Debug, Clone, PartialEq)]
pub struct AlertSnapshot {
    /// The objective (name, expression, target).
    pub objective: Objective,
    /// Current lifecycle state.
    pub state: AlertState,
    /// Most recent fast-window value (`NaN` before any signal).
    pub fast: f64,
    /// Most recent slow-window value (`NaN` before any signal).
    pub slow: f64,
    /// Ticks on which this objective breached (exact, lifetime).
    pub breach_ticks: u64,
    /// Lifecycle transitions taken (exact, lifetime).
    pub transitions: u64,
}

/// A full deterministic evaluation of a spec over a sample ring.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// The spec that was evaluated.
    pub spec: SloSpec,
    /// Final per-objective alert snapshots, spec order.
    pub alerts: Vec<AlertSnapshot>,
    /// Evaluation ticks run (= samples in the ring).
    pub ticks: u64,
    /// Total (objective, tick) breaches.
    pub breaches: u64,
    /// Every lifecycle transition, in tick order.
    pub transitions: Vec<Transition>,
}

impl SloReport {
    /// Alerts currently in `state`.
    pub fn in_state(&self, state: AlertState) -> Vec<&AlertSnapshot> {
        self.alerts.iter().filter(|a| a.state == state).collect()
    }

    /// Exact-accounting self check: per-alert totals must reconcile with
    /// the report-level totals and the transition log. Returns a
    /// description of the first inconsistency.
    pub fn check_accounting(&self) -> Result<(), String> {
        let breach_sum: u64 = self.alerts.iter().map(|a| a.breach_ticks).sum();
        if breach_sum != self.breaches {
            return Err(format!(
                "breach sum {} != total {}",
                breach_sum, self.breaches
            ));
        }
        let trans_sum: u64 = self.alerts.iter().map(|a| a.transitions).sum();
        if trans_sum != self.transitions.len() as u64 {
            return Err(format!(
                "transition sum {} != log length {}",
                trans_sum,
                self.transitions.len()
            ));
        }
        for a in &self.alerts {
            if a.breach_ticks > self.ticks {
                return Err(format!(
                    "{}: {} breach ticks out of {} total",
                    a.objective.name, a.breach_ticks, self.ticks
                ));
            }
        }
        Ok(())
    }
}

/// Evaluates one tick of `spec` for objective `obj` over the ring prefix
/// ending at `end` (exclusive). Returns `(fast, slow, breach)`.
fn eval_tick(
    spec: &SloSpec,
    obj: &Objective,
    samples: &[Sample],
    end: usize,
) -> (f64, f64, Option<bool>) {
    let fast_window = &samples[end.saturating_sub(spec.fast)..end];
    let slow_window = &samples[end.saturating_sub(spec.slow)..end];
    let fast = eval_window(&obj.expr, fast_window);
    let slow = eval_window(&obj.expr, slow_window);
    let breach = match (fast, slow) {
        (Some(f), Some(s)) => {
            Some(obj.op.violated(f, obj.threshold) && obj.op.violated(s, obj.threshold))
        }
        _ => None,
    };
    (fast.unwrap_or(f64::NAN), slow.unwrap_or(f64::NAN), breach)
}

/// Replays the full lifecycle of `spec` over a finished ring: one tick
/// per sample, windows clamped to the available prefix. Pure — no
/// registry, journal or flight side effects — and deterministic for a
/// given ring, which makes it the verdict path for `qcfz slo`, `qcfz
/// report` and tests.
pub fn evaluate_ring(spec: &SloSpec, samples: &[Sample]) -> SloReport {
    let mut machines: Vec<Machine> = vec![Machine::default(); spec.objectives.len()];
    let mut transitions = Vec::new();
    let mut breaches = 0u64;
    for end in 1..=samples.len() {
        for (obj, m) in spec.objectives.iter().zip(machines.iter_mut()) {
            let (fast, slow, breach) = eval_tick(spec, obj, samples, end);
            m.last_fast = fast;
            m.last_slow = slow;
            if breach == Some(true) {
                breaches += 1;
            }
            if let Some((from, to)) = m.step(breach, spec) {
                transitions.push(Transition {
                    tick: (end - 1) as u64,
                    t_us: samples[end - 1].t_us,
                    name: obj.name.clone(),
                    from,
                    to,
                    fast,
                    slow,
                });
            }
        }
    }
    SloReport {
        spec: spec.clone(),
        alerts: spec
            .objectives
            .iter()
            .zip(&machines)
            .map(|(obj, m)| AlertSnapshot {
                objective: obj.clone(),
                state: m.state(),
                fast: m.last_fast,
                slow: m.last_slow,
                breach_ticks: m.breach_ticks,
                transitions: m.transitions,
            })
            .collect(),
        ticks: samples.len() as u64,
        breaches,
        transitions,
    }
}

// ---------------------------------------------------------------------------
// Live engine
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct Engine {
    spec: SloSpec,
    machines: Vec<Machine>,
    ticks: u64,
    log: VecDeque<Transition>,
    log_dropped: u64,
}

fn engine() -> &'static Mutex<Engine> {
    static ENGINE: OnceLock<Mutex<Engine>> = OnceLock::new();
    ENGINE.get_or_init(|| Mutex::new(Engine::default()))
}

fn lock_engine() -> MutexGuard<'static, Engine> {
    lock_unpoisoned(engine())
}

/// True when the live evaluator is armed. Initialized on first call from
/// `QCF_SLO` (unset ⇒ disarmed); one relaxed atomic load on every later
/// call — the entire disarmed cost of [`tick`].
#[inline]
pub fn armed() -> bool {
    match ARMED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => init_armed(),
    }
}

#[cold]
fn init_armed() -> bool {
    match &crate::config::config().slo {
        Some(spec) => arm(spec.clone()),
        None => ARMED.store(2, Ordering::Relaxed),
    }
    armed()
}

/// Arms the live evaluator with `spec`, replacing any previous spec and
/// resetting all machines.
pub fn arm(spec: SloSpec) {
    let mut eng = lock_engine();
    eng.machines = vec![Machine::default(); spec.objectives.len()];
    eng.spec = spec;
    eng.ticks = 0;
    eng.log.clear();
    eng.log_dropped = 0;
    ARMED.store(1, Ordering::Relaxed);
}

/// Arms with the active spec (`QCF_SLO` or defaults) unless already
/// armed. `qcfz top` / `qcfz slo` call this so the live pane works with
/// no environment setup.
pub fn arm_active() {
    if !armed() {
        arm(SloSpec::active());
    }
}

/// Disarms the evaluator and clears all state.
pub fn disarm() {
    *lock_engine() = Engine::default();
    ARMED.store(2, Ordering::Relaxed);
}

/// Clears machines, tick counts and the transition log but keeps the
/// armed spec — run isolation ([`crate::reset`] calls this so `qcfz
/// report` phases judge only their own samples).
pub fn reset_state() {
    let mut eng = lock_engine();
    eng.machines = vec![Machine::default(); eng.spec.objectives.len()];
    eng.ticks = 0;
    eng.log.clear();
    eng.log_dropped = 0;
}

/// The armed spec, when armed.
pub fn active_spec() -> Option<SloSpec> {
    armed().then(|| lock_engine().spec.clone())
}

/// Live per-alert snapshots (empty when disarmed).
pub fn alerts() -> Vec<AlertSnapshot> {
    if !armed() {
        return Vec::new();
    }
    let eng = lock_engine();
    eng.spec
        .objectives
        .iter()
        .zip(&eng.machines)
        .map(|(obj, m)| AlertSnapshot {
            objective: obj.clone(),
            state: m.state(),
            fast: m.last_fast,
            slow: m.last_slow,
            breach_ticks: m.breach_ticks,
            transitions: m.transitions,
        })
        .collect()
}

/// The retained transition log, oldest first, plus the dropped count.
pub fn transitions() -> (Vec<Transition>, u64) {
    let eng = lock_engine();
    (eng.log.iter().cloned().collect(), eng.log_dropped)
}

/// Live evaluation ticks run so far.
pub fn ticks() -> u64 {
    lock_engine().ticks
}

/// One live evaluation tick over the current sampler ring. The sampler
/// calls this after each retained capture; disarmed it is exactly one
/// relaxed atomic load.
#[inline]
pub fn tick() {
    if !armed() {
        return;
    }
    tick_armed();
}

#[cold]
fn tick_armed() {
    let samples = crate::timeseries::samples();
    if samples.is_empty() {
        return;
    }
    let reg = crate::metrics::registry();
    let mut fired = Vec::new();
    {
        let mut eng = lock_engine();
        let end = samples.len();
        let tick_idx = eng.ticks;
        eng.ticks += 1;
        let spec = eng.spec.clone();
        let mut tick_breaches = 0u64;
        for (i, obj) in spec.objectives.iter().enumerate() {
            let (fast, slow, breach) = eval_tick(&spec, obj, &samples, end);
            let m = &mut eng.machines[i];
            m.last_fast = fast;
            m.last_slow = slow;
            if breach == Some(true) {
                tick_breaches += 1;
                reg.counter(&format!("slo.breach.{}", obj.name)).inc();
            }
            if let Some((from, to)) = m.step(breach, &spec) {
                let t = Transition {
                    tick: tick_idx,
                    t_us: samples[end - 1].t_us,
                    name: obj.name.clone(),
                    from,
                    to,
                    fast,
                    slow,
                };
                if eng.log.len() == TRANSITION_LOG {
                    eng.log.pop_front();
                    eng.log_dropped += 1;
                }
                eng.log.push_back(t.clone());
                fired.push((i as u64, t));
            }
            reg.gauge(&format!("slo.state.{}", obj.name))
                .set(eng.machines[i].state().code());
            if fast.is_finite() {
                reg.float_gauge(&format!("slo.value.{}", obj.name))
                    .set(fast);
            }
        }
        reg.counter("slo.ticks").inc();
        reg.counter("slo.breaches").add(tick_breaches);
        let pending = eng
            .machines
            .iter()
            .filter(|m| m.state() == AlertState::Pending)
            .count();
        let firing = eng
            .machines
            .iter()
            .filter(|m| m.state() == AlertState::Firing)
            .count();
        reg.gauge("slo.pending").set(pending as i64);
        reg.gauge("slo.firing").set(firing as i64);
        if !fired.is_empty() {
            reg.counter("slo.transitions").add(fired.len() as u64);
        }
    }
    // Journal + flight outside the engine lock: both take their own
    // locks and must never nest inside ours.
    for (idx, t) in fired {
        crate::journal::record(
            JOURNAL_BASE + idx,
            crate::journal::EventKind::Slo,
            t.to.code() as f64,
        );
        crate::flight::record(&format!(
            "slo:{}:{}->{}",
            t.name,
            t.from.label(),
            t.to.label()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Snapshot;

    fn sample(t_us: u64, key: &str, value: u64) -> Sample {
        let mut s = Snapshot::default();
        s.counters.insert(key.to_string(), value);
        Sample { t_us, metrics: s }
    }

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        let text = "windows=4/16; pending=3; resolve=2\n\
                    lat.p99: p99(state.apply_us) <= 5000\n\
                    cache: hitrate(state.cache.hit, state.cache.miss) >= 0.5 # comment\n\
                    stall: rate(state.prefetch.stall_us) <= 2e5\n\
                    quarantine: state.ledger.quarantines <= 0";
        let spec = SloSpec::parse(text).unwrap();
        assert_eq!((spec.fast, spec.slow), (4, 16));
        assert_eq!((spec.pending_for, spec.resolve_after), (3, 2));
        assert_eq!(spec.objectives.len(), 4);
        assert_eq!(
            spec.objectives[0].expr,
            Expr::Quantile("state.apply_us".into(), 0.99)
        );
        assert_eq!(spec.objectives[1].op, Op::Ge);
        let round = SloSpec::parse(&spec.to_text()).unwrap();
        assert_eq!(round, spec);

        for bad in [
            "",
            "no colon here",
            "x: key < 5",           // only <= / >= exist
            "x: key <= banana",     // bad threshold
            "x: hitrate(a) >= 0.5", // one key
            "windows=0/4; x: k <= 1",
            "windows=8/4; x: k <= 1", // slow < fast
            "x: k <= 1; x: k <= 2",   // duplicate
            "pending=0; x: k <= 1",
            "x!: k <= 1", // bad name
        ] {
            assert!(SloSpec::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn threshold_suffixes_scale_binary() {
        assert_eq!(parse_threshold("64k"), Some(64.0 * 1024.0));
        assert_eq!(parse_threshold("2m"), Some(2.0 * 1024.0 * 1024.0));
        assert_eq!(
            parse_threshold("1.5g"),
            Some(1.5 * 1024.0 * 1024.0 * 1024.0)
        );
        assert_eq!(parse_threshold("1e-3"), Some(1e-3));
        assert_eq!(parse_threshold("inf"), None);
    }

    #[test]
    fn defaults_cover_all_four_dimensions() {
        let spec = SloSpec::defaults();
        for dim in ["fidelity.", "latency.", "efficiency.", "capacity."] {
            assert!(
                spec.objectives.iter().any(|o| o.name.starts_with(dim)),
                "missing {dim} objective"
            );
        }
        // Defaults must round-trip through the grammar too.
        assert_eq!(SloSpec::parse(&spec.to_text()).unwrap(), spec);
    }

    #[test]
    fn level_rate_and_hitrate_window_evaluation() {
        let ring: Vec<Sample> = (0..10u64)
            .map(|i| sample(i * 1_000_000, "c", i * 10))
            .collect();
        // Level = mean of the counter over the window.
        assert_eq!(
            eval_window(&Expr::Level("c".into()), &ring[..3]),
            Some(10.0)
        );
        // Rate = Δcount / Δt: 90 events over 9 s.
        assert_eq!(eval_window(&Expr::Rate("c".into()), &ring), Some(10.0));
        // Single-sample window has no rate.
        assert_eq!(eval_window(&Expr::Rate("c".into()), &ring[..1]), None);
        // Missing key holds.
        assert_eq!(eval_window(&Expr::Level("nope".into()), &ring), None);
        // Hitrate over deltas; zero denominator holds.
        let mut a = sample(0, "hit", 0);
        a.metrics.counters.insert("miss".into(), 0);
        let mut b = sample(1_000_000, "hit", 3);
        b.metrics.counters.insert("miss".into(), 1);
        let w = vec![a.clone(), b];
        assert_eq!(
            eval_window(&Expr::HitRate("hit".into(), "miss".into()), &w),
            Some(0.75)
        );
        assert_eq!(
            eval_window(&Expr::HitRate("hit".into(), "miss".into()), &[a.clone(), a]),
            None
        );
    }

    #[test]
    fn lifecycle_pending_firing_resolved_with_hysteresis() {
        let spec = SloSpec::parse("windows=2/4; pending=2; resolve=2; hot: c <= 5").unwrap();
        // 12 ticks: clean, then a sustained breach, then recovery.
        let values = [0u64, 0, 0, 0, 10, 10, 10, 10, 0, 0, 0, 0];
        let ring: Vec<Sample> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| sample((i as u64 + 1) * 1000, "c", v))
            .collect();
        let report = evaluate_ring(&spec, &ring);
        assert_eq!(report.ticks, 12);
        let a = &report.alerts[0];
        assert_eq!(a.state, AlertState::Resolved);
        let steps: Vec<(AlertState, AlertState)> =
            report.transitions.iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            steps,
            vec![
                (AlertState::Ok, AlertState::Pending),
                (AlertState::Pending, AlertState::Firing),
                (AlertState::Firing, AlertState::Resolved),
            ]
        );
        // Exact tick indices pin the burn-rate arithmetic. The breach
        // starts when the slow (4-sample) mean first exceeds 5 — samples
        // (0,10,10,10) at tick 6 — fires one hysteresis tick later, and
        // recovery starts as soon as the fast window clears (mean 5 at
        // tick 8), resolving after two clean ticks at tick 9.
        assert_eq!(report.transitions[0].tick, 6);
        assert_eq!(report.transitions[1].tick, 7);
        assert_eq!(report.transitions[2].tick, 9);
        assert!(report.check_accounting().is_ok());
    }

    #[test]
    fn single_spike_never_fires_multiwindow() {
        // One breaching sample in an otherwise clean run: the fast window
        // flinches (30 > 10) but the slow window's mean absorbs it — no
        // transition at all.
        let spec = SloSpec::parse("windows=1/8; pending=1; resolve=1; hot: c <= 10").unwrap();
        let values = [0u64, 0, 0, 0, 30, 0, 0, 0, 0, 0, 0, 0];
        let ring: Vec<Sample> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| sample((i as u64 + 1) * 1000, "c", v))
            .collect();
        let report = evaluate_ring(&spec, &ring);
        assert_eq!(report.alerts[0].state, AlertState::Ok);
        assert!(report.transitions.is_empty());
        assert_eq!(report.breaches, 0);
    }

    #[test]
    fn pending_demotes_on_one_clean_tick() {
        let spec = SloSpec::parse("windows=1/1; pending=3; resolve=1; hot: c <= 5").unwrap();
        let values = [10u64, 10, 0, 10, 10, 10];
        let ring: Vec<Sample> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| sample((i as u64 + 1) * 1000, "c", v))
            .collect();
        let report = evaluate_ring(&spec, &ring);
        // Breach streak broken at tick 2 — firing needs 3 *consecutive*
        // breaches, reached only on the final tick.
        let steps: Vec<(AlertState, AlertState)> =
            report.transitions.iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            steps,
            vec![
                (AlertState::Ok, AlertState::Pending),
                (AlertState::Pending, AlertState::Ok),
                (AlertState::Ok, AlertState::Pending),
                (AlertState::Pending, AlertState::Firing),
            ]
        );
        assert!(report.check_accounting().is_ok());
    }

    #[test]
    fn hold_freezes_firing_alerts() {
        // Signal disappears while firing: the alert must hold, not
        // resolve on missing data.
        let spec = SloSpec::parse("windows=1/1; pending=1; resolve=1; hot: c <= 5").unwrap();
        let mut ring: Vec<Sample> = (0..3).map(|i| sample((i + 1) * 1000, "c", 10)).collect();
        for i in 3..8u64 {
            ring.push(Sample {
                t_us: (i + 1) * 1000,
                metrics: Snapshot::default(), // key gone
            });
        }
        let report = evaluate_ring(&spec, &ring);
        assert_eq!(report.alerts[0].state, AlertState::Firing);
        assert_eq!(report.alerts[0].breach_ticks, 3);
    }

    #[test]
    fn live_tick_disarmed_is_inert_and_armed_accounts_exactly() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        crate::timeseries::reset();
        crate::metrics::registry().reset_values();
        disarm();
        tick(); // disarmed: no state, no registry writes
        assert_eq!(ticks(), 0);
        assert!(alerts().is_empty());

        arm(
            SloSpec::parse("windows=1/2; pending=2; resolve=2; hot: telemetry.slo.test <= 5")
                .unwrap(),
        );
        let c = crate::metrics::registry().counter("telemetry.slo.test");
        for i in 0..6 {
            if i >= 2 {
                c.add(10);
            }
            crate::timeseries::capture(); // capture drives tick()
        }
        let snap = crate::metrics::registry().snapshot();
        assert_eq!(snap.counters.get("slo.ticks"), Some(&6));
        let live = alerts();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].state, AlertState::Firing);
        assert_eq!(
            snap.gauges.get("slo.firing").map(|&(v, _)| v),
            Some(1),
            "firing gauge must track the machine"
        );
        assert_eq!(
            snap.counters.get("slo.breach.hot").copied().unwrap_or(0),
            live[0].breach_ticks,
            "per-alert breach counter must match the machine exactly"
        );
        let (log, dropped) = transitions();
        assert_eq!(dropped, 0);
        assert_eq!(log.len() as u64, live[0].transitions);
        assert_eq!(
            snap.counters.get("slo.transitions").copied().unwrap_or(0),
            log.len() as u64
        );
        // Replaying the finished ring reaches the same final state.
        let replay = evaluate_ring(&active_spec().unwrap(), &crate::timeseries::samples());
        assert_eq!(replay.alerts[0].state, AlertState::Firing);
        disarm();
        crate::timeseries::reset();
        crate::metrics::registry().reset_values();
    }

    #[test]
    fn transitions_become_journal_events_and_flight_frames() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        crate::journal::set_enabled(true);
        crate::journal::reset();
        crate::timeseries::reset();
        crate::metrics::registry().reset_values();
        arm(
            SloSpec::parse("windows=1/1; pending=1; resolve=1; hot: telemetry.slo.j <= 0").unwrap(),
        );
        let c = crate::metrics::registry().counter("telemetry.slo.j");
        c.add(3);
        crate::timeseries::capture();
        let ev = crate::journal::events(JOURNAL_BASE);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].kind, crate::journal::EventKind::Slo);
        assert_eq!(ev[0].detail, AlertState::Firing.code() as f64);
        disarm();
        crate::journal::reset();
        crate::journal::set_enabled(false);
        crate::timeseries::reset();
        crate::metrics::registry().reset_values();
    }
}
