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
//! signal went dark. A quantile also holds while its window has fewer
//! observations than it can resolve ([`Expr::min_observations`]: 100 for
//! `p99`), so a p99 over three events never passes off the slowest one as
//! a tail verdict. An objective that held on every tick has no verdict:
//! renderers show its [`Expr::hold_label`] ("insufficient data" for a
//! quantile, "no signal" otherwise) instead of a state.
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
//! [`evaluate_ring`] replays this machine over a sampler ring: one tick
//! per retained sample, windows clamped to the samples before it. It is
//! the only evaluator: pure (no registry or journal side effects) and
//! deterministic for a given ring, with totals that
//! [`SloReport::check_accounting`] reconciles exactly.
//!
//! ## Who evaluates, and what it costs
//!
//! Nothing evaluates on its own: engine hot paths and the sampler thread
//! never call into this module. `qcfz slo` replays the ring once the run
//! has finished; `qcfz top` replays the ring it is drawing on each frame
//! (the ring holds at most [`crate::timeseries::CAPACITY`] samples, which
//! bounds a replay); `qcfz report` judges each phase's final registry
//! with [`eval_window`]. `QCF_SLO` selects the spec all three use.

use crate::metrics::{quantile_from_buckets, Snapshot};
use crate::timeseries::Sample;

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

    /// Observations a window needs before this signal reads. A `pXX`
    /// quantile needs ⌈1/(1−q)⌉ — 100 for p99, 20 for p95, 10 for p90, 2
    /// for p50 — or its "tail" is just the window's largest event; other
    /// signals need one.
    pub fn min_observations(&self) -> u64 {
        match self {
            // The epsilon absorbs `1 - q` rounding (1 / (1 - 0.9) is
            // 10.000000000000002 in f64).
            Expr::Quantile(_, q) => (1.0 / (1.0 - q) - 1e-9).ceil() as u64,
            _ => 1,
        }
    }

    /// What a reading that holds shows instead of a value or verdict.
    pub fn hold_label(&self) -> &'static str {
        match self {
            Expr::Quantile(..) => "insufficient data",
            _ => "no signal",
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
            if delta_count < expr.min_observations() {
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
    judged_ticks: u64,
    transitions: u64,
    last_fast: f64,
    last_slow: f64,
}

impl Machine {
    fn state(&self) -> AlertState {
        self.state.unwrap_or(AlertState::Ok)
    }

    fn snapshot(&self, objective: &Objective) -> AlertSnapshot {
        AlertSnapshot {
            objective: objective.clone(),
            state: self.state(),
            fast: self.last_fast,
            slow: self.last_slow,
            breach_ticks: self.breach_ticks,
            judged_ticks: self.judged_ticks,
            transitions: self.transitions,
        }
    }

    /// Advances one tick. `breach` is `None` on hold. Returns the
    /// transition, if any.
    fn step(&mut self, breach: Option<bool>, spec: &SloSpec) -> Option<(AlertState, AlertState)> {
        let from = self.state();
        self.state = Some(from);
        if breach.is_some() {
            self.judged_ticks += 1;
        }
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

/// One alert as a replay left it (an entry of [`SloReport::alerts`]).
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
    /// Ticks with a verdict, breach or clean (exact, lifetime): 0 means
    /// every tick held, so the state is no verdict at all.
    pub judged_ticks: u64,
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
            if a.breach_ticks > a.judged_ticks || a.judged_ticks > self.ticks {
                return Err(format!(
                    "{}: {} breach ticks, {} judged, out of {} total",
                    a.objective.name, a.breach_ticks, a.judged_ticks, self.ticks
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

/// Replays the full lifecycle of `spec` over a ring: one tick per sample,
/// windows clamped to the available prefix. Pure — no registry or
/// journal side effects — and deterministic for a given ring, which makes
/// it the one verdict path: `qcfz slo`, `qcfz top`'s alerts pane and
/// tests all read it.
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
            .map(|(obj, m)| m.snapshot(obj))
            .collect(),
        ticks: samples.len() as u64,
        breaches,
        transitions,
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

    /// A cumulative `lat` histogram sample: `fast` events at 1 ms and
    /// `slow` ones at 100 ms so far.
    fn latency_sample(t_us: u64, fast: u64, slow: u64) -> Sample {
        let mut s = Snapshot::default();
        s.histograms.insert(
            "lat".into(),
            crate::metrics::HistogramSnapshot {
                count: fast + slow,
                buckets: vec![(1e3, fast), (1e5, slow), (f64::INFINITY, 0)],
                ..Default::default()
            },
        );
        Sample { t_us, metrics: s }
    }

    #[test]
    fn quantiles_hold_until_the_window_can_resolve_them() {
        let p = |q: f64| Expr::Quantile("lat".into(), q);
        assert_eq!(
            [0.5, 0.9, 0.95, 0.99].map(|q| p(q).min_observations()),
            [2, 10, 20, 100]
        );
        assert_eq!(Expr::Level("lat".into()).min_observations(), 1);
        assert_eq!(p(0.99).hold_label(), "insufficient data");
        assert_eq!(Expr::Rate("lat".into()).hold_label(), "no signal");

        // Three events, one slow: p50 reads, but a p99 would only be the
        // slowest event, so it holds.
        let few = [latency_sample(0, 0, 0), latency_sample(1, 2, 1)];
        assert_eq!(eval_window(&p(0.5), &few), Some(1e3));
        assert_eq!(eval_window(&p(0.99), &few), None);
        assert_eq!(eval_window(&p(0.95), &few), None);
        // 99 observations still hold; 100 resolve.
        let window = |n: u64| [latency_sample(0, 0, 0), latency_sample(1, 0, n)];
        assert_eq!(eval_window(&p(0.99), &window(99)), None);
        assert_eq!(eval_window(&p(0.99), &window(100)), Some(1e5));
        // Only the window's own events count: 1000 before it, 3 in it.
        let late = [latency_sample(0, 1000, 0), latency_sample(1, 1000, 3)];
        assert_eq!(eval_window(&p(0.99), &late), None);

        // Replayed: a p99 fed three slow events per sample never has a
        // verdict; fed 150 per sample, it fires.
        let spec = SloSpec::parse("windows=2/4; pending=1; lat.p99: p99(lat) <= 5000").unwrap();
        let ring: Vec<Sample> = (0..8).map(|i| latency_sample(i, 0, 3 * i)).collect();
        let report = evaluate_ring(&spec, &ring);
        report.check_accounting().unwrap();
        let a = &report.alerts[0];
        assert_eq!(
            (a.state, a.judged_ticks, a.breach_ticks),
            (AlertState::Ok, 0, 0)
        );
        assert!(a.fast.is_nan() && a.slow.is_nan());
        let ring: Vec<Sample> = (0..8).map(|i| latency_sample(i, 0, 150 * i)).collect();
        let report = evaluate_ring(&spec, &ring);
        report.check_accounting().unwrap();
        let a = &report.alerts[0];
        assert_eq!(a.state, AlertState::Firing);
        assert_eq!((a.judged_ticks, a.breach_ticks), (7, 7));
    }
}
