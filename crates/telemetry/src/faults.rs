//! Deterministic fault injection for chaos testing (`QCF_FAULTS`).
//!
//! Production code brackets its failure-prone operations with *named
//! sites* — `faults::inject("state.chunk.bitflip")` — and the module
//! decides, deterministically, whether that particular event fails. The
//! sites currently wired in:
//!
//! | site | effect at the call point |
//! |------|--------------------------|
//! | `codec.decode` | decompression returns an injected [`Corrupt`](`crate`) error |
//! | `codec.alloc` | the stream-header bomb guard reports an allocation-cap breach |
//! | `state.chunk.bitflip` | one stored chunk byte gets a bit flipped after write-back |
//! | `state.spill.bitflip` | one byte of a frame's *on-disk* copy gets a bit flipped as it spills |
//! | `exec.worker.panic` | a data-parallel worker block panics mid-kernel |
//!
//! ## Spec grammar
//!
//! `QCF_FAULTS` is a comma- or semicolon-separated list of clauses:
//!
//! * `seed=S` — seed for the deterministic rate hash (default 0);
//! * `SITE@N` — fire on the `N`-th event at `SITE` (1-based), exactly once;
//! * `SITE%R` — fire each event with deterministic pseudo-probability `R`
//!   (`0.0..=1.0`, a pure hash of seed, site and event index — reruns
//!   fire on the same events);
//! * `SITE` — fire on every event.
//!
//! `SITE` is an exact site name, or a prefix ending in `*`
//! (`state.*` matches every state site). Example:
//!
//! ```text
//! QCF_FAULTS="seed=7,state.chunk.bitflip@3,exec.worker.panic%0.01"
//! ```
//!
//! ## Cost when disarmed
//!
//! Exactly the telemetry pattern: one relaxed atomic load per site check,
//! no locks, no allocation. Armed, each event takes a short mutex-guarded
//! counter update — chaos runs are not benchmark runs.
//!
//! Tests arm the module programmatically with [`arm_from_spec`] /
//! [`disarm`]; the state is process-global, so concurrent tests in one
//! binary must serialize through [`chaos_guard`].

use crate::lock_unpoisoned;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// 0 = uninitialized, 1 = armed, 2 = disarmed.
static ARMED: AtomicU8 = AtomicU8::new(0);

/// How one rule decides whether an event fires.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    /// Fire on exactly the `n`-th event (1-based).
    Nth(u64),
    /// Fire with deterministic pseudo-probability `rate`.
    Rate(f64),
    /// Fire on every event.
    Always,
}

#[derive(Debug, Clone, PartialEq)]
struct Rule {
    /// Site name, or prefix when `prefix` is true.
    pattern: String,
    prefix: bool,
    trigger: Trigger,
}

impl Rule {
    fn matches(&self, site: &str) -> bool {
        if self.prefix {
            site.starts_with(&self.pattern)
        } else {
            site == self.pattern
        }
    }
}

/// A parsed fault spec: the seed and the rules (see the module docs for
/// the grammar).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSpec {
    seed: u64,
    rules: Vec<Rule>,
}

#[derive(Debug, Default)]
struct Plan {
    spec: FaultSpec,
    /// Events seen per site (fired or not).
    seen: HashMap<String, u64>,
    /// Faults actually injected per site.
    injected: HashMap<String, u64>,
}

fn plan() -> &'static Mutex<Plan> {
    static PLAN: OnceLock<Mutex<Plan>> = OnceLock::new();
    PLAN.get_or_init(|| Mutex::new(Plan::default()))
}

fn lock_plan() -> MutexGuard<'static, Plan> {
    lock_unpoisoned(plan())
}

/// True when fault injection is armed. Initialized on first call from
/// `QCF_FAULTS` ([`crate::config::config`]; unset ⇒ disarmed); one relaxed
/// atomic load on every later call.
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
    match &crate::config::config().faults {
        Some(spec) => install(spec.clone()),
        None => ARMED.store(2, Ordering::Relaxed),
    }
    armed()
}

impl FaultSpec {
    /// Parses a spec string (see the module docs for the grammar).
    pub(crate) fn parse(spec: &str) -> Result<Self, String> {
        let mut new = FaultSpec::default();
        for clause in spec.split([',', ';']) {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(seed) = clause.strip_prefix("seed=") {
                new.seed = seed
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad seed in {clause:?}"))?;
                continue;
            }
            let (site, trigger) = if let Some((site, n)) = clause.split_once('@') {
                let n: u64 = n
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad @N in {clause:?}"))?;
                if n == 0 {
                    return Err(format!("@N is 1-based in {clause:?}"));
                }
                (site, Trigger::Nth(n))
            } else if let Some((site, r)) = clause.split_once('%') {
                let r: f64 = r
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad %rate in {clause:?}"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("rate outside 0..=1 in {clause:?}"));
                }
                (site, Trigger::Rate(r))
            } else {
                (clause, Trigger::Always)
            };
            let site = site.trim();
            if site.is_empty() {
                return Err(format!("empty site in {clause:?}"));
            }
            let (pattern, prefix) = match site.strip_suffix('*') {
                Some(p) => (p.to_string(), true),
                None => (site.to_string(), false),
            };
            new.rules.push(Rule {
                pattern,
                prefix,
                trigger,
            });
        }
        if new.rules.is_empty() {
            return Err("no fault rules in spec".into());
        }
        Ok(new)
    }
}

/// Arms `spec` with all event counters at zero.
fn install(spec: FaultSpec) {
    *lock_plan() = Plan {
        spec,
        ..Plan::default()
    };
    ARMED.store(1, Ordering::Relaxed);
}

/// Arms fault injection from a spec string (see the module docs for the
/// grammar). Replaces any previous plan and resets all event counters.
pub fn arm_from_spec(spec: &str) -> Result<(), String> {
    install(FaultSpec::parse(spec)?);
    Ok(())
}

/// Disarms fault injection and clears the plan and all counters.
pub fn disarm() {
    *lock_plan() = Plan::default();
    ARMED.store(2, Ordering::Relaxed);
}

/// SplitMix64 — the deterministic per-event hash behind `%rate` triggers
/// and injection payloads.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn site_hash(site: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in site.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Registers one event at `site` and decides whether to inject a fault
/// there. `None` ⇒ proceed normally. `Some(payload)` ⇒ the caller must
/// fail in its site-specific way; `payload` is a deterministic 64-bit
/// value derived from the seed, the site and the event index (callers use
/// it to pick *which* byte/bit to corrupt, so reruns corrupt the same
/// location).
///
/// Disarmed, this is a single relaxed atomic load.
#[inline]
pub fn inject(site: &str) -> Option<u64> {
    if !armed() {
        return None;
    }
    inject_armed(site)
}

#[cold]
fn inject_armed(site: &str) -> Option<u64> {
    let mut p = lock_plan();
    let count = p.seen.entry(site.to_string()).or_insert(0);
    *count += 1;
    let count = *count;
    let seed = p.spec.seed;
    let fire = p.spec.rules.iter().any(|r| {
        r.matches(site)
            && match r.trigger {
                Trigger::Nth(n) => count == n,
                Trigger::Always => true,
                Trigger::Rate(rate) => {
                    let h = splitmix64(seed ^ site_hash(site) ^ count);
                    ((h >> 11) as f64 / (1u64 << 53) as f64) < rate
                }
            }
    });
    if !fire {
        return None;
    }
    *p.injected.entry(site.to_string()).or_insert(0) += 1;
    drop(p);
    if crate::enabled() {
        crate::registry()
            .counter(&format!("faults.injected.{site}"))
            .inc();
    }
    Some(splitmix64(seed ^ site_hash(site).rotate_left(17) ^ count))
}

/// Faults injected so far at `site` (0 when disarmed or never fired).
pub fn injected_count(site: &str) -> u64 {
    if ARMED.load(Ordering::Relaxed) != 1 {
        return 0;
    }
    lock_plan().injected.get(site).copied().unwrap_or(0)
}

/// Total faults injected across all sites.
pub fn total_injected() -> u64 {
    if ARMED.load(Ordering::Relaxed) != 1 {
        return 0;
    }
    lock_plan().injected.values().sum()
}

/// Serializes chaos tests: the armed flag, plan and counters are
/// process-global, so any test that arms faults must hold this guard.
pub fn chaos_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    lock_unpoisoned(&LOCK)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_is_inert() {
        let _g = chaos_guard();
        disarm();
        assert!(!armed());
        assert_eq!(inject("codec.decode"), None);
        assert_eq!(total_injected(), 0);
    }

    #[test]
    fn nth_event_fires_exactly_once() {
        let _g = chaos_guard();
        arm_from_spec("seed=1,codec.decode@3").unwrap();
        assert!(inject("codec.decode").is_none());
        assert!(inject("codec.decode").is_none());
        assert!(inject("codec.decode").is_some());
        assert!(inject("codec.decode").is_none());
        assert_eq!(injected_count("codec.decode"), 1);
        assert_eq!(injected_count("other.site"), 0);
        disarm();
    }

    #[test]
    fn prefix_patterns_and_always() {
        let _g = chaos_guard();
        arm_from_spec("state.*").unwrap();
        assert!(inject("state.chunk.bitflip").is_some());
        assert!(inject("state.alloc").is_some());
        assert!(inject("exec.worker.panic").is_none());
        assert_eq!(total_injected(), 2);
        disarm();
    }

    #[test]
    fn rate_is_deterministic_across_reruns() {
        let _g = chaos_guard();
        let run = || {
            arm_from_spec("seed=42,s%0.3").unwrap();
            let fired: Vec<bool> = (0..64).map(|_| inject("s").is_some()).collect();
            disarm();
            fired
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "rate triggers must be reproducible");
        let n = a.iter().filter(|&&f| f).count();
        assert!(n > 5 && n < 40, "rate 0.3 fired {n}/64 times");
    }

    #[test]
    fn payload_is_deterministic_and_varies_per_event() {
        let _g = chaos_guard();
        arm_from_spec("seed=9,s").unwrap();
        let p1 = inject("s").unwrap();
        let p2 = inject("s").unwrap();
        disarm();
        arm_from_spec("seed=9,s").unwrap();
        let q1 = inject("s").unwrap();
        let q2 = inject("s").unwrap();
        disarm();
        assert_eq!(p1, q1);
        assert_eq!(p2, q2);
        assert_ne!(p1, p2, "different events get different payloads");
    }

    #[test]
    fn bad_specs_are_rejected() {
        let _g = chaos_guard();
        assert!(arm_from_spec("").is_err());
        assert!(arm_from_spec("seed=7").is_err(), "seed alone has no rules");
        assert!(arm_from_spec("s@0").is_err(), "@N is 1-based");
        assert!(arm_from_spec("s%1.5").is_err());
        assert!(arm_from_spec("@3").is_err(), "empty site");
        assert!(arm_from_spec("seed=x,s@1").is_err());
        assert!(!armed() || injected_count("s") == 0);
        disarm();
    }
}
