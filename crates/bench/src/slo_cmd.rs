//! `qcfz slo` — evaluate the service-level objectives against a real run.
//!
//! The command drives one chunk-compressed state workload (the same
//! instance `qcfz state` runs) with the background sampler, the live SLO
//! engine and the causal journal armed, then replays the captured sample
//! ring through the pure evaluator ([`qcf_telemetry::slo::evaluate_ring`])
//! — the deterministic verdict path — and prints the alert table, the
//! lifecycle transition log and an exact-accounting self check.
//!
//! Modes:
//!
//! * default: run, evaluate, exit 0 iff **no** alert ends firing;
//! * `--expect-firing a,b`: exit 0 iff **every** listed alert fired
//!   during the run — still firing at the end, or fired and resolved
//!   (the fault-drill contract — CI seeds faults and demands the alarm
//!   rang, not that the fault conveniently lasted until the final tick);
//! * `--explain <alert>`: additionally dissect one alert — its objective,
//!   every transition with both window values, the contributing ring
//!   samples around each transition, and the journal's causal chain for
//!   the alert (the live engine journals each transition under
//!   [`qcf_telemetry::slo::JOURNAL_BASE`]` + objective index`);
//! * `--print`: print the active spec (`QCF_SLO` or built-in defaults)
//!   and exit — the round-trippable rules text, ready to edit.

use crate::cli::{self, CliError, StateRunCfg};
use compressors::ErrorBound;
use qcf_telemetry::journal;
use qcf_telemetry::slo::{self, AlertState, Expr, SloReport, SloSpec, JOURNAL_BASE};
use qcf_telemetry::timeseries::{self, Sample};
use std::fmt::Write as _;

/// Configuration for one `qcfz slo` invocation.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// QAOA graph nodes (= qubits) for the workload run.
    pub nodes: usize,
    /// Graph seed.
    pub seed: u64,
    /// Compressor display name (`qcfz list`).
    pub compressor: String,
    /// Error bound for the chunk codec.
    pub bound: ErrorBound,
    /// Qubits per chunk.
    pub chunk_qubits: usize,
    /// Compressed-resident byte budget (arms the spill tier).
    pub mem_budget: Option<usize>,
    /// Sampler interval in milliseconds — small, so even a short run
    /// leaves enough ring samples for the burn-rate windows.
    pub interval_ms: u64,
    /// Print the active spec and exit without running anything.
    pub print_spec: bool,
    /// Alert to dissect after the run.
    pub explain: Option<String>,
    /// Alerts that MUST end the run firing (empty = none may).
    pub expect_firing: Vec<String>,
}

impl SloConfig {
    /// Defaults matching `qcfz state`: 10-node QAOA, QCF-speed.
    pub fn new(nodes: usize, seed: u64, compressor: &str, bound: ErrorBound) -> Self {
        SloConfig {
            nodes,
            seed,
            compressor: compressor.to_string(),
            bound,
            chunk_qubits: nodes.saturating_sub(3),
            mem_budget: None,
            interval_ms: 2,
            print_spec: false,
            explain: None,
            expect_firing: Vec::new(),
        }
    }
}

/// What one evaluation produced: the printable text and the exit verdict.
#[derive(Debug, Clone)]
pub struct SloOutcome {
    /// Full rendered output (already printed by [`run`]'s caller).
    pub text: String,
    /// Names of alerts that ended the run firing, spec order.
    pub firing: Vec<String>,
    /// Exit-0 verdict (see [`verdict`]).
    pub ok: bool,
}

/// The `qcfz slo` body: run the workload under the armed engine, replay
/// the ring, render, and judge.
pub fn run(cfg: &SloConfig) -> Result<SloOutcome, CliError> {
    let spec = SloSpec::active();
    if cfg.print_spec {
        return Ok(SloOutcome {
            text: spec.to_text(),
            firing: Vec::new(),
            ok: true,
        });
    }
    run_with_spec(cfg, spec)
}

/// [`run`] with an explicit spec (tests inject tight objectives here;
/// the CLI path resolves `QCF_SLO`/defaults via [`SloSpec::active`]).
pub fn run_with_spec(cfg: &SloConfig, spec: SloSpec) -> Result<SloOutcome, CliError> {
    // Arm the whole continuous-telemetry stack: live engine (so the
    // journal carries the causal chain `--explain` prints), sampler (the
    // ring the verdict replays), journal.
    qcf_telemetry::set_enabled(true);
    journal::set_enabled(true);
    slo::arm(spec.clone());
    timeseries::stop();
    timeseries::reset();
    timeseries::start(cfg.interval_ms.max(1));

    let mut run_cfg = StateRunCfg::new(
        cfg.nodes,
        cfg.seed,
        cfg.chunk_qubits.min(cfg.nodes),
        &cfg.compressor,
    );
    run_cfg.bound = cfg.bound;
    run_cfg.mem_budget = cfg.mem_budget;
    let summary = cli::state_demo(&run_cfg);

    // Freeze the series before judging — and before surfacing a workload
    // error, so a crashed run still leaves the ring inspectable.
    timeseries::capture();
    timeseries::stop();
    journal::set_enabled(false);
    let summary = summary?;

    let samples = timeseries::samples();
    let report = slo::evaluate_ring(&spec, &samples);
    report
        .check_accounting()
        .map_err(|e| CliError(format!("slo accounting inconsistent: {e}")))?;

    let mut text = render(cfg, &report, summary.energy);
    if let Some(name) = &cfg.explain {
        text.push_str(&explain(name, &report, &samples)?);
    }
    let firing: Vec<String> = report
        .in_state(AlertState::Firing)
        .iter()
        .map(|a| a.objective.name.clone())
        .collect();
    // "Fired during the run": ended Firing, or ended Resolved — Resolved
    // is only reachable from Firing, so it proves the alarm rang even
    // when the fault cleared before the run finished.
    let mut fired = firing.clone();
    fired.extend(
        report
            .in_state(AlertState::Resolved)
            .iter()
            .map(|a| a.objective.name.clone()),
    );
    let (ok, line) = verdict(&firing, &fired, &cfg.expect_firing);
    let _ = writeln!(text, "{line}");
    Ok(SloOutcome { text, firing, ok })
}

/// The exit contract: with no expectations, a clean run (nothing firing
/// at the end) passes; with `--expect-firing`, every listed alert must
/// have fired during the run — still firing, or fired and since resolved
/// (a burn-rate alert legitimately resolves when the fault stops burning
/// before the run ends). Extra firing alerts are reported but tolerated:
/// a fault drill often trips neighbours. Returns the verdict plus its
/// printable line.
pub fn verdict(firing: &[String], fired: &[String], expected: &[String]) -> (bool, String) {
    if expected.is_empty() {
        return if firing.is_empty() {
            (true, "slo verdict: PASS — no firing alerts".into())
        } else {
            (
                false,
                format!("slo verdict: FAIL — firing: {}", firing.join(", ")),
            )
        };
    }
    let missing: Vec<&String> = expected.iter().filter(|e| !fired.contains(e)).collect();
    if missing.is_empty() {
        (
            true,
            format!(
                "slo verdict: PASS — expected alerts fired: {}",
                expected.join(", ")
            ),
        )
    } else {
        (
            false,
            format!(
                "slo verdict: FAIL — expected to fire but never did: {} (fired: {})",
                missing
                    .iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
                    .join(", "),
                if fired.is_empty() {
                    "none".into()
                } else {
                    fired.join(", ")
                }
            ),
        )
    }
}

/// Renders the alert table, transition log and accounting line.
fn render(cfg: &SloConfig, report: &SloReport, energy: f64) -> String {
    let mut out = String::with_capacity(1024);
    let _ = writeln!(
        out,
        "qcfz slo — {} on {}-node QAOA (seed {}, chunk 2^{}), energy {:.6}",
        cfg.compressor, cfg.nodes, cfg.seed, cfg.chunk_qubits, energy
    );
    let _ = writeln!(
        out,
        "spec: windows {}/{} samples, pending {}, resolve {} — {} objectives",
        report.spec.fast,
        report.spec.slow,
        report.spec.pending_for,
        report.spec.resolve_after,
        report.spec.objectives.len()
    );
    // The exact-accounting line CI greps for (already reconciled by
    // `check_accounting` before rendering).
    let _ = writeln!(
        out,
        "slo accounting: exact — {} ticks, {} breaches, {} transitions",
        report.ticks,
        report.breaches,
        report.transitions.len()
    );
    let _ = writeln!(
        out,
        "{:<24} {:<9} {:>12} {:>12} {:>8}  objective",
        "alert", "state", "fast", "slow", "breaches"
    );
    for a in &report.alerts {
        let _ = writeln!(
            out,
            "{:<24} {:<9} {:>12} {:>12} {:>8}  {} {} {}",
            a.objective.name,
            a.state.label(),
            fmt_sig(a.fast),
            fmt_sig(a.slow),
            a.breach_ticks,
            a.objective.expr.to_text(),
            a.objective.op.label(),
            fmt_sig(a.objective.threshold)
        );
    }
    if !report.transitions.is_empty() {
        let _ = writeln!(out, "transitions:");
        for t in &report.transitions {
            let _ = writeln!(
                out,
                "  tick {:>4} t+{}µs  {} {} -> {} (fast {}, slow {})",
                t.tick,
                t.t_us,
                t.name,
                t.from.label(),
                t.to.label(),
                fmt_sig(t.fast),
                fmt_sig(t.slow)
            );
        }
    }
    out
}

/// Compact signal formatting: integers as-is, everything else in short
/// scientific form, NaN (no signal yet) as `-`.
fn fmt_sig(v: f64) -> String {
    if v.is_nan() {
        "-".into()
    } else if v == v.trunc() && v.abs() < 1e7 {
        format!("{}", v as i64)
    } else {
        format!("{v:.2e}")
    }
}

/// The per-sample value a window evaluation saw at ring index `i`: point
/// reading for levels, the adjacent-pair delta for rates/hit-rates and
/// quantiles (which are window-delta signals and carry nothing on a
/// single sample).
fn point_value(expr: &Expr, samples: &[Sample], i: usize) -> f64 {
    let window = &samples[i.saturating_sub(1)..=i];
    slo::eval_window(expr, window).unwrap_or(f64::NAN)
}

/// `--explain <alert>`: one alert's objective, transitions, the ring
/// samples inside the fast window at each transition, and the journal's
/// causal chain for the alert.
fn explain(name: &str, report: &SloReport, samples: &[Sample]) -> Result<String, CliError> {
    let idx = report
        .spec
        .objectives
        .iter()
        .position(|o| o.name == name)
        .ok_or_else(|| {
            CliError(format!(
                "unknown alert '{name}' (spec has: {})",
                report
                    .spec
                    .objectives
                    .iter()
                    .map(|o| o.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })?;
    let alert = &report.alerts[idx];
    let mut out = String::new();
    let _ = writeln!(out, "\nexplain {name}:");
    let _ = writeln!(
        out,
        "  objective: {}  — final state {}, {} of {} ticks breached",
        alert.objective.to_text(),
        alert.state.label(),
        alert.breach_ticks,
        report.ticks
    );
    let trans: Vec<_> = report
        .transitions
        .iter()
        .filter(|t| t.name == name)
        .collect();
    if trans.is_empty() {
        let _ = writeln!(out, "  no lifecycle transitions — the alert never left ok");
    }
    for t in &trans {
        let _ = writeln!(
            out,
            "  {} -> {} at tick {} (t+{}µs): fast {} / slow {} vs target {} {}",
            t.from.label(),
            t.to.label(),
            t.tick,
            t.t_us,
            fmt_sig(t.fast),
            fmt_sig(t.slow),
            alert.objective.op.label(),
            fmt_sig(alert.objective.threshold)
        );
        // The fast window that tipped the machine, sample by sample.
        let end = (t.tick as usize + 1).min(samples.len());
        let start = end.saturating_sub(report.spec.fast);
        for i in start..end {
            let _ = writeln!(
                out,
                "    sample {:>4} t+{}µs  {} = {}",
                i,
                samples[i].t_us,
                alert.objective.expr.to_text(),
                fmt_sig(point_value(&alert.objective.expr, samples, i))
            );
        }
    }
    // Journal causal chain: the live engine records every transition it
    // took under a synthetic per-objective chunk id. The live machine can
    // legitimately disagree with the replay after a ring fold (it ticked
    // on samples the fold later discarded), so this is evidence of what
    // the process experienced, labelled as such — not the verdict.
    let events = journal::events(JOURNAL_BASE + idx as u64);
    if !events.is_empty() {
        let _ = writeln!(
            out,
            "  journal chain (live engine, {} events; detail = new state code):",
            events.len()
        );
        for e in &events {
            let to = match e.detail as i64 {
                0 => "ok",
                1 => "pending",
                2 => "firing",
                3 => "resolved",
                _ => "?",
            };
            let _ = writeln!(
                out,
                "    seq {:>6} t+{}µs  {} -> {}",
                e.seq,
                e.t_us,
                e.kind.label(),
                to
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg() -> SloConfig {
        let mut cfg = SloConfig::new(8, 5, "QCF-speed", ErrorBound::Rel(1e-3));
        cfg.chunk_qubits = 4;
        cfg
    }

    #[test]
    fn verdict_table() {
        let f = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(verdict(&[], &[], &[]).0);
        assert!(!verdict(&f(&["a"]), &f(&["a"]), &[]).0);
        assert!(
            verdict(&f(&["a", "b"]), &f(&["a", "b"]), &f(&["a"])).0,
            "subset semantics"
        );
        assert!(!verdict(&f(&["b"]), &f(&["b"]), &f(&["a", "b"])).0);
        // A fired-then-resolved alert satisfies the expectation even
        // though nothing is firing at the end.
        assert!(verdict(&[], &f(&["a"]), &f(&["a"])).0);
        let (ok, line) = verdict(&[], &[], &f(&["latency.stall"]));
        assert!(!ok);
        assert!(line.contains("latency.stall"), "{line}");
        assert!(line.contains("none"), "{line}");
    }

    #[test]
    fn clean_run_passes_with_exact_accounting() {
        let _g = crate::telemetry_test_lock();
        // A forgiving objective a fault-free run can never breach.
        let spec = SloSpec::parse(
            "windows=2/4; pending=2; resolve=2; \
             fidelity.quarantine: state.ledger.quarantines <= 0",
        )
        .unwrap();
        let out = run_with_spec(&base_cfg(), spec).unwrap();
        assert!(out.ok, "{}", out.text);
        assert!(out.firing.is_empty());
        assert!(out.text.contains("slo accounting: exact"), "{}", out.text);
        assert!(out.text.contains("slo verdict: PASS"), "{}", out.text);
        slo::disarm();
        timeseries::reset();
    }

    #[test]
    fn impossible_objective_fires_and_expectation_flips_the_verdict() {
        let _g = crate::telemetry_test_lock();
        // The apply histogram's count is monotone: once the first gate
        // lands the objective breaches and can never resolve, so the
        // alert is still firing at end of run — deterministically — on
        // any host. (A gauge like resident_bytes would drop back to zero
        // when the run frees its chunks and the alert would resolve.)
        let spec = SloSpec::parse(
            "windows=1/2; pending=1; resolve=3; \
             capacity.resident: state.apply_us <= 0",
        )
        .unwrap();
        let mut cfg = base_cfg();
        let out = run_with_spec(&cfg, spec.clone()).unwrap();
        assert!(!out.ok, "{}", out.text);
        assert_eq!(out.firing, vec!["capacity.resident".to_string()]);
        assert!(out.text.contains("slo verdict: FAIL"), "{}", out.text);

        // The same run under --expect-firing passes, and --explain renders
        // the transition with its contributing samples.
        cfg.expect_firing = vec!["capacity.resident".into()];
        cfg.explain = Some("capacity.resident".into());
        let out = run_with_spec(&cfg, spec).unwrap();
        assert!(out.ok, "{}", out.text);
        assert!(
            out.text.contains("explain capacity.resident"),
            "{}",
            out.text
        );
        assert!(out.text.contains("ok -> firing"), "{}", out.text);
        assert!(out.text.contains("sample"), "{}", out.text);
        slo::disarm();
        timeseries::reset();
    }

    #[test]
    fn explain_refuses_unknown_alerts() {
        let spec = SloSpec::parse("hot: state.cache.hit >= 0").unwrap();
        let report = slo::evaluate_ring(&spec, &[]);
        let err = explain("no.such.alert", &report, &[]).unwrap_err();
        assert!(err.0.contains("unknown alert"), "{err}");
        assert!(err.0.contains("hot"), "lists the spec's alerts: {err}");
    }
}
