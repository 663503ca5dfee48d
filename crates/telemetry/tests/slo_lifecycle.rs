//! Integration tests for the SLO engine: synthetic sampler rings drive
//! the full pending → firing → resolved lifecycle through the public
//! API only ([`qcf_telemetry::timeseries::offer`] +
//! [`qcf_telemetry::slo::evaluate_ring`]), the way `qcfz slo` replays a
//! finished run.

use qcf_telemetry::metrics::Snapshot;
use qcf_telemetry::slo::{self, AlertState, SloSpec};
use qcf_telemetry::timeseries::{self, Sample};
use std::sync::Mutex;

/// The ring and engine are process-global; tests must not interleave.
static LOCK: Mutex<()> = Mutex::new(());

/// A ring sample with one counter and one float gauge set.
fn sample(t_ms: u64, stall_us: u64, rss: f64) -> Sample {
    let mut m = Snapshot::default();
    m.counters
        .insert("state.prefetch.stall_us".into(), stall_us);
    m.float_gauges
        .insert("state.ledger.accumulated_rss".into(), rss);
    Sample {
        t_us: t_ms * 1000,
        metrics: m,
    }
}

#[test]
fn latency_burn_fires_and_resolves_over_synthetic_ring() {
    let _g = qcf_telemetry::lock_unpoisoned(&LOCK);
    let spec = SloSpec::parse(
        "windows=2/6; pending=2; resolve=2\n\
         latency.stall: rate(state.prefetch.stall_us) <= 100000\n\
         fidelity.bound: state.ledger.accumulated_rss <= 1e-3",
    )
    .unwrap();

    // 10 ms per tick. Phase 1 (8 ticks): no stall. Phase 2 (10 ticks):
    // the device stalls 5 ms of every 10 ms tick — a 500000 µs/s burn,
    // 5× the budget. Phase 3 (10 ticks): healthy again.
    let mut ring = Vec::new();
    let mut stall = 0u64;
    for i in 0..28u64 {
        if (8..18).contains(&i) {
            stall += 5_000;
        }
        ring.push(sample((i + 1) * 10, stall, 1e-6));
    }

    let report = slo::evaluate_ring(&spec, &ring);
    assert_eq!(report.ticks, 28);
    report.check_accounting().expect("exact accounting");

    let latency = &report.alerts[0];
    assert_eq!(latency.objective.name, "latency.stall");
    assert_eq!(
        latency.state,
        AlertState::Resolved,
        "burn ended mid-run, the alert must have resolved"
    );
    let steps: Vec<(&str, AlertState, AlertState)> = report
        .transitions
        .iter()
        .map(|t| (t.name.as_str(), t.from, t.to))
        .collect();
    assert_eq!(
        steps,
        vec![
            ("latency.stall", AlertState::Ok, AlertState::Pending),
            ("latency.stall", AlertState::Pending, AlertState::Firing),
            ("latency.stall", AlertState::Firing, AlertState::Resolved),
        ]
    );
    // The fidelity objective never breached: a quiet signal is not an
    // alert, and its machine never left Ok.
    let fidelity = &report.alerts[1];
    assert_eq!(fidelity.state, AlertState::Ok);
    assert_eq!(fidelity.breach_ticks, 0);
    assert_eq!(fidelity.transitions, 0);
    // Transition values carry the contributing window signals.
    let firing = &report.transitions[1];
    assert!(
        firing.fast > 100_000.0 && firing.slow > 100_000.0,
        "a multi-window breach needs both windows over budget: fast={} slow={}",
        firing.fast,
        firing.slow
    );
}

#[test]
fn replay_over_real_ring_matches_live_engine() {
    let _g = qcf_telemetry::lock_unpoisoned(&LOCK);
    qcf_telemetry::set_enabled(true);
    timeseries::stop();
    timeseries::reset();
    qcf_telemetry::registry().reset_values();
    let spec =
        SloSpec::parse("windows=1/3; pending=2; resolve=2; hot: telemetry.test.slo_int <= 2")
            .unwrap();
    slo::arm(spec.clone());

    let c = qcf_telemetry::registry().counter("telemetry.test.slo_int");
    for i in 0..8 {
        if i >= 3 {
            c.add(10);
        }
        timeseries::capture(); // live path: capture drives one tick
    }

    let live = slo::alerts();
    assert_eq!(live.len(), 1);
    assert_eq!(live[0].state, AlertState::Firing);

    // The pure replay over the same retained ring agrees with the live
    // machine on state and exact breach accounting.
    let replay = slo::evaluate_ring(&spec, &timeseries::samples());
    assert_eq!(replay.alerts[0].state, live[0].state);
    assert_eq!(replay.alerts[0].breach_ticks, live[0].breach_ticks);
    assert_eq!(replay.alerts[0].transitions, live[0].transitions);
    replay.check_accounting().expect("exact accounting");

    // And the registry carries the same numbers on the slo.* keys.
    let snap = qcf_telemetry::registry().snapshot();
    assert_eq!(snap.counters.get("slo.ticks"), Some(&8));
    assert_eq!(
        snap.counters.get("slo.breach.hot").copied().unwrap_or(0),
        live[0].breach_ticks
    );
    assert_eq!(snap.gauges.get("slo.firing").map(|&(v, _)| v), Some(1));

    slo::disarm();
    timeseries::reset();
    qcf_telemetry::registry().reset_values();
}

#[test]
fn run_scope_isolation_resets_machines_but_keeps_spec() {
    let _g = qcf_telemetry::lock_unpoisoned(&LOCK);
    qcf_telemetry::set_enabled(true);
    timeseries::stop();
    timeseries::reset();
    slo::arm(
        SloSpec::parse("windows=1/1; pending=1; resolve=1; hot: telemetry.test.slo_rs <= 0")
            .unwrap(),
    );
    let c = qcf_telemetry::registry().counter("telemetry.test.slo_rs");
    c.add(1);
    timeseries::capture();
    assert_eq!(slo::alerts()[0].state, AlertState::Firing);

    // A new scope must judge only its own samples: the firing machine
    // from the previous phase is gone, the spec survives.
    let scope = qcf_telemetry::RunScope::enter();
    assert!(slo::armed());
    assert_eq!(slo::alerts()[0].state, AlertState::Ok);
    assert_eq!(slo::ticks(), 0);
    drop(scope);

    slo::disarm();
    timeseries::reset();
    qcf_telemetry::registry().reset_values();
}
