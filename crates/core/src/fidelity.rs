//! Error-impact analysis (contribution 2).
//!
//! How does a pointwise bound `ε` on every intermediate tensor move the
//! final QAOA energy? Each bucket elimination is multilinear in its inputs,
//! so to first order the scalar error is a sum of independent, bounded
//! per-tensor contributions. Modelling those contributions as independent
//! zero-mean perturbations of magnitude ≤ ε gives the random-walk estimate
//!
//! `|ΔE| ≲ C · ε · sqrt(T)`
//!
//! with `T` the number of perturbed intermediates and `C` a circuit-family
//! constant absorbing tensor norms. The experiments calibrate `C` once on a
//! pilot instance ([`calibrate`]) and then *predict* energy error for other
//! bounds — experiment E8 plots prediction vs. measurement.
//!
//! This module is the workspace's *shared bound-propagation model*: the
//! accumulation primitives live in [`qtensor::ledger`] (re-exported here as
//! [`rss_accumulate`] / [`uniform_rss`]) so the error-budget ledger inside
//! `CompressedState` and the `CompressingHook` contraction stats apply the
//! identical arithmetic, and this module turns their accumulated bounds
//! into *calibrated* energy-error predictions
//! ([`predict_energy_error`], [`predict_ledger_energy_error`]).

use qcircuit::{Graph, QaoaParams};
use qtensor::compressed::NoiseHook;
use qtensor::energy::Simulator;
use qtensor::ContractError;
use qtensor::LedgerSummary;

pub use qtensor::ledger::{rss_accumulate, uniform_rss};

/// A single characterization point: injected bound vs. observed error.
#[derive(Debug, Clone, PartialEq)]
pub struct NoisePoint {
    /// Injected pointwise bound ε.
    pub eps: f64,
    /// Number of intermediates perturbed.
    pub tensors: usize,
    /// |E_noisy − E_exact|.
    pub abs_energy_error: f64,
    /// |E_noisy − E_exact| / |E_exact|.
    pub rel_energy_error: f64,
}

/// First-order model: predicted |ΔE| for bound `eps` over `tensors`
/// perturbed intermediates with calibrated constant `c` — `C · ε·√T`, the
/// closed form of the ledger's per-event RSS accumulation.
pub fn predict_energy_error(c: f64, eps: f64, tensors: usize) -> f64 {
    c * uniform_rss(eps, tensors)
}

/// Predicted |ΔE| from a measured error-budget ledger: the calibrated
/// constant times the state-level RSS the ledger actually accumulated
/// (requant-by-requant, chunk-by-chunk), instead of the uniform `ε·√T`
/// assumption. The two agree when every event carries the same bound.
pub fn predict_ledger_energy_error(c: f64, ledger: &LedgerSummary) -> f64 {
    c * ledger.accumulated_rss
}

/// Measures energy error under injected noise of bound `eps` (averaged over
/// `seeds` noise realizations).
pub fn measure_noise_impact(
    graph: &Graph,
    params: &QaoaParams,
    eps: f64,
    seeds: &[u64],
) -> Result<NoisePoint, ContractError> {
    assert!(!seeds.is_empty(), "need at least one noise seed");
    let sim = Simulator::default();
    let exact = sim.energy(graph, params)?.energy;
    let mut sum_err = 0.0;
    let mut tensors = 0usize;
    for &seed in seeds {
        let mut hook = NoiseHook::new(eps, 2, seed);
        let noisy = sim.energy_with_hook(graph, params, &mut hook)?.energy;
        sum_err += (noisy - exact).abs();
        tensors = tensors.max(hook.perturbed);
    }
    let abs = sum_err / seeds.len() as f64;
    Ok(NoisePoint {
        eps,
        tensors,
        abs_energy_error: abs,
        rel_energy_error: abs / exact.abs().max(f64::MIN_POSITIVE),
    })
}

/// Calibrates the model constant `C` on a pilot instance: measures one
/// mid-range ε and solves `C = |ΔE| / (ε sqrt(T))`.
pub fn calibrate(
    graph: &Graph,
    params: &QaoaParams,
    pilot_eps: f64,
    seeds: &[u64],
) -> Result<f64, ContractError> {
    let p = measure_noise_impact(graph, params, pilot_eps, seeds)?;
    Ok(p.abs_energy_error / (p.eps * (p.tensors.max(1) as f64).sqrt()))
}

/// Suggests the largest tensor-level bound expected to keep *relative*
/// energy error below `target_rel` on an instance with exact energy
/// `energy` and roughly `tensors` compressed intermediates, given a
/// calibrated `c`. A 2× safety margin backs off the first-order estimate.
pub fn suggest_bound(c: f64, tensors: usize, energy: f64, target_rel: f64) -> f64 {
    let budget = target_rel * energy.abs();
    budget / (2.0 * c.max(f64::MIN_POSITIVE) * (tensors.max(1) as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance() -> (Graph, QaoaParams) {
        (
            Graph::random_regular(10, 3, 33),
            QaoaParams::new(vec![0.5, 0.8], vec![0.3, 0.55]),
        )
    }

    #[test]
    fn error_grows_with_eps() {
        let (g, p) = instance();
        let seeds = [1, 2, 3];
        let small = measure_noise_impact(&g, &p, 1e-8, &seeds).unwrap();
        let large = measure_noise_impact(&g, &p, 1e-4, &seeds).unwrap();
        assert!(small.abs_energy_error < large.abs_energy_error);
        assert!(large.tensors > 0);
    }

    #[test]
    fn model_tracks_measurement_within_an_order() {
        let (g, p) = instance();
        let seeds = [1, 2, 3, 4];
        let c = calibrate(&g, &p, 1e-5, &seeds).unwrap();
        assert!(c.is_finite() && c > 0.0);
        // Predict at a different eps and compare.
        let probe = measure_noise_impact(&g, &p, 1e-6, &seeds).unwrap();
        let predicted = predict_energy_error(c, probe.eps, probe.tensors);
        let ratio = predicted / probe.abs_energy_error.max(f64::MIN_POSITIVE);
        assert!(
            (0.1..10.0).contains(&ratio),
            "first-order model off by {ratio:.2}x (pred {predicted}, meas {})",
            probe.abs_energy_error
        );
    }

    #[test]
    fn suggested_bound_meets_target() {
        let (g, p) = instance();
        let seeds = [5, 6, 7, 8];
        let c = calibrate(&g, &p, 1e-5, &seeds).unwrap();
        let exact = Simulator::default().energy(&g, &p).unwrap().energy;
        let pilot = measure_noise_impact(&g, &p, 1e-5, &seeds).unwrap();
        let target = 0.01; // 1% relative
        let eb = suggest_bound(c, pilot.tensors, exact, target);
        assert!(eb > 0.0);
        // Average over several noise realizations: the suggestion is a
        // first-order statistical bound, not a worst-case one, so a single
        // unlucky draw can overshoot the target slightly.
        let check = measure_noise_impact(&g, &p, eb, &[11, 12, 13, 14, 15, 16]).unwrap();
        assert!(
            check.rel_energy_error < target,
            "suggested bound {eb:.2e} gave {:.3}% error",
            check.rel_energy_error * 100.0
        );
    }

    #[test]
    fn prediction_monotone_in_inputs() {
        assert!(predict_energy_error(1.0, 1e-3, 100) > predict_energy_error(1.0, 1e-4, 100));
        assert!(predict_energy_error(1.0, 1e-3, 400) > predict_energy_error(1.0, 1e-3, 100));
        assert_eq!(predict_energy_error(2.0, 1e-3, 0), 2.0 * 1e-3);
    }

    #[test]
    fn ledger_prediction_matches_uniform_model_on_uniform_ledgers() {
        use compressors::cuszx::CuSzx;
        use compressors::ErrorBound;
        use qtensor::CompressedState;

        // A real ledger from a lossy run...
        let g = Graph::random_regular(8, 3, 41);
        let circuit = qcircuit::qaoa_circuit(&g, &qcircuit::QaoaParams::fixed_angles_3reg_p1());
        let comp = CuSzx::default();
        let cs = CompressedState::run(&circuit, 4, &comp, ErrorBound::Abs(1e-7)).unwrap();
        let summary = cs.ledger_summary();
        assert!(summary.lossy);

        let c = 2.5;
        let from_ledger = predict_ledger_energy_error(c, &summary);
        assert!(from_ledger > 0.0 && from_ledger.is_finite());
        // With an Abs bound every event carries eps = 1e-7, so the measured
        // RSS equals the uniform closed form over the same event count.
        let events = cs.ledger().lossy_events() as usize;
        let uniform = predict_energy_error(c, 1e-7, events);
        assert!(
            (from_ledger - uniform).abs() / uniform < 1e-9,
            "ledger {from_ledger} vs uniform {uniform}"
        );
    }
}
