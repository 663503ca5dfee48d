//! # qcf-bench — evaluation corpus and experiment harness
//!
//! Regenerates every table/figure of the paper's evaluation (DESIGN.md §4,
//! experiments E1–E9) from scratch: the `experiments` binary prints each
//! table and saves a JSON record under `results/`. Criterion benches cover
//! the per-compressor kernels, the pipeline ablation and the design-choice
//! ablations DESIGN.md calls out.

pub mod cli;
pub mod corpus;
pub mod experiments;
pub mod report;
pub mod run_report;
pub mod slo_cmd;
pub mod top;

/// Serializes tests that drive the process-global telemetry substrate
/// (registry values, sampler ring, SLO engine, journal) — concurrent
/// tests would reset each other's state mid-run.
#[cfg(test)]
pub(crate) fn telemetry_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    qcf_telemetry::lock_unpoisoned(&LOCK)
}
