//! The reconstructed evaluation matrix E1–E11 (see DESIGN.md §4).
//!
//! Each module regenerates one table/figure of the paper's evaluation
//! section as a [`Table`](crate::report::Table). The `experiments` binary
//! prints them and saves JSON records; EXPERIMENTS.md quotes the outputs.

pub mod e10_breakdown;
pub mod e11_ordering;
pub mod e1_characterization;
pub mod e2_ratio;
pub mod e3_throughput;
pub mod e4_ablation;
pub mod e5_speed_mode;
pub mod e6_rate_distortion;
pub mod e7_energy;
pub mod e8_fidelity;
pub mod e9_footprint;

use crate::corpus::CorpusTensor;
use crate::report::Table;
use compressors::{round_trip, Compressor, ErrorBound};

/// Aggregate round-trip measurement of one compressor over a tensor set.
#[derive(Debug, Clone)]
pub struct Aggregate {
    /// Uncompressed bytes.
    pub raw_bytes: usize,
    /// Compressed bytes.
    pub compressed_bytes: usize,
    /// Simulated compression seconds.
    pub compress_s: f64,
    /// Simulated decompression seconds.
    pub decompress_s: f64,
    /// Worst pointwise error.
    pub max_err: f64,
}

impl Aggregate {
    /// Total compression ratio.
    pub fn cr(&self) -> f64 {
        self.raw_bytes as f64 / self.compressed_bytes.max(1) as f64
    }

    /// Simulated compression throughput (bytes/s of input).
    pub fn compress_bps(&self) -> f64 {
        self.raw_bytes as f64 / self.compress_s
    }

    /// Simulated decompression throughput (bytes/s of output).
    pub fn decompress_bps(&self) -> f64 {
        self.raw_bytes as f64 / self.decompress_s
    }
}

/// Runs `comp` over every tensor and aggregates.
pub fn measure(comp: &dyn Compressor, tensors: &[CorpusTensor], bound: ErrorBound) -> Aggregate {
    let mut agg = Aggregate {
        raw_bytes: 0,
        compressed_bytes: 0,
        compress_s: 0.0,
        decompress_s: 0.0,
        max_err: 0.0,
    };
    for t in tensors {
        let r = round_trip(comp, &t.data, bound)
            .unwrap_or_else(|e| panic!("{} failed on {}: {e}", comp.name(), t.origin));
        agg.raw_bytes += t.nbytes();
        agg.compressed_bytes += r.compressed_bytes;
        agg.compress_s += t.nbytes() as f64 / r.gpu_compress_bps;
        agg.decompress_s += t.nbytes() as f64 / r.gpu_decompress_bps;
        agg.max_err = agg.max_err.max(r.quality.max_abs_error);
    }
    agg
}

/// One experiment: `quick` selects the reduced corpus.
pub type Runner = fn(bool) -> Vec<Table>;

/// Every experiment by id, in the order `all` runs them.
const ALL: [(&str, Runner); 11] = [
    ("e1", e1_characterization::run),
    ("e2", e2_ratio::run),
    ("e3", e3_throughput::run),
    ("e4", e4_ablation::run),
    ("e5", e5_speed_mode::run),
    ("e6", e6_rate_distortion::run),
    ("e7", e7_energy::run),
    ("e8", e8_fidelity::run),
    ("e9", e9_footprint::run),
    ("e10", e10_breakdown::run),
    ("e11", e11_ordering::run),
];

/// The experiments `ids` name (`"e1"`…`"e11"`, or `"all"` for every one),
/// in the order given. Every id is resolved before anything runs: the
/// first unknown one is the error.
pub fn resolve<'a>(ids: &[&'a str]) -> Result<Vec<(&'static str, Runner)>, &'a str> {
    let mut runs = Vec::new();
    for &id in ids {
        match ALL.iter().find(|(name, _)| *name == id) {
            Some(&run) => runs.push(run),
            None if id == "all" => runs.extend(ALL),
            None => return Err(id),
        }
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(ids: &[&'static str]) -> Result<Vec<&'static str>, &'static str> {
        resolve(ids).map(|runs| runs.iter().map(|(id, _)| *id).collect())
    }

    #[test]
    fn ids_resolve_in_order_and_an_unknown_one_is_named() {
        assert_eq!(names(&["e10", "e2"]), Ok(vec!["e10", "e2"]));
        assert_eq!(names(&["all"]).unwrap(), ALL.map(|(id, _)| id));
        assert_eq!(names(&["e10", "e99", "e1"]), Err("e99"));
        assert_eq!(names(&["all", "E1"]), Err("E1"));
    }
}
