//! Value-distribution statistics over tensors.
//!
//! The paper's evaluation begins by characterizing QTensor-generated tensors
//! (experiment E1): value ranges, the heavy mass of near-zero entries, and the
//! large fraction of duplicated fixed-size blocks. Those three properties are
//! exactly what the framework's pre-processing stages exploit, so the same
//! statistics drive both the dataset table and the pipeline's heuristics.

use crate::complex::Complex64;
use crate::planes::as_interleaved;
use crate::tensor::Tensor;
use std::collections::HashSet;

/// Summary statistics of a flat `f64` buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueStats {
    /// Number of values inspected.
    pub count: usize,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// `max - min`; the SZ relative error bound is defined against this.
    pub range: f64,
    /// Mean value.
    pub mean: f64,
    /// Standard deviation (population).
    pub std_dev: f64,
    /// Fraction of values with magnitude ≤ `near_zero_threshold`.
    pub near_zero_frac: f64,
    /// Threshold used for `near_zero_frac`.
    pub near_zero_threshold: f64,
}

impl ValueStats {
    /// Computes statistics over `values` with the given near-zero threshold.
    ///
    /// Empty input yields a zeroed record (range 0).
    pub fn of(values: &[f64], near_zero_threshold: f64) -> Self {
        if values.is_empty() {
            return ValueStats {
                count: 0,
                min: 0.0,
                max: 0.0,
                range: 0.0,
                mean: 0.0,
                std_dev: 0.0,
                near_zero_frac: 0.0,
                near_zero_threshold,
            };
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        let mut near_zero = 0usize;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
            sum += v;
            if v.abs() <= near_zero_threshold {
                near_zero += 1;
            }
        }
        let n = values.len() as f64;
        let mean = sum / n;
        let var = values.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / n;
        ValueStats {
            count: values.len(),
            min,
            max,
            range: max - min,
            mean,
            std_dev: var.sqrt(),
            near_zero_frac: near_zero as f64 / n,
            near_zero_threshold,
        }
    }

    /// Statistics over the interleaved real/imag stream of a complex tensor.
    pub fn of_tensor(t: &Tensor, near_zero_threshold: f64) -> Self {
        ValueStats::of(as_interleaved(t.data()), near_zero_threshold)
    }
}

/// Fraction of fixed-size blocks that are exact duplicates of an earlier
/// block. Gate-structured tensors repeat whole slices, which the dedup
/// pre-processing stage (P3) exploits.
///
/// A trailing partial block is ignored. Returns 0 when there are fewer than
/// two whole blocks.
pub fn duplicated_block_frac(values: &[f64], block: usize) -> f64 {
    assert!(block > 0, "block size must be positive");
    let nblocks = values.len() / block;
    if nblocks < 2 {
        return 0.0;
    }
    let mut seen: HashSet<Vec<u64>> = HashSet::with_capacity(nblocks);
    let mut dup = 0usize;
    for b in 0..nblocks {
        let key: Vec<u64> = values[b * block..(b + 1) * block]
            .iter()
            .map(|v| v.to_bits())
            .collect();
        if !seen.insert(key) {
            dup += 1;
        }
    }
    dup as f64 / nblocks as f64
}

/// Number of distinct bit patterns among the doubles of a buffer. QTensor
/// tensors built from a handful of gate entries often contain very few unique
/// values, which bounds the entropy the compressor can exploit.
pub fn distinct_values(values: &[f64]) -> usize {
    let mut seen: HashSet<u64> = HashSet::new();
    for &v in values {
        seen.insert(v.to_bits());
    }
    seen.len()
}

/// Maximum pointwise complex distance between equally-shaped buffers.
///
/// # Panics
/// Panics when lengths differ.
pub fn max_pointwise_error(a: &[Complex64], b: &[Complex64]) -> f64 {
    assert_eq!(a.len(), b.len(), "buffers must have equal length");
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn stats_on_known_data() {
        let s = ValueStats::of(&[0.0, 1.0, -1.0, 0.0001], 0.001);
        assert_eq!(s.count, 4);
        assert_eq!(s.min, -1.0);
        assert_eq!(s.max, 1.0);
        assert_eq!(s.range, 2.0);
        assert!((s.near_zero_frac - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stats_empty_is_zeroed() {
        let s = ValueStats::of(&[], 0.1);
        assert_eq!(s.count, 0);
        assert_eq!(s.range, 0.0);
    }

    #[test]
    fn stats_constant_has_zero_std() {
        let s = ValueStats::of(&[2.5; 100], 1e-9);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!(s.std_dev.abs() < 1e-12);
        assert_eq!(s.near_zero_frac, 0.0);
    }

    #[test]
    fn duplicate_blocks_counted() {
        // blocks of 2: [1,2] [3,4] [1,2] [1,2] -> 2 of 4 duplicated
        let v = [1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 1.0, 2.0];
        assert!((duplicated_block_frac(&v, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicate_blocks_all_unique() {
        let v: Vec<f64> = (0..16).map(|i| i as f64).collect();
        assert_eq!(duplicated_block_frac(&v, 4), 0.0);
    }

    #[test]
    fn duplicate_blocks_short_input() {
        assert_eq!(duplicated_block_frac(&[1.0, 2.0], 4), 0.0);
    }

    #[test]
    fn negative_zero_distinct_from_zero() {
        // bit-exact semantics: -0.0 and 0.0 are different patterns, which is
        // what a lossless compressor sees.
        assert_eq!(distinct_values(&[0.0, -0.0]), 2);
        assert_eq!(distinct_values(&[1.0, 1.0, 2.0]), 2);
    }

    #[test]
    fn tensor_stats_cover_both_planes() {
        let t = Tensor::qubit(
            vec![0],
            vec![Complex64::new(0.0, 5.0), Complex64::new(-5.0, 0.0)],
        )
        .unwrap();
        let s = ValueStats::of_tensor(&t, 1e-9);
        assert_eq!(s.count, 4);
        assert_eq!(s.min, -5.0);
        assert_eq!(s.max, 5.0);
        assert!((s.near_zero_frac - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pointwise_error() {
        let a = vec![Complex64::new(1.0, 0.0), Complex64::new(0.0, 1.0)];
        let b = vec![Complex64::new(1.0, 0.0), Complex64::new(0.0, 0.0)];
        assert!((max_pointwise_error(&a, &b) - 1.0).abs() < 1e-12);
    }
}
