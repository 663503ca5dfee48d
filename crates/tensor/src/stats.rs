//! Value-distribution statistics over tensors.
//!
//! The paper's evaluation begins by characterizing QTensor-generated tensors
//! (experiment E1): value ranges, the heavy mass of near-zero entries, and
//! how few distinct values they hold — properties the framework's
//! pre-processing stages exploit.

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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn negative_zero_distinct_from_zero() {
        // bit-exact semantics: -0.0 and 0.0 are different patterns, which is
        // what a lossless compressor sees.
        assert_eq!(distinct_values(&[0.0, -0.0]), 2);
        assert_eq!(distinct_values(&[1.0, 1.0, 2.0]), 2);
    }
}
