//! Zero-copy views of complex tensors as flat `f64` buffers.
//!
//! QTensor stores tensors as interleaved complex values (`re, im, re, im, …`).
//! The paper's first pre-processing step (P1) de-interleaves them into two
//! contiguous *planes* — a real plane and an imaginary plane — because the
//! Lorenzo predictor in SZ-family compressors predicts much better when
//! consecutive values come from the same component. Codecs take the
//! interleaved view from here and split the planes themselves.

use crate::complex::Complex64;

/// Reinterprets a complex slice as interleaved `f64` pairs without copying.
///
/// Safe because [`Complex64`] is `#[repr(C)]` with two `f64` fields.
#[inline]
pub fn as_interleaved(values: &[Complex64]) -> &[f64] {
    // SAFETY: Complex64 is #[repr(C)] { re: f64, im: f64 } — size 16, align 8 —
    // so N complex values are exactly 2N contiguous f64 with the same alignment.
    unsafe { std::slice::from_raw_parts(values.as_ptr() as *const f64, values.len() * 2) }
}

/// Mutable version of [`as_interleaved`].
#[inline]
pub fn as_interleaved_mut(values: &mut [Complex64]) -> &mut [f64] {
    // SAFETY: see `as_interleaved`.
    unsafe { std::slice::from_raw_parts_mut(values.as_mut_ptr() as *mut f64, values.len() * 2) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new(i as f64 * 0.5, -(i as f64)))
            .collect()
    }

    #[test]
    fn interleaved_view_alternates_re_and_im() {
        let v = sample(9);
        let want: Vec<f64> = v.iter().flat_map(|c| [c.re, c.im]).collect();
        assert_eq!(as_interleaved(&v), want);
    }

    #[test]
    fn interleaved_mut_writes_through() {
        let mut v = sample(4);
        as_interleaved_mut(&mut v)[1] = 42.0;
        assert_eq!(v[0].im, 42.0);
    }

    #[test]
    fn empty_slices_are_fine() {
        let v: Vec<Complex64> = Vec::new();
        assert!(as_interleaved(&v).is_empty());
    }
}
