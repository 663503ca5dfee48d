//! Minimal double-precision complex arithmetic.
//!
//! The simulator only needs a small, predictable subset of complex math, so
//! rather than pulling in an external crate we define it here. The layout is
//! `#[repr(C)]` with `re` first so a `&[Complex64]` can be reinterpreted as an
//! interleaved `&[f64]` of twice the length — the compression framework's
//! de-interleaving pre-processing step relies on that layout.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from Cartesian parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Returns `e^(i * theta)` — a unit phasor.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex64 {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `re² + im²`; cheaper than [`Complex64::abs`].
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude (Euclidean norm).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase angle) in radians.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex64 {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Multiplicative inverse. Returns non-finite parts when `self` is zero,
    /// matching IEEE division semantics.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sq();
        Complex64 {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Fused multiply-add: `self + a * b`. The compiler can keep this in
    /// registers inside contraction inner loops.
    #[inline(always)]
    pub fn mul_add(self, a: Complex64, b: Complex64) -> Self {
        Complex64 {
            re: self.re + a.re * b.re - a.im * b.im,
            im: self.im + a.re * b.im + a.im * b.re,
        }
    }

    /// Returns true when both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Approximate equality with absolute tolerance `tol` on each part.
    #[inline]
    pub fn approx_eq(self, other: Complex64, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64 {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl AddAssign for Complex64 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64 {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl SubAssign for Complex64 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Complex64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64 {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl MulAssign for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w = z * w^-1 by definition
    fn div(self, rhs: Complex64) -> Complex64 {
        self * rhs.inv()
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn neg(self) -> Complex64 {
        Complex64 {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Complex64::real(re)
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}i",
            self.re,
            if self.im < 0.0 { "-" } else { "+" },
            self.im.abs()
        )
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl std::iter::Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn add_sub_roundtrip() {
        let a = Complex64::new(1.5, -2.5);
        let b = Complex64::new(-0.25, 4.0);
        assert!((a + b - b).approx_eq(a, TOL));
    }

    #[test]
    fn mul_matches_expansion() {
        let a = Complex64::new(2.0, 3.0);
        let b = Complex64::new(-1.0, 0.5);
        let c = a * b;
        assert!((c.re - (-2.0 - 3.0 * 0.5)).abs() < TOL);
        assert!((c.im - (2.0 * 0.5 + -3.0)).abs() < TOL);
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!((Complex64::I * Complex64::I).approx_eq(-Complex64::ONE, TOL));
    }

    #[test]
    fn conj_mul_is_norm_sq() {
        let a = Complex64::new(3.0, -4.0);
        let p = a * a.conj();
        assert!((p.re - 25.0).abs() < TOL);
        assert!(p.im.abs() < TOL);
        assert!((a.abs() - 5.0).abs() < TOL);
    }

    #[test]
    fn cis_is_unit() {
        for k in 0..16 {
            let z = Complex64::cis(k as f64 * 0.4);
            assert!((z.abs() - 1.0).abs() < TOL);
        }
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -0.5);
        assert!(((a * b) / b).approx_eq(a, 1e-10));
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let acc = Complex64::new(0.5, 0.25);
        let a = Complex64::new(1.0, -1.0);
        let b = Complex64::new(2.0, 3.0);
        assert!(acc.mul_add(a, b).approx_eq(acc + a * b, TOL));
    }

    #[test]
    fn arg_of_the_positive_imaginary_axis() {
        let z = Complex64::new(0.0, 2.0);
        assert!((z.arg() - std::f64::consts::FRAC_PI_2).abs() < TOL);
    }

    #[test]
    fn sum_folds_zero() {
        let v = vec![Complex64::ONE, Complex64::I, Complex64::new(1.0, 1.0)];
        let s: Complex64 = v.into_iter().sum();
        assert!(s.approx_eq(Complex64::new(2.0, 2.0), TOL));
    }

    #[test]
    fn layout_allows_interleaved_view() {
        // The compression pipeline reinterprets &[Complex64] as &[f64].
        assert_eq!(std::mem::size_of::<Complex64>(), 16);
        assert_eq!(std::mem::align_of::<Complex64>(), 8);
        let v = [Complex64::new(1.0, 2.0), Complex64::new(3.0, 4.0)];
        let flat = crate::planes::as_interleaved(&v);
        assert_eq!(flat, &[1.0, 2.0, 3.0, 4.0]);
    }
}
