//! A minimal complex number type for the signal-processing kernels.
//!
//! Kept local (rather than pulling in a numerics crate) so the whole
//! reproduction is self-contained; only the operations the FFT and the
//! sensor applications need are provided.

use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Construct from real and imaginary parts.
    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// `e^{i theta}` — the FFT twiddle factor.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (im, re) = theta.sin_cos();
        Complex { re, im }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex { re: self.re, im: -self.im }
    }

    /// Squared magnitude `|z|^2` (no square root — what the histogram and
    /// SSD kernels actually need).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Multiply both parts by a real scalar.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex { re: self.re * s, im: self.im * s }
    }

    /// Approximate equality for test assertions.
    pub fn approx_eq(self, other: Complex, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, o: Complex) -> Complex {
        Complex { re: self.re + o.re, im: self.im + o.im }
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, o: Complex) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, o: Complex) -> Complex {
        Complex { re: self.re - o.re, im: self.im - o.im }
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, o: Complex) {
        self.re -= o.re;
        self.im -= o.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, o: Complex) -> Complex {
        Complex {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, o: Complex) {
        *self = *self * o;
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex { re: -self.re, im: -self.im }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(3.0, -2.0);
        let b = Complex::new(-1.0, 4.0);
        assert_eq!(a + b, Complex::new(2.0, 2.0));
        assert_eq!(a - b, Complex::new(4.0, -6.0));
        // (3-2i)(-1+4i) = -3 + 12i + 2i - 8i^2 = 5 + 14i
        assert_eq!(a * b, Complex::new(5.0, 14.0));
        assert_eq!(-a, Complex::new(-3.0, 2.0));
        assert_eq!(a * Complex::ONE, a);
        assert_eq!(a + Complex::ZERO, a);
    }

    #[test]
    fn cis_and_conj() {
        let z = Complex::cis(std::f64::consts::PI / 2.0);
        assert!(z.approx_eq(Complex::new(0.0, 1.0), 1e-12));
        assert_eq!(z.conj().im, -z.im);
        assert!((Complex::new(3.0, 4.0).abs() - 5.0).abs() < 1e-12);
        assert_eq!(Complex::new(3.0, 4.0).norm_sqr(), 25.0);
    }

    #[test]
    fn assign_ops() {
        let mut z = Complex::new(1.0, 1.0);
        z += Complex::new(1.0, 0.0);
        z -= Complex::new(0.0, 1.0);
        z *= Complex::new(2.0, 0.0);
        assert_eq!(z, Complex::new(4.0, 0.0));
        assert_eq!(z.scale(0.5), Complex::new(2.0, 0.0));
    }
}
