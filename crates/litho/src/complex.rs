use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub};

use serde::{Deserialize, Serialize};

/// A complex number with `f64` components.
///
/// The approved offline dependency set contains no complex-number crate, so
/// the imaging engine carries its own minimal implementation. Only the
/// operations the imaging engine needs are provided.
///
/// # Examples
///
/// ```
/// use svt_litho::Complex;
///
/// let i = Complex::new(0.0, 1.0);
/// assert_eq!(i * i, Complex::new(-1.0, 0.0));
/// assert!((Complex::from_polar(2.0, 0.0) - Complex::new(2.0, 0.0)).norm() < 1e-12);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

    /// Creates a complex number from rectangular components.
    #[must_use]
    pub fn new(re: f64, im: f64) -> Complex {
        Complex { re, im }
    }

    /// Creates `r·e^{iθ}`.
    #[must_use]
    pub fn from_polar(r: f64, theta: f64) -> Complex {
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// Creates the unit phasor `e^{iθ}`.
    #[must_use]
    pub fn cis(theta: f64) -> Complex {
        Complex::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[must_use]
    pub fn conj(self) -> Complex {
        Complex::new(self.re, -self.im)
    }

    /// Squared magnitude `|z|²` — the image intensity of a field amplitude.
    #[must_use]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[must_use]
    pub fn norm(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Scales by a real factor.
    #[must_use]
    pub fn scale(self, k: f64) -> Complex {
        Complex::new(self.re * k, self.im * k)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Complex {
        Complex::new(re, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z + Complex::ZERO, z);
        assert_eq!(z * Complex::ONE, z);
        assert_eq!(-z, Complex::new(-3.0, 4.0));
        assert_eq!(z - z, Complex::ZERO);
    }

    #[test]
    fn multiplication_matches_definition() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        // (1+2i)(3-i) = 3 - i + 6i - 2i² = 5 + 5i
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        let mut c = a;
        c *= b;
        assert_eq!(c, Complex::new(5.0, 5.0));
    }

    #[test]
    fn norms_and_conjugate() {
        let z = Complex::new(3.0, -4.0);
        assert!((z.norm() - 5.0).abs() < EPS);
        assert!((z.norm_sqr() - 25.0).abs() < EPS);
        assert_eq!(z.conj(), Complex::new(3.0, 4.0));
        // z·z̄ = |z|²
        let p = z * z.conj();
        assert!((p.re - 25.0).abs() < EPS && p.im.abs() < EPS);
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_2);
        assert!(z.re.abs() < EPS);
        assert!((z.im - 2.0).abs() < EPS);
        assert!((Complex::cis(0.7).norm() - 1.0).abs() < EPS);
    }

    #[test]
    fn scale_and_from_real() {
        assert_eq!(Complex::new(1.0, -2.0).scale(3.0), Complex::new(3.0, -6.0));
        assert_eq!(Complex::from(2.5), Complex::new(2.5, 0.0));
    }
}
