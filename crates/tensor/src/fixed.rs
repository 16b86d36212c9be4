//! Q8.8 16-bit fixed point — the accelerator's datapath type.
//!
//! The paper's implementation uses a 16-bit datapath ("the width of data is
//! 16 in our system"); DCGAN activations sit comfortably in `[-8, 8]` after
//! batch normalisation, so an 8.8 split gives enough headroom while keeping a
//! resolution of 1/256. Multiplication accumulates in `i32` and rounds to
//! nearest, saturating at the representable extremes — the standard DSP-slice
//! behaviour the FPGA design relies on.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

use crate::num::Num;

/// Number of fractional bits in the representation.
pub const FRAC_BITS: u32 = 8;
const SCALE: f32 = (1 << FRAC_BITS) as f32;

/// A Q8.8 fixed-point number stored in 16 bits.
///
/// # Example
///
/// ```
/// use zfgan_tensor::Fx;
///
/// let a = Fx::from_f32(1.5);
/// let b = Fx::from_f32(-2.0);
/// assert_eq!((a * b).to_f32(), -3.0);
/// assert_eq!((a + b).to_f32(), -0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fx(i16);

impl Fx {
    /// The additive identity.
    pub const ZERO: Fx = Fx(0);
    /// The multiplicative identity (`1.0`).
    pub const ONE: Fx = Fx(1 << FRAC_BITS);
    /// Largest representable value (~127.996).
    pub const MAX: Fx = Fx(i16::MAX);
    /// Smallest representable value (−128.0).
    pub const MIN: Fx = Fx(i16::MIN);

    /// Creates a fixed-point value from its raw 16-bit representation.
    pub const fn from_raw(raw: i16) -> Self {
        Fx(raw)
    }

    /// The raw 16-bit representation.
    pub const fn raw(self) -> i16 {
        self.0
    }

    /// Converts from `f32`, rounding to nearest and saturating.
    pub fn from_f32(value: f32) -> Self {
        let scaled = (value * SCALE).round();
        if scaled >= f32::from(i16::MAX) {
            Fx::MAX
        } else if scaled <= f32::from(i16::MIN) {
            Fx::MIN
        } else {
            Fx(scaled as i16)
        }
    }

    /// Converts to `f32` exactly (every `Fx` is representable in `f32`).
    pub fn to_f32(self) -> f32 {
        f32::from(self.0) / SCALE
    }

    fn saturate(wide: i32) -> Self {
        if wide > i32::from(i16::MAX) {
            Fx::MAX
        } else if wide < i32::from(i16::MIN) {
            Fx::MIN
        } else {
            Fx(wide as i16)
        }
    }
}

impl Add for Fx {
    type Output = Fx;

    fn add(self, rhs: Fx) -> Fx {
        Fx::saturate(i32::from(self.0) + i32::from(rhs.0))
    }
}

impl Sub for Fx {
    type Output = Fx;

    fn sub(self, rhs: Fx) -> Fx {
        Fx::saturate(i32::from(self.0) - i32::from(rhs.0))
    }
}

impl Mul for Fx {
    type Output = Fx;

    fn mul(self, rhs: Fx) -> Fx {
        // 16×16→32-bit product carries 2·FRAC_BITS fractional bits; round to
        // nearest (ties toward +∞) when dropping the extra FRAC_BITS.
        let wide = i32::from(self.0) * i32::from(rhs.0);
        let half = 1 << (FRAC_BITS - 1);
        Fx::saturate((wide + half) >> FRAC_BITS)
    }
}

impl Neg for Fx {
    type Output = Fx;

    fn neg(self) -> Fx {
        Fx::saturate(-i32::from(self.0))
    }
}

impl AddAssign for Fx {
    fn add_assign(&mut self, rhs: Fx) {
        *self = *self + rhs;
    }
}

impl fmt::Display for Fx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl From<i16> for Fx {
    fn from(raw: i16) -> Self {
        Fx::from_raw(raw)
    }
}

impl Num for Fx {
    fn zero() -> Self {
        Fx::ZERO
    }

    fn one() -> Self {
        Fx::ONE
    }

    fn from_f32(value: f32) -> Self {
        Fx::from_f32(value)
    }

    fn to_f64(self) -> f64 {
        f64::from(self.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_exact_values() {
        for v in [-4.0f32, -0.5, 0.0, 0.25, 1.0, 3.75, 100.0] {
            assert_eq!(Fx::from_f32(v).to_f32(), v, "value {v}");
        }
    }

    #[test]
    fn multiplication_rounds_to_nearest() {
        let a = Fx::from_f32(0.5);
        let b = Fx::from_f32(0.5);
        assert_eq!((a * b).to_f32(), 0.25);
        // 1/256 * 1/2 = 1/512 rounds up to 1/256.
        let tiny = Fx::from_raw(1);
        assert_eq!((tiny * Fx::from_f32(0.5)).raw(), 1);
    }

    #[test]
    fn saturates_instead_of_wrapping() {
        let big = Fx::from_f32(100.0);
        assert_eq!(big * big, Fx::MAX);
        assert_eq!(-Fx::MIN, Fx::MAX);
        assert_eq!(Fx::MIN + Fx::MIN, Fx::MIN);
    }

    #[test]
    fn from_f32_saturates() {
        assert_eq!(Fx::from_f32(1e6), Fx::MAX);
        assert_eq!(Fx::from_f32(-1e6), Fx::MIN);
    }

    #[test]
    fn num_impl_matches_inherent() {
        assert_eq!(<Fx as Num>::zero(), Fx::ZERO);
        assert_eq!(<Fx as Num>::one(), Fx::ONE);
        assert!(Fx::ZERO.is_zero());
        assert!(!Fx::ONE.is_zero());
    }

    #[test]
    fn display_prints_decimal() {
        assert_eq!(Fx::from_f32(1.5).to_string(), "1.5");
    }
}
