//! Scalar element abstraction for the dense kernels.
//!
//! The paper's central performance claim is that the submatrix method
//! *tolerates approximate computing*: the dense submatrix solves can run in
//! reduced precision with negligible error in the assembled density matrix
//! (Sec. IV, Sec. VI). To make that executable rather than merely emulated,
//! the hot dense kernels (GEMM, the sign/Padé iterations) are generic over
//! the [`Elem`] scalar trait with `f32` and `f64` instances, and the
//! numeric phase selects between them through [`Precision`].
//!
//! [`Precision`] is strictly a **numeric-phase** knob: it never influences
//! sparsity patterns, plans, or any plan-cache key (see
//! `sm_core::engine`), so one cached symbolic plan serves every precision.

use std::fmt::{Debug, Display, LowerExp};
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Scalar type the dense kernels are generic over (`f32` or `f64`).
pub trait Elem:
    Copy
    + PartialEq
    + PartialOrd
    + Send
    + Sync
    + Debug
    + Display
    + LowerExp
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Storage bytes per element (what the wire formats move).
    const BYTES: usize;

    /// Round an `f64` into this storage format.
    fn from_f64(x: f64) -> Self;
    /// Widen to `f64` (exact for both instances).
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
}

impl Elem for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const BYTES: usize = 8;

    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }

    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
}

impl Elem for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const BYTES: usize = 4;

    #[inline]
    fn from_f64(x: f64) -> Self {
        x as f32
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }

    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }

    #[inline]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
}

/// Numeric-phase precision of a submatrix evaluation.
///
/// This selects the scalar type of the dense solve kernels *and* the value
/// encoding of the rank-transfer wire format; it deliberately carries no
/// symbolic-phase meaning (it must never enter a plan fingerprint or
/// plan-cache key — precision changes values, never patterns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Double precision everywhere (the reference).
    #[default]
    Fp64,
    /// Single-precision storage and solve kernels; gathered *and*
    /// scattered block values travel as `f32` (half the bytes).
    Fp32,
    /// Single-precision solve followed by one cheap `f64` Newton–Schulz
    /// refinement pass. Gathers travel as `f32`; the refined result is
    /// scattered in `f64` so the recovered accuracy is not rounded away.
    Fp32Refined,
}

/// Tolerance floor of the `f32` sign iterations: the involutority residual
/// of a converged single-precision iterate bottoms out near `n·ε_f32`, so
/// tighter requests are clamped here instead of spinning to the budget.
pub const F32_SIGN_TOL: f64 = 1e-5;

impl Precision {
    /// All modes in ablation order.
    pub fn all() -> [Precision; 3] {
        [Precision::Fp64, Precision::Fp32, Precision::Fp32Refined]
    }

    /// Stable display label (bench output schema).
    pub fn label(&self) -> &'static str {
        match self {
            Precision::Fp64 => "fp64",
            Precision::Fp32 => "fp32",
            Precision::Fp32Refined => "fp32_refined",
        }
    }

    /// True when submatrix values are stored/solved in `f32`.
    pub fn storage_is_f32(&self) -> bool {
        !matches!(self, Precision::Fp64)
    }

    /// True when *gathered* input block values travel as `f32`. Lossless
    /// relative to the solve, which rounds its assembled input to `f32`
    /// storage first in both `Fp32` and `Fp32Refined`.
    pub fn gather_is_f32(&self) -> bool {
        self.storage_is_f32()
    }

    /// True when *scattered* result block values travel as `f32`. Only
    /// plain `Fp32` results are `f32`-representable (and thus travel
    /// losslessly); `Fp32Refined` ships its `f64` refinement intact.
    pub fn scatter_is_f32(&self) -> bool {
        matches!(self, Precision::Fp32)
    }

    /// Round a value to the storage format.
    pub fn round_storage(&self, x: f64) -> f64 {
        if self.storage_is_f32() {
            x as f32 as f64
        } else {
            x
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elem_constants_and_conversions() {
        assert_eq!(<f64 as Elem>::BYTES, 8);
        assert_eq!(<f32 as Elem>::BYTES, 4);
        assert_eq!(f32::from_f64(1.0 + 1e-9), 1.0f32);
        assert_eq!(f64::from_f64(1.0 + 1e-9), 1.0 + 1e-9);
        assert_eq!((-2.0f32).abs(), 2.0);
        assert_eq!(4.0f64.sqrt(), 2.0);
    }

    #[test]
    fn precision_wire_and_storage_split() {
        assert!(!Precision::Fp64.storage_is_f32());
        assert!(Precision::Fp32.storage_is_f32());
        assert!(Precision::Fp32Refined.storage_is_f32());
        // Refined gathers in f32 but scatters its f64 refinement intact.
        assert!(Precision::Fp32Refined.gather_is_f32());
        assert!(!Precision::Fp32Refined.scatter_is_f32());
        assert!(Precision::Fp32.scatter_is_f32());
    }

    #[test]
    fn round_storage_matches_f32_cast() {
        let x = 0.1f64;
        assert_eq!(Precision::Fp32.round_storage(x), 0.1f32 as f64);
        assert_eq!(Precision::Fp32Refined.round_storage(x), 0.1f32 as f64);
        assert_eq!(Precision::Fp64.round_storage(x), x);
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<_> = Precision::all().iter().map(|p| p.label()).collect();
        assert_eq!(labels, ["fp64", "fp32", "fp32_refined"]);
    }
}
