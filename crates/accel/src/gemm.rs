//! The devices' arithmetic as element types of the engine's sign
//! iteration: each [`Device`] type is a storage format and one dot-product
//! order, and its multiply is the device's GEMM. Every operation rounds its
//! exact result to storage.

use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rayon::prelude::*;

use sm_linalg::elem::Elem;
use sm_linalg::sign::SignElem;
use sm_linalg::{LinalgError, MatrixBase};

use crate::f16::F16;

const FP16: u8 = 0;
const FP16_MIXED: u8 = 1;
const FPGA_FP32: u8 = 2;

/// An element of simulated device `D`, kept as the `f32` holding its value.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Device<const D: u8>(f32);

/// Tensor-core FP16: binary16 operands, 4-wide tile products summed in
/// f32, the running sum rounded to binary16 after every tile.
pub type Fp16 = Device<FP16>;
/// Tensor-core FP16': the same tiles, the running sum kept in f32.
pub type Fp16Mixed = Device<FP16_MIXED>;
/// The FPGA's FP32: blocks of 8 summed by a pairwise adder tree, the block
/// sums added in sequence.
pub type FpgaFp32 = Device<FPGA_FP32>;

/// `Σ_k a[k]·b[k]` in device `D`'s order, before storage rounding.
fn dot<const D: u8>(a: &[f32], b: &[f32]) -> f64 {
    if D == FPGA_FP32 {
        let mut acc = 0.0f32;
        for (ba, bb) in a.chunks(8).zip(b.chunks(8)) {
            let mut lane = [0.0f32; 8];
            for (l, (x, y)) in lane.iter_mut().zip(ba.iter().zip(bb)) {
                *l = x * y;
            }
            // The adder tree in the DSP fabric.
            for stride in [1, 2, 4] {
                for p in (0..8 - stride).step_by(2 * stride) {
                    lane[p] += lane[p + stride];
                }
            }
            acc += lane[0];
        }
        return acc as f64;
    }
    let tiles = a.chunks(4).zip(b.chunks(4));
    let tiles = tiles.map(|(ta, tb)| ta.iter().zip(tb).fold(0.0f32, |t, (x, y)| t + x * y));
    if D == FP16 {
        tiles.fold(0.0, |acc, tile| F16::round_f64(acc + tile as f64))
    } else {
        tiles.fold(0.0f32, |acc, tile| acc + tile) as f64
    }
}

impl<const D: u8> SignElem for Device<D> {
    /// `C = A·B` by one device dot per entry, parallel over columns; `A` is
    /// read through one transposed copy, so every dot streams both operands.
    fn multiply(
        a: &MatrixBase<Self>,
        b: &MatrixBase<Self>,
        _wide_acc: bool,
        c: &mut MatrixBase<Self>,
    ) -> Result<(), LinalgError> {
        let ((m, k), n) = (a.shape(), b.ncols());
        if b.nrows() != k || c.shape() != (m, n) {
            let (op, lhs, rhs) = ("device multiply", a.shape(), b.shape());
            return Err(LinalgError::DimensionMismatch { op, lhs, rhs });
        }
        let rows: Vec<f32> = a.transpose().as_slice().iter().map(|v| v.0).collect();
        let cols: Vec<f32> = b.as_slice().iter().map(|v| v.0).collect();
        c.as_mut_slice()
            .par_chunks_mut(m.max(1))
            .enumerate()
            .for_each(|(j, col)| {
                let bj = &cols[j * k..(j + 1) * k];
                for (i, ci) in col.iter_mut().enumerate() {
                    *ci = Self::from_f64(dot::<D>(&rows[i * k..(i + 1) * k], bj));
                }
            });
        Ok(())
    }
}

impl<const D: u8> Elem for Device<D> {
    const ZERO: Self = Device(0.0);
    const ONE: Self = Device(1.0);
    const BYTES: usize = if D == FPGA_FP32 { 4 } else { 2 };

    fn from_f64(x: f64) -> Self {
        Device(if D == FPGA_FP32 {
            x as f32
        } else {
            F16::round_f64(x) as f32
        })
    }
    fn to_f64(self) -> f64 {
        self.0 as f64
    }
    fn abs(self) -> Self {
        Device(self.0.abs())
    }
    fn sqrt(self) -> Self {
        Self::from_f64(self.to_f64().sqrt())
    }
}

impl<const D: u8> Neg for Device<D> {
    type Output = Self;
    fn neg(self) -> Self {
        Device(-self.0)
    }
}

macro_rules! device_impls {
    ($($op:ident $f:ident $op_assign:ident $f_assign:ident,)*) => {$(
        impl<const D: u8> $op for Device<D> {
            type Output = Self;
            fn $f(self, rhs: Self) -> Self {
                Self::from_f64(self.to_f64().$f(rhs.to_f64()))
            }
        }
        impl<const D: u8> $op_assign for Device<D> {
            fn $f_assign(&mut self, rhs: Self) {
                *self = (*self).$f(rhs);
            }
        }
    )*};
    ($($fmt:ident)*) => {$(
        impl<const D: u8> fmt::$fmt for Device<D> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::$fmt::fmt(&self.0, f)
            }
        }
    )*};
}

device_impls! {
    Add add AddAssign add_assign,
    Sub sub SubAssign sub_assign,
    Mul mul MulAssign mul_assign,
    Div div DivAssign div_assign,
}
device_impls!(Display LowerExp);

#[cfg(test)]
mod tests {
    use super::*;
    use sm_linalg::gemm::matmul;
    use sm_linalg::Matrix;

    /// `A·B` through `T`'s multiply, read back in f64.
    fn mul<T: SignElem>(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = MatrixBase::<T>::zeros(a.nrows(), b.ncols());
        T::multiply(&a.cast(), &b.cast(), false, &mut c).unwrap();
        c.cast()
    }

    type Product = fn(&Matrix, &Matrix) -> Matrix;

    /// Every mode's multiply: the three device types, GPU FP32 and FP64.
    const MODES: [(&str, Product); 5] = [
        ("FP16", mul::<Fp16>),
        ("FP16'", mul::<Fp16Mixed>),
        ("FP32", mul::<f32>),
        ("FP64", mul::<f64>),
        ("FPGA FP32", mul::<FpgaFp32>),
    ];

    fn test_mats(n: usize) -> (Matrix, Matrix) {
        let a = Matrix::from_fn(n, n, |i, j| ((i * 13 + j * 7) % 9) as f64 * 0.11 - 0.4);
        let b = Matrix::from_fn(n, n, |i, j| ((i * 5 + j * 11) % 7) as f64 * 0.13 - 0.35);
        (a, b)
    }

    #[test]
    fn fp16_error_larger_than_fp32() {
        let (a, b) = test_mats(48);
        let c64 = matmul(&a, &b).unwrap();
        let e16 = mul::<Fp16>(&a, &b).max_abs_diff(&c64);
        let e16m = mul::<Fp16Mixed>(&a, &b).max_abs_diff(&c64);
        let e32 = mul::<f32>(&a, &b).max_abs_diff(&c64);
        assert!(e16 > e32, "FP16 ({e16}) must be noisier than FP32 ({e32})");
        assert!(
            e16m <= e16 + 1e-12,
            "mixed accumulation ({e16m}) must not be worse than FP16 ({e16})"
        );
    }

    #[test]
    fn gpu_and_fpga_fp32_disagree_in_rounding_only() {
        // Large enough k for ordering effects to appear; same f32 storage,
        // different multiply.
        let (a, b) = test_mats(64);
        let gpu = mul::<f32>(&a, &b);
        let fpga = mul::<FpgaFp32>(&a, &b);
        let diff = gpu.max_abs_diff(&fpga);
        assert!(diff > 0.0, "different summation orders should differ");
        assert!(diff < 1e-4, "but only at rounding level: {diff}");
    }

    #[test]
    fn identity_exact_in_all_modes() {
        let i = Matrix::identity(8);
        let x = Matrix::from_fn(8, 8, |r, c| ((r + 2 * c) % 3) as f64 - 1.0);
        for (label, mul) in MODES {
            // Integers up to 2 are exact in binary16.
            assert!(mul(&x, &i).allclose(&x, 0.0), "{label} broke identity");
        }
    }

    #[test]
    fn storage_rounding() {
        assert_eq!(Fp16::from_f64(1.0 + 1e-5).to_f64(), 1.0);
        assert_eq!(Fp16Mixed::from_f64(0.1).to_f64(), F16::round_f64(0.1));
        assert_eq!(FpgaFp32::from_f64(1.0 + 1e-9).to_f64(), 1.0);
        // Arithmetic rounds too: 1 + 2⁻¹² is not a binary16 value.
        let tiny = Fp16::from_f64(2f64.powi(-12));
        assert_eq!((Fp16::ONE + tiny).to_f64(), 1.0);
        assert_eq!(
            (FpgaFp32::ONE / FpgaFp32::from_f64(3.0)).to_f64(),
            (1.0f32 / 3.0) as f64
        );
        assert_eq!((<Fp16 as Elem>::BYTES, <FpgaFp32 as Elem>::BYTES), (2, 4));
    }

    #[test]
    fn non_square_and_tile_remainders() {
        // k = 10 exercises the 4-wide tile and 8-wide block remainders.
        let a = Matrix::from_fn(3, 10, |i, j| (i + j) as f64 * 0.25);
        let b = Matrix::from_fn(10, 5, |i, j| (i as f64 - j as f64) * 0.25);
        let r = matmul(&a, &b).unwrap();
        for (label, mul) in MODES {
            let c = mul(&a, &b);
            assert_eq!(c.shape(), (3, 5));
            assert!(
                c.max_abs_diff(&r) < 0.2,
                "{label} wildly off: {}",
                c.max_abs_diff(&r)
            );
        }
    }
}
