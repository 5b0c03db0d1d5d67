//! # sm-accel — simulated hardware acceleration
//!
//! Paper Sec. VI offloads the 3rd-order Padé sign iteration (Eq. 19) to
//! Nvidia tensor cores (FP16 / mixed FP16' / FP32 / FP64) and a Stratix 10
//! FPGA (FP32). No GPU or FPGA exists here, so this crate reproduces what
//! the paper reports:
//!
//! * **Numerics** (Figs. 12–13): the devices' arithmetic as element types
//!   of the engine's own `sm_linalg::sign::sign_iteration_in` — bit-exact
//!   binary16 ([`mod@f16`]) and, in [`gemm`], the FP16 and FP16' tiles and
//!   the FPGA's FP32 blocking. GPU FP32 and FP64 are `f32` and `f64`, so
//!   GPU and FPGA FP32 share storage and differ in their multiply alone.
//! * **Throughput** (Table I): an analytic device model ([`perfmodel`]).

pub mod f16;
pub mod gemm;
pub mod perfmodel;

pub use f16::F16;
pub use gemm::{Fp16, Fp16Mixed, FpgaFp32};
