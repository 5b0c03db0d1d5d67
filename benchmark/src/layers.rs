//! Machine-level probes of single layers, the same on every workload:
//! the GEMM kernels against the CPU's own FMA peak (measured in the same
//! pinned run), and the communicator's fixed costs.

use std::hint::black_box;
use std::time::Instant;

use sm_comsim::{run_ranks, Comm, ReduceOp};
use sm_linalg::gemm::{matmul, matmul_wide};
use sm_linalg::{Matrix, MatrixF32};

use crate::inputs::Rng;
use crate::report::Metrics;
use crate::stats::median_seconds;

/// GEMM probe size: the dense workloads' submatrix scale.
const GEMM_N: usize = 512;

/// Independent accumulator vectors of the FMA probe: two FMA pipes of
/// latency four need eight chains in flight.
#[cfg(target_arch = "x86_64")]
const CHAINS: usize = 8;

// One FMA chain kernel per (scalar, vector width), written with the
// vendor intrinsics: left to the auto-vectoriser the 16-lane f32 kernel
// stays scalar and reads a twentieth of the real peak.
#[cfg(target_arch = "x86_64")]
macro_rules! fma_kernel {
    ($name:ident, $feature:literal, $lanes:expr, $set1:ident, $fmadd:ident) => {
        #[target_feature(enable = $feature)]
        fn $name(iters: usize) -> f64 {
            use std::arch::x86_64::*;
            let (a, b) = (black_box($set1(0.999_999)), black_box($set1(1e-6)));
            let mut acc = [$set1(1.0); CHAINS];
            for _ in 0..iters {
                for v in acc.iter_mut() {
                    *v = $fmadd(*v, a, b);
                }
            }
            black_box(acc);
            (iters * CHAINS * $lanes * 2) as f64
        }
    };
}

#[cfg(target_arch = "x86_64")]
fma_kernel!(
    fma_f64_avx512,
    "avx512f",
    8,
    _mm512_set1_pd,
    _mm512_fmadd_pd
);
#[cfg(target_arch = "x86_64")]
fma_kernel!(
    fma_f32_avx512,
    "avx512f",
    16,
    _mm512_set1_ps,
    _mm512_fmadd_ps
);
#[cfg(target_arch = "x86_64")]
fma_kernel!(fma_f64_avx2, "avx2,fma", 4, _mm256_set1_pd, _mm256_fmadd_pd);
#[cfg(target_arch = "x86_64")]
fma_kernel!(fma_f32_avx2, "avx2,fma", 8, _mm256_set1_ps, _mm256_fmadd_ps);

/// Best rate over a few runs of `kernel`, GFLOP/s: the peak is what the
/// core can do, so the fastest run is the reading.
#[cfg(target_arch = "x86_64")]
fn best_gflops(kernel: impl Fn(usize) -> f64) -> f64 {
    (0..7)
        .map(|_| {
            let t = Instant::now();
            let flops = kernel(2_000_000);
            flops / t.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}

/// `(f64, f32)` FMA peak of this core with the widest vectors it has;
/// zeros on a CPU the probe has no kernel for.
fn peak_gflops() -> (f64, f64) {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU feature the kernels were compiled for was
            // detected on the line above.
            return unsafe {
                (
                    best_gflops(|n| fma_f64_avx512(n)),
                    best_gflops(|n| fma_f32_avx512(n)),
                )
            };
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: both CPU features the kernels were compiled for were
            // detected on the line above.
            return unsafe {
                (
                    best_gflops(|n| fma_f64_avx2(n)),
                    best_gflops(|n| fma_f32_avx2(n)),
                )
            };
        }
    }
    (0.0, 0.0)
}

/// `linalg.*` kernel rates and `comsim.*` fixed costs.
pub fn machine_probes(m: &mut Metrics) {
    let mut rng = Rng::new(GEMM_N as u64);
    let a = Matrix::from_fn(GEMM_N, GEMM_N, |_, _| rng.symmetric_unit());
    let b = Matrix::from_fn(GEMM_N, GEMM_N, |_, _| rng.symmetric_unit());
    let (a32, b32): (MatrixF32, MatrixF32) = (a.to_f32(), b.to_f32());
    let flops = 2.0 * (GEMM_N as f64).powi(3);
    // The kernels the two dense workloads spend their time in: `gemm` on
    // f64, and the f64-accumulating `matmul_wide` the Fp32 sign iteration
    // multiplies with.
    let f64_gflops = flops / median_seconds(5, || drop(black_box(matmul(&a, &b)))) / 1e9;
    let f32_gflops = flops / median_seconds(5, || drop(black_box(matmul_wide(&a32, &b32)))) / 1e9;
    let (peak64, peak32) = peak_gflops();
    m.set("linalg.gemm_f64_gflops", f64_gflops);
    m.set("linalg.gemm_f32_gflops", f32_gflops);
    m.set("linalg.peak_f64_gflops", peak64);
    m.set("linalg.peak_f32_gflops", peak32);
    if peak64 > 0.0 {
        m.set("linalg.gemm_f64_frac_peak", f64_gflops / peak64);
        m.set("linalg.gemm_f32_frac_peak", f32_gflops / peak32);
    }
    // Computed from array sizes (A, B read and C written once, f64); cache
    // misses are not in it, so no bandwidth ratio is derived from it.
    m.set(
        "linalg.gemm_flop_per_byte",
        flops / (3.0 * (GEMM_N * GEMM_N * 8) as f64),
    );

    const ALLREDUCES: usize = 200;
    let (per_rank, _) = run_ranks(2, |comm| {
        comm.barrier();
        let t = Instant::now();
        for _ in 0..ALLREDUCES {
            let mut x = [1.0];
            comm.allreduce_f64(ReduceOp::Sum, &mut x);
            black_box(x);
        }
        t.elapsed().as_secs_f64() / ALLREDUCES as f64
    });
    m.set("comsim.allreduce_us", per_rank[0] * 1e6);
    m.set(
        "comsim.rank_spawn_us",
        median_seconds(9, || drop(run_ranks(2, |comm| comm.rank()))) * 1e6,
    );
}
