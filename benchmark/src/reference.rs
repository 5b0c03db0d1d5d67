//! The reference kernel: how fast the core is *right now*.
//!
//! On this host a pinned CPU flips, every few milliseconds, between its
//! own speed and a state about 1.6 × slower (a neighbour on the shared
//! caches), and the mix drifts over tens of seconds: the same 0.4 s op
//! reads 15–35 % apart from one run to the next, whatever statistic is
//! taken over the ops of a run. What does repeat is an op's time *relative
//! to a fixed piece of work measured right before and right after it*.
//! Over 20 runs per workload that between them saw the core quiet and
//! contended, the quartile distance of `op_wall_s` over its median fell
//! from 14–37 % (raw) to 3–6 % (scaled by the frame). Giving each workload
//! its own share of the kernel's slowdown, or fitting a line per run, was
//! tried: shares fitted on ten runs did not hold on the next ten, and a
//! fitted line is worse than no correction when a run sees one state only.
//! Plain proportion is what held up.
//!
//! The kernel is frozen: a plain column-axpy GEMM on its own buffers,
//! about the footprint of the L2 cache like the workloads' inner loops. It
//! calls nothing under `crates/`, so no change to the program can move it.

use std::hint::black_box;
use std::time::Instant;

use crate::inputs::Rng;
use crate::stats::median;

/// Matrix dimension of one reference GEMM (3 × 1.1 MiB of operands).
const N: usize = 384;
/// GEMMs per reference measurement: ~0.13 s on a quiet core.
const REPS: usize = 12;

/// What one measurement takes on this machine when nothing contends:
/// [`REPS`] times the fastest single GEMM, which — being a 10 ms quantum —
/// does fit inside the core's quiet spells; over 50 runs that minimum was
/// 0.128–0.136 s in 45 of them. A constant, because a per-run estimate
/// would put its own ±5 % into every metric; on another machine the
/// reported seconds are seconds at this reference speed.
pub const QUIET_S: f64 = 0.130;

pub struct Reference {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
}

impl Reference {
    pub fn new() -> Self {
        let mut rng = Rng::new(N as u64);
        let mut fill = || {
            (0..N * N)
                .map(|_| rng.symmetric_unit())
                .collect::<Vec<f64>>()
        };
        Reference {
            a: fill(),
            b: fill(),
            c: vec![0.0; N * N],
        }
    }

    /// One reference measurement: seconds of [`REPS`] GEMMs.
    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..REPS {
            self.c.fill(0.0);
            for j in 0..N {
                let c_col = &mut self.c[j * N..(j + 1) * N];
                for k in 0..N {
                    let s = self.b[j * N + k];
                    let a_col = &self.a[k * N..(k + 1) * N];
                    for (ci, ai) in c_col.iter_mut().zip(a_col) {
                        *ci += s * ai;
                    }
                }
            }
            black_box(&self.c);
        }
        t.elapsed().as_secs_f64()
    }
}

/// The wall of one interval on a quiet core, from many: `walls[k]` was
/// framed by the reference measurements `refs[k]` (before) and
/// `refs[k + 1]` (after). Each wall is scaled by [`QUIET_S`] over the mean
/// of its frame — by how much slower than quiet the core ran around it —
/// and the median is returned.
pub fn at_quiet(walls: &[f64], refs: &[f64]) -> f64 {
    assert_eq!(
        refs.len(),
        walls.len() + 1,
        "one reference measurement around every interval"
    );
    let quiet: Vec<f64> = walls
        .iter()
        .zip(refs.windows(2))
        .map(|(wall, frame)| wall * QUIET_S / (0.5 * (frame[0] + frame[1])))
        .collect();
    median(&quiet)
}
