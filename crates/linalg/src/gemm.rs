//! General matrix-matrix multiplication (GEMM).
//!
//! The submatrix method turns a sparse problem into many *dense* matrix
//! multiplications (sign iterations, eigenvector back-transforms), so this is
//! the hot kernel of the whole reproduction. Every product runs through one
//! Goto-style driver, generic over the [`Elem`] scalar:
//!
//! * `op(A)` is packed into `mr`-row slivers and `op(B)` into `nr`-column
//!   slivers, one `kc`-deep block at a time, into a buffer of about 512 KiB
//!   of `f64` at the block depth `gemm` uses (`KC`). The packing read absorbs
//!   the transpose, so all four [`Op`] pairs share the code below it.
//! * A microkernel keeps an `mr × nr` tile of `C` in registers over at most
//!   `KC` steps of the `kc` loop, and the driver takes `mr` and `nr` from the
//!   `Microkernel` it is handed. There are three behind one run-time
//!   choice (`microkernels`): a 16 × 12 AVX-512 `f64` tile, a 4 × 12
//!   AVX2+FMA `f64` tile, and a portable 4 × 12 one generic over the scalar
//!   (other CPUs, and `gemm::<f32>` with its `f32` sums).
//! * Each element of `C` is summed over ascending `p` inside a `kc` block and
//!   over ascending blocks, in a tile that is computed in full even on the
//!   matrix edge. The bits of `C` therefore depend neither on the tile — the
//!   two SIMD kernels agree bit for bit — nor on how the columns are split
//!   across threads: the threaded path is the same driver over `nr`-aligned
//!   column panels, the shared-memory strategy the paper uses with OpenMP
//!   (Sec. IV-D).
//! * The smallest products with `A` as stored (`m·n·k ≤ 16³`) run a
//!   column-`axpy` loop instead: packing does not pay under dimension 12, and
//!   other code is pinned to the loop's bits up to dimension 16.
//! * A block-sparse multiply hands its products over a stack at a time
//!   ([`gemm_stack`]): every product into one block of `C`, summed as one
//!   small-loop call per product would sum them. A stack of 6 × 6 × 6
//!   products runs a fixed-shape kernel that holds the block of `C` in
//!   registers for the whole stack; the same run-time choice picks an
//!   AVX-512F or a portable one, neither of which fuses a multiply-add, so
//!   both give the small loop's bits.
//! * The same run-time choice hands out the plane rotation the eigensolver's
//!   QL sweep applies to its basis (`rotation`): an 8-lane AVX-512F, a
//!   4-lane AVX2 and a portable kernel. None fuses a multiply-add, so all
//!   three give the scalar loop's bits on every CPU.
//! * [`q_diag_qt_cols`]'s scaled copy `Q·D` and selected rows `Q[cols, :]`
//!   live in the calling thread's eigensolver scratch ([`crate::eigh`]),
//!   resized per call and kept for the thread's life, so it allocates only
//!   the columns it returns. The packed driver's pack buffer is still
//!   allocated per call (see `packed_panel`).
//!
//! For `f32` operands, [`matmul_wide`] runs the `f64` microkernel: operands
//! widen as they are packed and the tile narrows once as it is stored
//! (single-precision storage and wire traffic, double-precision products
//! and sums — the CPU analogue of the tensor-core FP16' mixed mode of paper
//! Sec. VI).

use std::sync::OnceLock;

use rayon::prelude::*;

use crate::elem::Elem;
use crate::matrix::{Matrix, MatrixBase, MatrixF32};
use crate::LinalgError;

/// Whether an operand enters the product transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Use the operand as stored.
    NoTrans,
    /// Use the transpose of the operand.
    Trans,
}

impl Op {
    /// Shape of the operand after applying the op.
    fn apply(self, shape: (usize, usize)) -> (usize, usize) {
        match self {
            Op::NoTrans => shape,
            Op::Trans => (shape.1, shape.0),
        }
    }
}

/// Depth of one packed block, and of one microkernel call. An `nr`-column
/// sliver of `op(B)` of this depth (24 KiB of `f64` at 12 columns) stays in
/// L1 while the slivers of `op(A)` pass by it. The depth is also where an
/// element's sum is cut into FMA chains, so changing it changes bits.
const KC: usize = 256;
/// Elements of each packed operand: a block of `op(A)` of 128 rows and a
/// panel of `op(B)` of 120 columns at depth `KC`, about 256 KiB of `f64`
/// each, so both stay in L2 while the block of `op(A)` is re-read once per
/// `nr` columns. A deeper block (see [`matmul_wide`], whose block is as deep
/// as `k`) gets fewer rows and columns instead of a larger buffer, down to
/// one sliver of `op(B)` at a depth of 2730. Past that the buffer grows with
/// `k` and all of `op(A)` is packed again for every `nr` columns; nothing
/// multiplies that deep.
const PACK_ELEMS: usize = 128 * KC;

/// Products under this many flops run on the calling thread. The `rayon`
/// shim starts its threads anew on every call, 31 to 47 µs each
/// (`comsim.rank_spawn_us`), each thread packs into a buffer of its own, and
/// the AVX-512 kernel does 50 to 57 GFLOP/s where the AVX2 one did 30: the
/// time a split can save shrank, what it costs did not. Measured on the two
/// vCPUs of a shared host, one and two panels alternating call by call, ten
/// rounds over two hours: two panels take 1.8 to 2.2 times as long as one at
/// 2.7 MFLOP, 1.04 to 1.7 times at 8 MFLOP and, in nine rounds of ten, 1.05
/// to 1.4 times at 16 MFLOP, where the 4 × 12 tile gained 30 % from them. At
/// 34 MFLOP they win by 15 to 33 % in three rounds and lose 5 to 17 % in
/// seven; at 66 MFLOP they win by 19 to 37 % in four of seven. The threshold
/// is the smallest size at which the split won at all.
pub const PAR_THRESHOLD_FLOPS: usize = 1 << 25;

/// Products with `m·n·k` at most this run the column-`axpy` loop the crate
/// started with. The packed driver computes whole tiles whatever the size,
/// so the loop is the faster one up to dimension 8 (83 ns against 220 ns at
/// dimension 4, 250 against 325 ns at 8); from 12 on the driver is, with the
/// 16 × 12 tile (400 against 565 ns at 12, 650 against 1190 ns at 16), and
/// the two are even with the 4 × 12 AVX2 tile (600 and 1110 ns). The bound
/// sits at 16 for what is pinned to the loop's bits: the CSR kernel's
/// exactness at `eps = 0` is tested bit for bit against N×N products of
/// dimension under 12, and the submatrix solves of dimension 6 to 16 keep
/// their results.
const SMALL_VOLUME: usize = 16 * 16 * 16;

/// `C = alpha * op(A) * op(B) + beta * C`, generic over the element type.
///
/// Dimensions must satisfy `op(A): m×k`, `op(B): k×n`, `C: m×n`.
pub fn gemm<E: Elem>(
    alpha: E,
    a: &MatrixBase<E>,
    op_a: Op,
    b: &MatrixBase<E>,
    op_b: Op,
    beta: E,
    c: &mut MatrixBase<E>,
) -> Result<(), LinalgError> {
    let (a, b) = (Operand::new(a, op_a), Operand::new(b, op_b));
    gemm_as_volume(alpha, a, b, beta, c, a.rows * a.cols * b.cols)
}

/// [`gemm`] on operands, with the small-loop / packed-driver choice made
/// as for a product of `m·n·k = volume`: a few columns of a larger product
/// take the path, and so the bits, of the whole product.
fn gemm_as_volume<E: Elem>(
    alpha: E,
    a: Operand<E>,
    b: Operand<E>,
    beta: E,
    c: &mut MatrixBase<E>,
    volume: usize,
) -> Result<(), LinalgError> {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    if k != b.rows || c.shape() != (m, n) {
        return Err(LinalgError::DimensionMismatch {
            op: "gemm",
            lhs: (m, k),
            rhs: (b.rows, n),
        });
    }

    if beta != E::ONE {
        if beta == E::ZERO {
            c.as_mut_slice().fill(E::ZERO);
        } else {
            c.scale(beta);
        }
    }
    if alpha == E::ZERO || m == 0 || n == 0 || k == 0 {
        return Ok(());
    }

    if !a.trans && volume <= SMALL_VOLUME {
        small_gemm(alpha, a, b, c.as_mut_slice());
    } else {
        let (kernel, panels) = (microkernel::<E>(), column_panels(m, n, k));
        packed_gemm(kernel, panels, alpha, a, b, KC, c.as_mut_slice());
    }
    Ok(())
}

/// `C += alpha · A · op(B)` a column of `C` at a time, as one `axpy` of a
/// column of `A` per element of `op(B)`; `axpy` skips a zero element.
fn small_gemm<E: Elem>(alpha: E, a: Operand<E>, b: Operand<E>, c: &mut [E]) {
    for (j, c_col) in c.chunks_mut(a.rows).enumerate() {
        for p in 0..a.cols {
            let a_col = &a.data[p * a.ld..][..a.rows];
            crate::blas1::axpy(alpha * b.at(p, j), a_col, c_col);
        }
    }
}

/// `C += Σ_s A_s · B_s` over a stack of block products into one column-major
/// `m × n` block `C`: libDBCSR's stack, the unit of work of a block-sparse
/// multiply. Each `A_s` is a column-major block of `m` rows, each `B_s` one
/// of `n` columns, given as their elements; their common depth is read from
/// their lengths. Each element of `C` takes the same terms in the same
/// order, and so the same bits, as one `gemm(1.0, A_s, NoTrans, B_s,
/// NoTrans, 1.0, C)` per product in stack order: a product with `m·n·k` at
/// most `SMALL_VOLUME` keeps the small loop's chain (ascending `p`, a
/// multiply then a separate add, a zero `b(p, j)` skipped), and a larger one
/// is that call's packed driver. A run of 6 × 6 × 6 products (water in a
/// minimal basis) goes through one fixed-shape kernel that holds `C` in
/// registers for the whole run; other small shapes run the small loop a
/// product at a time.
pub fn gemm_stack(
    stack: &[(&[f64], &[f64])],
    (m, n): (usize, usize),
    c: &mut [f64],
) -> Result<(), LinalgError> {
    let six = |&(a, b): &(&[f64], &[f64])| a.len() == 36 && b.len() == 36;
    if (m, n) == (6, 6) && c.len() == 36 && stack.iter().all(six) {
        stack6_kernel()(stack, c);
        return Ok(());
    }
    if c.len() != m * n {
        return Err(LinalgError::DimensionMismatch {
            op: "gemm_stack (C)",
            lhs: (m, n),
            rhs: (c.len(), 1),
        });
    }
    if m == 0 || n == 0 {
        return Ok(());
    }
    let misfit = |&&(a, b): &&(&[f64], &[f64])| a.len() % m != 0 || b.len() != a.len() / m * n;
    if let Some(&(a, b)) = stack.iter().find(misfit) {
        return Err(LinalgError::DimensionMismatch {
            op: "gemm_stack",
            lhs: (m, a.len() / m),
            rhs: (b.len() / n, n),
        });
    }
    let mut rest = stack;
    while let Some(&(a, b)) = rest.first() {
        let k = a.len() / m;
        if (m, n, k) == (6, 6, 6) {
            let run = rest.iter().take_while(|p| six(p)).count();
            stack6_kernel()(&rest[..run], c);
            rest = &rest[run..];
            continue;
        }
        let (a, b) = (Operand::stored(a, m, k), Operand::stored(b, k, n));
        if m * n * k > SMALL_VOLUME {
            let panels = column_panels(m, n, k);
            packed_gemm(microkernel::<f64>(), panels, 1.0, a, b, KC, c);
        } else if k > 0 {
            small_gemm(1.0, a, b, c);
        }
        rest = &rest[1..];
    }
    Ok(())
}

/// How many column panels a product of this size is split into.
fn column_panels(m: usize, n: usize, k: usize) -> usize {
    if 2 * m * n * k >= PAR_THRESHOLD_FLOPS {
        rayon::current_num_threads()
    } else {
        1
    }
}

/// `op(X)` of a column-major matrix: `rows × cols`, element `(r, p)` at
/// `data[r + p * ld]`, or at `data[r * ld + p]` when `trans`.
#[derive(Clone, Copy)]
struct Operand<'a, E> {
    data: &'a [E],
    ld: usize,
    rows: usize,
    cols: usize,
    trans: bool,
}

impl<'a, E: Elem> Operand<'a, E> {
    fn new(x: &'a MatrixBase<E>, op: Op) -> Self {
        let (rows, cols) = op.apply(x.shape());
        Operand {
            data: x.as_slice(),
            ld: x.nrows(),
            rows,
            cols,
            trans: op == Op::Trans,
        }
    }

    /// A `rows × cols` column-major block as stored.
    fn stored(data: &'a [E], rows: usize, cols: usize) -> Self {
        Operand {
            data,
            ld: rows,
            rows,
            cols,
            trans: false,
        }
    }

    fn at(&self, r: usize, p: usize) -> E {
        if self.trans {
            self.data[r * self.ld + p]
        } else {
            self.data[r + p * self.ld]
        }
    }

    fn transposed(self) -> Self {
        Operand {
            rows: self.cols,
            cols: self.rows,
            trans: !self.trans,
            ..self
        }
    }
}

/// Value-preserving when `P` is at least as wide as `E`; the identity when
/// they are the same type.
#[inline(always)]
fn convert<E: Elem, P: Elem>(x: E) -> P {
    P::from_f64(x.to_f64())
}

/// `C += alpha · op(A) · op(B)` through the packed driver, with the columns
/// of `C` split into `panels` panels, aligned to the kernel's `nr`, that the
/// `rayon` pool shares out. `P` is the type the operands are packed, multiplied and
/// summed in; a tile of `C` widens to `P`, takes its update and narrows back
/// to `E` as it is stored. `kc_max` is the deepest block packed at once:
/// the sums of `C` are rounded to `E` once per block.
///
/// Never inlined, so that `gemm` stays the shape test in front of the small
/// loop and the dimension 6 to 16 solves run the same instructions whatever
/// the driver grows to. What still moves their time is where the linker puts
/// `small_gemm`: the same instructions read up to a third slower at
/// dimensions 8, 12 and 16 under one placement and a quarter slower at 6, 10
/// and 14 under another, and nothing in this file chooses between them.
#[inline(never)]
fn packed_gemm<E: Elem, P: Elem>(
    kernel: Microkernel<P>,
    panels: usize,
    alpha: P,
    a: Operand<E>,
    b: Operand<E>,
    kc_max: usize,
    c: &mut [E],
) {
    let (m, n) = (a.rows, b.cols);
    let cols = n.div_ceil(panels).next_multiple_of(kernel.nr);
    let panel = |j0: usize, c_panel: &mut [E]| {
        packed_panel(kernel, alpha, a, b, kc_max, j0, c_panel);
    };
    if cols >= n {
        panel(0, c);
    } else {
        c.par_chunks_mut(m * cols)
            .enumerate()
            .for_each(|(t, c_panel)| panel(t * cols, c_panel));
    }
}

/// The driver: columns `j0..` of the product into `c`, a column-major panel
/// of as many rows as `op(A)`.
fn packed_panel<E: Elem, P: Elem>(
    kernel: Microkernel<P>,
    alpha: P,
    a: Operand<E>,
    b: Operand<E>,
    kc_max: usize,
    j0: usize,
    c: &mut [E],
) {
    let Microkernel { mr, nr, run, .. } = kernel;
    let (m, k) = (a.rows, a.cols);
    let n = c.len() / m;
    let kc_max = kc_max.min(k);
    let mc = (PACK_ELEMS / kc_max / mr * mr).clamp(mr, m.next_multiple_of(mr));
    let nc = (PACK_ELEMS / kc_max / nr * nr).clamp(nr, n.next_multiple_of(nr));
    // Allocated per call: a buffer kept per thread measured no faster at any
    // size, and one more long-lived block in the heap cost the 512-dimensional
    // sign solve 1.4 MiB of peak RSS.
    let mut buf = vec![P::ZERO; kc_max * (mc + nc) + mc * nr];
    let (a_pack, rest) = buf.split_at_mut(kc_max * mc);
    let (b_pack, tiles) = rest.split_at_mut(kc_max * nc);
    for jc in (0..n).step_by(nc) {
        let nb = nc.min(n - jc);
        for pc in (0..k).step_by(kc_max) {
            let kc = kc_max.min(k - pc);
            pack(b_pack, nr, b.transposed(), j0 + jc, nb, pc, kc);
            for ic in (0..m).step_by(mc) {
                let mb = mc.min(m - ic);
                pack(a_pack, mr, a, ic, mb, pc, kc);
                let tiles = &mut tiles[..mb.next_multiple_of(mr) * nr];
                for jr in (0..nb).step_by(nr) {
                    let b_sliver = &b_pack[jr * kc..][..nr * kc];
                    tiles.fill(P::ZERO);
                    // A block deeper than `KC` in pieces of `KC`, so that
                    // the piece of the `op(B)` sliver stays in L1 while the
                    // slivers of `op(A)` pass by it.
                    for p0 in (0..kc).step_by(KC) {
                        let depth = KC.min(kc - p0);
                        let b_piece = &b_sliver[p0 * nr..][..depth * nr];
                        let a_slivers = a_pack.chunks_exact(mr * kc);
                        for (tile, a_sliver) in tiles.chunks_exact_mut(mr * nr).zip(a_slivers) {
                            run(&a_sliver[p0 * mr..][..depth * mr], b_piece, tile);
                        }
                    }
                    for (s, tile) in tiles.chunks_exact(mr * nr).enumerate() {
                        let ir = s * mr;
                        let rows = mr.min(mb - ir);
                        for j in 0..nr.min(nb - jr) {
                            let c_col = &mut c[(jc + jr + j) * m + ic + ir..][..rows];
                            for (ci, &t) in c_col.iter_mut().zip(&tile[j * mr..]) {
                                *ci = convert(convert::<E, P>(*ci) + alpha * t);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Pack `rows × kc` of `src`, from `(r0, p0)`, into `r`-row slivers: sliver
/// `s` holds rows `r0 + s·r ..` as `dst[(s·kc + p)·r + i]`, the rows past
/// `rows` as zeros. Both operands pack through here — `op(B)` as the rows
/// of its transpose.
fn pack<E: Elem, P: Elem>(
    dst: &mut [P],
    r: usize,
    src: Operand<E>,
    r0: usize,
    rows: usize,
    p0: usize,
    kc: usize,
) {
    for (s, sliver) in dst
        .chunks_exact_mut(r * kc)
        .take(rows.div_ceil(r))
        .enumerate()
    {
        let first = r0 + s * r;
        let len = r.min(r0 + rows - first);
        if len < r {
            sliver.fill(P::ZERO);
        }
        // Read along whichever index is contiguous in memory.
        if src.trans {
            for i in 0..len {
                let from = &src.data[(first + i) * src.ld + p0..][..kc];
                for (to, &v) in sliver.chunks_exact_mut(r).zip(from) {
                    to[i] = convert(v);
                }
            }
        } else {
            for (p, to) in sliver.chunks_exact_mut(r).enumerate() {
                let from = &src.data[(p0 + p) * src.ld + first..][..len];
                // Four at a time: every tile is a multiple of four rows and
                // columns, and a group of known length converts as one
                // vector where a run of `len` does not. Without it a product
                // of dimension 256 takes a tenth longer on the 4 × 12 tile.
                let (from4, from_rest) = from.as_chunks::<4>();
                let (to4, to_rest) = to[..len].as_chunks_mut::<4>();
                for (t, f) in to4.iter_mut().zip(from4) {
                    *t = f.map(convert);
                }
                for (t, &v) in to_rest.iter_mut().zip(from_rest) {
                    *t = convert(v);
                }
            }
        }
    }
}

/// A register tile of `C` and the code that fills it. `run` adds to one
/// tile, `tile[j·mr + i] += Σ_p a[p·mr + i] · b[p·nr + j]`, one term after
/// the other in ascending `p`, over packed slivers of equal depth; the driver
/// takes the shape of its slivers and tiles from `mr` and `nr`.
#[derive(Clone, Copy)]
struct Microkernel<P> {
    name: &'static str,
    mr: usize,
    nr: usize,
    run: fn(a: &[P], b: &[P], tile: &mut [P]),
}

/// The microkernel for sums in `P` on this CPU: the first of
/// [`microkernels`].
fn microkernel<P: Elem>() -> Microkernel<P> {
    let Kernels {
        tiles, portable, ..
    } = microkernels();
    tiles.into_iter().flatten().next().unwrap_or(portable)
}

/// A plane rotation of two columns of equal length, the update the QL
/// sweep applies to its eigenvector basis: `x ← c·x − s·y` and
/// `y ← s·x + c·y`, element by element, each as two products and one sum.
/// No kernel fuses a multiply-add, so every one gives the bits of
/// [`rotate_portable`] on every CPU.
pub(crate) type Rotation = fn(c: f64, s: f64, x: &mut [f64], y: &mut [f64]);

/// Every rotation this CPU runs: the SIMD ones [`microkernels`] finds,
/// widest first, then the portable one.
pub(crate) fn rotations() -> impl Iterator<Item = Rotation> {
    let simd = microkernels::<f64>().rotations;
    simd.into_iter()
        .flatten()
        .chain([rotate_portable as Rotation])
}

/// The rotation for this CPU: the first of [`rotations`].
pub(crate) fn rotation() -> Rotation {
    rotations().next().unwrap_or(rotate_portable)
}

/// The rotation in plain scalar code; the compiler vectorises it as the
/// build target allows.
#[inline]
pub(crate) fn rotate_portable(c: f64, s: f64, x: &mut [f64], y: &mut [f64]) {
    for (xi, yi) in x.iter_mut().zip(y) {
        let (xv, yv) = (*xi, *yi);
        *yi = s * xv + c * yv;
        *xi = c * xv - s * yv;
    }
}

/// A run of 6 × 6 × 6 products added to one column-major 6 × 6 block `c`,
/// as [`gemm_stack`] describes: `c[j·6 + i] += b(p, j) · a(i, p)` for every
/// nonzero `b(p, j)`, one term after the other in stack order and ascending
/// `p`, each a multiply then a separate add.
pub(crate) type Stack6 = fn(stack: &[(&[f64], &[f64])], c: &mut [f64]);

/// Every 6 × 6 × 6 stack kernel this CPU runs: the AVX-512F one if
/// [`microkernels`] finds it, then the portable one.
pub(crate) fn stack6_kernels() -> impl Iterator<Item = Stack6> {
    let simd = microkernels::<f64>().stacks6;
    simd.into_iter().chain([stack6_portable as Stack6])
}

/// The 6 × 6 × 6 stack kernel for this CPU: the first of
/// [`stack6_kernels`].
fn stack6_kernel() -> Stack6 {
    static KERNEL: OnceLock<Stack6> = OnceLock::new();
    *KERNEL.get_or_init(|| stack6_kernels().next().unwrap_or(stack6_portable))
}

/// The columns of a 6 × 6 block, or `None` for any other shape.
fn cols6(x: &[f64]) -> Option<&[[f64; 6]; 6]> {
    x.as_chunks::<6>().0.try_into().ok()
}

/// The same, of a column-major block held mutably.
fn cols6_mut(x: &mut [f64]) -> Option<&mut [[f64; 6]; 6]> {
    x.as_chunks_mut::<6>().0.try_into().ok()
}

/// The products of a stack as pairs of 6 × 6 blocks; [`gemm_stack`] hands
/// the kernels nothing else, and a pair of any other shape is skipped.
fn blocks6<'s>(
    stack: &'s [(&[f64], &[f64])],
) -> impl Iterator<Item = (&'s [[f64; 6]; 6], &'s [[f64; 6]; 6])> {
    stack
        .iter()
        .filter_map(|&(a, b)| Some((cols6(a)?, cols6(b)?)))
}

/// The 6 × 6 × 6 stack in plain scalar code, `c` in a local array for the
/// compiler to keep in registers and vectorise as the build target allows.
fn stack6_portable(stack: &[(&[f64], &[f64])], c: &mut [f64]) {
    let Some(c) = cols6_mut(c) else { return };
    let mut acc = *c;
    for (a, b) in blocks6(stack) {
        for (acc_col, b_col) in acc.iter_mut().zip(b) {
            for (a_col, &bpj) in a.iter().zip(b_col) {
                if bpj != 0.0 {
                    for (s, &x) in acc_col.iter_mut().zip(a_col) {
                        *s += bpj * x;
                    }
                }
            }
        }
    }
    *c = acc;
}

/// The 6 × 6 × 6 stack with each column of `c` in 6 of a `zmm` register's 8
/// lanes: 6 accumulators and the 6 columns of `A`, the lanes past row 6
/// zero. A zero `b(p, j)` is skipped by a lane mask instead of a branch: the
/// add is masked off, so `c` keeps its bits whatever `a(:, p)` holds.
/// Only [`microkernels`] may name this function: it runs AVX-512F
/// instructions without checking that the CPU has them.
#[cfg(target_arch = "x86_64")]
fn stack6_avx512f(stack: &[(&[f64], &[f64])], c: &mut [f64]) {
    // SAFETY: `microkernels`, the only place that names this function, hands
    // it out after `is_x86_feature_detected!` has found the feature.
    unsafe { stack6_avx512f_impl(stack, c) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn stack6_avx512f_impl(stack: &[(&[f64], &[f64])], c: &mut [f64]) {
    use std::arch::x86_64::*;
    const ROWS: u8 = 0b0011_1111;
    // A column of 6 in the low lanes, the others zero.
    let load = |col: &[f64; 6]| {
        // SAFETY: `ROWS` selects the 6 elements `col` holds; the other
        // lanes are neither read nor written, and AVX-512 suppresses faults
        // on them.
        unsafe { _mm512_maskz_loadu_pd(ROWS, col.as_ptr()) }
    };
    let Some(c) = cols6_mut(c) else { return };
    let mut acc = c.each_ref().map(load);
    let zero = _mm512_setzero_pd();
    for (a, b) in blocks6(stack) {
        let a_cols = a.each_ref().map(load);
        // The lanes of `B` that hold a zero; a block with none (nearly
        // every block) needs no mask on its adds.
        let zeros = (b.each_ref().map(load).iter()).fold(0, |m, &v| {
            m | _mm512_mask_cmp_pd_mask::<_CMP_EQ_OQ>(ROWS, v, zero)
        });
        for (acc_col, b_col) in acc.iter_mut().zip(b) {
            for (&a_col, &bpj) in a_cols.iter().zip(b_col) {
                let b_pj = _mm512_set1_pd(bpj);
                let term = _mm512_mul_pd(b_pj, a_col);
                *acc_col = if zeros == 0 {
                    _mm512_add_pd(*acc_col, term)
                } else {
                    let nonzero = _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(b_pj, zero);
                    _mm512_mask_add_pd(*acc_col, nonzero, *acc_col, term)
                };
            }
        }
    }
    for (c_col, &s) in c.iter_mut().zip(&acc) {
        // SAFETY: as for the loads.
        unsafe { _mm512_mask_storeu_pd(c_col.as_mut_ptr(), ROWS, s) };
    }
}

/// Which microkernel `f64` products run on this CPU: `avx512f`, `avx2+fma`
/// or `portable`. Results repeat bit for bit between CPUs that name one of
/// the first two, and on one CPU always.
pub fn f64_microkernel() -> &'static str {
    microkernel::<f64>().name
}

/// The `f64` microkernel's rate on one register tile whose slivers stay in
/// L1, in GFLOP/s, the best of five runs of 20 000 calls at depth `KC`:
/// the most any `f64` product of this crate can do on one core, and the
/// yardstick a kernel's fraction of peak is read against.
pub fn f64_microkernel_peak_gflops() -> f64 {
    let Microkernel { mr, nr, run, .. } = microkernel::<f64>();
    let (a, b) = (vec![1e-3; mr * KC], vec![1e-3; nr * KC]);
    let mut tile = vec![0.0; mr * nr];
    const CALLS: usize = 20_000;
    let flops = (2 * mr * nr * KC * CALLS) as f64;
    (0..5)
        .map(|_| {
            let t = std::time::Instant::now();
            for _ in 0..CALLS {
                run(&a, &b, std::hint::black_box(&mut tile));
            }
            flops / t.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}

/// The kernels this CPU runs, as [`microkernels`] finds them.
struct Kernels<P> {
    /// The SIMD tiles for sums in `P` it has the instructions for, widest
    /// first.
    tiles: [Option<Microkernel<P>>; 2],
    /// The tile that runs everywhere.
    portable: Microkernel<P>,
    /// The SIMD rotations it has the instructions for, widest first;
    /// [`rotate_portable`] runs everywhere.
    rotations: [Option<Rotation>; 2],
    /// The SIMD 6 × 6 × 6 stack kernel, if it has the instructions for it;
    /// [`stack6_portable`] runs everywhere.
    stacks6: Option<Stack6>,
}

/// Every kernel this CPU runs: the GEMM tiles for sums in `P`, the plane
/// rotations and the 6 × 6 × 6 stack kernel. The only function that asks
/// the CPU what it has.
fn microkernels<P: Elem>() -> Kernels<P> {
    #[cfg(target_arch = "x86_64")]
    let (tiles, rotations, stacks6) = {
        let avx512f = is_x86_feature_detected!("avx512f");
        let avx2 = is_x86_feature_detected!("avx2");
        let has_avx2_fma = avx2 && is_x86_feature_detected!("fma");
        let tiles = [
            avx512f.then_some(Microkernel {
                name: "avx512f",
                mr: 16,
                nr: 12,
                run: kernel_avx512f,
            }),
            has_avx2_fma.then_some(Microkernel {
                name: "avx2+fma",
                mr: 4,
                nr: 12,
                run: kernel_avx2_fma,
            }),
        ];
        let rotations = [
            avx512f.then_some(rotate_avx512f as Rotation),
            avx2.then_some(rotate_avx2 as Rotation),
        ];
        let stacks6 = avx512f.then_some(stack6_avx512f as Stack6);
        (tiles, rotations, stacks6)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let (tiles, rotations, stacks6) = ([None::<Microkernel<f64>>; 2], [None; 2], None);
    // The SIMD tiles sum in `f64`; for any other `P` the cast finds nothing.
    let same_type = |kernel: Microkernel<f64>| {
        let kernel: &dyn std::any::Any = &kernel;
        kernel.downcast_ref::<Microkernel<P>>().copied()
    };
    Kernels {
        tiles: tiles.map(|kernel| kernel.and_then(same_type)),
        portable: Microkernel {
            name: "portable",
            mr: 4,
            nr: 12,
            run: kernel_portable::<P>,
        },
        rotations,
        stacks6,
    }
}

/// A 4 × 12 tile in plain scalar code, for the compiler to vectorise as the
/// build target allows.
fn kernel_portable<P: Elem>(a: &[P], b: &[P], tile: &mut [P]) {
    let mut acc = [P::ZERO; 4 * 12];
    acc.copy_from_slice(tile);
    for (ap, bp) in a.as_chunks::<4>().0.iter().zip(b.as_chunks::<12>().0) {
        for (j, acc_col) in acc.as_chunks_mut::<4>().0.iter_mut().enumerate() {
            for (i, s) in acc_col.iter_mut().enumerate() {
                *s += ap[i] * bp[j];
            }
        }
    }
    tile.copy_from_slice(&acc);
}

/// A 4 × 12 tile: 12 accumulators, one `A` vector and one broadcast of `B`
/// in the 16 `ymm` registers. Only [`microkernels`] may name this function:
/// it runs AVX2 and FMA instructions without checking that the CPU has them.
#[cfg(target_arch = "x86_64")]
fn kernel_avx2_fma(a: &[f64], b: &[f64], tile: &mut [f64]) {
    // SAFETY: `microkernels`, the only place that names this function, hands
    // it out after `is_x86_feature_detected!` has found both features.
    unsafe { kernel_avx2_fma_impl(a, b, tile) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn kernel_avx2_fma_impl(a: &[f64], b: &[f64], tile: &mut [f64]) {
    use std::arch::x86_64::*;
    let tile = &mut tile[..4 * 12];
    let mut acc = [_mm256_setzero_pd(); 12];
    for (acc_col, tile_col) in acc.iter_mut().zip(tile.as_chunks::<4>().0) {
        // SAFETY: `tile_col` is a `[f64; 4]`, so the 4-lane load is in bounds.
        *acc_col = unsafe { _mm256_loadu_pd(tile_col.as_ptr()) };
    }
    for (ap, bp) in a.as_chunks::<4>().0.iter().zip(b.as_chunks::<12>().0) {
        // SAFETY: `ap` is a `[f64; 4]`, so the 4-lane load is in bounds.
        let a_col = unsafe { _mm256_loadu_pd(ap.as_ptr()) };
        for (acc_col, &bpj) in acc.iter_mut().zip(bp) {
            *acc_col = _mm256_fmadd_pd(a_col, _mm256_set1_pd(bpj), *acc_col);
        }
    }
    for (tile_col, &acc_col) in tile.as_chunks_mut::<4>().0.iter_mut().zip(&acc) {
        // SAFETY: `tile_col` is a `[f64; 4]`, so the 4-lane store is in
        // bounds.
        unsafe { _mm256_storeu_pd(tile_col.as_mut_ptr(), acc_col) };
    }
}

/// A 16 × 12 tile: 24 accumulators of the 32 `zmm` registers, two `A`
/// vectors, and `B` broadcast from memory by the multiply-add itself — 14
/// loads for 24 multiply-adds. Only [`microkernels`] may name this function:
/// it runs AVX-512F instructions without checking that the CPU has them.
#[cfg(target_arch = "x86_64")]
fn kernel_avx512f(a: &[f64], b: &[f64], tile: &mut [f64]) {
    // SAFETY: `microkernels`, the only place that names this function, hands
    // it out after `is_x86_feature_detected!` has found the feature.
    unsafe { kernel_avx512f_impl(a, b, tile) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn kernel_avx512f_impl(a: &[f64], b: &[f64], tile: &mut [f64]) {
    use std::arch::x86_64::*;
    // Two 8-lane vectors to a column of the tile and to a step of `a`.
    fn halves(x: &[f64]) -> &[[[f64; 8]; 2]] {
        x.as_chunks::<8>().0.as_chunks::<2>().0
    }
    let tile = &mut tile[..16 * 12];
    let mut acc = [[_mm512_setzero_pd(); 2]; 12];
    for (acc_col, tile_col) in acc.iter_mut().zip(halves(tile)) {
        for (s, t) in acc_col.iter_mut().zip(tile_col) {
            // SAFETY: `t` is a `[f64; 8]`, so the 8-lane load is in bounds.
            *s = unsafe { _mm512_loadu_pd(t.as_ptr()) };
        }
    }
    for (ap, bp) in halves(a).iter().zip(b.as_chunks::<12>().0) {
        // SAFETY: `v` is a `[f64; 8]`, so the 8-lane load is in bounds.
        let a_col = ap.map(|v| unsafe { _mm512_loadu_pd(v.as_ptr()) });
        for (acc_col, &bpj) in acc.iter_mut().zip(bp) {
            let b_pj = _mm512_set1_pd(bpj);
            for (s, &a_half) in acc_col.iter_mut().zip(&a_col) {
                *s = _mm512_fmadd_pd(a_half, b_pj, *s);
            }
        }
    }
    let tile_cols = tile.as_chunks_mut::<8>().0.as_chunks_mut::<2>().0;
    for (tile_col, acc_col) in tile_cols.iter_mut().zip(&acc) {
        for (t, &s) in tile_col.iter_mut().zip(acc_col) {
            // SAFETY: `t` is a `[f64; 8]`, so the 8-lane store is in bounds.
            unsafe { _mm512_storeu_pd(t.as_mut_ptr(), s) };
        }
    }
}

/// The rotation 8 lanes at a time, the last 1 to 7 under a mask. Against
/// [`rotate_avx2`], `eigh` alone reads within ±4 % either way at n = 54 to
/// 128 and 512, but `smbench scf_md_w2` (n = 60 to 96) takes 2 to 3 % less
/// per op with it (7 of 8 alternating pairs). Only [`microkernels`] may
/// name this function: it runs AVX-512F instructions without checking that
/// the CPU has them.
#[cfg(target_arch = "x86_64")]
fn rotate_avx512f(c: f64, s: f64, x: &mut [f64], y: &mut [f64]) {
    // SAFETY: `microkernels`, the only place that names this function, hands
    // it out after `is_x86_feature_detected!` has found the feature.
    unsafe { rotate_avx512f_impl(c, s, x, y) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn rotate_avx512f_impl(c: f64, s: f64, x: &mut [f64], y: &mut [f64]) {
    use std::arch::x86_64::*;
    let (cv, sv) = (_mm512_set1_pd(c), _mm512_set1_pd(s));
    let len = x.len().min(y.len());
    for (xc, yc) in x[..len].chunks_mut(8).zip(y[..len].chunks_mut(8)) {
        let lanes = 0xff_u8 >> (8 - xc.len());
        // SAFETY: `lanes` selects the `xc.len()` (1 to 8) elements `xc` and
        // `yc` hold; the others are neither read nor written, and AVX-512
        // suppresses faults on them.
        let (xv, yv) = unsafe {
            let xv = _mm512_maskz_loadu_pd(lanes, xc.as_ptr());
            (xv, _mm512_maskz_loadu_pd(lanes, yc.as_ptr()))
        };
        let y_new = _mm512_add_pd(_mm512_mul_pd(sv, xv), _mm512_mul_pd(cv, yv));
        let x_new = _mm512_sub_pd(_mm512_mul_pd(cv, xv), _mm512_mul_pd(sv, yv));
        // SAFETY: as above, for the stores.
        unsafe {
            _mm512_mask_storeu_pd(yc.as_mut_ptr(), lanes, y_new);
            _mm512_mask_storeu_pd(xc.as_mut_ptr(), lanes, x_new);
        }
    }
}

/// The rotation 4 lanes at a time, the rest as [`rotate_portable`], for
/// CPUs with AVX2 and without AVX-512F, where the portable loop compiles to
/// 2 lanes. Timed on the AVX-512 host against the inline loop (medians of
/// 15 interleaved rounds), it takes `eigh` from 183 to 157 µs at n = 54,
/// 471 to 389 µs at 77, 846 to 683 µs at 96 and 109 to 83 ms at 512. Only
/// [`microkernels`] may name this function: it runs AVX2 instructions
/// without checking that the CPU has them.
#[cfg(target_arch = "x86_64")]
fn rotate_avx2(c: f64, s: f64, x: &mut [f64], y: &mut [f64]) {
    // SAFETY: `microkernels`, the only place that names this function, hands
    // it out after `is_x86_feature_detected!` has found the feature.
    unsafe { rotate_avx2_impl(c, s, x, y) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn rotate_avx2_impl(c: f64, s: f64, x: &mut [f64], y: &mut [f64]) {
    use std::arch::x86_64::*;
    let (cv, sv) = (_mm256_set1_pd(c), _mm256_set1_pd(s));
    let len = x.len().min(y.len());
    let (x4, x_rest) = x[..len].as_chunks_mut::<4>();
    let (y4, y_rest) = y[..len].as_chunks_mut::<4>();
    for (xc, yc) in x4.iter_mut().zip(y4) {
        // SAFETY: `xc` and `yc` are `[f64; 4]`, so the 4-lane loads are in
        // bounds.
        let (xv, yv) = unsafe { (_mm256_loadu_pd(xc.as_ptr()), _mm256_loadu_pd(yc.as_ptr())) };
        let y_new = _mm256_add_pd(_mm256_mul_pd(sv, xv), _mm256_mul_pd(cv, yv));
        let x_new = _mm256_sub_pd(_mm256_mul_pd(cv, xv), _mm256_mul_pd(sv, yv));
        // SAFETY: as above, for the stores.
        unsafe {
            (
                _mm256_storeu_pd(yc.as_mut_ptr(), y_new),
                _mm256_storeu_pd(xc.as_mut_ptr(), x_new),
            )
        };
    }
    rotate_portable(c, s, x_rest, y_rest);
}

/// Convenience wrapper: return `A * B` (any element type).
pub fn matmul_in<E: Elem>(
    a: &MatrixBase<E>,
    b: &MatrixBase<E>,
) -> Result<MatrixBase<E>, LinalgError> {
    let mut c = MatrixBase::zeros(a.nrows(), b.ncols());
    gemm(E::ONE, a, Op::NoTrans, b, Op::NoTrans, E::ZERO, &mut c)?;
    Ok(c)
}

/// Convenience wrapper: return `A * B` (double precision).
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    matmul_in(a, b)
}

/// `A * B` for `f32` operands with **`f64` products and sums**: the
/// operands widen to `f64` as they are packed, the `f64` microkernel sums
/// the whole inner dimension into one tile, and each element of the result
/// rounds to `f32` exactly once, as that tile is stored. Storage, inputs and
/// output stay single precision — the mixed mode the reduced-precision sign
/// iteration uses.
pub fn matmul_wide(a: &MatrixF32, b: &MatrixF32) -> Result<MatrixF32, LinalgError> {
    let mut c = MatrixF32::zeros(a.nrows(), b.ncols());
    matmul_wide_into(a, b, &mut c)?;
    Ok(c)
}

/// [`matmul_wide`] into a matrix the caller already holds.
pub(crate) fn matmul_wide_into(
    a: &MatrixF32,
    b: &MatrixF32,
    c: &mut MatrixF32,
) -> Result<(), LinalgError> {
    let (m, k) = a.shape();
    let n = b.ncols();
    if k != b.nrows() || c.shape() != (m, n) {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul_wide",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    c.as_mut_slice().fill(0.0);
    if m > 0 && n > 0 && k > 0 {
        packed_gemm(
            microkernel::<f64>(),
            column_panels(m, n, k),
            1.0,
            Operand::new(a, Op::NoTrans),
            Operand::new(b, Op::NoTrans),
            k,
            c.as_mut_slice(),
        );
    }
    Ok(())
}

/// Convenience wrapper: return `A^T * B`.
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    let mut c = Matrix::zeros(a.ncols(), b.ncols());
    gemm(1.0, a, Op::Trans, b, Op::NoTrans, 0.0, &mut c)?;
    Ok(c)
}

/// Convenience wrapper: return `A * B^T`.
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    let mut c = Matrix::zeros(a.nrows(), b.nrows());
    gemm(1.0, a, Op::NoTrans, b, Op::Trans, 0.0, &mut c)?;
    Ok(c)
}

/// Similarity transform `Q * D * Q^T` where `D` is diagonal, given as a
/// slice. This is the back-transform of the eigendecomposition-based sign
/// evaluation (Eq. 17 of the paper) and is implemented as a scaled copy of
/// `Q` followed by one GEMM, avoiding the explicit diagonal matrix.
pub fn q_diag_qt(q: &Matrix, d: &[f64]) -> Result<Matrix, LinalgError> {
    let every: Vec<usize> = (0..q.nrows()).collect();
    q_diag_qt_cols(q, d, &every)
}

/// Columns `cols` of [`q_diag_qt`]`(q, d)`, in the order given and bit for
/// bit: `Q · D · (Q[cols, :])ᵀ`, `n²k` flops of the full product's `n³`.
/// The submatrix method scatters only the columns of a submatrix that
/// belong to its own block columns (paper Sec. VII). Each element is summed
/// as in the full product, which takes the small loop or the packed driver
/// by its own `n³`: a few columns of a product of dimension 17 to 32 would
/// otherwise fall under `SMALL_VOLUME` and leave the packed tile's bits.
pub fn q_diag_qt_cols(q: &Matrix, d: &[f64], cols: &[usize]) -> Result<Matrix, LinalgError> {
    let mut c = Matrix::zeros(0, 0);
    crate::eigh::with_scratch(|s| s.back.run(q, d, cols, &mut c))?;
    Ok(c)
}

/// The two temporaries of [`q_diag_qt_cols`], the scaled copy `Q·D` and the
/// selected rows `Q[cols, :]`, kept in the calling thread's eigensolver
/// scratch.
pub(crate) struct BackTransform {
    qd: Matrix,
    q_rows: Matrix,
}

impl BackTransform {
    pub(crate) fn new() -> Self {
        BackTransform {
            qd: Matrix::zeros(0, 0),
            q_rows: Matrix::zeros(0, 0),
        }
    }

    /// [`q_diag_qt_cols`]`(q, d, cols)` into `c`'s allocation.
    pub(crate) fn run(
        &mut self,
        q: &Matrix,
        d: &[f64],
        cols: &[usize],
        c: &mut Matrix,
    ) -> Result<(), LinalgError> {
        if q.ncols() != d.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "q_diag_qt",
                lhs: q.shape(),
                rhs: (d.len(), d.len()),
            });
        }
        if let Some(&c) = cols.iter().find(|&&c| c >= q.nrows()) {
            return Err(LinalgError::DimensionMismatch {
                op: "q_diag_qt_cols (column index)",
                lhs: q.shape(),
                rhs: (c + 1, q.ncols()),
            });
        }
        // QD: scale column l of Q by d[l].
        let BackTransform { qd, q_rows } = self;
        qd.set_from(q);
        for (l, &dl) in d.iter().enumerate() {
            crate::blas1::scal(dl, qd.col_mut(l));
        }
        q_rows.set_zeros(cols.len(), q.ncols());
        for l in 0..q.ncols() {
            for (r, &row) in cols.iter().enumerate() {
                q_rows[(r, l)] = q[(row, l)];
            }
        }
        c.set_zeros(q.nrows(), cols.len());
        let (a, b) = (
            Operand::new(qd, Op::NoTrans),
            Operand::new(q_rows, Op::Trans),
        );
        gemm_as_volume(1.0, a, b, 0.0, c, q.nrows() * q.nrows() * d.len())
    }
}

/// Naive triple-loop reference multiply, used by tests and property checks.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    if a.ncols() != b.nrows() {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul_naive",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut c = Matrix::zeros(a.nrows(), b.ncols());
    for j in 0..b.ncols() {
        for i in 0..a.nrows() {
            let mut s = 0.0;
            for kk in 0..a.ncols() {
                s += a[(i, kk)] * b[(kk, j)];
            }
            c[(i, j)] = s;
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arange(m: usize, n: usize) -> Matrix {
        Matrix::from_fn(m, n, |i, j| (i * n + j) as f64 * 0.1 - 1.0)
    }

    /// Values in (−0.5, 0.5) that `f32` cannot hold exactly.
    fn seeded(m: usize, n: usize, seed: usize) -> Matrix {
        Matrix::from_fn(m, n, |i, j| {
            ((i * 31 + j * 17 + seed * 7) % 61) as f64 / 61.0 - 0.5
        })
    }

    fn applied(x: &Matrix, op: Op) -> Matrix {
        match op {
            Op::NoTrans => x.clone(),
            Op::Trans => x.transpose(),
        }
    }

    /// `alpha · op(A) · op(B) + beta · C` by the naive triple loop.
    fn reference(
        alpha: f64,
        a: &Matrix,
        op_a: Op,
        b: &Matrix,
        op_b: Op,
        beta: f64,
        c: &Matrix,
    ) -> Matrix {
        let mut r = matmul_naive(&applied(a, op_a), &applied(b, op_b)).unwrap();
        r.scale(alpha);
        r.axpy(beta, c).unwrap();
        r
    }

    /// The packed driver with `f64` sums, whatever the size, with a chosen
    /// microkernel, panel count and block depth.
    #[allow(clippy::too_many_arguments)]
    fn packed<E: Elem>(
        kernel: Microkernel<f64>,
        panels: usize,
        a: &MatrixBase<E>,
        op_a: Op,
        b: &MatrixBase<E>,
        op_b: Op,
        kc_max: usize,
        c: &mut MatrixBase<E>,
    ) {
        let (a, b) = (Operand::new(a, op_a), Operand::new(b, op_b));
        packed_gemm(kernel, panels, 1.0, a, b, kc_max, c.as_mut_slice());
    }

    fn bits<E: Elem>(c: &MatrixBase<E>) -> Vec<u64> {
        c.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
    }

    const OPS: [(Op, Op); 4] = [
        (Op::NoTrans, Op::NoTrans),
        (Op::Trans, Op::NoTrans),
        (Op::NoTrans, Op::Trans),
        (Op::Trans, Op::Trans),
    ];
    const SCALARS: [f64; 3] = [0.0, 1.0, -0.75];

    /// `gemm` in `f64` and `f32`, the packed driver at block depth `kc_max`,
    /// and `matmul_wide`, each against the naive product.
    #[allow(clippy::too_many_arguments)]
    fn check_every_path(
        m: usize,
        n: usize,
        k: usize,
        ops: usize,
        alpha: usize,
        beta: usize,
        kc_max: usize,
        seed: usize,
    ) -> Result<(), TestCaseError> {
        let (op_a, op_b) = OPS[ops];
        let (alpha, beta) = (SCALARS[alpha], SCALARS[beta]);
        let (ar, ac) = op_a.apply((m, k));
        let (br, bc) = op_b.apply((k, n));
        let (a, b) = (seeded(ar, ac, seed), seeded(br, bc, seed + 1));
        let c0 = seeded(m, n, seed + 2);
        let expect = reference(alpha, &a, op_a, &b, op_b, beta, &c0);
        let tol = 1e-13 * (k as f64 + 1.0);

        let mut c = c0.clone();
        gemm(alpha, &a, op_a, &b, op_b, beta, &mut c).unwrap();
        prop_assert!(
            c.allclose(&expect, tol),
            "f64 off by {}",
            c.max_abs_diff(&expect)
        );

        let mut c = c0.clone();
        packed(microkernel(), 1, &a, op_a, &b, op_b, kc_max, &mut c);
        let expect_packed = reference(1.0, &a, op_a, &b, op_b, 1.0, &c0);
        prop_assert!(
            c.allclose(&expect_packed, tol),
            "packed f64 (kc {kc_max}) off by {}",
            c.max_abs_diff(&expect_packed)
        );

        // Single precision, against the naive product of the rounded
        // inputs: one rounding of a partial sum below k / 4 per term.
        let (a32, b32, mut c32) = (a.to_f32(), b.to_f32(), c0.to_f32());
        let (a, b, c0) = (a32.to_f64(), b32.to_f64(), c32.to_f64());
        let expect = reference(alpha, &a, op_a, &b, op_b, beta, &c0);
        gemm(alpha as f32, &a32, op_a, &b32, op_b, beta as f32, &mut c32).unwrap();
        let diff = c32.to_f64().max_abs_diff(&expect);
        prop_assert!(diff < 1e-6 * (k as f64 + 1.0), "f32 off by {diff}");

        if (op_a, op_b) == OPS[0] {
            // f64 sums, so only the one rounding of the result is left.
            let wide = matmul_wide(&a32, &b32).unwrap();
            let diff = wide.to_f64().max_abs_diff(&matmul_naive(&a, &b).unwrap());
            prop_assert!(diff <= 2e-8 * k as f64 + tol, "wide off by {diff}");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        // Edge tiles in every dimension, block depths that cut `k` into
        // several blocks.
        #[test]
        fn every_path_matches_naive(
            m in 1usize..131,
            n in 1usize..131,
            k in 1usize..131,
            ops in 0usize..4,
            alpha in 0usize..3,
            beta in 0usize..3,
            kc_max in 1usize..131,
            seed in 0usize..64,
        ) {
            check_every_path(m, n, k, ops, alpha, beta, kc_max, seed)?;
        }

        // Sizes on both sides of `SMALL_VOLUME`.
        #[test]
        fn every_path_matches_naive_at_small_sizes(
            m in 1usize..25,
            n in 1usize..25,
            k in 1usize..25,
            ops in 0usize..4,
            alpha in 0usize..3,
            beta in 0usize..3,
            kc_max in 1usize..25,
            seed in 0usize..64,
        ) {
            check_every_path(m, n, k, ops, alpha, beta, kc_max, seed)?;
        }
    }

    #[test]
    fn inner_dimension_longer_than_two_blocks() {
        let (a, b) = (seeded(9, 2 * KC + 3, 1), seeded(2 * KC + 3, 7, 2));
        let expect = matmul_naive(&a, &b).unwrap();
        assert!(matmul(&a, &b).unwrap().allclose(&expect, 1e-10));
        // One block as deep as `k`: three `KC`-deep pieces into one tile.
        let mut c = Matrix::zeros(9, 7);
        let (nn, k) = (Op::NoTrans, 2 * KC + 3);
        packed(microkernel(), 1, &a, nn, &b, nn, k, &mut c);
        assert!(c.allclose(&expect, 1e-10));
        let wide = matmul_wide(&a.to_f32(), &b.to_f32()).unwrap();
        assert!(wide.to_f64().allclose(&expect, 1e-4));
    }

    #[test]
    fn simd_and_portable_kernels_agree() {
        let Kernels {
            tiles: simd,
            portable,
            ..
        } = microkernels::<f64>();
        println!("microkernel → {}", f64_microkernel());
        for (name, kernel) in ["avx512f", "avx2+fma"].into_iter().zip(simd) {
            if kernel.is_none() {
                println!("skipped: this CPU has no {name} microkernel to compare");
            }
        }
        let simd: Vec<_> = simd.into_iter().flatten().collect();
        // Multiples of neither tile in any dimension; one, several and many
        // blocks of `k`.
        let dims = [1, 5, 13, 17, 33, 77];
        let shapes = dims
            .iter()
            .flat_map(|&m| dims.iter().map(move |&n| (m, n)))
            .flat_map(|(m, n)| [1, 77, 2 * KC + 3].map(|k| (m, n, k)));
        for ((m, n, k), (op_a, op_b)) in shapes.flat_map(|s| OPS.map(|ops| (s, ops))) {
            let ((ar, ac), (br, bc)) = (op_a.apply((m, k)), op_b.apply((k, n)));
            let (a, b) = (seeded(ar, ac, 3), seeded(br, bc, 4));
            let naive = matmul_naive(&applied(&a, op_a), &applied(&b, op_b)).unwrap();
            let tol = 1e-13 * (k as f64 + 1.0);
            for kc_max in [7, KC, k] {
                let run = |kernel| {
                    let mut c = Matrix::zeros(m, n);
                    packed(kernel, 1, &a, op_a, &b, op_b, kc_max, &mut c);
                    c
                };
                let reference = run(portable);
                assert!(reference.allclose(&naive, tol));
                let results: Vec<_> = simd.iter().map(|&kernel| run(kernel)).collect();
                for (c, kernel) in results.iter().zip(&simd) {
                    let what = format!("{} {m}×{n}×{k} kc {kc_max}", kernel.name);
                    assert!(c.allclose(&naive, tol), "{what} against naive");
                    assert!(c.allclose(&reference, tol), "{what} against portable");
                    // One FMA chain per element whatever the tile.
                    assert_eq!(bits(c), bits(&results[0]), "{what}");
                }
            }
            // `matmul_wide`: `f32` operands, one block as deep as `k`.
            if (op_a, op_b) == OPS[0] {
                let (a32, b32) = (a.to_f32(), b.to_f32());
                let wide = bits(&matmul_wide(&a32, &b32).unwrap());
                for &kernel in &simd {
                    let mut c = MatrixF32::zeros(m, n);
                    packed(kernel, 1, &a32, op_a, &b32, op_b, k, &mut c);
                    assert_eq!(bits(&c), wide, "wide {} {m}×{n}×{k}", kernel.name);
                }
            }
        }
    }

    /// `gemm_stack` against one `gemm` call per product, bit for bit, with
    /// every 6 × 6 × 6 stack kernel this CPU runs: stacks of 6 × 6 blocks
    /// with zeros of either sign in `B` beside infinities and NaNs in `A`
    /// (a skipped term must not reach `C`), stacks whose inner size changes
    /// from product to product, and products on both sides of the small
    /// loop's bound.
    #[test]
    fn stack_kernels_keep_the_per_product_bits() {
        let state = match microkernels::<f64>().stacks6 {
            Some(_) => "compared",
            None => "skipped: not on this CPU",
        };
        println!("6 × 6 × 6 stack kernel avx512f: {state}");
        let kernels: Vec<Stack6> = stack6_kernels().collect();
        let mut h = 0x5eed_u64;
        let mut value = || {
            h = h
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match (h >> 33) % 16 {
                0 => 0.0,
                1 => -0.0,
                _ => ((h >> 11) % 1000) as f64 / 500.0 - 1.0,
            }
        };
        let mut block = |m: usize, n: usize| Matrix::from_fn(m, n, |_, _| value());
        // (rows of C, columns of C, inner sizes of the stack's products).
        let cases: [(usize, usize, &[usize]); 6] = [
            (6, 6, &[6; 40]),
            (6, 6, &[6, 6, 3, 6, 23, 6, 6, 1]),
            (6, 6, &[]),
            (23, 23, &[23, 6, 23]),
            (1, 23, &[5, 23]),
            (4, 5, &[3, 16]),
        ];
        for (case, &(m, n, ks)) in cases.iter().enumerate() {
            let mut blocks: Vec<(Matrix, Matrix)> =
                ks.iter().map(|&k| (block(m, k), block(k, n))).collect();
            if let Some((a, b)) = blocks.get_mut(1) {
                a[(0, 0)] = f64::INFINITY;
                a[(m - 1, 0)] = f64::NAN;
                b[(0, n - 1)] = 0.0;
            }
            let stack: Vec<(&[f64], &[f64])> = (blocks.iter())
                .map(|(a, b)| (a.as_slice(), b.as_slice()))
                .collect();
            let mut want = Matrix::zeros(m, n);
            for (a, b) in &blocks {
                gemm(1.0, a, Op::NoTrans, b, Op::NoTrans, 1.0, &mut want).unwrap();
            }
            let mut got = Matrix::zeros(m, n);
            gemm_stack(&stack, (m, n), got.as_mut_slice()).unwrap();
            assert_eq!(bits(&got), bits(&want), "case {case}");
            if (m, n) == (6, 6) && ks.iter().all(|&k| k == 6) {
                for (i, kernel) in kernels.iter().enumerate() {
                    let mut c = Matrix::zeros(6, 6);
                    kernel(&stack, c.as_mut_slice());
                    assert_eq!(bits(&c), bits(&want), "case {case}, kernel {i}");
                }
            }
        }
        let (a, b) = (block(6, 5), block(6, 6));
        let stack = [(a.as_slice(), b.as_slice())];
        let err = gemm_stack(&stack, (6, 6), &mut [0.0; 36]);
        assert!(err.is_err(), "a 6 × 5 by 6 × 6 product is refused");
        let err = gemm_stack(&[], (6, 6), &mut [0.0; 35]);
        assert!(err.is_err(), "a C of 35 elements is not 6 × 6");
    }

    #[test]
    fn column_partition_does_not_change_a_bit() {
        // Two blocks of k, edge tiles in m and n, panels that split unevenly.
        let (a, b) = (seeded(37, 300, 5), seeded(300, 50, 6));
        let c0 = seeded(37, 50, 7);
        let run = |panels| {
            let mut c = c0.clone();
            packed(
                microkernel(),
                panels,
                &a,
                Op::NoTrans,
                &b,
                Op::NoTrans,
                KC,
                &mut c,
            );
            c.into_vec()
        };
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let one = bits(run(1));
        assert_eq!(one, bits(run(2)));
        assert_eq!(one, bits(run(3)));
    }

    #[test]
    fn matmul_matches_naive() {
        let a = arange(5, 7);
        let b = arange(7, 4);
        let c = matmul(&a, &b).unwrap();
        let r = matmul_naive(&a, &b).unwrap();
        assert!(c.allclose(&r, 1e-12));
    }

    #[test]
    fn identity_is_neutral() {
        let a = arange(6, 6);
        let i = Matrix::identity(6);
        assert!(matmul(&a, &i).unwrap().allclose(&a, 1e-15));
        assert!(matmul(&i, &a).unwrap().allclose(&a, 1e-15));
    }

    #[test]
    fn alpha_beta_accumulate() {
        let a = arange(3, 3);
        let b = Matrix::identity(3);
        let mut c = Matrix::identity(3);
        // C = 2*A*I + 3*I
        gemm(2.0, &a, Op::NoTrans, &b, Op::NoTrans, 3.0, &mut c).unwrap();
        let mut expect = a.scaled(2.0);
        expect.shift_diag(3.0);
        assert!(c.allclose(&expect, 1e-12));
    }

    #[test]
    fn beta_zero_overwrites_nan_garbage() {
        // 2 takes the small loop, 20 the packed driver.
        for n in [2, 20] {
            let i = Matrix::identity(n);
            let mut c = Matrix::from_fn(n, n, |_, _| f64::NAN);
            gemm(1.0, &i, Op::NoTrans, &i, Op::NoTrans, 0.0, &mut c).unwrap();
            assert!(c.allclose(&i, 0.0), "n = {n}");
        }
    }

    #[test]
    fn packed_path_does_not_mask_nan_or_inf_behind_a_zero() {
        let n = 20;
        assert!(n * n * n > SMALL_VOLUME);
        for poison in [f64::NAN, f64::INFINITY] {
            let mut a = Matrix::identity(n);
            a[(3, 5)] = poison;
            // Row 5 of B is all zeros: every product with the poisoned
            // entry is `poison · 0`.
            let mut b = seeded(n, n, 8);
            for j in 0..n {
                b[(5, j)] = 0.0;
            }
            let c = matmul(&a, &b).unwrap();
            assert!((0..n).all(|j| c[(3, j)].is_nan()), "{poison} was masked");
            assert!((0..n).all(|j| c[(4, j)].is_finite()));
        }
    }

    #[test]
    fn dimension_mismatch_detected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matmul(&a, &b).is_err());
        let mut c = Matrix::zeros(3, 3);
        assert!(gemm(1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut c).is_err());
    }

    #[test]
    fn large_parallel_matches_naive() {
        // Big enough to be split into column panels where there are threads.
        let (a, b) = (seeded(256, 256, 9), seeded(256, 256, 10));
        const { assert!(2 * 256 * 256 * 256 >= PAR_THRESHOLD_FLOPS) };
        let c = matmul(&a, &b).unwrap();
        assert!(c.allclose(&matmul_naive(&a, &b).unwrap(), 1e-11));
    }

    #[test]
    fn q_diag_qt_matches_explicit() {
        let q = arange(5, 5);
        let d = [1.0, -1.0, 2.0, 0.5, 0.0];
        let got = q_diag_qt(&q, &d).unwrap();
        let dm = Matrix::from_diag(&d);
        let expect = matmul(&matmul(&q, &dm).unwrap(), &q.transpose()).unwrap();
        assert!(got.allclose(&expect, 1e-12));
    }

    #[test]
    fn q_diag_qt_dimension_check() {
        let q = Matrix::zeros(3, 3);
        assert!(q_diag_qt(&q, &[1.0, 2.0]).is_err());
        assert!(q_diag_qt_cols(&q, &[1.0; 3], &[0, 3]).is_err());
        assert!(q_diag_qt_cols(&q, &[1.0; 2], &[0]).is_err());
    }

    #[test]
    fn simd_and_portable_rotations_agree() {
        let names = ["avx512f", "avx2"];
        let rotations = microkernels::<f64>().rotations;
        let chosen = names.iter().zip(rotations).find(|(_, r)| r.is_some());
        println!("rotation → {}", chosen.map_or("portable", |(name, _)| name));
        for (name, kernel) in names.into_iter().zip(rotations) {
            if kernel.is_none() {
                println!("skipped: this CPU has no {name} rotation to compare");
            }
        }
        let angles = [
            (0.6, 0.8),
            (1.0, 0.0),
            (0.0, -1.0),
            (0.1f64.cos(), 0.1f64.sin()),
        ];
        // Every remainder of both lane counts, from slices that start off
        // any vector boundary.
        for len in 0..=70 {
            let x0 = seeded(len + 1, 1, len).into_vec();
            let y0 = seeded(len + 3, 1, len + 1).into_vec();
            for (c, s) in angles {
                let rotated = |run: Rotation| {
                    let (mut x, mut y) = (x0.clone(), y0.clone());
                    run(c, s, &mut x[1..], &mut y[3..]);
                    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                    (bits(x), bits(y))
                };
                let expect = rotated(rotate_portable);
                for (name, kernel) in names.iter().zip(rotations) {
                    if let Some(kernel) = kernel {
                        let what = format!("{name} length {len} (c, s) = ({c}, {s})");
                        assert_eq!(rotated(kernel), expect, "{what}");
                    }
                }
            }
        }
    }

    /// Products of dimension 1 to 40 cross the small loop's volume on both
    /// sides; 77 and 96 are the `scf_md_w2` submatrices.
    #[test]
    fn selected_columns_are_the_full_products_columns() {
        let dims = (1..=40).chain([77, 96]);
        for n in dims {
            let q = seeded(n, n, n);
            // Arbitrary scale factors: negative, zero, large and small.
            let d: Vec<f64> = (0..n)
                .map(|l| [(l as f64 - 3.5) * 0.3, 0.0, 1e150, -1e-200][l % 4])
                .collect();
            let full = q_diag_qt(&q, &d).unwrap();
            let selections: [Vec<usize>; 5] = [
                Vec::new(),
                vec![n - 1, 0],
                vec![n / 2, n / 2, n / 3],
                (0..n).step_by(3).collect(),
                (0..n).rev().collect(),
            ];
            for cols in selections {
                let got = q_diag_qt_cols(&q, &d, &cols).unwrap();
                assert_eq!(got.shape(), (n, cols.len()));
                for (j, &c) in cols.iter().enumerate() {
                    let (got, want) = (got.col(j), full.col(c));
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(got), bits(want), "n = {n}, column {c}");
                }
            }
        }
    }

    #[test]
    fn empty_dimensions_are_ok() {
        let a = Matrix::zeros(0, 0);
        let b = Matrix::zeros(0, 0);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), (0, 0));
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), (3, 2));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
        let wide = matmul_wide(&a.to_f32(), &b.to_f32()).unwrap();
        assert_eq!(wide.shape(), (3, 2));
    }

    #[test]
    fn f32_gemm_matches_f64_to_single_roundoff() {
        let a = Matrix::from_fn(24, 17, |i, j| ((i * 7 + j * 3) % 9) as f64 * 0.11 - 0.4);
        let b = Matrix::from_fn(17, 21, |i, j| ((i * 5 + j * 11) % 7) as f64 * 0.13 - 0.35);
        let r = matmul(&a, &b).unwrap();
        let c32 = matmul_in(&a.to_f32(), &b.to_f32()).unwrap();
        let diff = c32.to_f64().max_abs_diff(&r);
        assert!(diff < 1e-3, "f32 gemm too far off: {diff}");
        assert!(diff > 0.0, "f32 gemm should differ from f64 in roundoff");
    }

    #[test]
    fn wide_accumulation_is_at_least_as_accurate() {
        // Long inner dimension: plain f32 accumulation drifts, the f64
        // accumulator stays at input-rounding level.
        let n = 160;
        let a = Matrix::from_fn(n, n, |i, j| ((i * 13 + j * 7) % 11) as f64 * 0.09 - 0.45);
        let b = Matrix::from_fn(n, n, |i, j| ((i * 5 + j * 3) % 13) as f64 * 0.07 - 0.4);
        let exact = matmul(&a, &b).unwrap();
        let narrow = matmul_in(&a.to_f32(), &b.to_f32()).unwrap();
        let wide = matmul_wide(&a.to_f32(), &b.to_f32()).unwrap();
        let e_narrow = narrow.to_f64().max_abs_diff(&exact);
        let e_wide = wide.to_f64().max_abs_diff(&exact);
        assert!(
            e_wide <= e_narrow + 1e-12,
            "wide accumulation ({e_wide}) must not be worse than narrow ({e_narrow})"
        );
        assert!(e_wide < 1e-3);
    }

    #[test]
    fn matmul_wide_dimension_check() {
        let a = MatrixF32::zeros(2, 3);
        let b = MatrixF32::zeros(2, 3);
        assert!(matmul_wide(&a, &b).is_err());
    }
}
