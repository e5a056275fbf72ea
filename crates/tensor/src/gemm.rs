//! The dense GEMM kernels behind [`Matrix::matmul`] and
//! [`Matrix::matmul_into`].
//!
//! Two kernels compute `out = a · b` with the **same per-output arithmetic**:
//! every `out[i][j]` starts at `+0.0` and folds `a[i][k] * b[k][j]` for
//! `k = 0..K` in order, one multiply then one add (no FMA, no reassociation).
//! They are therefore interchangeable bit for bit — and both equal row-wise
//! [`crate::ops::vec_matmul_into`], which is what keeps a multi-token chunk
//! forward identical to the one-token decode step.
//!
//! * the **row kernel** ([`matmul_rows_into`]) streams one output row through
//!   memory per `k` (load, multiply-add, store). It needs no set-up, so it
//!   serves the shapes too small to amortise a pack, and it is the reference
//!   the tiled kernel is tested against;
//! * the **tiled kernel** holds an `MR x NR` block of accumulators in
//!   registers across the whole `k` loop and reads `b` from contiguous
//!   `[n / NR][k][NR]` panels packed once per call into a caller-owned
//!   [`GemmScratch`], so the inner loop touches memory only to load operands.
//!
//! # Instruction sets
//!
//! The tiled kernel is one `#[inline(always)]` body, generic over the panel
//! width, compiled three times: for the baseline target ([`NR`] columns), and
//! inside `#[target_feature]` wrappers for AVX2 ([`NR_AVX2`]) and AVX-512F
//! ([`NR_AVX512`]). [`Matrix::matmul_into`] checks the CPU once per product
//! and runs the widest build it supports (x86-64 only; every other
//! architecture has the baseline build alone). Wider registers change no
//! bits: each lane still multiplies, then adds, in the same `k` order, and
//! Rust never contracts the two into an FMA.
//!
//! # The zero skip
//!
//! The row kernel skips a `k` whose coefficient `a[i][k]` is `±0.0`; the
//! tiled kernel has no such branch. Dropping it is exact when every entry of
//! `b` is finite: the skipped product is then `±0.0`, adding `±0.0` to a
//! non-zero accumulator changes nothing, and adding it to a zero accumulator
//! could only matter if that accumulator were `-0.0` (`-0.0 + +0.0 = +0.0`).
//! It never is — an accumulator starts at `+0.0`, and under round-to-nearest
//! a sum is `-0.0` only when *both* addends are `-0.0` (an exact
//! cancellation `x + (-x)` gives `+0.0`, and sums in the subnormal range are
//! exact, so nothing rounds *to* `-0.0`). With a non-finite `b[k][j]` the
//! argument fails (`0.0 * inf = NaN` where the row kernel skips), so the
//! pack pass reports whether `b` is finite and such calls fall back to the
//! row kernel.

use rayon::prelude::*;

use crate::Matrix;

/// Rows of the register tile.
pub const MR: usize = 4;

/// Columns of the register tile of the baseline build — two 4-lane SSE2
/// vectors per row, so an `MR x NR` tile fills 8 of the 16 vector registers
/// and leaves room for the operands.
pub const NR: usize = 8;

/// Columns of the register tile of the AVX2 build: two 8-lane vectors per
/// row, 8 of the 16 `ymm` registers (at 8 columns the four accumulator
/// chains are add-latency-bound, at 24 they spill; see `docs/PERF.md`).
pub const NR_AVX2: usize = 16;

/// Columns of the register tile of the AVX-512F build: two 16-lane vectors
/// per row, 8 of the 32 `zmm` registers (64 columns measured no faster).
pub const NR_AVX512: usize = 32;

/// Output rows per block: the unit row blocks are fanned out in, sized so a
/// block of `a` (`MC x k` floats) stays cache-resident while the panels
/// stream past it.
const MC: usize = 64;

/// Fewest rows the tiled kernel is used for. Packing `b` costs about what the
/// tile saves over sixteen rows of output (measured at the `*-7b-sim` weight
/// shapes, see `docs/PERF.md`); below that the row kernel is the faster one.
const PACK_MIN_ROWS: usize = 16;

/// Multiply-adds below which a product stays single-threaded.
const PAR_MIN_WORK: usize = 64 * 64 * 8;

/// Caller-owned working memory of [`Matrix::matmul_into`]: the packed
/// right-hand panels. Grows to the largest `k x n` seen and is reused, so a
/// warm scratch makes the product allocation-free.
#[derive(Debug)]
pub struct GemmScratch {
    panels: Vec<f32>,
    /// Whether row blocks may fan out across rayon workers (which spawns
    /// threads, and so allocates).
    parallel: bool,
}

impl GemmScratch {
    /// A scratch whose products fan row blocks out across the rayon workers
    /// once they are large enough.
    pub fn new() -> Self {
        Self {
            panels: Vec::new(),
            parallel: true,
        }
    }

    /// A scratch whose products always run on the calling thread — the
    /// thread- and allocation-free path.
    pub fn serial() -> Self {
        Self {
            panels: Vec::new(),
            parallel: false,
        }
    }
}

impl Default for GemmScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// `out = a · b` through the row kernel (see the module docs): the set-up
/// free path and the reference the tiled kernel is pinned against.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn matmul_rows_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    let (k, n) = b.shape();
    out.resize_zeroed(a.rows(), n);
    if k > 0 && n > 0 {
        rows_block(a.as_slice(), b.as_slice(), k, out.as_mut_slice(), n);
    }
}

/// The row kernel over zeroed output rows (`out.len() / n` of them).
fn rows_block(a: &[f32], b: &[f32], k: usize, out: &mut [f32], n: usize) {
    for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (&coeff, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
            if coeff == 0.0 {
                continue;
            }
            for (o, &w) in out_row.iter_mut().zip(b_row) {
                *o += coeff * w;
            }
        }
    }
}

/// Packs `b` (`k x n`, row-major) into `n.div_ceil(W)` panels of `[k][W]`
/// (the ragged last panel zero-padded) and reports whether every entry is
/// finite.
#[inline(always)]
fn pack_panels<const W: usize>(b: &Matrix, panels: &mut Vec<f32>) -> bool {
    const EXPONENT: u32 = 0x7f80_0000;
    let (k, n) = b.shape();
    panels.clear();
    panels.resize(n.div_ceil(W) * k * W, 0.0);
    for (p, panel) in panels.chunks_exact_mut(k * W).enumerate() {
        let j0 = p * W;
        let width = W.min(n - j0);
        if width == W {
            // Fixed-width copies compile to vector moves, not a call.
            for (dst, src) in panel.chunks_exact_mut(W).zip(b.as_slice().chunks_exact(n)) {
                dst.copy_from_slice(&src[j0..j0 + W]);
            }
        } else {
            for (dst, src) in panel.chunks_exact_mut(W).zip(b.as_slice().chunks_exact(n)) {
                dst[..width].copy_from_slice(&src[j0..j0 + width]);
            }
        }
    }
    let non_finite = b.as_slice().iter().fold(0, |bad, w| {
        bad | u32::from(w.to_bits() & EXPONENT == EXPONENT)
    });
    non_finite == 0
}

/// One register tile: `MR` rows of `a` (contiguous, `k` floats each) against
/// one packed panel of width `W`, written to columns `j0..j0 + width` of the
/// matching `MR` rows of `out` (`n` floats each).
#[inline(always)]
fn tile<const W: usize>(
    a: &[f32],
    k: usize,
    panel: &[f32],
    out: &mut [f32],
    n: usize,
    j0: usize,
    width: usize,
) {
    let (a0, rest) = a.split_at(k);
    let (a1, rest) = rest.split_at(k);
    let (a2, a3) = rest.split_at(k);
    let (mut c0, mut c1, mut c2, mut c3) = ([0.0f32; W], [0.0f32; W], [0.0f32; W], [0.0f32; W]);
    for ((((b, &x0), &x1), &x2), &x3) in panel.chunks_exact(W).zip(a0).zip(a1).zip(a2).zip(a3) {
        for j in 0..W {
            c0[j] += x0 * b[j];
            c1[j] += x1 * b[j];
            c2[j] += x2 * b[j];
            c3[j] += x3 * b[j];
        }
    }
    for (acc_row, out_row) in [c0, c1, c2, c3].iter().zip(out.chunks_exact_mut(n)) {
        if width == W {
            out_row[j0..j0 + W].copy_from_slice(acc_row);
        } else {
            out_row[j0..j0 + width].copy_from_slice(&acc_row[..width]);
        }
    }
}

/// The tiled kernel over one block of output rows: panels outermost (one
/// panel stays in L1 while the block's rows stream past it), `MR`-row tiles
/// inside. Rows are independent and the two kernels agree bit for bit, so a
/// ragged block's last 1–3 rows simply take the row kernel.
#[inline(always)]
fn tiled_block<const W: usize>(
    a: &[f32],
    b: &[f32],
    k: usize,
    panels: &[f32],
    out: &mut [f32],
    n: usize,
) {
    let rows = out.len() / n;
    let full = rows - rows % MR;
    for (p, panel) in panels.chunks_exact(k * W).enumerate() {
        let j0 = p * W;
        let width = W.min(n - j0);
        for (a, out) in a[..full * k]
            .chunks_exact(MR * k)
            .zip(out.chunks_exact_mut(MR * n))
        {
            tile::<W>(a, k, panel, out, n, j0, width);
        }
    }
    rows_block(&a[full * k..], b, k, &mut out[full * n..], n);
}

/// `out = a · b` through the tiled kernel at panel width `W`, running
/// `block` (a [`tiled_block`] at the same width) over each block of output
/// rows: the one body every instruction-set build compiles. Empty products
/// and a `b` with a non-finite entry take the row kernel (see the module
/// docs).
#[inline(always)]
fn tiled<const W: usize>(
    a: &Matrix,
    b: &Matrix,
    scratch: &mut GemmScratch,
    out: &mut Matrix,
    block: impl Fn(&[f32], &[f32], usize, &[f32], &mut [f32], usize) + Sync,
) {
    let m = a.rows();
    let (k, n) = b.shape();
    if k == 0 || n == 0 || !pack_panels::<W>(b, &mut scratch.panels) {
        matmul_rows_into(a, b, out);
        return;
    }
    out.resize_zeroed(m, n);
    let panels = scratch.panels.as_slice();
    let (a, b) = (a.as_slice(), b.as_slice());
    let run = |(blk, out_rows): (usize, &mut [f32])| {
        let r0 = blk * MC;
        let rows = out_rows.len() / n;
        block(&a[r0 * k..(r0 + rows) * k], b, k, panels, out_rows, n);
    };
    let blocks = out.as_mut_slice();
    if scratch.parallel && m * n * k >= PAR_MIN_WORK {
        blocks.par_chunks_mut(MC * n).enumerate().for_each(run);
    } else {
        blocks.chunks_mut(MC * n).enumerate().for_each(run);
    }
}

/// [`tiled`] for the baseline target at [`NR`] columns.
fn tiled_portable(a: &Matrix, b: &Matrix, scratch: &mut GemmScratch, out: &mut Matrix) {
    tiled::<NR>(a, b, scratch, out, tiled_block::<NR>);
}

// A closure inherits the target features of the function it is written in,
// not of one it is inlined into. So the AVX builds write their row-block
// closure here: one written in `tiled` would run as the baseline build
// wherever rayon calls it.

/// [`tiled`] compiled for AVX2 at [`NR_AVX2`] columns.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tiled_avx2(a: &Matrix, b: &Matrix, scratch: &mut GemmScratch, out: &mut Matrix) {
    tiled::<NR_AVX2>(a, b, scratch, out, |a, b, k, panels, out, n| {
        tiled_block::<NR_AVX2>(a, b, k, panels, out, n);
    });
}

/// [`tiled`] compiled for AVX-512F at [`NR_AVX512`] columns.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn tiled_avx512(a: &Matrix, b: &Matrix, scratch: &mut GemmScratch, out: &mut Matrix) {
    tiled::<NR_AVX512>(a, b, scratch, out, |a, b, k, panels, out, n| {
        tiled_block::<NR_AVX512>(a, b, k, panels, out, n);
    });
}

/// `out = a · b` — the body of [`Matrix::matmul_into`]: the row kernel below
/// [`PACK_MIN_ROWS`] rows, otherwise the widest build of the tiled kernel
/// this CPU runs.
pub(crate) fn gemm_into(a: &Matrix, b: &Matrix, scratch: &mut GemmScratch, out: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    if a.rows() < PACK_MIN_ROWS {
        matmul_rows_into(a, b, out);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU supports AVX-512F, checked on the line above.
            return unsafe { tiled_avx512(a, b, scratch, out) };
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked on the line above.
            return unsafe { tiled_avx2(a, b, scratch, out) };
        }
    }
    tiled_portable(a, b, scratch, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::vec_matmul_into;

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Coefficients the row kernel skips (`0.0`, `-0.0`), ones it must not
    /// (subnormals of both signs), and runs that cancel exactly so an
    /// accumulator passes back through zero before meeting a `-0.0` product —
    /// the only way a skipped term could show.
    const SPECIALS: [f32; 13] = [
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::MIN_POSITIVE / 2.0,
        1.0,
        -1.0,
        1.0,
        -1.0,
        -0.0,
        3.5,
        -3.5,
        0.0,
    ];

    /// Values of `b`, one per column repeated down the rows, so the ±1 /
    /// ±3.5 pairs of [`SPECIALS`] cancel exactly; signs and magnitudes vary
    /// by column, with zero, negative-zero and subnormal columns among them.
    const COLUMN: [f32; 11] = [
        2.0,
        -2.0,
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(1),
        1.5e-20,
        -7.25,
        1e20,
        0.5,
        -0.5,
    ];

    /// An `m x k` by `k x n` product over [`SPECIALS`] and [`COLUMN`].
    fn edge_operands(m: usize, k: usize, n: usize) -> (Matrix, Matrix) {
        let a = Matrix::from_fn(m, k, |r, c| SPECIALS[(r * 5 + c) % SPECIALS.len()]);
        let b = Matrix::from_fn(k, n, |_, c| COLUMN[c % COLUMN.len()]);
        (a, b)
    }

    type Product = fn(&Matrix, &Matrix, &mut GemmScratch, &mut Matrix);

    /// Every instruction-set build of the tiled product by name, `None`
    /// where this CPU lacks the instruction set.
    fn isa_builds() -> Vec<(&'static str, Option<Product>)> {
        let mut builds: Vec<(&'static str, Option<Product>)> =
            vec![("portable", Some(tiled_portable))];
        #[cfg(target_arch = "x86_64")]
        {
            let avx2: Product = |a, b, scratch, out| {
                // SAFETY: `isa_builds` lists this only when the CPU supports
                // AVX2.
                unsafe { tiled_avx2(a, b, scratch, out) }
            };
            let avx512: Product = |a, b, scratch, out| {
                // SAFETY: `isa_builds` lists this only when the CPU supports
                // AVX-512F.
                unsafe { tiled_avx512(a, b, scratch, out) }
            };
            builds.push(("avx2", is_x86_feature_detected!("avx2").then_some(avx2)));
            builds.push((
                "avx512f",
                is_x86_feature_detected!("avx512f").then_some(avx512),
            ));
        }
        builds
    }

    /// Tiled product (as dispatched, and as every build this CPU runs),
    /// row-kernel product and row-wise `vec_matmul_into`, asserted equal bit
    /// for bit (so signed zeros count).
    fn assert_all_kernels_agree(a: &Matrix, b: &Matrix) -> Matrix {
        let mut tiled = Matrix::default();
        a.matmul_into(b, &mut GemmScratch::serial(), &mut tiled);
        let mut rows = Matrix::default();
        matmul_rows_into(a, b, &mut rows);
        assert_eq!(bits(&tiled), bits(&rows), "tiled vs row kernel");
        for (name, build) in isa_builds() {
            if let Some(product) = build {
                let mut out = Matrix::default();
                product(a, b, &mut GemmScratch::serial(), &mut out);
                assert_eq!(bits(&out), bits(&rows), "{name} build vs row kernel");
            }
        }
        let mut row = vec![0.0f32; b.cols()];
        for r in 0..a.rows() {
            vec_matmul_into(a.row(r), b, &mut row);
            let row_bits: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                &bits(&tiled)[r * b.cols()..][..b.cols()],
                row_bits,
                "row {r}"
            );
        }
        tiled
    }

    #[test]
    fn dropping_the_zero_skip_is_bit_identical_for_finite_b() {
        let (a, b) = edge_operands(PACK_MIN_ROWS + MR + 1, 2 * SPECIALS.len(), NR + 3);
        let out = assert_all_kernels_agree(&a, &b);
        // The proof's conclusion, observed: no accumulator ever lands on -0.0.
        assert!(out
            .as_slice()
            .iter()
            .all(|v| v.to_bits() != (-0.0f32).to_bits()));
    }

    #[test]
    fn isa_builds_are_bit_identical_to_the_portable_tile() {
        // Row counts around the tile height and past a row block, column
        // counts around every build's panel width, and `k` empty, one and
        // odd, over the zero-skip grid.
        let builds = isa_builds();
        for m in [1, MR - 1, MR, MR + 1, 2 * MR + 3, MC + 3] {
            for k in [0, 1, 7, 2 * SPECIALS.len() + 1] {
                for n in [
                    1,
                    NR - 1,
                    NR + 3,
                    NR_AVX2 - 1,
                    NR_AVX2 + 1,
                    NR_AVX512 - 1,
                    NR_AVX512,
                    2 * NR_AVX512 + 5,
                ] {
                    let (a, b) = edge_operands(m, k, n);
                    let mut portable = Matrix::default();
                    tiled_portable(&a, &b, &mut GemmScratch::serial(), &mut portable);
                    for (name, build) in &builds {
                        if let Some(product) = build {
                            let mut out = Matrix::default();
                            product(&a, &b, &mut GemmScratch::serial(), &mut out);
                            assert_eq!(bits(&out), bits(&portable), "{name} at {m}x{k}x{n}");
                        }
                    }
                }
            }
        }
        for (name, build) in &builds {
            match build {
                Some(_) => println!("gemm: {name} build bit-compared"),
                None => println!("gemm: {name} build skipped, this CPU lacks it"),
            }
        }
    }

    #[test]
    fn non_finite_b_keeps_the_skip() {
        // `0.0 * inf` is NaN: where `a` is zero the row kernel skips the
        // term and stays finite, so a `b` with a non-finite entry must not
        // reach the tiled kernel.
        let (m, k, n) = (PACK_MIN_ROWS, 6, NR);
        let a = Matrix::from_fn(m, k, |r, c| if c == 2 { 0.0 } else { (r + c) as f32 - 3.0 });
        let mut b = Matrix::from_fn(k, n, |r, c| (r * n + c) as f32 * 0.25 - 4.0);
        b.set(2, 1, f32::INFINITY);
        b.set(2, 5, f32::NAN);
        let out = assert_all_kernels_agree(&a, &b);
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn warm_scratch_is_reused_across_shapes() {
        let a = Matrix::from_fn(40, 9, |r, c| (r * 9 + c) as f32 * 0.1 - 2.0);
        let wide = Matrix::from_fn(9, 21, |r, c| (r + 2 * c) as f32 * 0.3 - 1.0);
        let narrow = Matrix::from_fn(9, 5, |r, c| (3 * r + c) as f32 * 0.2 - 1.5);
        let mut scratch = GemmScratch::serial();
        let mut out = Matrix::default();
        for b in [&wide, &narrow, &wide] {
            // Stale panel contents from the previous shape must not leak.
            a.matmul_into(b, &mut scratch, &mut out);
            let mut reference = Matrix::default();
            matmul_rows_into(&a, b, &mut reference);
            assert_eq!(bits(&out), bits(&reference));
        }
    }
}
