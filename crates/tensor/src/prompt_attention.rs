//! The blocked prompt-attention kernel: one (head × query-tile) work unit of
//! causal self-attention over full-precision activations — the body the
//! tiled prefill of `million_model` runs per unit.
//!
//! [`attend_unit`] walks the unit's keys in tiles of [`KEY_TILE`]. Per tile
//! it
//!
//! 1. **stages the key tile transposed**, `[head_dim][KEY_TILE]`, zero
//!    padded, and the value tile row-major, both contiguous in the
//!    scratch's arena;
//! 2. **scores one query row against the whole tile, keys across SIMD
//!    lanes**: lane `l` of key `j` sums `q[8i + l] · kᵀ[8i + l][j]` over `i`
//!    from `0.0`, the lanes combine in `ops::dot_wide`'s tree
//!    `((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))`, then the
//!    `head_dim % 8` tail is added, the sum multiplied by the scale and the
//!    ALiBi bias subtracted. That is `dot_wide(q, k) * scale` operation for
//!    operation, so every score has the same bits — without a horizontal
//!    reduction per key;
//! 3. **weighs each row** with `OnlineSoftmax::weigh_tile` (the max scan,
//!    rescale and batched `exp_approx` of the one-row step);
//! 4. **folds P·V four query rows at a time**: each value row is loaded once
//!    per channel block and feeds four stack accumulators. Each row still
//!    adds its keys in ascending order, one multiply then one add, and a row
//!    whose causal window reaches further than the block's shortest finishes
//!    its own keys afterwards.
//!
//! Every output is therefore bit-identical to scoring each key with
//! `dot_wide` and pushing each row's tile through the one-row online
//! softmax step (the `#[cfg(test)]` reference below).
//!
//! # Instruction sets
//!
//! The unit is one `#[inline(always)]` body, generic over the keys scored per
//! vector and the channels folded per row, compiled for the baseline target
//! and inside a `#[target_feature]` wrapper for AVX2, picked with
//! `is_x86_feature_detected!` as the GEMM tile is (see [`crate::gemm`]).
//! Rust never contracts a multiply and an add into an FMA nor reassociates a
//! sum, so both builds produce the same bits. There is no AVX-512F build:
//! in this sizing it is no faster than AVX2, and its frequency licence slows
//! the decode steps around it.

use std::ops::Range;

use crate::{OnlineSoftmax, StridedRows};

/// Keys per tile of the walk.
pub const KEY_TILE: usize = 64;

/// Partial sums of one score, as in `ops::dot_wide`.
const LANES: usize = 8;

/// Query rows folded per pass over a value tile.
const FOLD_ROWS: usize = 4;

/// Floats of stagger between the arena's sections (32 bytes — breaks 4 KiB
/// set aliasing between the key and value tiles without wasting a line).
const ARENA_PAD: usize = 8;

/// Keys scored per vector, and channels folded per query row, by the
/// baseline build (one and two 4-lane SSE2 vectors).
const SCORE_KEYS: usize = 4;
const FOLD_CHANNELS: usize = 8;

/// The same by the AVX2 build (one and two 8-lane vectors: eight score
/// accumulators, or four rows of two, fill half the 16 `ymm` registers).
#[cfg(target_arch = "x86_64")]
const SCORE_KEYS_AVX2: usize = 8;
#[cfg(target_arch = "x86_64")]
const FOLD_CHANNELS_AVX2: usize = 16;

/// Working memory of [`attend_unit`]: one staging arena and one
/// online-softmax state per query row. Grows to the largest unit seen and
/// is then reused, so a warm scratch makes the unit allocation-free.
#[derive(Debug, Default)]
pub struct UnitScratch {
    /// `[kᵀ tile (hd·K) | pad | v tile (K·hd) | pad | score row (K)]`.
    ///
    /// The key/value tiles are copied contiguous because the packed
    /// activations stride by `n_kv_heads * head_dim` — walking them in place
    /// would drag the unused head bands through cache once per query row;
    /// one copy per (unit, key tile) is amortised over the unit's query
    /// rows. All three live in **one** allocation with a deliberate stagger
    /// between the tiles: as separate heap buffers their relative addresses
    /// vary run to run, and layouts that land 4 KiB-aliased thrash the same
    /// L1 sets (observed as a bimodal ~1.5x kernel slowdown across otherwise
    /// identical processes).
    arena: Vec<f32>,
    rows: Vec<OnlineSoftmax>,
}

impl UnitScratch {
    /// Bytes of a scratch warmed for units of `query_rows` rows of width
    /// `head_dim`: the staging arena plus the per-row accumulators.
    pub fn bytes(head_dim: usize, query_rows: usize) -> usize {
        (arena_len(head_dim) + query_rows * head_dim) * std::mem::size_of::<f32>()
    }
}

fn arena_len(head_dim: usize) -> usize {
    2 * (KEY_TILE * head_dim + ARENA_PAD) + KEY_TILE
}

/// Causal attention of the query rows `rows` of one head over keys
/// `0..rows.end`: `out` (`rows.len() x head_dim`, row-major) receives
/// `softmax(q·kᵀ·scale − slope·(i − j)) · v` for each query row `i`, keys
/// `j ≤ i`. `q`, `k` and `v` are the head's views (all `head_dim` wide),
/// indexed by position: a chunk of a longer prompt passes its own query
/// rows re-indexed to their positions ([`StridedRows::starting_at`]) and
/// the keys of the whole prompt so far. Key tiles are aligned at 0 and the
/// causal bound is per row, so row `i`'s output depends on `i` and the rows
/// it reads only — never on which rows share its unit. `slope` is the
/// head's ALiBi slope, if any.
///
/// Runs the AVX2 build when the CPU has it, with the same bits (see the
/// module docs).
///
/// # Panics
///
/// Panics if the views differ in width, `rows` is empty or reaches past the
/// views, or `out` is not `rows.len() * head_dim` long.
#[allow(clippy::too_many_arguments)]
pub fn attend_unit(
    q: StridedRows<'_>,
    k: StridedRows<'_>,
    v: StridedRows<'_>,
    rows: Range<usize>,
    scale: f32,
    slope: Option<f32>,
    scratch: &mut UnitScratch,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, checked on the line above.
        return unsafe { unit_avx2(q, k, v, rows, scale, slope, scratch, out) };
    }
    unit_portable(q, k, v, rows, scale, slope, scratch, out);
}

/// [`unit`] for the baseline target.
#[allow(clippy::too_many_arguments)]
fn unit_portable(
    q: StridedRows<'_>,
    k: StridedRows<'_>,
    v: StridedRows<'_>,
    rows: Range<usize>,
    scale: f32,
    slope: Option<f32>,
    scratch: &mut UnitScratch,
    out: &mut [f32],
) {
    unit::<SCORE_KEYS, FOLD_CHANNELS>(q, k, v, rows, scale, slope, scratch, out);
}

/// [`unit`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn unit_avx2(
    q: StridedRows<'_>,
    k: StridedRows<'_>,
    v: StridedRows<'_>,
    rows: Range<usize>,
    scale: f32,
    slope: Option<f32>,
    scratch: &mut UnitScratch,
    out: &mut [f32],
) {
    unit::<SCORE_KEYS_AVX2, FOLD_CHANNELS_AVX2>(q, k, v, rows, scale, slope, scratch, out);
}

/// The body every instruction-set build compiles: `KEYS` keys scored per
/// vector, `W` channels of a row folded per pass.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn unit<const KEYS: usize, const W: usize>(
    q: StridedRows<'_>,
    k: StridedRows<'_>,
    v: StridedRows<'_>,
    rows: Range<usize>,
    scale: f32,
    slope: Option<f32>,
    scratch: &mut UnitScratch,
    out: &mut [f32],
) {
    let hd = q.width();
    let (q0, q1) = (rows.start, rows.end);
    assert!(q0 < q1, "a unit needs at least one query row");
    assert!(
        k.width() == hd && v.width() == hd,
        "query, key and value widths differ"
    );
    assert!(
        q1 <= q.rows() && q1 <= k.rows() && q1 <= v.rows(),
        "query rows {q0}..{q1} reach past the views"
    );
    assert_eq!(out.len(), (q1 - q0) * hd, "unit output shape mismatch");

    let UnitScratch {
        arena,
        rows: states,
    } = scratch;
    if states.len() < q1 - q0 {
        states.resize_with(q1 - q0, || OnlineSoftmax::new(0));
    }
    if arena.len() < arena_len(hd) {
        arena.resize(arena_len(hd), 0.0);
    }
    let (k_tile, rest) = arena.split_at_mut(KEY_TILE * hd);
    let (v_tile, rest) = rest[ARENA_PAD..].split_at_mut(KEY_TILE * hd);
    let score_row: &mut [f32; KEY_TILE] = (&mut rest[ARENA_PAD..ARENA_PAD + KEY_TILE])
        .try_into()
        .expect("the arena ends in one score row");
    let states = &mut states[..q1 - q0];
    for state in states.iter_mut() {
        state.reset(hd);
    }
    // Weights of the rows of one fold block, key-major, parked until the
    // block folds.
    let mut weights = [[0.0f32; FOLD_ROWS]; KEY_TILE];

    let mut k0 = 0;
    while k0 < q1 {
        let k1 = (k0 + KEY_TILE).min(q1);
        stage_transposed(k, k0..k1, k_tile);
        for (dst, j) in v_tile.chunks_exact_mut(hd).zip(k0..k1) {
            dst.copy_from_slice(v.row(j));
        }
        for (block, block_states) in states.chunks_mut(FOLD_ROWS).enumerate() {
            // Keys each row of the block folds from this tile; 0 for a row
            // the causal mask (or a fully masked tile) leaves out.
            let mut lens = [0usize; FOLD_ROWS];
            for (i, state) in block_states.iter_mut().enumerate() {
                let qi = q0 + block * FOLD_ROWS + i;
                // Causal mask, fused into the loop bound: query `qi` sees
                // keys `0..=qi` only.
                let limit = (qi + 1).min(k1);
                if limit <= k0 {
                    continue;
                }
                let len = limit - k0;
                score::<KEYS>(q.row(qi), k_tile, len, scale, score_row);
                let scores = &mut score_row[..len];
                if let Some(slope) = slope {
                    for (jj, s) in scores.iter_mut().enumerate() {
                        *s -= slope * (qi - (k0 + jj)) as f32;
                    }
                }
                if state.weigh_tile(scores) {
                    for (w, &s) in weights.iter_mut().zip(scores.iter()) {
                        w[i] = s;
                    }
                    lens[i] = len;
                }
            }
            fold_block::<W>(block_states, &weights, &lens, v_tile, hd);
        }
        k0 = k1;
    }
    for (state, row) in states.iter().zip(out.chunks_exact_mut(hd)) {
        state.finish_into(row);
    }
}

/// Copies key rows `keys` of `k` into `k_tile` as `[width][KEY_TILE]`, the
/// columns past the tile's last key zeroed.
#[inline(always)]
fn stage_transposed(k: StridedRows<'_>, keys: Range<usize>, k_tile: &mut [f32]) {
    let count = keys.len();
    for (jj, j) in keys.enumerate() {
        for (column, &x) in k_tile.chunks_exact_mut(KEY_TILE).zip(k.row(j)) {
            column[jj] = x;
        }
    }
    if count < KEY_TILE {
        for column in k_tile.chunks_exact_mut(KEY_TILE) {
            column[count..].fill(0.0);
        }
    }
}

/// Scores `query` against the first `len` keys of the transposed tile
/// (`KEYS` keys per vector, rounded up; the scores past `len` are unused),
/// each exactly `dot_wide(query, key) * scale`.
#[inline(always)]
fn score<const KEYS: usize>(
    query: &[f32],
    k_tile: &[f32],
    len: usize,
    scale: f32,
    out: &mut [f32; KEY_TILE],
) {
    let chunks = query.len() / LANES;
    let (body, tail) = k_tile.split_at(chunks * LANES * KEY_TILE);
    for (j0, out) in (0..len.div_ceil(KEYS))
        .map(|b| b * KEYS)
        .zip(out.chunks_exact_mut(KEYS))
    {
        let mut lanes = [[0.0f32; KEYS]; LANES];
        for (q8, k8) in query
            .chunks_exact(LANES)
            .zip(body.chunks_exact(LANES * KEY_TILE))
        {
            for ((lane, &qc), column) in lanes.iter_mut().zip(q8).zip(k8.chunks_exact(KEY_TILE)) {
                let keys = &column[j0..j0 + KEYS];
                for (acc, &kc) in lane.iter_mut().zip(keys) {
                    *acc += qc * kc;
                }
            }
        }
        let mut sums = [0.0f32; KEYS];
        for (x, sum) in sums.iter_mut().enumerate() {
            *sum = ((lanes[0][x] + lanes[1][x]) + (lanes[2][x] + lanes[3][x]))
                + ((lanes[4][x] + lanes[5][x]) + (lanes[6][x] + lanes[7][x]));
        }
        for (&qc, column) in query[chunks * LANES..]
            .iter()
            .zip(tail.chunks_exact(KEY_TILE))
        {
            for (sum, &kc) in sums.iter_mut().zip(&column[j0..j0 + KEYS]) {
                *sum += qc * kc;
            }
        }
        for (o, &sum) in out.iter_mut().zip(&sums) {
            *o = sum * scale;
        }
    }
}

/// Folds one block's weights into its rows' accumulators: the keys every
/// row shares four rows at a time when the block is a full four and every
/// row takes part, then each row's own remaining keys — otherwise each
/// taking row alone.
#[inline(always)]
fn fold_block<const W: usize>(
    states: &mut [OnlineSoftmax],
    weights: &[[f32; FOLD_ROWS]; KEY_TILE],
    lens: &[usize; FOLD_ROWS],
    v_tile: &[f32],
    hd: usize,
) {
    if let [s0, s1, s2, s3] = states {
        if lens.iter().all(|&len| len > 0) {
            let shared = lens.iter().copied().min().unwrap_or(0);
            fold::<W, FOLD_ROWS>(
                [s0.acc_mut(), s1.acc_mut(), s2.acc_mut(), s3.acc_mut()],
                &weights[..shared],
                0,
                v_tile,
                hd,
            );
            for (i, (state, &len)) in [s0, s1, s2, s3].into_iter().zip(lens).enumerate() {
                if len > shared {
                    fold::<W, 1>(
                        [state.acc_mut()],
                        &weights[shared..len],
                        i,
                        &v_tile[shared * hd..],
                        hd,
                    );
                }
            }
            return;
        }
    }
    for (i, (state, &len)) in states.iter_mut().zip(lens).enumerate() {
        if len > 0 {
            fold::<W, 1>([state.acc_mut()], &weights[..len], i, v_tile, hd);
        }
    }
}

/// `acc[r] += w[j][first + r] · v[j]` for every key `j` of `weights` in
/// ascending order, `R` rows at once: each `W`-channel slice of a value row
/// is loaded once for all `R` rows, whose slices stay in registers across
/// the keys. Channels past the last whole `W` take a plain loop.
#[inline(always)]
fn fold<const W: usize, const R: usize>(
    mut accs: [&mut [f32]; R],
    weights: &[[f32; FOLD_ROWS]],
    first: usize,
    values: &[f32],
    hd: usize,
) {
    let row_weights = |w: &[f32; FOLD_ROWS]| -> [f32; R] { std::array::from_fn(|r| w[first + r]) };
    let whole = hd - hd % W;
    for c0 in (0..whole).step_by(W) {
        let mut local = [[0.0f32; W]; R];
        for (l, acc) in local.iter_mut().zip(&accs) {
            l.copy_from_slice(&acc[c0..c0 + W]);
        }
        for (w, row) in weights.iter().zip(values.chunks_exact(hd)) {
            let w = row_weights(w);
            let x: &[f32; W] = row[c0..c0 + W].try_into().expect("W channels");
            for (l, &w) in local.iter_mut().zip(&w) {
                for (a, &x) in l.iter_mut().zip(x) {
                    *a += w * x;
                }
            }
        }
        for (acc, l) in accs.iter_mut().zip(&local) {
            acc[c0..c0 + W].copy_from_slice(l);
        }
    }
    if whole < hd {
        for (w, row) in weights.iter().zip(values.chunks_exact(hd)) {
            let w = row_weights(w);
            for (acc, &w) in accs.iter_mut().zip(&w) {
                for (a, &x) in acc[whole..].iter_mut().zip(&row[whole..]) {
                    *a += w * x;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{normal_matrix, seeded_rng};
    use crate::ops::dot_wide;
    use crate::Matrix;

    /// Query rows per unit, as the model's prefill fans them out.
    const Q_TILE: usize = 32;

    /// The unit before the blocked kernel: key and value tiles staged
    /// row-major, each key scored by `dot_wide`, each query row's tile pushed
    /// through [`OnlineSoftmax::push_tile`] on its own.
    fn row_unit(
        q: StridedRows<'_>,
        k: StridedRows<'_>,
        v: StridedRows<'_>,
        rows: Range<usize>,
        scale: f32,
        slope: Option<f32>,
        out: &mut [f32],
    ) {
        let hd = q.width();
        let (q0, q1) = (rows.start, rows.end);
        let mut k_tile = vec![0.0f32; KEY_TILE * hd];
        let mut v_tile = vec![0.0f32; KEY_TILE * hd];
        let mut scores = [0.0f32; KEY_TILE];
        let mut states: Vec<OnlineSoftmax> = rows.map(|_| OnlineSoftmax::new(hd)).collect();
        let mut k0 = 0;
        while k0 < q1 {
            let k1 = (k0 + KEY_TILE).min(q1);
            for (dst, j) in k_tile.chunks_exact_mut(hd).zip(k0..k1) {
                dst.copy_from_slice(k.row(j));
            }
            for (dst, j) in v_tile.chunks_exact_mut(hd).zip(k0..k1) {
                dst.copy_from_slice(v.row(j));
            }
            for (i, state) in states.iter_mut().enumerate() {
                let qi = q0 + i;
                let limit = (qi + 1).min(k1);
                if limit <= k0 {
                    continue;
                }
                let len = limit - k0;
                let tile_scores = &mut scores[..len];
                for (jj, s) in tile_scores.iter_mut().enumerate() {
                    *s = dot_wide(q.row(qi), &k_tile[jj * hd..(jj + 1) * hd]) * scale;
                }
                if let Some(slope) = slope {
                    for (jj, s) in tile_scores.iter_mut().enumerate() {
                        *s -= slope * (qi - (k0 + jj)) as f32;
                    }
                }
                state.push_tile(tile_scores, &v_tile[..len * hd]);
            }
            k0 = k1;
        }
        for (state, row) in states.iter().zip(out.chunks_exact_mut(hd)) {
            state.finish_into(row);
        }
    }

    type Unit = fn(
        StridedRows<'_>,
        StridedRows<'_>,
        StridedRows<'_>,
        Range<usize>,
        f32,
        Option<f32>,
        &mut UnitScratch,
        &mut [f32],
    );

    /// Every instruction-set build of the unit by name, `None` where this
    /// CPU lacks the instruction set.
    fn isa_builds() -> Vec<(&'static str, Option<Unit>)> {
        let mut builds: Vec<(&'static str, Option<Unit>)> = vec![("portable", Some(unit_portable))];
        #[cfg(target_arch = "x86_64")]
        {
            let avx2: Unit = |q, k, v, rows, scale, slope, scratch, out| {
                // SAFETY: `isa_builds` lists this only when the CPU supports
                // AVX2.
                unsafe { unit_avx2(q, k, v, rows, scale, slope, scratch, out) }
            };
            builds.push(("avx2", is_x86_feature_detected!("avx2").then_some(avx2)));
        }
        builds
    }

    /// One prompt: packed `q` (`n x n_heads·hd`), `k` and `v` (`n x
    /// n_kv_heads·hd`). With `poison`, query rows get the inputs a kernel
    /// could mishandle: one NaN entry, an all-NaN row, and a row scaled by
    /// 1e30 (whose scores overflow to ±inf and whose weights go NaN).
    struct Prompt {
        q: Matrix,
        k: Matrix,
        v: Matrix,
        n_heads: usize,
        n_kv_heads: usize,
        hd: usize,
    }

    impl Prompt {
        fn new(n: usize, n_heads: usize, n_kv_heads: usize, hd: usize, poison: bool) -> Self {
            let mut rng = seeded_rng((n * 131 + hd * 7 + n_heads) as u64);
            let mut q = normal_matrix(&mut rng, n, n_heads * hd, 0.0, 1.0);
            let k = normal_matrix(&mut rng, n, n_kv_heads * hd, 0.0, 1.0);
            let v = normal_matrix(&mut rng, n, n_kv_heads * hd, 0.0, 1.0);
            if poison && n >= 5 {
                let last = (n_heads - 1) * hd;
                q.set(n / 2, hd / 2, f32::NAN);
                for c in 0..hd {
                    q.set(n / 4, last + c, f32::NAN);
                    q.set(n - 1, c, q.get(n - 1, c) * 1e30);
                }
            }
            Self {
                q,
                k,
                v,
                n_heads,
                n_kv_heads,
                hd,
            }
        }

        /// Every (head, query-tile) unit of the prompt: its views and rows.
        fn units(&self) -> Vec<(usize, [StridedRows<'_>; 3], Range<usize>)> {
            let (n, hd) = (self.q.rows(), self.hd);
            let group = self.n_heads / self.n_kv_heads;
            let mut units = Vec::new();
            for qh in 0..self.n_heads {
                let kvh = qh / group;
                let views = [
                    StridedRows::from_matrix(&self.q, qh * hd, hd),
                    StridedRows::from_matrix(&self.k, kvh * hd, hd),
                    StridedRows::from_matrix(&self.v, kvh * hd, hd),
                ];
                for q0 in (0..n).step_by(Q_TILE) {
                    units.push((qh, views, q0..(q0 + Q_TILE).min(n)));
                }
            }
            units
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs every unit of `prompt` through the row unit and through each
    /// build this CPU runs (one scratch per build, reused across units and
    /// prompts), asserting equal bits. Returns the outputs compared per
    /// build.
    fn compare(prompt: &Prompt, alibi: bool, scratches: &mut [UnitScratch]) -> usize {
        let scale = 1.0 / (prompt.hd as f32).sqrt();
        let mut compared = 0;
        for (qh, [q, k, v], rows) in prompt.units() {
            let slope = alibi.then(|| 0.5f32.powi(qh as i32 + 1));
            let mut expected = vec![0.0f32; rows.len() * prompt.hd];
            row_unit(q, k, v, rows.clone(), scale, slope, &mut expected);
            for ((name, build), scratch) in isa_builds().into_iter().zip(scratches.iter_mut()) {
                let Some(build) = build else { continue };
                let mut out = vec![f32::NAN; expected.len()];
                build(q, k, v, rows.clone(), scale, slope, scratch, &mut out);
                assert_eq!(
                    bits(&out),
                    bits(&expected),
                    "{name}: head {qh} of {}/{}, hd {}, n {}, rows {rows:?}, alibi {alibi}",
                    prompt.n_heads,
                    prompt.n_kv_heads,
                    prompt.hd,
                    prompt.q.rows()
                );
            }
            compared += expected.len();
        }
        compared
    }

    #[test]
    fn prompt_attention_builds_are_bit_identical_to_the_row_unit() {
        // Head layouts (MHA and GQA) at prompt lengths around every query-
        // and key-tile edge; head widths around the 8-lane score split and
        // every build's fold width; one long prompt. Each with and without
        // ALiBi, and with NaN and overflowing query rows.
        let mut cases = Vec::new();
        for (n_heads, n_kv_heads) in [(8, 8), (8, 2), (4, 1), (1, 1)] {
            for n in [1, 5, 33, 100] {
                cases.push((n, n_heads, n_kv_heads, 32));
            }
        }
        for n in [31, 32, 63, 64, 65, 257] {
            cases.push((n, 2, 1, 32));
        }
        for hd in [3, 8, 16, 24, 40, 64, 256, 288] {
            for n in [1, 33, 65] {
                cases.push((n, 2, 1, hd));
            }
        }
        cases.push((700, 1, 1, 32));

        let mut scratches: Vec<UnitScratch> = isa_builds()
            .iter()
            .map(|_| UnitScratch::default())
            .collect();
        let mut compared = 0;
        for (n, n_heads, n_kv_heads, hd) in cases {
            for poison in [false, true] {
                let prompt = Prompt::new(n, n_heads, n_kv_heads, hd, poison);
                for alibi in [false, true] {
                    compared += compare(&prompt, alibi, &mut scratches);
                }
            }
        }
        for (name, build) in isa_builds() {
            match build {
                Some(_) => {
                    println!("prompt attention: {name} build bit-compared on {compared} outputs")
                }
                None => println!("prompt attention: {name} build skipped, this CPU lacks it"),
            }
        }
    }

    #[test]
    fn a_unit_of_a_later_chunk_reads_its_rows_at_their_positions() {
        // Query rows handed over as a chunk re-indexed to their positions
        // give the bits those rows get inside one whole-prompt unit, at
        // every chunk start around the key-tile edges.
        let prompt = Prompt::new(150, 2, 1, 16, false);
        let hd = prompt.hd;
        let mut scratch = UnitScratch::default();
        for (qh, [q, k, v], _) in prompt.units() {
            for start in [1, 31, 63, 64, 65, 100] {
                let rows = start..(start + 37).min(150);
                let mut whole = vec![0.0f32; rows.len() * hd];
                attend_unit(
                    q,
                    k,
                    v,
                    rows.clone(),
                    0.25,
                    Some(0.1),
                    &mut scratch,
                    &mut whole,
                );
                let chunk = prompt.q.slice_rows(rows.clone());
                let at = StridedRows::from_matrix(&chunk, qh * hd, hd).starting_at(start);
                let mut split = vec![0.0f32; rows.len() * hd];
                attend_unit(
                    at,
                    k,
                    v,
                    rows.clone(),
                    0.25,
                    Some(0.1),
                    &mut scratch,
                    &mut split,
                );
                assert_eq!(bits(&split), bits(&whole), "head {qh} rows {rows:?}");
            }
        }
    }

    #[test]
    fn a_nan_query_row_stays_nan_and_alone() {
        // The all-NaN row of head 1 poisons exactly that row of that head.
        let prompt = Prompt::new(40, 2, 1, 8, true);
        let mut scratch = UnitScratch::default();
        for (qh, [q, k, v], rows) in prompt.units() {
            let mut out = vec![0.0f32; rows.len() * prompt.hd];
            attend_unit(q, k, v, rows.clone(), 0.3, None, &mut scratch, &mut out);
            for (t, row) in rows.zip(out.chunks_exact(prompt.hd)) {
                let poisoned = (qh == 1 && t == 10) || (qh == 0 && t == 20);
                if poisoned {
                    assert!(row.iter().all(|x| x.is_nan()), "head {qh} row {t}: {row:?}");
                } else if t != 39 {
                    assert!(
                        row.iter().all(|x| x.is_finite()),
                        "head {qh} row {t}: {row:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_bytes_match_the_warm_arena() {
        let prompt = Prompt::new(70, 1, 1, 24, false);
        let mut scratch = UnitScratch::default();
        for (_, [q, k, v], rows) in prompt.units() {
            let mut out = vec![0.0f32; rows.len() * prompt.hd];
            attend_unit(q, k, v, rows, 0.2, Some(0.1), &mut scratch, &mut out);
        }
        let held = (scratch.arena.len()
            + scratch.rows.iter().map(OnlineSoftmax::dim).sum::<usize>())
            * std::mem::size_of::<f32>();
        assert_eq!(held, UnitScratch::bytes(24, Q_TILE));
        assert_eq!(UnitScratch::bytes(32, Q_TILE), 20_800);
    }
}
