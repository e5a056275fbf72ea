//! Online (streaming) softmax accumulator.
//!
//! The MILLION decode path computes attention in two segments — the
//! quantized history and the full-precision recent window (including the
//! current token) — and merges them with an online softmax exactly as in
//! Eq. (7) of the paper. The accumulator here is the flash-decoding style
//! `(max, sum, weighted value)` triple that allows segments to be processed
//! in any order without materialising the full score vector.

/// Streaming softmax-weighted-average accumulator.
///
/// Feeding `(score, value)` pairs (or whole segments) produces the same
/// result as computing `softmax(scores) @ values` over the concatenation of
/// everything fed, up to floating-point rounding.
///
/// # Example
///
/// ```
/// use million_tensor::OnlineSoftmax;
///
/// let values = [[1.0_f32, 0.0], [0.0, 1.0]];
/// let scores = [0.3_f32, -0.2];
///
/// // Reference: full softmax.
/// let mut probs = scores.to_vec();
/// million_tensor::ops::softmax_in_place(&mut probs);
/// let expected = [
///     probs[0] * values[0][0] + probs[1] * values[1][0],
///     probs[0] * values[0][1] + probs[1] * values[1][1],
/// ];
///
/// // Streaming: one token at a time.
/// let mut acc = OnlineSoftmax::new(2);
/// acc.push(scores[0], &values[0]);
/// acc.push(scores[1], &values[1]);
/// let out = acc.finish();
/// assert!((out[0] - expected[0]).abs() < 1e-6);
/// assert!((out[1] - expected[1]).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct OnlineSoftmax {
    max_score: f32,
    sum_exp: f32,
    acc: Vec<f32>,
}

impl OnlineSoftmax {
    /// Creates an accumulator producing vectors of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            max_score: f32::NEG_INFINITY,
            sum_exp: 0.0,
            acc: vec![0.0; dim],
        }
    }

    /// Clears the accumulator for a new reduction of dimension `dim`,
    /// reusing the existing buffer (no allocation once the buffer has grown
    /// to the largest `dim` seen). This is the scratch-reuse counterpart of
    /// [`OnlineSoftmax::new`] used by the decode hot path.
    pub fn reset(&mut self, dim: usize) {
        self.max_score = f32::NEG_INFINITY;
        self.sum_exp = 0.0;
        self.acc.resize(dim, 0.0);
        self.acc.iter_mut().for_each(|a| *a = 0.0);
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.acc.len()
    }

    /// Returns `true` if nothing has been accumulated yet.
    pub fn is_empty(&self) -> bool {
        self.sum_exp == 0.0
    }

    /// Current running maximum score (`-inf` when empty).
    pub fn max_score(&self) -> f32 {
        self.max_score
    }

    /// Current running sum of exponentials (relative to [`Self::max_score`]).
    pub fn sum_exp(&self) -> f32 {
        self.sum_exp
    }

    /// Adds a single `(score, value)` pair.
    ///
    /// # Panics
    ///
    /// Panics if `value.len() != self.dim()`.
    pub fn push(&mut self, score: f32, value: &[f32]) {
        assert_eq!(value.len(), self.acc.len(), "value dimension mismatch");
        if score == f32::NEG_INFINITY {
            return;
        }
        if score > self.max_score {
            let rescale = if self.max_score == f32::NEG_INFINITY {
                0.0
            } else {
                (self.max_score - score).exp()
            };
            self.sum_exp *= rescale;
            for a in &mut self.acc {
                *a *= rescale;
            }
            self.max_score = score;
        }
        let w = (score - self.max_score).exp();
        self.sum_exp += w;
        crate::ops::axpy(w, value, &mut self.acc);
    }

    /// Turns one tile of scores into softmax weights against the running
    /// state — the first half of a flash-attention inner step, run per query
    /// row by the blocked prompt-attention kernel
    /// ([`crate::prompt_attention::attend_unit`]).
    ///
    /// The tile's maximum triggers at most one rescale of the running sum
    /// and accumulator. The scores are then overwritten in place with
    /// `exp_approx(score - max)`, batched into one pass of their own — a
    /// libm `exp` call clobbers every SIMD register — and their sum is added
    /// to the running sum. The caller folds `weight · value-row` into
    /// [`Self::acc_mut`] for every key, in key order, to finish the step.
    ///
    /// Returns `false`, with the state untouched, when the tile contributes
    /// nothing: every score is `-inf` (fully masked). A tile holding a NaN
    /// score is never dropped — `f32::max` skips NaN, so its maximum can read
    /// `-inf`, but its weights are NaN and must poison the row as they do in
    /// [`Self::push`] and the reference softmax.
    #[inline(always)]
    pub(crate) fn weigh_tile(&mut self, scores: &mut [f32]) -> bool {
        // Lane-parallel maximum: `max` is associative and commutative, so
        // folding four independent lanes gives the exact same result as a
        // sequential scan, without chaining every compare behind the last.
        let mut max_lanes = [f32::NEG_INFINITY; 4];
        let chunks = scores.chunks_exact(4);
        let remainder = chunks.remainder();
        for chunk in chunks {
            for (lane, &s) in max_lanes.iter_mut().zip(chunk.iter()) {
                *lane = lane.max(s);
            }
        }
        let mut tile_max = max_lanes[0]
            .max(max_lanes[1])
            .max(max_lanes[2].max(max_lanes[3]));
        for &s in remainder {
            tile_max = tile_max.max(s);
        }
        if tile_max == f32::NEG_INFINITY && !scores.iter().any(|s| s.is_nan()) {
            return false;
        }
        if tile_max > self.max_score {
            let rescale = if self.max_score == f32::NEG_INFINITY {
                0.0
            } else {
                (self.max_score - tile_max).exp()
            };
            self.sum_exp *= rescale;
            for a in &mut self.acc {
                *a *= rescale;
            }
            self.max_score = tile_max;
        }
        let max_score = self.max_score;
        // Two separate passes so each can vectorise: the branchless
        // exponential is pure element-wise arithmetic, and folding the sum
        // in the same loop would chain every iteration behind a scalar add.
        // Masked `-inf` entries come out as exp_approx's clamped floor,
        // e^-87 ≈ 1.6e-38 — a weight far below every fidelity tolerance.
        for score in scores.iter_mut() {
            *score = crate::ops::exp_approx(*score - max_score);
        }
        // Lane-parallel weight sum (deterministic: the lane split depends
        // only on the tile length).
        let mut sum_lanes = [0.0f32; 4];
        let chunks = scores.chunks_exact(4);
        let remainder = chunks.remainder();
        for chunk in chunks {
            for (lane, &w) in sum_lanes.iter_mut().zip(chunk.iter()) {
                *lane += w;
            }
        }
        let mut sum = (sum_lanes[0] + sum_lanes[1]) + (sum_lanes[2] + sum_lanes[3]);
        for &w in remainder {
            sum += w;
        }
        self.sum_exp += sum;
        true
    }

    /// The running weighted-value accumulator, for a caller folding the
    /// weights of [`Self::weigh_tile`] itself.
    #[inline(always)]
    pub(crate) fn acc_mut(&mut self) -> &mut [f32] {
        &mut self.acc
    }

    /// Pushes one tile of `(score, value-row)` pairs in a single batch:
    /// [`Self::weigh_tile`], then the weighted value rows folded in key order
    /// over a stack-resident accumulator. `values` holds the tile's value
    /// rows contiguous (`[scores.len(), dim]` row-major); `scores` is
    /// consumed in place (overwritten with the softmax weights).
    ///
    /// Equivalent to pushing each pair through [`Self::push`] up to
    /// floating-point reassociation (one shared reference maximum per tile
    /// instead of a running one). `-inf` scores (masked entries) contribute
    /// zero weight.
    ///
    /// The one-row-at-a-time prompt-attention unit built on it is the
    /// reference the blocked kernel is bit-compared against.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != scores.len() * self.dim()` (when any score
    /// is finite).
    #[cfg(test)]
    pub(crate) fn push_tile(&mut self, scores: &mut [f32], values: &[f32]) {
        if !self.weigh_tile(scores) {
            return;
        }
        let dim = self.acc.len();
        assert_eq!(
            values.len(),
            scores.len() * dim,
            "value tile shape mismatch"
        );
        // A stack-local accumulator keeps the fold in registers for the
        // whole tile (heads are <= 256 channels in every supported model);
        // wider reductions fall back to accumulating in place.
        let mut acc_buf = [0.0f32; 256];
        if dim <= acc_buf.len() {
            let local = &mut acc_buf[..dim];
            local.copy_from_slice(&self.acc);
            for (&weight, row) in scores.iter().zip(values.chunks_exact(dim)) {
                for (a, &x) in local.iter_mut().zip(row.iter()) {
                    *a += weight * x;
                }
            }
            self.acc.copy_from_slice(local);
        } else {
            for (&weight, row) in scores.iter().zip(values.chunks_exact(dim)) {
                crate::ops::axpy(weight, row, &mut self.acc);
            }
        }
    }

    /// Merges a pre-reduced segment described by its own `(max, sum_exp,
    /// weighted accumulator)` triple, e.g. produced by another accumulator or
    /// by a batched kernel over the quantized history.
    ///
    /// # Panics
    ///
    /// Panics if `acc.len() != self.dim()`.
    pub fn merge_segment(&mut self, max_score: f32, sum_exp: f32, acc: &[f32]) {
        assert_eq!(acc.len(), self.acc.len(), "segment dimension mismatch");
        if sum_exp <= 0.0 || max_score == f32::NEG_INFINITY {
            return;
        }
        if max_score > self.max_score {
            let rescale = if self.max_score == f32::NEG_INFINITY {
                0.0
            } else {
                (self.max_score - max_score).exp()
            };
            self.sum_exp *= rescale;
            for a in &mut self.acc {
                *a *= rescale;
            }
            self.max_score = max_score;
        }
        let w = (max_score - self.max_score).exp();
        self.sum_exp += w * sum_exp;
        crate::ops::axpy(w, acc, &mut self.acc);
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &OnlineSoftmax) {
        self.merge_segment(other.max_score, other.sum_exp, &other.acc);
    }

    /// Finalises the accumulator, returning `softmax(scores) @ values`.
    ///
    /// Returns a zero vector when nothing was accumulated.
    pub fn finish(self) -> Vec<f32> {
        if self.sum_exp == 0.0 {
            return self.acc;
        }
        let inv = 1.0 / self.sum_exp;
        self.acc.into_iter().map(|a| a * inv).collect()
    }

    /// Writes `softmax(scores) @ values` into `out` without consuming the
    /// accumulator (which can then be [`reset`](OnlineSoftmax::reset) and
    /// reused). Writes zeros when nothing was accumulated.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.dim()`.
    pub fn finish_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.acc.len(), "output dimension mismatch");
        if self.sum_exp == 0.0 {
            out.iter_mut().for_each(|o| *o = 0.0);
            return;
        }
        let inv = 1.0 / self.sum_exp;
        for (o, a) in out.iter_mut().zip(self.acc.iter()) {
            *o = a * inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::softmax_in_place;
    use proptest::prelude::*;

    fn reference(scores: &[f32], values: &[Vec<f32>]) -> Vec<f32> {
        let mut probs = scores.to_vec();
        softmax_in_place(&mut probs);
        let dim = values[0].len();
        let mut out = vec![0.0; dim];
        for (p, v) in probs.iter().zip(values.iter()) {
            for (o, x) in out.iter_mut().zip(v.iter()) {
                *o += p * x;
            }
        }
        out
    }

    #[test]
    fn empty_accumulator_finishes_to_zero() {
        let acc = OnlineSoftmax::new(3);
        assert!(acc.is_empty());
        assert_eq!(acc.finish(), vec![0.0; 3]);
    }

    #[test]
    fn single_element_returns_value() {
        let mut acc = OnlineSoftmax::new(2);
        acc.push(5.0, &[1.5, -2.0]);
        let out = acc.finish();
        assert!((out[0] - 1.5).abs() < 1e-6);
        assert!((out[1] + 2.0).abs() < 1e-6);
    }

    #[test]
    fn neg_infinity_scores_are_ignored() {
        let mut acc = OnlineSoftmax::new(1);
        acc.push(f32::NEG_INFINITY, &[100.0]);
        acc.push(0.0, &[2.0]);
        let out = acc.finish();
        assert!((out[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn merge_of_two_segments_matches_full_softmax() {
        let scores = vec![0.1, -0.5, 2.0, 1.0, -3.0];
        let values: Vec<Vec<f32>> = (0..5).map(|i| vec![i as f32, 1.0 - i as f32]).collect();
        let expected = reference(&scores, &values);

        let mut left = OnlineSoftmax::new(2);
        for i in 0..3 {
            left.push(scores[i], &values[i]);
        }
        let mut right = OnlineSoftmax::new(2);
        for i in 3..5 {
            right.push(scores[i], &values[i]);
        }
        left.merge(&right);
        let out = left.finish();
        for (o, e) in out.iter().zip(expected.iter()) {
            assert!((o - e).abs() < 1e-5, "{o} vs {e}");
        }
    }

    #[test]
    fn reset_and_finish_into_match_fresh_accumulator() {
        let scores = [0.7f32, -1.2, 0.3];
        let values: Vec<Vec<f32>> = (0..3).map(|i| vec![i as f32, 2.0 - i as f32]).collect();

        let mut reused = OnlineSoftmax::new(4);
        reused.push(9.0, &[1.0, 2.0, 3.0, 4.0]); // pollute state
        reused.reset(2);
        let mut fresh = OnlineSoftmax::new(2);
        for (s, v) in scores.iter().zip(values.iter()) {
            reused.push(*s, v);
            fresh.push(*s, v);
        }
        let mut out = vec![0.0f32; 2];
        reused.finish_into(&mut out);
        assert_eq!(out, fresh.finish());
    }

    #[test]
    fn finish_into_on_empty_writes_zeros() {
        let acc = OnlineSoftmax::new(3);
        let mut out = vec![7.0f32; 3];
        acc.finish_into(&mut out);
        assert_eq!(out, vec![0.0; 3]);
    }

    #[test]
    fn merge_segment_with_zero_sum_is_noop() {
        let mut acc = OnlineSoftmax::new(1);
        acc.push(1.0, &[3.0]);
        acc.merge_segment(f32::NEG_INFINITY, 0.0, &[99.0]);
        let out = acc.finish();
        assert!((out[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn push_tile_matches_per_element_push() {
        use crate::Matrix;
        let values = Matrix::from_fn(10, 3, |r, c| ((r * 5 + c * 3) % 9) as f32 - 4.0);
        let scores: Vec<f32> = (0..10).map(|i| (i as f32 * 0.9).sin() * 6.0).collect();

        let mut pushed = OnlineSoftmax::new(3);
        for (i, &s) in scores.iter().enumerate() {
            pushed.push(s, values.row(i));
        }
        let mut tiled = OnlineSoftmax::new(3);
        let mut head = scores[..4].to_vec();
        let mut tail = scores[4..].to_vec();
        tiled.push_tile(&mut head, &values.as_slice()[..4 * 3]);
        tiled.push_tile(&mut tail, &values.as_slice()[4 * 3..]);

        let a = pushed.finish();
        let b = tiled.finish();
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    fn push_tile_skips_masked_scores() {
        use crate::Matrix;
        let values = Matrix::from_fn(3, 2, |r, _| r as f32);
        let mut acc = OnlineSoftmax::new(2);
        acc.push_tile(&mut [0.0, f32::NEG_INFINITY, 0.0], values.as_slice());
        let out = acc.finish();
        // Row 1 is masked out: the average of rows 0 and 2 is 1.0.
        assert!((out[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn push_tile_of_all_masked_scores_is_noop() {
        use crate::Matrix;
        let values = Matrix::from_fn(2, 1, |_, _| 7.0);
        let mut acc = OnlineSoftmax::new(1);
        acc.push(1.0, &[3.0]);
        acc.push_tile(
            &mut [f32::NEG_INFINITY, f32::NEG_INFINITY],
            values.as_slice(),
        );
        let out = acc.finish();
        assert!((out[0] - 3.0).abs() < 1e-6);
    }

    proptest! {
        #[test]
        fn streaming_matches_batch(
            scores in proptest::collection::vec(-20.0f32..20.0, 1..40),
            dim in 1usize..8,
        ) {
            let values: Vec<Vec<f32>> = (0..scores.len())
                .map(|i| (0..dim).map(|d| ((i * 7 + d * 3) % 11) as f32 - 5.0).collect())
                .collect();
            let expected = reference(&scores, &values);
            let mut acc = OnlineSoftmax::new(dim);
            for (s, v) in scores.iter().zip(values.iter()) {
                acc.push(*s, v);
            }
            let out = acc.finish();
            for (o, e) in out.iter().zip(expected.iter()) {
                prop_assert!((o - e).abs() < 1e-3);
            }
        }

        #[test]
        fn merge_order_does_not_matter(
            scores in proptest::collection::vec(-10.0f32..10.0, 2..30),
            split in 1usize..29,
        ) {
            let split = split.min(scores.len() - 1);
            let values: Vec<Vec<f32>> = (0..scores.len()).map(|i| vec![(i % 5) as f32]).collect();

            let mut a = OnlineSoftmax::new(1);
            let mut b = OnlineSoftmax::new(1);
            for i in 0..split { a.push(scores[i], &values[i]); }
            for i in split..scores.len() { b.push(scores[i], &values[i]); }

            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            let x = ab.finish()[0];
            let y = ba.finish()[0];
            prop_assert!((x - y).abs() < 1e-4);
        }
    }
}
