//! Element-wise and reduction operations used throughout the inference path.

use crate::Matrix;

/// Dot product of two equally sized slices.
///
/// # Panics
///
/// Panics (in debug builds) if the slices have different lengths; in release
/// builds the shorter length is used.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut acc = 0.0f32;
    // Unrolled-by-4 accumulation keeps the compiler's auto-vectoriser happy.
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc += a[j] * b[j] + a[j + 1] * b[j + 1] + a[j + 2] * b[j + 2] + a[j + 3] * b[j + 3];
    }
    for j in chunks * 4..a.len() {
        acc += a[j] * b[j];
    }
    acc
}

/// Dot product with eight independent partial accumulators: lane `l` sums
/// the products of elements `l, l + 8, …` from `0.0`, the lanes fold as
/// `((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))`, then the `len % 8`
/// tail adds in order.
///
/// The summation **order differs** from [`dot`], so results are not
/// bit-compatible. This is the association of every prompt-attention score
/// ([`crate::prompt_attention`] computes it eight keys at a time); the
/// one-row unit that called it per key is the kernel's test reference.
#[cfg(test)]
pub(crate) fn dot_wide(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot_wide length mismatch");
    let mut lanes = [0.0f32; 8];
    let chunks = a.len() / 8;
    for i in 0..chunks {
        let j = i * 8;
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane += a[j + l] * b[j + l];
        }
    }
    let mut acc = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    for j in chunks * 8..a.len() {
        acc += a[j] * b[j];
    }
    acc
}

/// `y += alpha * x` for equally sized slices.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Branchless `e^x` approximation for throughput-bound softmax tile loops.
///
/// Cephes-style `expf`: split `x = k·ln2 + r` (the round-to-nearest uses the
/// `2^23·1.5` magic-number trick instead of `floor`, so there is no libm
/// call and no branch), evaluate a degree-6 polynomial on the reduced `r`,
/// and scale by `2^k` through the exponent bits. Everything is straight-line
/// element-wise arithmetic, so a loop applying it to a contiguous score tile
/// auto-vectorises — libm `expf` is an opaque scalar call per element.
///
/// Maximum relative error ≈ 2 ulp (~2.4e-7); exactly deterministic. Inputs
/// are clamped to `[-87, 88]`, so `exp_approx(f32::NEG_INFINITY)` is
/// `e^-87 ≈ 1.6e-38` rather than exactly zero — callers that rely on masked
/// `-inf` entries vanishing must tolerate that (a softmax weight of 1e-38 is
/// far below any fidelity tolerance in this workspace).
///
/// Established bit-exact paths ([`crate::OnlineSoftmax::push`],
/// [`softmax_in_place`], the decode kernels) keep libm `exp`; only the
/// tolerance-pinned tiled prefill kernel uses this.
#[inline]
pub fn exp_approx(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // 1.5 * 2^23: adding it pushes the value's fraction bits out of the
    // mantissa, rounding to nearest integer; subtracting recovers it.
    const MAGIC: f32 = 12_582_912.0;
    let x = x.clamp(-87.0, 88.0);
    let shifted = x * LOG2E + MAGIC;
    let kf = shifted - MAGIC;
    let r = (x - kf * LN2_HI) - kf * LN2_LO;
    let mut p = 1.388_888_9e-3_f32;
    p = p * r + 8.333_334e-3;
    p = p * r + 4.166_666_8e-2;
    p = p * r + 1.666_666_7e-1;
    p = p * r + 5.0e-1;
    p = p * r + 1.0;
    p = p * r + 1.0;
    // `shifted` lies in [2^23, 2^24), where one ulp is 1.0, so its bits
    // minus MAGIC's are exactly `k` — no float-to-int conversion (a
    // saturating `as i32` costs more than the whole polynomial once
    // vectorised). Only the low 9 bits of `k + 127` survive the shift; for
    // a NaN input they are garbage, but `2^k` is then never NaN and `p`
    // already is, so the product keeps `p`'s NaN either way.
    let k = shifted.to_bits().wrapping_sub(MAGIC.to_bits());
    let two_k = f32::from_bits(k.wrapping_add(127) << 23);
    p * two_k
}

/// [`exp_approx`] as it was before it took `k` from the bits of the shifted
/// sum: the oracle its edge and exhaustive tests compare against.
#[cfg(test)]
fn exp_approx_with_int_cast(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    const MAGIC: f32 = 12_582_912.0;
    let x = x.clamp(-87.0, 88.0);
    let kf = (x * LOG2E + MAGIC) - MAGIC;
    let r = (x - kf * LN2_HI) - kf * LN2_LO;
    let mut p = 1.388_888_9e-3_f32;
    p = p * r + 8.333_334e-3;
    p = p * r + 4.166_666_8e-2;
    p = p * r + 1.666_666_7e-1;
    p = p * r + 5.0e-1;
    p = p * r + 1.0;
    p = p * r + 1.0;
    let two_k = f32::from_bits((((kf as i32) + 127) as u32) << 23);
    p * two_k
}

/// `out = x · m` for a row vector `x` of length `m.rows()`, written into a
/// caller-owned buffer of length `m.cols()`.
///
/// This is the scratch-reuse counterpart of
/// `Matrix::from_row(x).matmul(m)` used by the allocation-free decode step:
/// the accumulation order (and the skip of zero coefficients) matches
/// [`Matrix::matmul`] exactly, so results are bit-identical.
///
/// # Panics
///
/// Panics if `x.len() != m.rows()` or `out.len() != m.cols()`.
pub fn vec_matmul_into(x: &[f32], m: &Matrix, out: &mut [f32]) {
    assert_eq!(
        x.len(),
        m.rows(),
        "vec_matmul_into inner dimension mismatch"
    );
    assert_eq!(
        out.len(),
        m.cols(),
        "vec_matmul_into output length mismatch"
    );
    out.iter_mut().for_each(|o| *o = 0.0);
    let n = m.cols();
    let data = m.as_slice();
    for (ki, &a) in x.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        let b_row = &data[ki * n..(ki + 1) * n];
        for (o, &b) in out.iter_mut().zip(b_row.iter()) {
            *o += a * b;
        }
    }
}

/// `out[r] = x · m.row(r)` — the row vector times `mᵀ`, written into a
/// caller-owned buffer of length `m.rows()`.
///
/// The scratch-reuse counterpart of
/// `Matrix::from_row(x).matmul_transposed(m)` (used for logits over the tied
/// embedding), with identical per-entry arithmetic.
///
/// # Panics
///
/// Panics if `x.len() != m.cols()` or `out.len() != m.rows()`.
pub fn vec_matmul_transposed_into(x: &[f32], m: &Matrix, out: &mut [f32]) {
    assert_eq!(
        x.len(),
        m.cols(),
        "vec_matmul_transposed_into inner dimension mismatch"
    );
    assert_eq!(
        out.len(),
        m.rows(),
        "vec_matmul_transposed_into output length mismatch"
    );
    for (r, o) in out.iter_mut().enumerate() {
        *o = dot(x, m.row(r));
    }
}

/// Squared Euclidean distance between two equally sized slices.
#[inline]
pub fn squared_distance(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "squared_distance length mismatch");
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Numerically stable in-place softmax.
///
/// Empty slices are left untouched.
pub fn softmax_in_place(values: &mut [f32]) {
    if values.is_empty() {
        return;
    }
    let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in values.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        let inv = 1.0 / sum;
        for v in values.iter_mut() {
            *v *= inv;
        }
    }
}

/// Numerically stable log-softmax, returning a new vector.
pub fn log_softmax(values: &[f32]) -> Vec<f32> {
    if values.is_empty() {
        return Vec::new();
    }
    let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = values.iter().map(|v| (v - max).exp()).sum::<f32>().ln();
    values.iter().map(|v| v - max - log_sum).collect()
}

/// Index of the maximum element. Returns 0 for an empty slice.
pub fn argmax(values: &[f32]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// SiLU (swish) activation applied in place.
pub fn silu_in_place(values: &mut [f32]) {
    for v in values.iter_mut() {
        *v = *v / (1.0 + (-*v).exp());
    }
}

/// Tanh-approximated GELU activation applied in place.
pub fn gelu_in_place(values: &mut [f32]) {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    for v in values.iter_mut() {
        let x = *v;
        let inner = SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x);
        *v = 0.5 * x * (1.0 + inner.tanh());
    }
}

/// RMS normalisation of a single vector with learned gain `weight`.
///
/// # Panics
///
/// Panics if `x.len() != weight.len()`.
pub fn rms_norm(x: &mut [f32], weight: &[f32], eps: f32) {
    assert_eq!(x.len(), weight.len(), "rms_norm length mismatch");
    if x.is_empty() {
        return;
    }
    let mean_sq: f32 = x.iter().map(|v| v * v).sum::<f32>() / x.len() as f32;
    let inv = 1.0 / (mean_sq + eps).sqrt();
    for (v, w) in x.iter_mut().zip(weight.iter()) {
        *v = *v * inv * w;
    }
}

/// Layer normalisation of a single vector with learned gain and bias.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn layer_norm(x: &mut [f32], weight: &[f32], bias: &[f32], eps: f32) {
    assert_eq!(x.len(), weight.len(), "layer_norm weight length mismatch");
    assert_eq!(x.len(), bias.len(), "layer_norm bias length mismatch");
    if x.is_empty() {
        return;
    }
    let n = x.len() as f32;
    let mean: f32 = x.iter().sum::<f32>() / n;
    let var: f32 = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let inv = 1.0 / (var + eps).sqrt();
    for ((v, w), b) in x.iter_mut().zip(weight.iter()).zip(bias.iter()) {
        *v = (*v - mean) * inv * w + b;
    }
}

/// Applies a causal mask in place to a `[q_len, k_len]` score matrix where the
/// last query row attends to all `k_len` keys.
///
/// Entry `(i, j)` is masked (set to `-inf`) when key `j` is in the future of
/// query `i`, i.e. `j > offset + i` with `offset = k_len - q_len`.
///
/// # Panics
///
/// Panics if `k_len < q_len`.
pub fn apply_causal_mask(scores: &mut Matrix) {
    let (q_len, k_len) = scores.shape();
    assert!(k_len >= q_len, "causal mask requires k_len >= q_len");
    let offset = k_len - q_len;
    for i in 0..q_len {
        let row = scores.row_mut(i);
        for (j, s) in row.iter_mut().enumerate() {
            if j > offset + i {
                *s = f32::NEG_INFINITY;
            }
        }
    }
}

/// Per-channel standard deviation of a `[tokens, channels]` matrix.
pub fn channel_std(data: &Matrix) -> Vec<f32> {
    let (rows, cols) = data.shape();
    if rows == 0 {
        return vec![0.0; cols];
    }
    let mut mean = vec![0.0f64; cols];
    for row in data.iter_rows() {
        for (m, &v) in mean.iter_mut().zip(row.iter()) {
            *m += v as f64;
        }
    }
    for m in &mut mean {
        *m /= rows as f64;
    }
    let mut var = vec![0.0f64; cols];
    for row in data.iter_rows() {
        for ((v, &x), m) in var.iter_mut().zip(row.iter()).zip(mean.iter()) {
            let d = x as f64 - *m;
            *v += d * d;
        }
    }
    var.iter()
        .map(|v| (v / rows as f64).sqrt() as f32)
        .collect()
}

/// Per-channel absolute maximum of a `[tokens, channels]` matrix.
pub fn channel_abs_max(data: &Matrix) -> Vec<f32> {
    let cols = data.cols();
    let mut out = vec![0.0f32; cols];
    for row in data.iter_rows() {
        for (o, &v) in out.iter_mut().zip(row.iter()) {
            *o = o.max(v.abs());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f32> = (0..11).map(|v| v as f32).collect();
        let b: Vec<f32> = (0..11).map(|v| (v * 2) as f32).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-4);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut v = vec![1.0, 2.0, 3.0];
        softmax_in_place(&mut v);
        assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(v[2] > v[1] && v[1] > v[0]);
    }

    #[test]
    fn softmax_handles_extreme_values() {
        let mut v = vec![1e4, -1e4, 0.0];
        softmax_in_place(&mut v);
        assert!(v.iter().all(|x| x.is_finite()));
        assert!((v[0] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_empty_is_noop() {
        let mut v: Vec<f32> = vec![];
        softmax_in_place(&mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn log_softmax_matches_softmax() {
        let v = vec![0.5, -1.0, 2.0, 0.0];
        let ls = log_softmax(&v);
        let mut s = v.clone();
        softmax_in_place(&mut s);
        for (l, p) in ls.iter().zip(s.iter()) {
            assert!((l.exp() - p).abs() < 1e-5);
        }
    }

    #[test]
    fn exp_approx_matches_libm_within_ulps() {
        // The attention range: scores relative to a running max are <= 0,
        // but cover positives too for generality.
        for i in -1700..=1700 {
            let x = i as f32 * 0.05;
            let approx = exp_approx(x);
            let exact = x.exp();
            let rel = (approx - exact).abs() / exact.max(f32::MIN_POSITIVE);
            assert!(rel < 1e-6, "x={x}: approx {approx} vs libm {exact}");
        }
        assert_eq!(exp_approx(0.0), 1.0);
        // Clamped tails: deeply negative inputs (and -inf) floor at e^-87.
        let floor = exp_approx(f32::NEG_INFINITY);
        assert!(floor > 0.0 && floor < 2e-38);
        assert_eq!(exp_approx(-1000.0), floor);
        assert!(exp_approx(f32::INFINITY).is_finite()); // clamped to e^88
    }

    /// Inputs where the bit trick could part from the integer cast: signed
    /// zeros, infinities, NaNs of both signs with assorted payloads,
    /// subnormals, the clamp bounds and their neighbours, and both sides of
    /// every `k` rounding boundary `(k + 1/2)·ln 2`.
    fn exp_approx_edge_inputs() -> Vec<f32> {
        let mut xs = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001),
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0x7fff_ffff),
            f32::from_bits(0xff80_0001),
            f32::from_bits(0xffc0_5678),
            f32::from_bits(0xffff_ffff),
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE / 2.0,
            -f32::MIN_POSITIVE / 2.0,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
        ];
        for bound in [-87.0f32, 88.0] {
            xs.extend([
                bound,
                f32::from_bits(bound.to_bits() - 1),
                f32::from_bits(bound.to_bits() + 1),
            ]);
        }
        for k in -127..=128 {
            let edge = (k as f32 + 0.5) * std::f32::consts::LN_2;
            for step in -2i32..=2 {
                xs.push(f32::from_bits(edge.to_bits().wrapping_add_signed(step)));
            }
        }
        xs
    }

    #[test]
    fn exp_approx_equals_the_int_cast_body_at_the_edges() {
        for x in exp_approx_edge_inputs() {
            assert_eq!(
                exp_approx(x).to_bits(),
                exp_approx_with_int_cast(x).to_bits(),
                "x = {x} ({:#010x})",
                x.to_bits()
            );
        }
    }

    #[test]
    #[ignore = "all 2^32 inputs, ~80 s in release: cargo test --release -p million_tensor --lib exp_approx -- --ignored"]
    fn exp_approx_equals_the_int_cast_body_on_every_input() {
        let mut differing = 0u64;
        for bits in 0..=u32::MAX {
            let x = f32::from_bits(bits);
            if exp_approx(x).to_bits() != exp_approx_with_int_cast(x).to_bits() {
                differing += 1;
            }
        }
        println!("exp_approx: 2^32 inputs compared, {differing} differ");
        assert_eq!(differing, 0);
    }

    #[test]
    fn dot_wide_matches_dot_within_rounding() {
        for len in [0usize, 1, 7, 8, 9, 31, 32, 33, 128] {
            let a: Vec<f32> = (0..len)
                .map(|v| ((v * 7) % 13) as f32 * 0.3 - 1.5)
                .collect();
            let b: Vec<f32> = (0..len)
                .map(|v| ((v * 5) % 11) as f32 * 0.25 - 1.0)
                .collect();
            let narrow = dot(&a, &b);
            let wide = dot_wide(&a, &b);
            assert!(
                (narrow - wide).abs() <= 1e-4 * narrow.abs().max(1.0),
                "len {len}: {narrow} vs {wide}"
            );
        }
    }

    #[test]
    fn vec_matmul_into_matches_matrix_matmul() {
        let m = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.5 - 2.0);
        let x = vec![1.0f32, 0.0, -2.0, 3.0];
        let mut out = vec![9.0f32; 3];
        vec_matmul_into(&x, &m, &mut out);
        let expected = Matrix::from_row(&x).matmul(&m);
        assert_eq!(out.as_slice(), expected.row(0));
    }

    #[test]
    fn vec_matmul_transposed_into_matches_matrix_path() {
        let m = Matrix::from_fn(5, 4, |r, c| ((r * 7 + c) % 5) as f32 - 2.0);
        let x = vec![0.5f32, -1.0, 2.0, 0.25];
        let mut out = vec![0.0f32; 5];
        vec_matmul_transposed_into(&x, &m, &mut out);
        let expected = Matrix::from_row(&x).matmul_transposed(&m);
        assert_eq!(out.as_slice(), expected.row(0));
    }

    #[test]
    fn argmax_picks_largest() {
        assert_eq!(argmax(&[0.1, 0.9, 0.5]), 1);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn rms_norm_produces_unit_rms() {
        let mut x = vec![3.0, -4.0, 12.0, 5.0];
        let w = vec![1.0; 4];
        rms_norm(&mut x, &w, 1e-6);
        let rms: f32 = (x.iter().map(|v| v * v).sum::<f32>() / 4.0).sqrt();
        assert!((rms - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        let w = vec![1.0; 4];
        let b = vec![0.0; 4];
        layer_norm(&mut x, &w, &b, 1e-6);
        let mean: f32 = x.iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
    }

    #[test]
    fn silu_and_gelu_fixed_points() {
        let mut v = vec![0.0f32];
        silu_in_place(&mut v);
        assert_eq!(v[0], 0.0);
        let mut v = vec![0.0f32];
        gelu_in_place(&mut v);
        assert_eq!(v[0], 0.0);
    }

    #[test]
    fn causal_mask_blocks_future() {
        let mut scores = Matrix::from_fn(2, 4, |_, _| 1.0);
        apply_causal_mask(&mut scores);
        // first query row (global position 2) can see keys 0..=2
        assert!(scores.get(0, 3).is_infinite());
        assert!(scores.get(0, 2).is_finite());
        // second query row (global position 3) sees everything
        assert!(scores.get(1, 3).is_finite());
    }

    #[test]
    fn channel_statistics() {
        let m = Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, 2.0]).unwrap();
        let std = channel_std(&m);
        let amax = channel_abs_max(&m);
        assert!((std[0] - 1.0).abs() < 1e-5);
        assert!((std[1] - 2.0).abs() < 1e-5);
        assert_eq!(amax, vec![3.0, 2.0]);
    }

    proptest! {
        #[test]
        fn softmax_is_probability_distribution(v in proptest::collection::vec(-50.0f32..50.0, 1..64)) {
            let mut s = v.clone();
            softmax_in_place(&mut s);
            let sum: f32 = s.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        }

        #[test]
        fn dot_is_commutative(a in proptest::collection::vec(-10.0f32..10.0, 1..32)) {
            let b: Vec<f32> = a.iter().rev().copied().collect();
            prop_assert!((dot(&a, &b) - dot(&b, &a)).abs() < 1e-3);
        }

        #[test]
        fn squared_distance_nonnegative(a in proptest::collection::vec(-5.0f32..5.0, 1..16)) {
            let b: Vec<f32> = a.iter().map(|x| x + 1.0).collect();
            prop_assert!(squared_distance(&a, &b) >= 0.0);
            prop_assert!(squared_distance(&a, &a) < 1e-9);
        }
    }
}
