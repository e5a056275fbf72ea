//! Full-precision (fp16-equivalent) KV cache — the paper's baseline.

use million_tensor::alibi::alibi_bias;
use million_tensor::ops::dot;
use million_tensor::{Matrix, StridedRows};

use crate::scratch::AttendScratch;
use crate::traits::{append_head_strided, head_rows, AttendParams, CacheLayout, KvCache};

/// Uncompressed per-head key/value storage.
///
/// Values are held as `f32` for exact CPU arithmetic, but the memory report
/// assumes 2 bytes per element so compression ratios match the fp16 baseline
/// the paper compares against.
///
/// # Example
///
/// ```
/// use million_kvcache::{AttendParams, AttendScratch, CacheLayout, FullPrecisionCache, KvCache};
/// use million_tensor::Matrix;
///
/// let layout = CacheLayout::new(1, 4);
/// let mut cache = FullPrecisionCache::new(layout);
/// let keys = Matrix::from_vec(2, 4, vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]).unwrap();
/// let values = Matrix::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]).unwrap();
/// cache.append(&keys, &values);
///
/// let mut out = vec![0.0; 4];
/// let mut scratch = AttendScratch::new();
/// let params = AttendParams::new(0, &[10.0, 0.0, 0.0, 0.0], 1.0, 1);
/// cache.attend(&params, &mut scratch, &mut out);
/// // The first key matches the query far better, so the output is close to the first value.
/// assert!((out[0] - 1.0).abs() < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct FullPrecisionCache {
    layout: CacheLayout,
    len: usize,
    /// Per head, row-major `[len, head_dim]` keys.
    keys: Vec<Vec<f32>>,
    /// Per head, row-major `[len, head_dim]` values.
    values: Vec<Vec<f32>>,
    /// Bytes accounted per stored element (2 = fp16 baseline, 4 = fp32).
    element_bytes: usize,
}

impl FullPrecisionCache {
    /// Creates an empty cache with fp16-equivalent memory accounting.
    pub fn new(layout: CacheLayout) -> Self {
        Self::with_element_bytes(layout, 2)
    }

    /// Creates an empty cache with a custom per-element byte accounting
    /// (e.g. 4 for an fp32 baseline).
    pub fn with_element_bytes(layout: CacheLayout, element_bytes: usize) -> Self {
        Self {
            layout,
            len: 0,
            keys: vec![Vec::new(); layout.n_kv_heads],
            values: vec![Vec::new(); layout.n_kv_heads],
            element_bytes,
        }
    }

    /// Pre-reserves storage for `additional` more tokens in every head, so a
    /// decode loop of known horizon appends without reallocating (the
    /// full-decode-step zero-allocation test relies on this).
    pub fn reserve_tokens(&mut self, additional: usize) {
        let d = self.layout.head_dim;
        for buf in self.keys.iter_mut().chain(self.values.iter_mut()) {
            buf.reserve(additional * d);
        }
    }

    /// Key vector of `token` for `head`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of bounds.
    pub fn key(&self, head: usize, token: usize) -> &[f32] {
        let d = self.layout.head_dim;
        &self.keys[head][token * d..(token + 1) * d]
    }

    /// Value vector of `token` for `head`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of bounds.
    pub fn value(&self, head: usize, token: usize) -> &[f32] {
        let d = self.layout.head_dim;
        &self.values[head][token * d..(token + 1) * d]
    }
}

impl KvCache for FullPrecisionCache {
    fn layout(&self) -> CacheLayout {
        self.layout
    }

    fn len(&self) -> usize {
        self.len
    }

    fn append(&mut self, keys: &Matrix, values: &Matrix) {
        append_head_strided(
            &self.layout,
            keys,
            values,
            self.keys.iter_mut().zip(self.values.iter_mut()),
        );
        self.len += keys.rows();
    }

    fn attend(&self, params: &AttendParams<'_>, scratch: &mut AttendScratch, out: &mut [f32]) {
        let d = self.layout.head_dim;
        assert_eq!(params.query.len(), d, "query length mismatch");
        assert_eq!(out.len(), d, "output length mismatch");
        assert!(params.head < self.layout.n_kv_heads, "head out of range");

        scratch.softmax.reset(d);
        let keys = &self.keys[params.head];
        let values = &self.values[params.head];
        for t in 0..self.len {
            let k = &keys[t * d..(t + 1) * d];
            let mut score = dot(params.query, k) * params.scale;
            if let Some(slope) = params.alibi_slope {
                score += alibi_bias(slope, params.query_pos, t);
            }
            scratch.softmax.push(score, &values[t * d..(t + 1) * d]);
        }
        if let Some((cur_key, cur_value)) = params.current {
            // The current token attends to itself with zero ALiBi distance.
            scratch
                .softmax
                .push(dot(params.query, cur_key) * params.scale, cur_value);
        }
        scratch.softmax.finish_into(out);
    }

    fn dense_history<'a>(
        &'a self,
        head: usize,
        _buf: &'a mut Vec<f32>,
    ) -> Option<[StridedRows<'a>; 2]> {
        Some(head_rows(
            &self.keys[head],
            &self.values[head],
            self.layout.head_dim,
        ))
    }

    fn memory_bytes(&self) -> usize {
        2 * self.len * self.layout.width() * self.element_bytes
    }

    fn reset(&mut self) {
        self.len = 0;
        for head in self.keys.iter_mut().chain(self.values.iter_mut()) {
            head.clear();
        }
    }

    fn kind(&self) -> &'static str {
        "fp16"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use million_tensor::init::{normal_matrix, seeded_rng};
    use million_tensor::ops::softmax_in_place;

    fn layout() -> CacheLayout {
        CacheLayout::new(2, 8)
    }

    fn random_kv(seed: u64, tokens: usize, layout: &CacheLayout) -> (Matrix, Matrix) {
        let mut rng = seeded_rng(seed);
        let k = normal_matrix(&mut rng, tokens, layout.width(), 0.0, 1.0);
        let v = normal_matrix(&mut rng, tokens, layout.width(), 0.0, 1.0);
        (k, v)
    }

    #[test]
    fn append_grows_len() {
        let mut cache = FullPrecisionCache::new(layout());
        assert!(cache.is_empty());
        let (k, v) = random_kv(0, 5, &layout());
        cache.append(&k, &v);
        cache.append(&k, &v);
        assert_eq!(cache.len(), 10);
    }

    #[test]
    #[should_panic(expected = "KV width mismatch")]
    fn append_rejects_wrong_width() {
        let mut cache = FullPrecisionCache::new(layout());
        let bad = Matrix::zeros(1, 7);
        cache.append(&bad, &bad);
    }

    #[test]
    fn attend_matches_reference_softmax() {
        let layout = layout();
        let mut cache = FullPrecisionCache::new(layout);
        let (k, v) = random_kv(1, 12, &layout);
        cache.append(&k, &v);

        let query: Vec<f32> = (0..8).map(|i| (i as f32 * 0.7).cos()).collect();
        let scale = 1.0 / (8f32).sqrt();
        let mut out = vec![0.0; 8];
        let mut scratch = AttendScratch::new();
        cache.attend(
            &AttendParams::new(1, &query, scale, 11),
            &mut scratch,
            &mut out,
        );

        // Reference computation.
        let mut scores: Vec<f32> = (0..12)
            .map(|t| dot(&query, cache.key(1, t)) * scale)
            .collect();
        softmax_in_place(&mut scores);
        let mut expected = [0.0f32; 8];
        for (t, &p) in scores.iter().enumerate() {
            for (e, &x) in expected.iter_mut().zip(cache.value(1, t)) {
                *e += p * x;
            }
        }
        for (o, e) in out.iter().zip(expected.iter()) {
            assert!((o - e).abs() < 1e-5);
        }
    }

    #[test]
    fn alibi_bias_prefers_recent_tokens() {
        let layout = CacheLayout::new(1, 4);
        let mut cache = FullPrecisionCache::new(layout);
        // Two identical keys so only the bias differentiates them.
        let k = Matrix::from_vec(2, 4, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]).unwrap();
        let v = Matrix::from_vec(2, 4, vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]).unwrap();
        cache.append(&k, &v);
        let mut out = vec![0.0; 4];
        let mut scratch = AttendScratch::new();
        cache.attend(
            &AttendParams::new(0, &[1.0, 0.0, 0.0, 0.0], 1.0, 1).with_alibi(2.0),
            &mut scratch,
            &mut out,
        );
        // The recent token (index 1) has zero penalty, the older one -2.0.
        assert!(out[1] > out[0]);
    }

    #[test]
    fn memory_accounts_fp16_bytes() {
        let layout = layout();
        let mut cache = FullPrecisionCache::new(layout);
        let (k, v) = random_kv(2, 10, &layout);
        cache.append(&k, &v);
        assert_eq!(cache.memory_bytes(), 10 * layout.fp16_bytes_per_token());
        assert_eq!(cache.kind(), "fp16");
    }

    #[test]
    fn empty_cache_attend_returns_zero() {
        let cache = FullPrecisionCache::new(layout());
        let mut out = vec![1.0; 8];
        let mut scratch = AttendScratch::new();
        cache.attend(
            &AttendParams::new(0, &[0.5; 8], 1.0, 0),
            &mut scratch,
            &mut out,
        );
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn current_token_is_merged_at_full_precision() {
        // With an empty cache, attending with a current pair returns exactly
        // the current value (softmax over a single element).
        let cache = FullPrecisionCache::new(CacheLayout::new(1, 4));
        let key = [0.3, -0.1, 0.8, 0.0];
        let value = [1.0, 2.0, 3.0, 4.0];
        let mut out = vec![0.0; 4];
        let mut scratch = AttendScratch::new();
        cache.attend(
            &AttendParams::new(0, &[1.0, 0.0, 0.0, 0.0], 1.0, 0).with_current(&key, &value),
            &mut scratch,
            &mut out,
        );
        for (o, v) in out.iter().zip(value.iter()) {
            assert!((o - v).abs() < 1e-6);
        }
    }
}
