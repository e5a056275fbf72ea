//! KIVI baseline: group-wise asymmetric integer quantization of the KV cache.
//!
//! Following the KIVI paper (and Section I of MILLION), keys are quantized
//! **per channel** within groups of `group_size` consecutive tokens, values
//! are quantized **per token**. Tokens that have not yet filled a complete
//! key group remain in a full-precision residual, which is why KIVI's memory
//! footprint never drops all the way to the nominal bit width.
//!
//! Attention over this cache must de-quantize keys and values on the fly —
//! the overhead MILLION's lookup-table attention avoids; the cost difference
//! is measured in the Criterion benches.

use million_quant::uniform::{Granularity, QuantizedMatrix, Symmetry};
use million_tensor::alibi::alibi_bias;
use million_tensor::ops::dot;
use million_tensor::Matrix;

use crate::scratch::{grown, AttendScratch};
use crate::traits::{append_head_strided, AttendParams, CacheLayout, KvCache};

/// Configuration of a [`KiviCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KiviConfig {
    /// Bits per element (KIVI uses 2 or 4).
    pub bits: u8,
    /// Tokens per key quantization group.
    pub group_size: usize,
}

impl Default for KiviConfig {
    fn default() -> Self {
        Self {
            bits: 4,
            group_size: 32,
        }
    }
}

/// One quantized group of keys plus its matching quantized values.
#[derive(Debug, Clone)]
struct QuantizedGroup {
    /// `[group_size, head_dim]`, per-channel quantized.
    keys: QuantizedMatrix,
    /// `[group_size, head_dim]`, per-token quantized.
    values: QuantizedMatrix,
}

/// Per-head storage for the KIVI cache.
#[derive(Debug, Clone, Default)]
struct HeadStore {
    groups: Vec<QuantizedGroup>,
    /// Full-precision residual of tokens not yet forming a complete group,
    /// `[residual_len, head_dim]` row-major.
    residual_keys: Vec<f32>,
    residual_values: Vec<f32>,
}

/// Group-wise integer-quantized KV cache (KIVI baseline).
#[derive(Debug, Clone)]
pub struct KiviCache {
    layout: CacheLayout,
    config: KiviConfig,
    heads: Vec<HeadStore>,
    len: usize,
}

impl KiviCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `config.group_size == 0` or `config.bits` is 0 or > 16.
    pub fn new(layout: CacheLayout, config: KiviConfig) -> Self {
        assert!(config.group_size > 0, "group_size must be > 0");
        assert!((1..=16).contains(&config.bits), "bits must be in 1..=16");
        Self {
            layout,
            config,
            heads: vec![HeadStore::default(); layout.n_kv_heads],
            len: 0,
        }
    }

    /// Number of tokens currently sitting in the full-precision residual.
    pub fn residual_len(&self) -> usize {
        let d = self.layout.head_dim;
        self.heads.first().map_or(0, |h| h.residual_keys.len() / d)
    }

    /// Number of complete quantized groups per head.
    pub fn group_count(&self) -> usize {
        self.heads.first().map_or(0, |h| h.groups.len())
    }

    fn flush_full_groups(&mut self) {
        let d = self.layout.head_dim;
        let g = self.config.group_size;
        for head in &mut self.heads {
            while head.residual_keys.len() / d >= g {
                let key_block: Vec<f32> = head.residual_keys.drain(0..g * d).collect();
                let value_block: Vec<f32> = head.residual_values.drain(0..g * d).collect();
                let keys = Matrix::from_vec(g, d, key_block).expect("residual block shape");
                let values = Matrix::from_vec(g, d, value_block).expect("residual block shape");
                let qk = QuantizedMatrix::quantize(
                    &keys,
                    self.config.bits,
                    Symmetry::Asymmetric,
                    Granularity::PerChannel,
                )
                .expect("validated config");
                let qv = QuantizedMatrix::quantize(
                    &values,
                    self.config.bits,
                    Symmetry::Asymmetric,
                    Granularity::PerToken,
                )
                .expect("validated config");
                head.groups.push(QuantizedGroup {
                    keys: qk,
                    values: qv,
                });
            }
        }
    }
}

impl KvCache for KiviCache {
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
            self.heads
                .iter_mut()
                .map(|h| (&mut h.residual_keys, &mut h.residual_values)),
        );
        self.len += keys.rows();
        self.flush_full_groups();
    }

    fn attend(&self, params: &AttendParams<'_>, scratch: &mut AttendScratch, out: &mut [f32]) {
        let d = self.layout.head_dim;
        assert_eq!(params.query.len(), d, "query length mismatch");
        assert_eq!(out.len(), d, "output length mismatch");
        assert!(params.head < self.layout.n_kv_heads, "head out of range");
        let head = &self.heads[params.head];
        let g = self.config.group_size;

        scratch.softmax.reset(d);
        let key_buf = grown(&mut scratch.key_buf, d);
        let value_buf = grown(&mut scratch.value_buf, d);

        // Quantized groups: de-quantize each row on the fly (KIVI's overhead).
        for (gi, group) in head.groups.iter().enumerate() {
            for r in 0..group.keys.shape().0 {
                let pos = gi * g + r;
                group.keys.dequantize_row_into(r, key_buf);
                let mut score = dot(params.query, key_buf) * params.scale;
                if let Some(slope) = params.alibi_slope {
                    score += alibi_bias(slope, params.query_pos, pos);
                }
                group.values.dequantize_row_into(r, value_buf);
                scratch.softmax.push(score, value_buf);
            }
        }

        // Full-precision residual.
        let quantized_tokens = head.groups.len() * g;
        let residual_tokens = head.residual_keys.len() / d;
        for r in 0..residual_tokens {
            let pos = quantized_tokens + r;
            let k = &head.residual_keys[r * d..(r + 1) * d];
            let mut score = dot(params.query, k) * params.scale;
            if let Some(slope) = params.alibi_slope {
                score += alibi_bias(slope, params.query_pos, pos);
            }
            scratch
                .softmax
                .push(score, &head.residual_values[r * d..(r + 1) * d]);
        }

        if let Some((cur_key, cur_value)) = params.current {
            scratch
                .softmax
                .push(dot(params.query, cur_key) * params.scale, cur_value);
        }

        scratch.softmax.finish_into(out);
    }

    fn memory_bytes(&self) -> usize {
        let mut bytes = 0usize;
        for head in &self.heads {
            for group in &head.groups {
                bytes += group.keys.memory_bytes() + group.values.memory_bytes();
            }
            // Residual accounted at fp16.
            bytes += (head.residual_keys.len() + head.residual_values.len()) * 2;
        }
        bytes
    }

    fn reset(&mut self) {
        self.len = 0;
        for head in &mut self.heads {
            head.groups.clear();
            head.residual_keys.clear();
            head.residual_values.clear();
        }
    }

    fn kind(&self) -> &'static str {
        "kivi"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full::FullPrecisionCache;
    use million_tensor::init::{normal_matrix, seeded_rng};

    const HEAD_DIM: usize = 16;

    fn layout() -> CacheLayout {
        CacheLayout::new(2, HEAD_DIM)
    }

    fn random_kv(seed: u64, tokens: usize) -> (Matrix, Matrix) {
        let mut rng = seeded_rng(seed);
        let width = layout().width();
        (
            normal_matrix(&mut rng, tokens, width, 0.0, 1.0),
            normal_matrix(&mut rng, tokens, width, 0.0, 1.0),
        )
    }

    fn attend(cache: &dyn KvCache, query: &[f32], head: usize) -> Vec<f32> {
        let mut out = vec![0.0; HEAD_DIM];
        let mut scratch = AttendScratch::new();
        cache.attend(
            &AttendParams::new(
                head,
                query,
                1.0 / (HEAD_DIM as f32).sqrt(),
                cache.len().saturating_sub(1),
            ),
            &mut scratch,
            &mut out,
        );
        out
    }

    #[test]
    fn groups_and_residual_partition_the_tokens() {
        let mut cache = KiviCache::new(
            layout(),
            KiviConfig {
                bits: 4,
                group_size: 16,
            },
        );
        let (k, v) = random_kv(0, 40);
        cache.append(&k, &v);
        assert_eq!(cache.len(), 40);
        assert_eq!(cache.group_count(), 2);
        assert_eq!(cache.residual_len(), 8);
    }

    #[test]
    fn four_bit_attention_tracks_full_precision() {
        let mut kivi = KiviCache::new(layout(), KiviConfig::default());
        let mut full = FullPrecisionCache::new(layout());
        let (k, v) = random_kv(1, 80);
        kivi.append(&k, &v);
        full.append(&k, &v);
        let query: Vec<f32> = (0..HEAD_DIM).map(|i| (i as f32 * 0.41).sin()).collect();
        for head in 0..2 {
            let exact = attend(&full, &query, head);
            let approx = attend(&kivi, &query, head);
            let err: f32 = exact
                .iter()
                .zip(approx.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f32::max);
            assert!(err < 0.3, "head {head}: error {err}");
        }
    }

    #[test]
    fn two_bit_is_worse_than_four_bit() {
        let (k, v) = random_kv(2, 64);
        let mut full = FullPrecisionCache::new(layout());
        full.append(&k, &v);
        let query: Vec<f32> = (0..HEAD_DIM).map(|i| 0.3 * (i as f32)).collect();
        let exact = attend(&full, &query, 0);

        let err_for_bits = |bits: u8| {
            let mut cache = KiviCache::new(
                layout(),
                KiviConfig {
                    bits,
                    group_size: 32,
                },
            );
            cache.append(&k, &v);
            let approx = attend(&cache, &query, 0);
            exact
                .iter()
                .zip(approx.iter())
                .map(|(a, b)| (a - b).abs())
                .sum::<f32>()
        };
        assert!(err_for_bits(2) > err_for_bits(4));
    }

    #[test]
    fn memory_smaller_than_fp16_but_has_residual_overhead() {
        let mut kivi = KiviCache::new(
            layout(),
            KiviConfig {
                bits: 4,
                group_size: 32,
            },
        );
        let mut full = FullPrecisionCache::new(layout());
        let (k, v) = random_kv(3, 256);
        kivi.append(&k, &v);
        full.append(&k, &v);
        assert!(kivi.memory_bytes() < full.memory_bytes() / 2);
        assert!(kivi.memory_bytes() > full.memory_bytes() / 8);
        assert_eq!(kivi.kind(), "kivi");
    }

    #[test]
    fn empty_cache_attend_is_zero() {
        let cache = KiviCache::new(layout(), KiviConfig::default());
        let out = attend(&cache, &[1.0; HEAD_DIM], 0);
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "group_size must be > 0")]
    fn zero_group_size_panics() {
        let _ = KiviCache::new(
            layout(),
            KiviConfig {
                bits: 4,
                group_size: 0,
            },
        );
    }
}
