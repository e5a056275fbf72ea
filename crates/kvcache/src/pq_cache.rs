//! The MILLION KV cache: product-quantized history + dense recent window.
//!
//! Decode-time attention over this cache follows Eq. (7) of the paper:
//!
//! 1. the quantized history is scored through a per-query lookup table
//!    (`q × Cᵀ` per subspace) without de-quantizing any key;
//! 2. softmax mass over the history is accumulated per value centroid and the
//!    centroids are mixed once ([`million_quant::pq::ValueAccumulator`]);
//! 3. the dense recent window (including the current token) is attended in
//!    full precision;
//! 4. both segments are combined with an online softmax.
//!
//! The quantized history itself is **paged**: it is the concatenation of a
//! chain of sealed, immutable, shareable [`Block`]s (owned by a
//! [`million_store::BlockStore`] and typically co-referenced by every
//! session that prefilled the same prompt prefix) followed by this cache's
//! private open tail of codes. The fused kernel walks the chain chunk by
//! chunk through [`million_quant::pq::ScoreLut::fused_attend_chunk`], which
//! continues one online softmax across chunks — paged attention is
//! bit-identical to attention over one monolithic code buffer.

use std::sync::Arc;

use million_quant::pq::{FusedAlibi, FusedState, PqCodebook, PqCodes};
use million_store::Block;
use million_tensor::alibi::alibi_bias;
use million_tensor::ops::dot;
use million_tensor::{Matrix, StridedRows};

use crate::scratch::{grown, AttendScratch};
use crate::traits::{
    append_head_strided, head_rows, head_slice, AttendParams, CacheLayout, KvCache,
};

/// Rows of dense capacity a cache keeps per head once its window drains.
const KEEP_DENSE_ROWS: usize = 64;

/// Drops the first `n` floats of one head's dense rows and hands back the
/// capacity a long prompt left behind: the store keeps at most twice what it
/// still holds, or [`KEEP_DENSE_ROWS`] rows. A prompt encoded at admission
/// then does not pin its f32 copy for the rest of the session, and
/// decode-time appends into a short window never reallocate.
fn drain_front(dense: &mut Vec<f32>, n: usize, head_dim: usize) {
    dense.drain(..n);
    let keep = dense.len().max(KEEP_DENSE_ROWS * head_dim);
    if dense.capacity() > 2 * keep {
        dense.shrink_to(keep);
    }
}

/// One head's history into `out`: every code block in order, decoded, then
/// the dense rows.
fn read_history<'c>(
    codebook: &PqCodebook,
    blocks: impl Iterator<Item = &'c PqCodes>,
    dense: &[f32],
    out: &mut [f32],
) {
    let mut at = 0;
    for codes in blocks {
        let end = at + codes.len() * codebook.dim();
        codebook.decode_rows_into(codes, &mut out[at..end]);
        at = end;
    }
    out[at..].copy_from_slice(dense);
}

/// Configuration of a [`PqKvCache`].
#[derive(Debug, Clone)]
pub struct PqCacheConfig {
    /// Codebook used for keys (dimension must equal `head_dim`).
    pub key_codebook: Arc<PqCodebook>,
    /// Codebook used for values (dimension must equal `head_dim`).
    pub value_codebook: Arc<PqCodebook>,
    /// Number of most recent tokens kept in full precision. The paper sets
    /// this to 0 for its stress evaluations; the asynchronous engine uses it
    /// as the staging buffer for not-yet-quantized tokens.
    pub residual_len: usize,
    /// When `true` (default), [`KvCache::append`] immediately encodes tokens
    /// that fall out of the residual window. The asynchronous engine sets
    /// this to `false` and feeds codes back via [`PqKvCache::absorb_encoded`].
    pub auto_encode: bool,
    /// Which model layer this cache serves — the slice of each multi-layer
    /// shared [`Block`] it reads. Irrelevant (0) when no blocks are attached.
    pub layer: usize,
}

impl PqCacheConfig {
    /// Convenience constructor with `auto_encode = true` and `layer = 0`.
    pub fn new(
        key_codebook: Arc<PqCodebook>,
        value_codebook: Arc<PqCodebook>,
        residual_len: usize,
    ) -> Self {
        Self {
            key_codebook,
            value_codebook,
            residual_len,
            auto_encode: true,
            layer: 0,
        }
    }

    /// Sets the layer index used to address shared blocks.
    #[must_use]
    pub fn with_layer(mut self, layer: usize) -> Self {
        self.layer = layer;
        self
    }
}

/// PQ codes for a block of tokens, one [`PqCodes`] sequence per KV head.
///
/// Produced by [`PqKvCache::encode_tokens`] (synchronously or from a worker
/// thread) and consumed by [`PqKvCache::absorb_encoded`].
#[derive(Debug, Clone)]
pub struct EncodedTokens {
    /// Per-head key codes; every entry holds the same number of tokens.
    pub key_codes: Vec<PqCodes>,
    /// Per-head value codes; same shape as `key_codes`.
    pub value_codes: Vec<PqCodes>,
}

impl EncodedTokens {
    /// Number of tokens in this block.
    pub fn len(&self) -> usize {
        self.key_codes.first().map_or(0, |c| c.len())
    }

    /// Returns `true` when the block holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Product-quantized KV cache (the MILLION backend).
pub struct PqKvCache {
    layout: CacheLayout,
    config: PqCacheConfig,
    /// Sealed shared blocks of the quantized prefix, oldest first. This
    /// cache reads the `config.layer` slice of each; the blocks themselves
    /// are immutable and usually co-owned by other sessions.
    shared: Vec<Arc<Block>>,
    /// Tokens covered by `shared`.
    shared_tokens: usize,
    /// Per-head key codes of the private (unsealed) quantized tail.
    key_codes: Vec<PqCodes>,
    /// Per-head value codes of the private quantized tail.
    value_codes: Vec<PqCodes>,
    /// Per-head dense recent keys, `[recent_len, head_dim]` row-major.
    recent_keys: Vec<Vec<f32>>,
    /// Per-head dense recent values.
    recent_values: Vec<Vec<f32>>,
    /// Tokens in the quantized prefix (shared blocks + private tail).
    quantized_len: usize,
    /// Tokens in the dense suffix.
    recent_len: usize,
    /// Codes of the row being encoded by [`PqKvCache::encode_overflow`].
    code_row: Vec<u16>,
    /// Set by [`PqKvCache::hold_encode`]: appends stay dense even with
    /// `auto_encode` on.
    encode_held: bool,
}

impl std::fmt::Debug for PqKvCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PqKvCache")
            .field("layout", &self.layout)
            .field("shared_blocks", &self.shared.len())
            .field("shared_tokens", &self.shared_tokens)
            .field("quantized_len", &self.quantized_len)
            .field("recent_len", &self.recent_len)
            .field("encode_held", &self.encode_held)
            .finish()
    }
}

impl PqKvCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if either codebook's dimension differs from `layout.head_dim`.
    pub fn new(layout: CacheLayout, config: PqCacheConfig) -> Self {
        assert_eq!(
            config.key_codebook.dim(),
            layout.head_dim,
            "key codebook dimension must equal head_dim"
        );
        assert_eq!(
            config.value_codebook.dim(),
            layout.head_dim,
            "value codebook dimension must equal head_dim"
        );
        let key_codes = (0..layout.n_kv_heads)
            .map(|_| PqCodes::new(config.key_codebook.config()))
            .collect();
        let value_codes = (0..layout.n_kv_heads)
            .map(|_| PqCodes::new(config.value_codebook.config()))
            .collect();
        let code_row_len = config
            .key_codebook
            .config()
            .m
            .max(config.value_codebook.config().m);
        Self {
            layout,
            config,
            shared: Vec::new(),
            shared_tokens: 0,
            key_codes,
            value_codes,
            recent_keys: vec![Vec::new(); layout.n_kv_heads],
            recent_values: vec![Vec::new(); layout.n_kv_heads],
            quantized_len: 0,
            recent_len: 0,
            code_row: vec![0; code_row_len],
            encode_held: false,
        }
    }

    /// Holds (`true`) or releases (`false`) the encode of an `auto_encode`
    /// cache: while held, [`KvCache::append`] keeps every token dense, as a
    /// cache without `auto_encode` does, so a prompt admitted in chunks
    /// stays readable through [`KvCache::dense_history`] until its last
    /// chunk. Releasing encodes nothing by itself; the holder calls
    /// [`PqKvCache::encode_overflow`]. [`KvCache::reset`] releases.
    pub fn hold_encode(&mut self, hold: bool) {
        self.encode_held = hold;
    }

    /// Reserves dense room for exactly `tokens` more tokens per head, so a
    /// prompt appended in chunks grows its rows in place, without
    /// reallocating (and copying) them at each chunk. Pages are touched
    /// only as rows land.
    pub fn reserve_dense(&mut self, tokens: usize) {
        let d = self.layout.head_dim;
        for rows in self
            .recent_keys
            .iter_mut()
            .chain(self.recent_values.iter_mut())
        {
            rows.reserve_exact(tokens * d);
        }
    }

    /// Number of tokens currently stored as PQ codes (shared + private).
    pub fn quantized_len(&self) -> usize {
        self.quantized_len
    }

    /// Number of tokens currently stored densely.
    pub fn recent_len(&self) -> usize {
        self.recent_len
    }

    /// Tokens covered by attached shared blocks.
    pub fn shared_tokens(&self) -> usize {
        self.shared_tokens
    }

    /// Tokens in the private (unsealed) quantized tail.
    pub fn private_quantized_len(&self) -> usize {
        self.quantized_len - self.shared_tokens
    }

    /// The attached shared blocks, oldest first.
    pub fn shared_blocks(&self) -> &[Arc<Block>] {
        &self.shared
    }

    /// Per-head private key codes of the unsealed tail (for persistence).
    pub fn private_key_codes(&self) -> &[PqCodes] {
        &self.key_codes
    }

    /// Per-head private value codes of the unsealed tail (for persistence).
    pub fn private_value_codes(&self) -> &[PqCodes] {
        &self.value_codes
    }

    /// Per-head dense recent keys, `[recent_len, head_dim]` row-major (for
    /// persistence).
    pub fn recent_key_rows(&self) -> &[Vec<f32>] {
        &self.recent_keys
    }

    /// Per-head dense recent values (for persistence).
    pub fn recent_value_rows(&self) -> &[Vec<f32>] {
        &self.recent_values
    }

    /// Appends a sealed block to the shared chain. The block's tokens
    /// logically *precede* the private tail, so this is only valid right
    /// after construction (prefix attach on admission / restore) or right
    /// after the corresponding codes were removed from the front of the
    /// private tail with [`PqKvCache::take_private_front`].
    ///
    /// # Panics
    ///
    /// Panics if the block's geometry or code configuration disagrees with
    /// this cache.
    pub fn attach_shared_block(&mut self, block: Arc<Block>) {
        assert!(
            self.config.layer < block.n_layers(),
            "cache layer {} outside block's {} layers",
            self.config.layer,
            block.n_layers()
        );
        assert_eq!(
            block.n_kv_heads(),
            self.layout.n_kv_heads,
            "shared block head count mismatch"
        );
        let probe = block.key_codes(self.config.layer, 0);
        assert_eq!(
            probe.config(),
            self.config.key_codebook.config(),
            "shared block key code config mismatch"
        );
        assert_eq!(
            block.value_codes(self.config.layer, 0).config(),
            self.config.value_codebook.config(),
            "shared block value code config mismatch"
        );
        self.shared_tokens += block.len();
        self.quantized_len += block.len();
        self.shared.push(block);
    }

    /// Removes and returns the first `n` tokens of the private quantized
    /// tail as per-head `(key, value)` code blocks — the donor half of
    /// sealing: the caller bundles the codes of every layer into a
    /// [`Block`] and re-attaches it via [`PqKvCache::attach_shared_block`].
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` private quantized tokens exist.
    pub fn take_private_front(&mut self, n: usize) -> (Vec<PqCodes>, Vec<PqCodes>) {
        assert!(
            n <= self.private_quantized_len(),
            "cannot take {n} tokens from a private tail of {}",
            self.private_quantized_len()
        );
        let keys = self.key_codes.iter_mut().map(|c| c.take_front(n)).collect();
        let values = self
            .value_codes
            .iter_mut()
            .map(|c| c.take_front(n))
            .collect();
        self.quantized_len -= n;
        (keys, values)
    }

    /// Replaces the first `block.len()` tokens of the private tail with a
    /// shared block holding identical codes (publish-time copy-on-write
    /// convergence: this session's codes are dropped in favour of the
    /// already-resident copy).
    ///
    /// # Panics
    ///
    /// Panics if the private tail is shorter than the block.
    pub fn replace_private_front_with_block(&mut self, block: Arc<Block>) {
        let n = block.len();
        let _ = self.take_private_front(n);
        self.attach_shared_block(block);
    }

    /// Restores the private tail and dense window of a persisted cache.
    /// Must be called on a cache whose private tail and recent window are
    /// empty (shared blocks may already be attached).
    ///
    /// # Panics
    ///
    /// Panics if the cache already holds private/dense tokens or the shapes
    /// disagree with the layout.
    pub fn restore_parts(
        &mut self,
        key_codes: Vec<PqCodes>,
        value_codes: Vec<PqCodes>,
        recent_keys: Vec<Vec<f32>>,
        recent_values: Vec<Vec<f32>>,
    ) {
        assert_eq!(self.private_quantized_len(), 0, "private tail not empty");
        assert_eq!(self.recent_len, 0, "recent window not empty");
        let h = self.layout.n_kv_heads;
        let d = self.layout.head_dim;
        assert!(
            key_codes.len() == h
                && value_codes.len() == h
                && recent_keys.len() == h
                && recent_values.len() == h,
            "restored head count mismatch"
        );
        let private = key_codes[0].len();
        assert!(
            key_codes
                .iter()
                .all(|c| c.len() == private && c.config() == self.config.key_codebook.config())
                && value_codes.iter().all(
                    |c| c.len() == private && c.config() == self.config.value_codebook.config()
                ),
            "restored private tail is ragged or misconfigured"
        );
        let recent = recent_keys[0].len() / d;
        assert!(
            recent_keys
                .iter()
                .chain(recent_values.iter())
                .all(|r| r.len() == recent * d),
            "restored dense window is ragged"
        );
        self.key_codes = key_codes;
        self.value_codes = value_codes;
        self.recent_keys = recent_keys;
        self.recent_values = recent_values;
        self.quantized_len += private;
        self.recent_len = recent;
    }

    /// Encodes a block of `[tokens, n_kv_heads * head_dim]` keys/values into
    /// per-head PQ codes. This is a pure function of the codebooks and is
    /// safe to call from a worker thread (the asynchronous quantization
    /// stream of the paper).
    ///
    /// # Panics
    ///
    /// Panics if the matrices do not match the layout.
    pub fn encode_tokens(
        key_codebook: &PqCodebook,
        value_codebook: &PqCodebook,
        layout: &CacheLayout,
        keys: &Matrix,
        values: &Matrix,
    ) -> EncodedTokens {
        assert_eq!(keys.shape(), values.shape(), "keys/values shape mismatch");
        assert_eq!(keys.cols(), layout.width(), "KV width mismatch");
        let encode = |codebook: &PqCodebook, data: &Matrix| -> Vec<PqCodes> {
            let mut row = vec![0u16; codebook.config().m];
            (0..layout.n_kv_heads)
                .map(|h| {
                    let mut codes = PqCodes::with_capacity(codebook.config(), data.rows());
                    for t in 0..data.rows() {
                        codebook.encode_into(head_slice(data.row(t), layout, h), &mut row);
                        codes.push(&row);
                    }
                    codes
                })
                .collect()
        };
        EncodedTokens {
            key_codes: encode(key_codebook, keys),
            value_codes: encode(value_codebook, values),
        }
    }

    /// Appends a block of already-encoded tokens and drops the corresponding
    /// oldest dense tokens from the recent window.
    ///
    /// This is how the asynchronous quantization stream hands its results
    /// back to the cache: the dense copies stay visible to `attend` until the
    /// codes arrive, so attention never misses a token.
    ///
    /// # Panics
    ///
    /// Panics if the block has more tokens than the recent window currently
    /// holds, or if its head count differs from the layout.
    pub fn absorb_encoded(&mut self, encoded: EncodedTokens) {
        let n = encoded.len();
        if n == 0 {
            return;
        }
        assert_eq!(
            encoded.key_codes.len(),
            self.layout.n_kv_heads,
            "encoded block head count mismatch"
        );
        assert!(
            n <= self.recent_len,
            "cannot absorb {n} encoded tokens with only {} dense tokens pending",
            self.recent_len
        );
        let d = self.layout.head_dim;
        for h in 0..self.layout.n_kv_heads {
            self.key_codes[h].append(&encoded.key_codes[h]);
            self.value_codes[h].append(&encoded.value_codes[h]);
            drain_front(&mut self.recent_keys[h], n * d, d);
            drain_front(&mut self.recent_values[h], n * d, d);
        }
        self.quantized_len += n;
        self.recent_len -= n;
    }

    /// Returns the dense recent keys/values that are *eligible* for encoding
    /// (everything beyond the configured residual window) as
    /// `[tokens, n_kv_heads * head_dim]` matrices, without removing them.
    ///
    /// The asynchronous engine sends these to the quantization worker.
    pub fn encodable_dense(&self) -> Option<(Matrix, Matrix)> {
        if self.recent_len <= self.config.residual_len {
            return None;
        }
        let n = self.recent_len - self.config.residual_len;
        let d = self.layout.head_dim;
        let width = self.layout.width();
        let mut keys = Matrix::zeros(n, width);
        let mut values = Matrix::zeros(n, width);
        for t in 0..n {
            for h in 0..self.layout.n_kv_heads {
                let k_src = &self.recent_keys[h][t * d..(t + 1) * d];
                let v_src = &self.recent_values[h][t * d..(t + 1) * d];
                keys.row_mut(t)[h * d..(h + 1) * d].copy_from_slice(k_src);
                values.row_mut(t)[h * d..(h + 1) * d].copy_from_slice(v_src);
            }
        }
        Some((keys, values))
    }

    /// Fraction of fp16 storage still needed: `memory_bytes / fp16 bytes`.
    pub fn compression_ratio(&self) -> f64 {
        let fp16 = (self.len() * self.layout.fp16_bytes_per_token()).max(1);
        self.memory_bytes() as f64 / fp16 as f64
    }

    /// Encodes every dense token beyond the residual window on the spot,
    /// straight from the head-strided dense rows into the private tail —
    /// what [`KvCache::append`] does when `auto_encode` is set, and what a
    /// caller that holds back encoding (prefill of an asynchronous session,
    /// a flush) calls itself.
    pub fn encode_overflow(&mut self) {
        let n = self.recent_len.saturating_sub(self.config.residual_len);
        if n == 0 {
            return;
        }
        let d = self.layout.head_dim;
        for (codebook, all_codes, all_dense) in [
            (
                &self.config.key_codebook,
                &mut self.key_codes,
                &mut self.recent_keys,
            ),
            (
                &self.config.value_codebook,
                &mut self.value_codes,
                &mut self.recent_values,
            ),
        ] {
            let row = &mut self.code_row[..codebook.config().m];
            for (codes, dense) in all_codes.iter_mut().zip(all_dense.iter_mut()) {
                for vector in dense[..n * d].chunks_exact(d) {
                    codebook.encode_into(vector, row);
                    codes.push(row);
                }
                drain_front(dense, n * d, d);
            }
        }
        self.quantized_len += n;
        self.recent_len -= n;
    }

    /// Attends the dense recent window and the current token into
    /// `scratch.softmax` (which the quantized segment has already been
    /// merged into) and writes the normalised result.
    fn attend_dense_tail(
        &self,
        params: &AttendParams<'_>,
        scratch: &mut AttendScratch,
        out: &mut [f32],
    ) {
        let d = self.layout.head_dim;
        let h = params.head;
        let keys = &self.recent_keys[h];
        let values = &self.recent_values[h];
        for t in 0..self.recent_len {
            let global_pos = self.quantized_len + t;
            let k = &keys[t * d..(t + 1) * d];
            let mut score = dot(params.query, k) * params.scale;
            if let Some(slope) = params.alibi_slope {
                score += alibi_bias(slope, params.query_pos, global_pos);
            }
            scratch.softmax.push(score, &values[t * d..(t + 1) * d]);
        }

        // --- Current token (second term of Eq. 7), always full precision.
        if let Some((cur_key, cur_value)) = params.current {
            scratch
                .softmax
                .push(dot(params.query, cur_key) * params.scale, cur_value);
        }

        scratch.softmax.finish_into(out);
    }

    /// The two-pass reference kernel the fused kernel replaced: score every
    /// quantized token into a materialised buffer, find the maximum, then
    /// make a second pass to exponentiate and accumulate value mass.
    ///
    /// Test-only: the cache-level equivalence reference for
    /// [`KvCache::attend`], whose results agree with it up to the fused
    /// kernel's online-softmax reassociation (≲1e-6).
    ///
    /// # Panics
    ///
    /// Same contract as [`KvCache::attend`].
    #[cfg(test)]
    fn attend_two_pass(
        &self,
        params: &AttendParams<'_>,
        scratch: &mut AttendScratch,
        out: &mut [f32],
    ) {
        let d = self.layout.head_dim;
        assert_eq!(params.query.len(), d, "query length mismatch");
        assert_eq!(out.len(), d, "output length mismatch");
        assert!(params.head < self.layout.n_kv_heads, "head out of range");
        let h = params.head;
        let layer = self.config.layer;

        scratch.softmax.reset(d);

        if self.quantized_len > 0 {
            scratch
                .lut
                .fill_from(&self.config.key_codebook, params.query);
            // Pass 1: materialise every chunk's scores at its absolute
            // position offset, walking the shared chain then the private tail.
            let mut scores = vec![0.0f32; self.quantized_len];
            let mut off = 0;
            for block in &self.shared {
                let chunk = block.key_codes(layer, h);
                scratch
                    .lut
                    .scores_into(chunk, &mut scores[off..off + chunk.len()]);
                off += chunk.len();
            }
            scratch
                .lut
                .scores_into(&self.key_codes[h], &mut scores[off..]);
            let mut max_score = f32::NEG_INFINITY;
            for (t, s) in scores.iter_mut().enumerate() {
                *s *= params.scale;
                if let Some(slope) = params.alibi_slope {
                    *s += alibi_bias(slope, params.query_pos, t);
                }
                max_score = max_score.max(*s);
            }
            // Pass 2: accumulate value mass chunk by chunk.
            let value_config = self.config.value_codebook.config();
            scratch
                .acc
                .ensure_shape(value_config.m, value_config.codebook_size());
            scratch.acc.reset();
            let mut sum_exp = 0.0f32;
            let mut accumulate = |vcodes: &PqCodes, base: usize| {
                for t in 0..vcodes.len() {
                    let w = (scores[base + t] - max_score).exp();
                    sum_exp += w;
                    scratch.acc.add_indexed(w, vcodes, t);
                }
            };
            let mut base = 0;
            for block in &self.shared {
                let vcodes = block.value_codes(layer, h);
                accumulate(vcodes, base);
                base += vcodes.len();
            }
            accumulate(&self.value_codes[h], base);
            let segment = grown(&mut scratch.segment, d);
            scratch
                .acc
                .finish_into(&self.config.value_codebook, segment);
            scratch
                .softmax
                .merge_segment(max_score, sum_exp, &scratch.segment[..d]);
        }

        self.attend_dense_tail(params, scratch, out);
    }
}

impl KvCache for PqKvCache {
    fn layout(&self) -> CacheLayout {
        self.layout
    }

    fn len(&self) -> usize {
        self.quantized_len + self.recent_len
    }

    fn append(&mut self, keys: &Matrix, values: &Matrix) {
        append_head_strided(
            &self.layout,
            keys,
            values,
            self.recent_keys
                .iter_mut()
                .zip(self.recent_values.iter_mut()),
        );
        self.recent_len += keys.rows();
        if self.config.auto_encode && !self.encode_held {
            self.encode_overflow();
        }
    }

    fn attend(&self, params: &AttendParams<'_>, scratch: &mut AttendScratch, out: &mut [f32]) {
        let d = self.layout.head_dim;
        assert_eq!(params.query.len(), d, "query length mismatch");
        assert_eq!(out.len(), d, "output length mismatch");
        assert!(params.head < self.layout.n_kv_heads, "head out of range");
        let h = params.head;

        scratch.softmax.reset(d);

        // --- Quantized history: fused LUT-score + online-softmax +
        // centroid-mass kernel, one pass over the packed codes. The history
        // is a chain of shared blocks plus the private tail; the resumable
        // chunk kernel threads one FusedState through every chunk, so the
        // result is bit-identical to a single pass over monolithic codes.
        if self.quantized_len > 0 {
            scratch
                .lut
                .fill_from(&self.config.key_codebook, params.query);
            let value_config = self.config.value_codebook.config();
            scratch
                .acc
                .ensure_shape(value_config.m, value_config.codebook_size());
            scratch.acc.reset();
            let mut state = FusedState::new();
            let layer = self.config.layer;
            let alibi_for = |base_pos: usize| {
                params.alibi_slope.map(|slope| FusedAlibi {
                    slope,
                    query_pos: params.query_pos,
                    base_pos,
                })
            };
            if params.alibi_slope.is_some() {
                // ALiBi bias grows towards newer tokens; walk chunks newest
                // first (as the kernel walks tokens within a chunk) so the
                // running maximum settles early and mass rescales stay rare.
                scratch.lut.fused_attend_chunk(
                    &self.key_codes[h],
                    &self.value_codes[h],
                    params.scale,
                    alibi_for(self.shared_tokens),
                    &mut scratch.acc,
                    &mut state,
                );
                let mut base = self.shared_tokens;
                for block in self.shared.iter().rev() {
                    base -= block.len();
                    scratch.lut.fused_attend_chunk(
                        block.key_codes(layer, h),
                        block.value_codes(layer, h),
                        params.scale,
                        alibi_for(base),
                        &mut scratch.acc,
                        &mut state,
                    );
                }
            } else {
                for block in &self.shared {
                    scratch.lut.fused_attend_chunk(
                        block.key_codes(layer, h),
                        block.value_codes(layer, h),
                        params.scale,
                        None,
                        &mut scratch.acc,
                        &mut state,
                    );
                }
                scratch.lut.fused_attend_chunk(
                    &self.key_codes[h],
                    &self.value_codes[h],
                    params.scale,
                    None,
                    &mut scratch.acc,
                    &mut state,
                );
            }
            let segment = grown(&mut scratch.segment, d);
            scratch
                .acc
                .finish_into(&self.config.value_codebook, segment);
            scratch
                .softmax
                .merge_segment(state.max_score, state.sum_exp, &scratch.segment[..d]);
        }

        self.attend_dense_tail(params, scratch, out);
    }

    /// With nothing coded, the dense rows themselves. Otherwise the history
    /// read into `buf`: the coded tokens decoded in position order — the
    /// shared chain, then the private tail — as exact centroid copies, then
    /// the dense rows.
    fn dense_history<'a>(
        &'a self,
        head: usize,
        buf: &'a mut Vec<f32>,
    ) -> Option<[StridedRows<'a>; 2]> {
        let d = self.layout.head_dim;
        if self.quantized_len == 0 {
            return Some(head_rows(
                &self.recent_keys[head],
                &self.recent_values[head],
                d,
            ));
        }
        let n = self.len() * d;
        buf.resize(2 * n, 0.0);
        let (keys, values) = buf.split_at_mut(n);
        let layer = self.config.layer;
        read_history(
            &self.config.key_codebook,
            self.shared
                .iter()
                .map(|b| b.key_codes(layer, head))
                .chain([&self.key_codes[head]]),
            &self.recent_keys[head],
            keys,
        );
        read_history(
            &self.config.value_codebook,
            self.shared
                .iter()
                .map(|b| b.value_codes(layer, head))
                .chain([&self.value_codes[head]]),
            &self.recent_values[head],
            values,
        );
        let buf = &*buf;
        Some(head_rows(&buf[..n], &buf[n..], d))
    }

    fn memory_bytes(&self) -> usize {
        // Shared blocks are counted in full (this layer's slice), as if the
        // cache owned them — so the figure is comparable with an unshared
        // cache of the same length. The *resident* cost of sharing is
        // reported by the block store's stats and the session-level
        // shared/owned split.
        let shared: usize = self
            .shared
            .iter()
            .map(|b| b.layer_bytes(self.config.layer))
            .sum();
        let codes: usize = self
            .key_codes
            .iter()
            .chain(self.value_codes.iter())
            .map(|c| c.memory_bytes())
            .sum();
        // Dense residual accounted at fp16 like the baseline.
        let dense = 2 * self.recent_len * self.layout.width() * 2;
        shared + codes + dense
    }

    fn reset(&mut self) {
        self.shared.clear();
        self.shared_tokens = 0;
        self.key_codes = (0..self.layout.n_kv_heads)
            .map(|_| PqCodes::new(self.config.key_codebook.config()))
            .collect();
        self.value_codes = (0..self.layout.n_kv_heads)
            .map(|_| PqCodes::new(self.config.value_codebook.config()))
            .collect();
        for head in self
            .recent_keys
            .iter_mut()
            .chain(self.recent_values.iter_mut())
        {
            head.clear();
        }
        self.quantized_len = 0;
        self.recent_len = 0;
        self.encode_held = false;
    }

    fn kind(&self) -> &'static str {
        "million-pq"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full::FullPrecisionCache;
    use million_quant::pq::{PqConfig, PqTrainOptions};
    use million_tensor::init::{normal_matrix, seeded_rng};

    const HEAD_DIM: usize = 16;
    const HEADS: usize = 2;

    fn layout() -> CacheLayout {
        CacheLayout::new(HEADS, HEAD_DIM)
    }

    fn trained_codebooks(seed: u64) -> (Arc<PqCodebook>, Arc<PqCodebook>) {
        let mut rng = seeded_rng(seed);
        let samples = normal_matrix(&mut rng, 600, HEAD_DIM, 0.0, 1.0);
        let config = PqConfig::new(8, 6).unwrap();
        let key = PqCodebook::train(&config, &samples, &PqTrainOptions::default(), seed).unwrap();
        let samples_v = normal_matrix(&mut rng, 600, HEAD_DIM, 0.0, 1.0);
        let value =
            PqCodebook::train(&config, &samples_v, &PqTrainOptions::default(), seed + 1).unwrap();
        (Arc::new(key), Arc::new(value))
    }

    fn random_kv(seed: u64, tokens: usize) -> (Matrix, Matrix) {
        let mut rng = seeded_rng(seed);
        let width = layout().width();
        (
            normal_matrix(&mut rng, tokens, width, 0.0, 1.0),
            normal_matrix(&mut rng, tokens, width, 0.0, 1.0),
        )
    }

    fn attend_all(cache: &dyn KvCache, query: &[f32], head: usize) -> Vec<f32> {
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
    fn pq_attention_approximates_full_precision() {
        let (kc, vc) = trained_codebooks(0);
        let mut pq = PqKvCache::new(layout(), PqCacheConfig::new(kc, vc, 0));
        let mut full = FullPrecisionCache::new(layout());
        let (k, v) = random_kv(1, 96);
        pq.append(&k, &v);
        full.append(&k, &v);

        let query: Vec<f32> = (0..HEAD_DIM).map(|i| (i as f32 * 0.37).sin()).collect();
        for head in 0..HEADS {
            let exact = attend_all(&full, &query, head);
            let approx = attend_all(&pq, &query, head);
            let err: f32 = exact
                .iter()
                .zip(approx.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f32::max);
            assert!(err < 0.35, "head {head}: max abs error {err} too large");
        }
    }

    #[test]
    fn residual_window_keeps_recent_tokens_dense() {
        let (kc, vc) = trained_codebooks(2);
        let mut pq = PqKvCache::new(layout(), PqCacheConfig::new(kc, vc, 8));
        let (k, v) = random_kv(3, 20);
        pq.append(&k, &v);
        assert_eq!(pq.len(), 20);
        assert_eq!(pq.recent_len(), 8);
        assert_eq!(pq.quantized_len(), 12);
    }

    #[test]
    fn zero_residual_quantizes_everything() {
        let (kc, vc) = trained_codebooks(4);
        let mut pq = PqKvCache::new(layout(), PqCacheConfig::new(kc, vc, 0));
        let (k, v) = random_kv(5, 10);
        pq.append(&k, &v);
        assert_eq!(pq.recent_len(), 0);
        assert_eq!(pq.quantized_len(), 10);
    }

    #[test]
    fn manual_encode_path_matches_auto_path() {
        let (kc, vc) = trained_codebooks(6);
        let mut auto = PqKvCache::new(layout(), PqCacheConfig::new(kc.clone(), vc.clone(), 0));
        let mut manual_cfg = PqCacheConfig::new(kc.clone(), vc.clone(), 0);
        manual_cfg.auto_encode = false;
        let mut manual = PqKvCache::new(layout(), manual_cfg);

        let (k, v) = random_kv(7, 32);
        auto.append(&k, &v);
        manual.append(&k, &v);
        assert_eq!(manual.recent_len(), 32);
        // Simulate the async worker: encode everything, then absorb.
        let (dk, dv) = manual.encodable_dense().expect("tokens pending");
        let encoded = PqKvCache::encode_tokens(&kc, &vc, &layout(), &dk, &dv);
        manual.absorb_encoded(encoded);
        assert_eq!(manual.quantized_len(), 32);

        let query: Vec<f32> = (0..HEAD_DIM).map(|i| 0.1 * i as f32 - 0.5).collect();
        for head in 0..HEADS {
            let a = attend_all(&auto, &query, head);
            let m = attend_all(&manual, &query, head);
            for (x, y) in a.iter().zip(m.iter()) {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn a_held_encode_keeps_the_history_dense_until_released() {
        let (kc, vc) = trained_codebooks(19);
        let mut auto = PqKvCache::new(layout(), PqCacheConfig::new(kc.clone(), vc.clone(), 2));
        let mut held = PqKvCache::new(layout(), PqCacheConfig::new(kc, vc, 2));
        let (k, v) = random_kv(20, 24);
        auto.append(&k, &v);
        held.hold_encode(true);
        held.append(&k.slice_rows(0..10), &v.slice_rows(0..10));
        held.append(&k.slice_rows(10..24), &v.slice_rows(10..24));
        assert_eq!(held.recent_len(), 24);
        let mut buf = Vec::new();
        for head in 0..HEADS {
            let [keys, values] = held.dense_history(head, &mut buf).expect("all dense");
            assert_eq!(keys.rows(), 24);
            assert!(
                std::ptr::eq(keys.row(0), &held.recent_key_rows()[head][..HEAD_DIM]),
                "a dense history is lent, not copied"
            );
            for t in 0..24 {
                assert_eq!(
                    keys.row(t),
                    &k.row(t)[head * HEAD_DIM..(head + 1) * HEAD_DIM]
                );
                assert_eq!(
                    values.row(t),
                    &v.row(t)[head * HEAD_DIM..(head + 1) * HEAD_DIM]
                );
            }
        }
        assert!(buf.is_empty(), "the buffer is untouched");
        held.hold_encode(false);
        held.encode_overflow();
        assert_eq!(held.recent_len(), 2);
        for head in 0..HEADS {
            assert_eq!(
                held.private_key_codes()[head].packed_bytes(),
                auto.private_key_codes()[head].packed_bytes()
            );
            assert_eq!(
                held.private_value_codes()[head].packed_bytes(),
                auto.private_value_codes()[head].packed_bytes()
            );
        }
        assert_eq!(held.recent_key_rows(), auto.recent_key_rows());
    }

    #[test]
    fn an_encoded_prompt_gives_its_dense_capacity_back() {
        let (kc, vc) = trained_codebooks(21);
        let mut cache = PqKvCache::new(layout(), PqCacheConfig::new(kc, vc, 4));
        let (k, v) = random_kv(22, 300);
        cache.reserve_dense(300);
        let reserved = cache.recent_key_rows()[0].capacity();
        assert_eq!(reserved, 300 * HEAD_DIM);
        cache.hold_encode(true);
        cache.append(&k.slice_rows(0..150), &v.slice_rows(0..150));
        cache.append(&k.slice_rows(150..300), &v.slice_rows(150..300));
        assert_eq!(
            cache.recent_key_rows()[0].capacity(),
            reserved,
            "grown in place"
        );
        cache.hold_encode(false);
        cache.encode_overflow();
        for rows in cache
            .recent_key_rows()
            .iter()
            .chain(cache.recent_value_rows())
        {
            assert_eq!(rows.len(), 4 * HEAD_DIM);
            assert!(
                rows.capacity() <= KEEP_DENSE_ROWS * HEAD_DIM,
                "{}",
                rows.capacity()
            );
        }
        // A short window keeps its capacity: one-token appends never
        // reallocate.
        let kept = cache.recent_key_rows()[0].as_ptr();
        for t in 0..40 {
            cache.append(&k.slice_rows(t..t + 1), &v.slice_rows(t..t + 1));
        }
        assert_eq!(cache.recent_key_rows()[0].as_ptr(), kept);
    }

    #[test]
    fn absorb_more_than_pending_panics() {
        let (kc, vc) = trained_codebooks(8);
        let mut cfg = PqCacheConfig::new(kc.clone(), vc.clone(), 0);
        cfg.auto_encode = false;
        let mut cache = PqKvCache::new(layout(), cfg);
        let (k, v) = random_kv(9, 4);
        cache.append(&k, &v);
        let encoded = PqKvCache::encode_tokens(&kc, &vc, &layout(), &k, &v);
        cache.absorb_encoded(encoded.clone());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut c2 = cache;
            c2.absorb_encoded(encoded);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn memory_is_much_smaller_than_fp16() {
        let (kc, vc) = trained_codebooks(10);
        let mut pq = PqKvCache::new(layout(), PqCacheConfig::new(kc, vc, 0));
        let mut full = FullPrecisionCache::new(layout());
        let (k, v) = random_kv(11, 256);
        pq.append(&k, &v);
        full.append(&k, &v);
        // 8 subspaces x 6 bits = 48 bits per 16-dim head vector vs 256 bits fp16:
        // > 5x compression expected.
        assert!(pq.memory_bytes() * 5 < full.memory_bytes());
        assert!(pq.compression_ratio() < 0.25);
        assert_eq!(pq.kind(), "million-pq");
    }

    #[test]
    fn alibi_bias_is_applied_across_segments() {
        let (kc, vc) = trained_codebooks(12);
        let mut pq = PqKvCache::new(layout(), PqCacheConfig::new(kc, vc, 4));
        let (k, v) = random_kv(13, 32);
        pq.append(&k, &v);
        let query: Vec<f32> = vec![0.2; HEAD_DIM];
        let mut scratch = AttendScratch::new();
        let mut with_bias = vec![0.0; HEAD_DIM];
        let mut without_bias = vec![0.0; HEAD_DIM];
        pq.attend(
            &AttendParams::new(0, &query, 0.25, 31).with_alibi(0.5),
            &mut scratch,
            &mut with_bias,
        );
        pq.attend(
            &AttendParams::new(0, &query, 0.25, 31),
            &mut scratch,
            &mut without_bias,
        );
        assert_ne!(with_bias, without_bias);
    }

    #[test]
    fn empty_cache_attend_is_zero() {
        let (kc, vc) = trained_codebooks(14);
        let pq = PqKvCache::new(layout(), PqCacheConfig::new(kc, vc, 0));
        let query = vec![1.0; HEAD_DIM];
        let out = attend_all(&pq, &query, 0);
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn fused_attend_matches_two_pass_kernel() {
        let (kc, vc) = trained_codebooks(17);
        let mut pq = PqKvCache::new(layout(), PqCacheConfig::new(kc, vc, 4));
        let (k, v) = random_kv(18, 48);
        pq.append(&k, &v);
        let query: Vec<f32> = (0..HEAD_DIM).map(|i| (i as f32 * 0.19).sin()).collect();
        let current_k: Vec<f32> = (0..HEAD_DIM).map(|i| 0.05 * i as f32).collect();
        let current_v: Vec<f32> = (0..HEAD_DIM).map(|i| 1.0 - 0.1 * i as f32).collect();
        let mut scratch = AttendScratch::new();
        for head in 0..HEADS {
            let params = AttendParams::new(head, &query, 0.25, 48)
                .with_alibi(0.3)
                .with_current(&current_k, &current_v);
            let mut fused = vec![0.0; HEAD_DIM];
            pq.attend(&params, &mut scratch, &mut fused);
            let mut two_pass = vec![0.0; HEAD_DIM];
            pq.attend_two_pass(&params, &mut scratch, &mut two_pass);
            for (a, b) in fused.iter().zip(two_pass.iter()) {
                assert!(
                    (a - b).abs() < 1e-5,
                    "head {head}: fused {a} vs two-pass {b}"
                );
            }
        }
    }

    /// Seals the first `blocks x block_tokens` private quantized tokens of
    /// `cache` into standalone shared blocks (single-layer), as the session
    /// layer does through the block store.
    fn seal_blocks(cache: &mut PqKvCache, block_tokens: usize, blocks: usize) {
        for _ in 0..blocks {
            let (keys, values) = cache.take_private_front(block_tokens);
            let block = Arc::new(Block::new(1, HEADS, keys, values));
            cache.attach_shared_block(block);
        }
    }

    #[test]
    fn a_coded_history_reads_back_as_its_centroids_then_its_dense_rows() {
        // 64 shared + 9 private + 4 dense tokens, read back against the same
        // tokens held as one private tail, at 6 bits (rows walked) and 8
        // bits (packed bytes read directly).
        let eight_bit = {
            let mut rng = seeded_rng(33);
            let config = PqConfig::new(8, 8).unwrap();
            let mut train = |seed| {
                let samples = normal_matrix(&mut rng, 600, HEAD_DIM, 0.0, 1.0);
                Arc::new(
                    PqCodebook::train(&config, &samples, &PqTrainOptions::default(), seed).unwrap(),
                )
            };
            (train(1), train(2))
        };
        for (kc, vc) in [trained_codebooks(32), eight_bit] {
            let mut private =
                PqKvCache::new(layout(), PqCacheConfig::new(kc.clone(), vc.clone(), 4));
            let mut paged = PqKvCache::new(layout(), PqCacheConfig::new(kc.clone(), vc.clone(), 4));
            let (k, v) = random_kv(34, 77);
            private.append(&k, &v);
            paged.append(&k, &v);
            seal_blocks(&mut paged, 16, 4);
            let mut buf = vec![f32::NAN; 3];
            let mut codes = vec![0u16; kc.config().m];
            for head in 0..HEADS {
                let [keys, values] = paged.dense_history(head, &mut buf).expect("decodable");
                assert_eq!((keys.rows(), values.rows()), (77, 77));
                for t in 0..77 {
                    let band = head * HEAD_DIM..(head + 1) * HEAD_DIM;
                    let (want_k, want_v) = if t < 73 {
                        private.private_key_codes()[head].read_into(t, &mut codes);
                        let key = kc.decode(&codes);
                        private.private_value_codes()[head].read_into(t, &mut codes);
                        (key, vc.decode(&codes))
                    } else {
                        (k.row(t)[band.clone()].to_vec(), v.row(t)[band].to_vec())
                    };
                    assert_eq!(keys.row(t), want_k.as_slice(), "head {head} key {t}");
                    assert_eq!(values.row(t), want_v.as_slice(), "head {head} value {t}");
                }
            }
            assert_eq!(buf.len(), 2 * 77 * HEAD_DIM);
        }
    }

    #[test]
    fn paged_attend_is_bit_identical_to_private_attend() {
        // The same tokens, one cache keeping them as a monolithic private
        // tail, the other reading them through a chain of sealed blocks plus
        // a short private remainder — fused and two-pass kernels, with and
        // without ALiBi, must agree bit for bit.
        let (kc, vc) = trained_codebooks(30);
        let mut private = PqKvCache::new(layout(), PqCacheConfig::new(kc.clone(), vc.clone(), 4));
        let mut paged = PqKvCache::new(layout(), PqCacheConfig::new(kc, vc, 4));
        let (k, v) = random_kv(31, 77);
        private.append(&k, &v);
        paged.append(&k, &v);
        seal_blocks(&mut paged, 16, 4); // 64 shared + 9 private + 4 dense
        assert_eq!(paged.shared_tokens(), 64);
        assert_eq!(paged.private_quantized_len(), 9);
        assert_eq!(paged.len(), private.len());
        assert_eq!(paged.memory_bytes(), private.memory_bytes());

        let query: Vec<f32> = (0..HEAD_DIM).map(|i| (i as f32 * 0.21).sin()).collect();
        let current_k: Vec<f32> = (0..HEAD_DIM).map(|i| 0.04 * i as f32).collect();
        let current_v: Vec<f32> = (0..HEAD_DIM).map(|i| 0.7 - 0.03 * i as f32).collect();
        let mut scratch = AttendScratch::new();
        for head in 0..HEADS {
            for alibi in [None, Some(0.35f32)] {
                let mut params =
                    AttendParams::new(head, &query, 0.25, 77).with_current(&current_k, &current_v);
                if let Some(slope) = alibi {
                    params = params.with_alibi(slope);
                }
                let mut a = vec![0.0; HEAD_DIM];
                let mut b = vec![0.0; HEAD_DIM];
                private.attend(&params, &mut scratch, &mut a);
                paged.attend(&params, &mut scratch, &mut b);
                assert_eq!(
                    a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "fused head {head} alibi {alibi:?}"
                );
                private.attend_two_pass(&params, &mut scratch, &mut a);
                paged.attend_two_pass(&params, &mut scratch, &mut b);
                for (x, y) in a.iter().zip(b.iter()) {
                    assert!(
                        (x - y).abs() < 1e-6,
                        "two-pass head {head} alibi {alibi:?}: {x} vs {y}"
                    );
                }
            }
        }

        // Appending after sealing lands in the private tail and stays
        // equivalent.
        let (k2, v2) = random_kv(32, 15);
        private.append(&k2, &v2);
        paged.append(&k2, &v2);
        let params = AttendParams::new(0, &query, 0.25, 92);
        let mut a = vec![0.0; HEAD_DIM];
        let mut b = vec![0.0; HEAD_DIM];
        private.attend(&params, &mut scratch, &mut a);
        paged.attend(&params, &mut scratch, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn replace_private_front_adopts_identical_shared_codes() {
        let (kc, vc) = trained_codebooks(33);
        let mut donor = PqKvCache::new(layout(), PqCacheConfig::new(kc.clone(), vc.clone(), 0));
        let mut adopter = PqKvCache::new(layout(), PqCacheConfig::new(kc, vc, 0));
        let (k, v) = random_kv(34, 32);
        donor.append(&k, &v);
        adopter.append(&k, &v);
        // Donor seals its first 16 tokens into a block; adopter converges on
        // that block instead of keeping its own copy.
        let (keys, values) = donor.take_private_front(16);
        let block = Arc::new(Block::new(1, HEADS, keys, values));
        donor.attach_shared_block(block.clone());
        adopter.replace_private_front_with_block(block.clone());
        assert_eq!(Arc::strong_count(&block), 3);
        assert_eq!(adopter.shared_tokens(), 16);

        let query: Vec<f32> = (0..HEAD_DIM).map(|i| (i as f32 * 0.4).cos()).collect();
        let a = attend_all(&donor, &query, 1);
        let b = attend_all(&adopter, &query, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn restore_parts_reconstructs_an_equivalent_cache() {
        let (kc, vc) = trained_codebooks(35);
        let mut original = PqKvCache::new(layout(), PqCacheConfig::new(kc.clone(), vc.clone(), 6));
        let (k, v) = random_kv(36, 40);
        original.append(&k, &v);
        seal_blocks(&mut original, 10, 2);

        let mut restored = PqKvCache::new(layout(), PqCacheConfig::new(kc, vc, 6));
        for block in original.shared_blocks() {
            restored.attach_shared_block(block.clone());
        }
        restored.restore_parts(
            original.private_key_codes().to_vec(),
            original.private_value_codes().to_vec(),
            original.recent_key_rows().to_vec(),
            original.recent_value_rows().to_vec(),
        );
        assert_eq!(restored.len(), original.len());
        assert_eq!(restored.recent_len(), original.recent_len());
        assert_eq!(restored.memory_bytes(), original.memory_bytes());
        let query: Vec<f32> = (0..HEAD_DIM).map(|i| 0.15 * i as f32 - 1.0).collect();
        for head in 0..HEADS {
            assert_eq!(
                attend_all(&original, &query, head),
                attend_all(&restored, &query, head)
            );
        }
    }

    #[test]
    fn incremental_decode_appends_match_bulk_append() {
        let (kc, vc) = trained_codebooks(15);
        let mut bulk = PqKvCache::new(layout(), PqCacheConfig::new(kc.clone(), vc.clone(), 0));
        let mut step = PqKvCache::new(layout(), PqCacheConfig::new(kc, vc, 0));
        let (k, v) = random_kv(16, 24);
        bulk.append(&k, &v);
        for t in 0..24 {
            step.append(&k.slice_rows(t..t + 1), &v.slice_rows(t..t + 1));
        }
        let query: Vec<f32> = (0..HEAD_DIM).map(|i| (i as f32).cos()).collect();
        let a = attend_all(&bulk, &query, 1);
        let b = attend_all(&step, &query, 1);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }
}
