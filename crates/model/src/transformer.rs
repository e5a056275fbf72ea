//! Decoder-only transformer with pluggable KV-cache backends.
//!
//! The forward pass mirrors the structure in Fig. 1 of the paper, and there
//! is **one** of it: [`Transformer`]'s chunk forward is the only code that
//! walks the layer stack. `tokens` enter at the caches' current length and
//! run layer-major — per layer, norm → one `[chunk, d] x W` product per
//! projection → RoPE at the chunk's positions → attention → output product →
//! feed-forward products — with every buffer borrowed from a
//! [`ForwardScratch`]. A decoded token is a chunk of one: below sixteen rows
//! the product is the row kernel, which at one row is
//! [`million_tensor::ops::vec_matmul_into`] line for line.
//!
//! Only attention differs — **two arms**, named by the caller
//! ([`ChunkArm`]), never inferred from what the caches hold:
//!
//! * **prompt** — every chunk of tokens fed behind nothing or behind a
//!   history: causal self-attention through the flash-style tiled kernel
//!   ([`prefill_attention_tiled`]: per (head, query-tile) work unit it walks
//!   key/value tiles with an online softmax, fusing scale, ALiBi and the
//!   causal mask into the tile loop, so no `n x n` score matrix is ever
//!   materialised). On empty caches the chunk attends to its own KV and the
//!   (possibly lossy) backends see it in one bulk append *afterwards*, step
//!   ③/④ of Fig. 4. Behind a history — earlier chunks of the same prompt, a
//!   prefix attached from the store, earlier turns — the chunk appends
//!   first and reads the whole history back, one KV head at a time
//!   ([`million_kvcache::KvCache::dense_history`]): dense rows as they are
//!   (zero-copy), PQ codes decoded to their centroids into a reused buffer.
//!   A row's result depends on its position and the history only, so any
//!   chunking of the tokens is one prefill bit for bit, and behind codes it
//!   equals the prompt arm over a full-precision cache holding the decoded
//!   rows. The LUT walk pays off when one query scans many codes; a chunk's
//!   queries share the decode instead;
//! * **cached** — the single-token decode step and the teacher-forced
//!   oracle [`Transformer::extend_into`], token by token in order: every
//!   query head attends over the cached history through the backend
//!   ([`million_kvcache::KvCache::attend`], the LUT walk over PQ codes)
//!   merged with the token's own full-precision pair (Eq. 7), then the pair
//!   is appended. Every backend sees the same call sequence whatever the
//!   chunk boundaries, so a chunk is bit-identical to feeding its tokens one
//!   at a time.
//!
//! The entry points differ in the arm they take and in the **three shapes**
//! the final hidden states leave in: logits of every position
//! ([`Transformer::prefill`] and its variants on the prompt arm,
//! [`Transformer::extend_into`] on the cached arm), the last position's
//! logits into a caller's buffer ([`Transformer::prefill_chunk`], either
//! arm — what an admission needs), and the one fed position's logits
//! borrowed from the scratch ([`Transformer::decode_step_into`], cached arm
//! — the decode loop, which performs no steady-state allocations).
//!
//! Every entry point runs on the calling thread — GEMM row blocks, prompt
//! attention units and decode heads in order. A server's parallelism is
//! one shard per core (`docs/SERVING.md`).

use million_kvcache::{AttendParams, AttendScratch, CacheLayout, KvCache};
use million_tensor::alibi::alibi_slopes;
use million_tensor::ops::{
    gelu_in_place, layer_norm, rms_norm, silu_in_place, vec_matmul_transposed_into,
};
use million_tensor::prompt_attention::{attend_unit, UnitScratch, KEY_TILE};
use million_tensor::{GemmScratch, Matrix, Rope, StridedRows};

use crate::config::{ModelConfig, NormKind, Positional};
use crate::hooks::KvCapture;
use crate::weights::ModelWeights;

/// Query rows covered by one prefill work unit (one head x one query tile).
pub const PREFILL_Q_TILE: usize = 32;

/// Key rows walked per inner step of the tiled prefill kernel
/// ([`million_tensor::prompt_attention`]).
pub const PREFILL_K_TILE: usize = KEY_TILE;

/// Working memory of the tiled prefill kernel: the one [`UnitScratch`]
/// every (head, query-tile) unit runs on, the `PREFILL_Q_TILE x head_dim`
/// tile a unit writes before it is copied into the packed output, and the
/// one KV head's history a chunk behind coded tokens reads back into
/// ([`KvCache::dense_history`]), reused across heads and layers.
#[derive(Debug, Default)]
struct TileScratch {
    unit: UnitScratch,
    tile: Vec<f32>,
    history: Vec<f32>,
}

/// The chunk forward's own buffers: the residual stream, the per-layer
/// activations of the whole chunk, the GEMM pack buffer, and the one-row
/// append staging of chunks that attend through the caches.
#[derive(Debug, Default)]
struct ChunkScratch {
    gemm: GemmScratch,
    /// Residual stream `[chunk, d_model]`; the final-normed hidden states
    /// once the forward returns.
    x: Matrix,
    /// Normed copy of the residual stream (attention and FFN norm input).
    h: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Attention output, heads packed (`[chunk, d_model]`).
    attn: Matrix,
    /// Output of the attention/FFN down projections (`[chunk, d_model]`).
    proj: Matrix,
    /// FFN inner activation (`[chunk, d_ff]`).
    inner: Matrix,
    /// 1-row matrices handed to [`KvCache::append`] per token.
    k_row: Matrix,
    v_row: Matrix,
}

/// Working memory of the forward, whichever entry point drives it: the
/// chunk's activation buffers and GEMM pack buffer, the tiled prompt
/// kernel's unit state and output tile, the [`AttendScratch`] tokens that
/// attend through the caches share across heads, and the logits row of
/// [`Transformer::decode_step_into`].
///
/// Every part grows lazily to the largest geometry it has seen and is then
/// reused across layers and calls, so a second forward of a shape already
/// seen performs **zero** heap allocations
/// (`crates/model/tests/zero_alloc_step.rs` proves it with a counting
/// allocator) — and a decode loop's copy stays one row tall and never
/// touches the tile state or the pack buffer. It carries no results between
/// calls. Whoever drives a loop owns one: an inference session keeps one
/// alive for its decode steps, an admission builds one per chunk.
#[derive(Debug, Default)]
pub struct ForwardScratch {
    tiles: TileScratch,
    chunk: ChunkScratch,
    attend: AttendScratch,
    logits: Vec<f32>,
}

/// The [`ForwardScratch`] a decode loop holds.
pub type StepScratch = ForwardScratch;

/// The [`ForwardScratch`] a prompt admission holds.
pub type PrefillScratch = ForwardScratch;

impl ForwardScratch {
    /// Creates an empty scratch; every buffer grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Logits written by the most recent [`Transformer::decode_step_into`].
    pub fn logits(&self) -> &[f32] {
        &self.logits
    }
}

/// The attention arm of a chunk fed through [`Transformer::prefill_chunk`].
/// The caller names it: the model never infers it from what the caches hold
/// (the same single token is a decode step through one arm and the last
/// chunk of a prompt through the other).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkArm {
    /// A chunk of known tokens, on empty caches or behind any history the
    /// caches can read back ([`KvCache::dense_history`]: full-precision
    /// rows, or PQ codes decoded to their centroids). Every query row
    /// attends at its position over the history and the chunk's keys so far
    /// through the tiled kernel: the chunk's own on empty caches, otherwise
    /// the chunk's KV is appended first and every key is read back. Any
    /// chunking of a prompt is therefore [`Transformer::prefill`] bit for
    /// bit, and behind codes any chunking of the tokens is one prefill of
    /// them over the decoded history.
    Prompt,
    /// Behind any cache state, token by token: every query head attends over
    /// the cached — possibly quantized — history through the backend merged
    /// with the token's own pair, then the pair is appended. The decode
    /// step's arm.
    Cached,
}

/// How a chunk forward attends (everything else is shared).
enum ChunkAttention<'a> {
    /// Causal self-attention through the tiled kernel on the lent tile
    /// state ([`ChunkArm::Prompt`]): on empty caches over the chunk's own
    /// `(k, v)`, then one bulk append; behind a history, one bulk append,
    /// then over the history each cache reads back.
    Prompt(&'a mut TileScratch),
    /// Any cache state: per token, in order, every head attends over the
    /// cached history merged with the token's own pair (through the lent
    /// attention scratch), then a one-row append.
    Cached(&'a mut AttendScratch),
}

/// Flash-style tiled causal self-attention over packed activations.
///
/// `q` is `[n, n_heads * head_dim]`, `k`/`v` are `[n, n_kv_heads *
/// head_dim]` (GQA maps `group = n_heads / n_kv_heads` query heads onto each
/// KV head). The result `softmax(mask(q·kᵀ·scale + alibi)) · v` is written
/// into `attn` (resized to `[n, n_heads * head_dim]`).
///
/// Per (head, query-tile) work unit the blocked kernel
/// [`million_tensor::prompt_attention::attend_unit`] walks key/value tiles
/// with a running online softmax: scale and the ALiBi bias are applied as
/// each tile of scores is produced, and the causal mask is fused into the
/// loop bounds (future keys are never scored at all). Heads read the packed
/// activations through [`StridedRows`] views — no `n x n` score matrix, no
/// mask pass and no per-head copy exists. Units run in order on the calling
/// thread, each into one reused output tile that is then copied into
/// `attn`, so a warm [`PrefillScratch`] makes the call allocation-free.
///
/// Results are bit-identical across repeated runs and scratch reuse (a
/// row's arithmetic depends only on its position), and match a naive
/// per-head softmax up to the floating-point reassociation of the online
/// softmax (pinned in `crates/model/tests/prefill_equivalence.rs`).
///
/// # Panics
///
/// Panics if the shapes disagree, `n == 0`, or `alibi` (when present) does
/// not hold one slope per query head.
#[allow(clippy::too_many_arguments)]
pub fn prefill_attention_tiled(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    n_heads: usize,
    n_kv_heads: usize,
    scale: f32,
    alibi: Option<&[f32]>,
    scratch: &mut PrefillScratch,
    attn: &mut Matrix,
) {
    let n = q.rows();
    assert!(n_heads > 0, "query heads must be a multiple of KV heads");
    let hd = q.cols() / n_heads;
    assert_eq!(k.rows(), n, "key rows mismatch");
    assert_eq!(v.rows(), n, "value rows mismatch");
    assert_eq!(k.cols(), n_kv_heads * hd, "key width mismatch");
    assert_eq!(v.cols(), n_kv_heads * hd, "value width mismatch");
    tiled_attention(
        q,
        History::Chunk(k, v),
        0,
        n_heads,
        n_kv_heads,
        scale,
        alibi,
        &mut scratch.tiles,
        attn,
    );
}

/// Where a prompt chunk's keys and values come from.
#[derive(Clone, Copy)]
enum History<'a> {
    /// The chunk's own packed `[n, n_kv_heads * head_dim]` keys and values:
    /// a chunk on empty caches.
    Chunk(&'a Matrix, &'a Matrix),
    /// Everything one layer's cache holds, the chunk's own rows last, read
    /// back one KV head at a time through [`KvCache::dense_history`].
    Cache(&'a dyn KvCache),
}

/// [`prefill_attention_tiled`] on the tile part of a [`ForwardScratch`], so
/// the chunk forward can lend its activation buffers alongside — for a
/// chunk at any position. `q` holds the query rows of positions `start..start
/// + q.rows()`; `history` gives every KV head's keys and values of positions
/// `0..start + q.rows()`: the chunk's own rows at `start == 0`, the cache's
/// history otherwise, read back one KV head at a time into the scratch and
/// attended by that head's group of query heads. Query tiles are counted
/// from the chunk's first row; which rows share a unit never changes a
/// row's bits (see [`attend_unit`]).
///
/// # Panics
///
/// Panics if a cache cannot read its history back.
#[allow(clippy::too_many_arguments)]
fn tiled_attention(
    q: &Matrix,
    history: History<'_>,
    start: usize,
    n_heads: usize,
    n_kv_heads: usize,
    scale: f32,
    alibi: Option<&[f32]>,
    scratch: &mut TileScratch,
    attn: &mut Matrix,
) {
    let n = q.rows();
    assert!(n > 0, "tiled prefill attention requires at least one token");
    assert!(
        n_heads > 0 && n_kv_heads > 0 && n_heads.is_multiple_of(n_kv_heads),
        "query heads must be a multiple of KV heads"
    );
    assert!(
        q.cols().is_multiple_of(n_heads),
        "query width must be a multiple of n_heads"
    );
    let hd = q.cols() / n_heads;
    if let Some(slopes) = alibi {
        assert_eq!(slopes.len(), n_heads, "one ALiBi slope per head required");
    }
    let group = n_heads / n_kv_heads;

    attn.resize_zeroed(n, n_heads * hd);
    let TileScratch {
        unit,
        tile,
        history: buf,
    } = scratch;
    tile.resize(PREFILL_Q_TILE * hd, 0.0);
    for kvh in 0..n_kv_heads {
        let [k, v] = match history {
            History::Chunk(k, v) => [
                StridedRows::from_matrix(k, kvh * hd, hd),
                StridedRows::from_matrix(v, kvh * hd, hd),
            ],
            History::Cache(cache) => cache.dense_history(kvh, buf).unwrap_or_else(|| {
                panic!(
                    "a prompt chunk at position {start} needs caches that read their \
                     history back; a {} cache does not",
                    cache.kind()
                )
            }),
        };
        for qh in kvh * group..(kvh + 1) * group {
            let queries = StridedRows::from_matrix(q, qh * hd, hd).starting_at(start);
            for q0 in (0..n).step_by(PREFILL_Q_TILE) {
                let q1 = (q0 + PREFILL_Q_TILE).min(n);
                let out = &mut tile[..(q1 - q0) * hd];
                attend_unit(
                    queries,
                    k,
                    v,
                    start + q0..start + q1,
                    scale,
                    alibi.map(|s| s[qh]),
                    unit,
                    out,
                );
                for (t, row) in (q0..q1).zip(out.chunks_exact(hd)) {
                    attn.row_mut(t)[qh * hd..(qh + 1) * hd].copy_from_slice(row);
                }
            }
        }
    }
}

/// A decoder-only transformer instantiated from a [`ModelConfig`] and
/// deterministic synthetic weights.
///
/// # Example
///
/// ```
/// use million_model::{build_caches, CacheSpec, ModelConfig, Transformer};
///
/// let config = ModelConfig::tiny_for_tests();
/// let model = Transformer::new(config.clone(), 0);
/// let mut caches = build_caches(&config, &CacheSpec::Full);
/// let logits = model.prefill(&[1, 2, 3], &mut caches, None);
/// assert_eq!(logits.shape(), (3, config.vocab_size));
/// let next = model.decode_step(4, &mut caches);
/// assert_eq!(next.len(), config.vocab_size);
/// ```
#[derive(Debug, Clone)]
pub struct Transformer {
    config: ModelConfig,
    weights: ModelWeights,
    rope: Option<Rope>,
    alibi: Option<Vec<f32>>,
}

impl Transformer {
    /// Builds a model with seeded synthetic weights.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: ModelConfig, seed: u64) -> Self {
        let weights = ModelWeights::initialize(&config, seed);
        Self::from_weights(config, weights)
    }

    /// Builds a model from externally constructed weights.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn from_weights(config: ModelConfig, weights: ModelWeights) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid model config: {e}"));
        let rope = match config.positional {
            Positional::Rope {
                theta,
                position_scale,
            } => Some(Rope::new(config.head_dim(), theta, position_scale)),
            _ => None,
        };
        let alibi = match config.positional {
            Positional::Alibi => Some(alibi_slopes(config.n_heads)),
            _ => None,
        };
        Self {
            config,
            weights,
            rope,
            alibi,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The model's weights.
    pub fn weights(&self) -> &ModelWeights {
        &self.weights
    }

    /// The per-layer cache geometry this model expects.
    pub fn cache_layout(&self) -> CacheLayout {
        CacheLayout::new(self.config.n_kv_heads, self.config.head_dim())
    }

    fn norm_in_place(&self, x: &mut [f32], weight: &[f32], bias: &[f32]) {
        match self.config.norm {
            NormKind::RmsNorm => rms_norm(x, weight, 1e-6),
            NormKind::LayerNorm => layer_norm(x, weight, bias, 1e-6),
        }
    }

    fn activate_in_place(&self, x: &mut [f32]) {
        match self.config.norm {
            // Llama-family models pair RMSNorm with SiLU, GPT/MPT-family pair
            // LayerNorm with GELU; we follow the same convention.
            NormKind::RmsNorm => silu_in_place(x),
            NormKind::LayerNorm => gelu_in_place(x),
        }
    }

    /// Embeds a token sequence starting at absolute position `start_pos` into
    /// a caller-owned buffer (resized in place; allocation-free once grown).
    ///
    /// The vocabulary bound is validated once up front, each embedding row is
    /// a single `memcpy`, and learned position embeddings are added per row.
    ///
    /// # Panics
    ///
    /// Panics if any token id is outside the vocabulary.
    pub fn embed_into(&self, tokens: &[u32], start_pos: usize, out: &mut Matrix) {
        if let Some(&t) = tokens
            .iter()
            .find(|&&t| (t as usize) >= self.config.vocab_size)
        {
            panic!("token id {t} outside vocabulary");
        }
        out.resize_zeroed(tokens.len(), self.config.d_model);
        for (i, &t) in tokens.iter().enumerate() {
            out.row_mut(i)
                .copy_from_slice(self.weights.embedding.row(t as usize));
        }
        if let Some(pe) = &self.weights.position_embedding {
            for i in 0..tokens.len() {
                let pos = (start_pos + i).min(pe.rows() - 1);
                let pe_row = pe.row(pos);
                for (a, b) in out.row_mut(i).iter_mut().zip(pe_row.iter()) {
                    *a += b;
                }
            }
        }
    }

    /// Embeds a token sequence into a fresh matrix (see [`Self::embed_into`]).
    #[cfg(test)]
    fn embed(&self, tokens: &[u32], start_pos: usize) -> Matrix {
        let mut out = Matrix::default();
        self.embed_into(tokens, start_pos, &mut out);
        out
    }

    fn apply_rope_block(&self, data: &mut Matrix, heads: usize, start_pos: usize) {
        if let Some(rope) = &self.rope {
            let hd = self.config.head_dim();
            for t in 0..data.rows() {
                let row = data.row_mut(t);
                for h in 0..heads {
                    rope.apply(&mut row[h * hd..(h + 1) * hd], start_pos + t);
                }
            }
        }
    }

    /// Processes a whole prompt, filling the caches and returning the logits
    /// of every position (`[tokens, vocab]`).
    ///
    /// Attention during prefill is computed from the full-precision keys and
    /// values via the tiled kernel ([`prefill_attention_tiled`]); the
    /// (possibly lossy) cache backends only see the KV *after* the attention
    /// output has been produced, exactly as in the paper.
    ///
    /// Convenience wrapper that builds a fresh [`PrefillScratch`] per call;
    /// admission loops serving many prompts should hold one and use
    /// [`Self::prefill_with_scratch`] — or [`Self::prefill_chunk`], which
    /// also skips the logits of every position but the last.
    ///
    /// # Panics
    ///
    /// Panics if `caches.len() != n_layers`, if any cache is non-empty, or if
    /// the prompt is empty or exceeds `max_seq_len`.
    pub fn prefill<C: KvCache>(
        &self,
        tokens: &[u32],
        caches: &mut [C],
        capture: Option<&mut KvCapture>,
    ) -> Matrix {
        self.prefill_with_scratch(tokens, caches, capture, &mut PrefillScratch::new())
    }

    /// [`Self::prefill`] with caller-owned scratch: the chunk forward
    /// borrows every activation, pack and tile buffer from `scratch`, so
    /// only the returned logits are allocated once the scratch is warm.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::prefill`].
    pub fn prefill_with_scratch<C: KvCache>(
        &self,
        tokens: &[u32],
        caches: &mut [C],
        capture: Option<&mut KvCapture>,
        scratch: &mut PrefillScratch,
    ) -> Matrix {
        assert!(
            caches.iter().all(|c| c.is_empty()),
            "prefill requires empty caches"
        );
        self.assert_within_window(tokens.len(), caches);
        self.prompt_hidden(tokens, caches, capture, scratch)
            .matmul_transposed(&self.weights.embedding)
    }

    /// Feeds one chunk of known tokens at the caches' current length through
    /// the arm the caller names and writes the logits of its **last**
    /// position into `logits` (resized in place) — what an admission needs,
    /// without the `[chunk, vocab]` logits of [`Self::prefill`] /
    /// [`Self::extend_into`].
    ///
    /// [`ChunkArm::Prompt`] is [`Self::prefill`]'s arm at any position: the
    /// chunks of a prompt fed in any sizes leave the caches and the last
    /// logits exactly as one prefill of the whole prompt does — every GEMM
    /// row equals the GEMV, and [`attend_unit`]'s work for a row depends on
    /// that row's position and the keys it reads only. The history behind a
    /// chunk is read back through [`KvCache::dense_history`]: a PQ cache
    /// lends its dense rows while nothing is coded, and otherwise decodes
    /// its codes to their centroids, so behind codes the chunk equals the
    /// prompt arm over a full-precision cache holding the decoded rows. A PQ
    /// cache must hold its encode until the tokens' last chunk for their
    /// chunks to be one prefill. [`ChunkArm::Cached`] is
    /// [`Self::extend_into`]'s arm. A *single* token fed to empty caches
    /// attends to nothing but itself either way, and the two arms agree bit
    /// for bit there (all pinned in
    /// `crates/model/tests/extend_equivalence.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty, if `caches.len() != n_layers`, if the
    /// extended sequence would exceed `max_seq_len`, or if the prompt arm
    /// finds a cache behind it that cannot read its history back (the KIVI
    /// and KVQuant baselines).
    pub fn prefill_chunk<C: KvCache>(
        &self,
        tokens: &[u32],
        caches: &mut [C],
        arm: ChunkArm,
        scratch: &mut PrefillScratch,
        logits: &mut Vec<f32>,
    ) {
        self.assert_within_window(tokens.len(), caches);
        let hidden = match arm {
            ChunkArm::Prompt => self.prompt_hidden(tokens, caches, None, scratch),
            ChunkArm::Cached => self.cached_hidden(tokens, caches, scratch),
        };
        self.logits_into(hidden.row(tokens.len() - 1), logits);
    }

    /// The context-window contract of the multi-token entry points. The
    /// one-token step deliberately has none: positions past the window
    /// clamp (learned embeddings) or extrapolate (RoPE, ALiBi), which the
    /// long-context probes rely on.
    fn assert_within_window<C: KvCache>(&self, n: usize, caches: &[C]) {
        let cached = caches.first().map_or(0, |c| c.len());
        assert!(
            cached + n <= self.config.max_seq_len,
            "sequence longer than max_seq_len"
        );
    }

    /// Logits of one final-normed hidden row over the tied embedding.
    fn logits_into(&self, hidden: &[f32], logits: &mut Vec<f32>) {
        logits.resize(self.config.vocab_size, 0.0);
        vec_matmul_transposed_into(hidden, &self.weights.embedding, logits);
    }

    /// The chunk forward through the tiled prompt attention, on empty caches
    /// or behind a history the caches read back. Returns the final-normed
    /// hidden states, borrowed from the scratch.
    fn prompt_hidden<'s, C: KvCache>(
        &self,
        tokens: &[u32],
        caches: &mut [C],
        capture: Option<&mut KvCapture>,
        scratch: &'s mut PrefillScratch,
    ) -> &'s Matrix {
        let ForwardScratch { tiles, chunk, .. } = scratch;
        self.forward_chunk(
            tokens,
            caches,
            capture,
            chunk,
            ChunkAttention::Prompt(tiles),
        );
        &chunk.x
    }

    /// The chunk forward through the cached arm, whatever the caches hold.
    /// Returns the final-normed hidden states, borrowed from the scratch.
    fn cached_hidden<'s, C: KvCache>(
        &self,
        tokens: &[u32],
        caches: &mut [C],
        scratch: &'s mut ForwardScratch,
    ) -> &'s Matrix {
        let ForwardScratch { chunk, attend, .. } = scratch;
        self.forward_chunk(tokens, caches, None, chunk, ChunkAttention::Cached(attend));
        &chunk.x
    }

    fn attention_scale(&self) -> f32 {
        1.0 / (self.config.head_dim() as f32).sqrt()
    }

    /// The one forward: `tokens` enter at the caches' current length and run
    /// layer-major — per layer, norm, one `[chunk, d] x W` GEMM per
    /// projection, RoPE at the chunk's positions, attention (see
    /// [`ChunkAttention`]), output GEMM, feed-forward GEMMs — through
    /// buffers borrowed from `scratch`, which ends holding the final-normed
    /// hidden states in `scratch.x`.
    ///
    /// Every GEMM row equals [`million_tensor::ops::vec_matmul_into`] on
    /// that row bit for bit, and the [`ChunkAttention::Cached`] arm makes,
    /// per cache and per token, the same attend/append calls in the same
    /// order whatever the chunk boundaries — so a chunk through that arm is
    /// bit-identical to its tokens fed one at a time, for every cache
    /// backend (pinned against a public-API oracle in
    /// `crates/model/tests/extend_equivalence.rs`); the
    /// [`ChunkAttention::Prompt`] arm gives each row what one prefill of the
    /// tokens over the same history gives it, whatever the chunk boundaries
    /// (pinned there too). It does not check the context window; the
    /// multi-token entry points do.
    fn forward_chunk<C: KvCache>(
        &self,
        tokens: &[u32],
        caches: &mut [C],
        mut capture: Option<&mut KvCapture>,
        scratch: &mut ChunkScratch,
        mut attention: ChunkAttention<'_>,
    ) {
        assert_eq!(
            caches.len(),
            self.config.n_layers,
            "one cache per layer required"
        );
        assert!(!tokens.is_empty(), "a chunk requires at least one token");
        let start_pos = caches[0].len();
        if matches!(attention, ChunkAttention::Prompt(_)) && start_pos > 0 {
            assert!(
                caches.iter().all(|c| c.len() == start_pos),
                "a prompt chunk at position {start_pos} needs every cache at that length"
            );
        }
        let n = tokens.len();
        let n_heads = self.config.n_heads;
        let n_kv_heads = self.config.n_kv_heads;
        let kv_width = self.config.kv_width();

        let ChunkScratch {
            gemm,
            x,
            h,
            q,
            k,
            v,
            attn,
            proj,
            inner,
            k_row,
            v_row,
        } = scratch;
        self.embed_into(tokens, start_pos, x);

        for (l, layer) in self.weights.layers.iter().enumerate() {
            // --- Attention block.
            h.copy_from(x);
            for r in 0..n {
                self.norm_in_place(h.row_mut(r), &layer.attn_norm_weight, &layer.attn_norm_bias);
            }
            h.matmul_into(&layer.wq, gemm, q);
            h.matmul_into(&layer.wk, gemm, k);
            h.matmul_into(&layer.wv, gemm, v);
            self.apply_rope_block(q, n_heads, start_pos);
            self.apply_rope_block(k, n_kv_heads, start_pos);

            if let Some(cap) = capture.as_deref_mut() {
                cap.record(l, k, v);
            }

            match &mut attention {
                ChunkAttention::Prompt(tiles) if start_pos == 0 => {
                    tiled_attention(
                        q,
                        History::Chunk(k, v),
                        0,
                        n_heads,
                        n_kv_heads,
                        self.attention_scale(),
                        self.alibi.as_deref(),
                        tiles,
                        attn,
                    );
                    // Hand the full-precision KV to the (possibly lossy)
                    // cache only after the attention output is produced.
                    caches[l].append(k, v);
                }
                ChunkAttention::Prompt(tiles) => {
                    // The chunk's KV joins the history in the cache, and
                    // every row reads the whole history back.
                    caches[l].append(k, v);
                    tiled_attention(
                        q,
                        History::Cache(&caches[l]),
                        start_pos,
                        n_heads,
                        n_kv_heads,
                        self.attention_scale(),
                        self.alibi.as_deref(),
                        tiles,
                        attn,
                    );
                }
                ChunkAttention::Cached(attend) => {
                    attn.resize_zeroed(n, q.cols());
                    k_row.resize_zeroed(1, kv_width);
                    v_row.resize_zeroed(1, kv_width);
                    for t in 0..n {
                        self.attend_token(
                            &caches[l],
                            q.row(t),
                            k.row(t),
                            v.row(t),
                            start_pos + t,
                            attend,
                            attn.row_mut(t),
                        );
                        k_row.as_mut_slice().copy_from_slice(k.row(t));
                        v_row.as_mut_slice().copy_from_slice(v.row(t));
                        caches[l].append(k_row, v_row);
                    }
                }
            }
            attn.matmul_into(&layer.wo, gemm, proj);
            x.add_assign(proj);

            // --- Feed-forward block.
            h.copy_from(x);
            for r in 0..n {
                self.norm_in_place(h.row_mut(r), &layer.ffn_norm_weight, &layer.ffn_norm_bias);
            }
            h.matmul_into(&layer.w_in, gemm, inner);
            for r in 0..n {
                self.activate_in_place(inner.row_mut(r));
            }
            inner.matmul_into(&layer.w_out, gemm, proj);
            x.add_assign(proj);
        }

        for r in 0..n {
            self.norm_in_place(
                x.row_mut(r),
                &self.weights.final_norm_weight,
                &self.weights.final_norm_bias,
            );
        }
    }

    /// One token's attention over one layer's cache: every query head
    /// attends over the cached history merged with the token's own
    /// full-precision `(k, v)` pair (Eq. 7), writing its slice of `out`.
    ///
    /// Heads run in order on one [`AttendScratch`]: a scratch carries no
    /// results between calls, so sharing it changes no bits.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn attend_token<C: KvCache>(
        &self,
        cache: &C,
        q: &[f32],
        k: &[f32],
        v: &[f32],
        pos: usize,
        attend: &mut AttendScratch,
        out: &mut [f32],
    ) {
        let hd = self.config.head_dim();
        let group = self.config.group_size();
        let scale = self.attention_scale();
        let alibi = self.alibi.as_deref();
        for (qh, out) in out.chunks_exact_mut(hd).enumerate() {
            let kvh = qh / group;
            let mut params = AttendParams::new(kvh, &q[qh * hd..(qh + 1) * hd], scale, pos)
                .with_current(&k[kvh * hd..(kvh + 1) * hd], &v[kvh * hd..(kvh + 1) * hd]);
            if let Some(slopes) = alibi {
                params = params.with_alibi(slopes[qh]);
            }
            cache.attend(&params, attend, out);
        }
    }

    /// Generates the logits for one new token, reading history through the
    /// caches and appending the new token's KV to them.
    ///
    /// Convenience wrapper that builds a fresh [`StepScratch`] per call;
    /// decode loops should hold one and use [`Self::decode_step_into`] so
    /// every step buffer is reused.
    ///
    /// # Panics
    ///
    /// Panics if `caches.len() != n_layers` or the token id is out of range.
    pub fn decode_step<C: KvCache>(&self, token: u32, caches: &mut [C]) -> Vec<f32> {
        self.decode_step_into(token, caches, &mut StepScratch::new())
            .to_vec()
    }

    /// The decode step: the chunk forward over the one token through the
    /// cached arm — embedding, norms, projections, per-head attention,
    /// cache append, feed-forward — plus the logits product, every buffer
    /// borrowed from `scratch`. Once the scratch is warm the whole step performs **zero**
    /// heap allocations (up to cache-append growth, which callers can
    /// pre-reserve).
    ///
    /// Returns the logits of the fed position, borrowed from the scratch
    /// (also readable later via [`StepScratch::logits`]). Unlike the
    /// multi-token entry points it does not check the context window.
    ///
    /// # Panics
    ///
    /// Panics if `caches.len() != n_layers` or the token id is out of range.
    pub fn decode_step_into<'s, C: KvCache>(
        &self,
        token: u32,
        caches: &mut [C],
        scratch: &'s mut StepScratch,
    ) -> &'s [f32] {
        let ForwardScratch {
            chunk,
            attend,
            logits,
            ..
        } = scratch;
        self.forward_chunk(
            &[token],
            caches,
            None,
            chunk,
            ChunkAttention::Cached(attend),
        );
        self.logits_into(chunk.x.row(0), logits);
        logits
    }

    /// Continues a sequence whose KV already lives in `caches`: feeds
    /// `tokens` through the chunk forward, each attending to the cached —
    /// possibly quantized — history at its running position, and returns the
    /// logits of every fed position as a `[tokens, vocab]` matrix.
    ///
    /// This is the cache-reuse counterpart of [`Self::prefill`] for a
    /// teacher-forced evaluation segment; it is bit-identical to feeding the
    /// tokens one at a time through [`Self::decode_step_into`] (which is
    /// what it does to empty caches too). Every buffer but the returned
    /// logits is borrowed from `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty, if `caches.len() != n_layers`, or if the
    /// extended sequence would exceed `max_seq_len`.
    pub fn extend_into<C: KvCache>(
        &self,
        tokens: &[u32],
        caches: &mut [C],
        scratch: &mut StepScratch,
    ) -> Matrix {
        self.assert_within_window(tokens.len(), caches);
        self.cached_hidden(tokens, caches, scratch)
            .matmul_transposed(&self.weights.embedding)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_factory::{build_caches, CacheSpec};
    use million_tensor::ops::log_softmax;

    fn prompt() -> Vec<u32> {
        vec![5, 17, 42, 3, 99, 7, 64, 21]
    }

    #[test]
    fn prefill_produces_finite_logits_for_all_presets() {
        for config in [
            ModelConfig::tiny_for_tests(),
            ModelConfig::tiny_gqa_for_tests(),
        ] {
            let model = Transformer::new(config.clone(), 1);
            let mut caches = build_caches(&config, &CacheSpec::Full);
            let logits = model.prefill(&prompt(), &mut caches, None);
            assert_eq!(logits.shape(), (8, config.vocab_size));
            assert!(logits.as_slice().iter().all(|v| v.is_finite()));
            assert!(caches.iter().all(|c| c.len() == 8));
        }
    }

    #[test]
    fn positional_variants_all_run() {
        for positional in [
            Positional::Absolute,
            Positional::Alibi,
            Positional::Rope {
                theta: 10_000.0,
                position_scale: 4.0,
            },
        ] {
            let mut config = ModelConfig::tiny_for_tests();
            config.positional = positional;
            config.norm = NormKind::LayerNorm;
            let model = Transformer::new(config.clone(), 2);
            let mut caches = build_caches(&config, &CacheSpec::Full);
            let logits = model.prefill(&prompt(), &mut caches, None);
            assert!(logits.as_slice().iter().all(|v| v.is_finite()));
            let next = model.decode_step(11, &mut caches);
            assert!(next.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn decode_with_full_cache_matches_prefill_logits() {
        // Teacher-forced decoding over a full-precision cache must produce the
        // same next-token distribution as running the whole sequence through
        // prefill (the causal factorisation is exact).
        let config = ModelConfig::tiny_for_tests();
        let model = Transformer::new(config.clone(), 3);
        let tokens = prompt();

        let mut caches_full = build_caches(&config, &CacheSpec::Full);
        let prefill_logits = model.prefill(&tokens, &mut caches_full, None);

        let mut caches_step = build_caches(&config, &CacheSpec::Full);
        let _ = model.prefill(&tokens[..1], &mut caches_step, None);
        let mut step_logits = Vec::new();
        for &t in &tokens[1..] {
            step_logits.push(model.decode_step(t, &mut caches_step));
        }
        // Compare the logits of the last position.
        let last_prefill = prefill_logits.row(tokens.len() - 1);
        let last_step = step_logits.last().unwrap();
        for (a, b) in last_prefill.iter().zip(last_step.iter()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn scratch_reuse_across_steps_matches_fresh_scratch() {
        // GQA config so the head loop maps several query heads onto one kv
        // head while sharing one attention scratch.
        let config = ModelConfig::tiny_gqa_for_tests();
        let model = Transformer::new(config.clone(), 9);
        let tokens = prompt();
        let mut caches_reused = build_caches(&config, &CacheSpec::Full);
        let _ = model.prefill(&tokens, &mut caches_reused, None);
        let mut caches_fresh = build_caches(&config, &CacheSpec::Full);
        let _ = model.prefill(&tokens, &mut caches_fresh, None);

        let mut scratch = StepScratch::new();
        for step in 0..6u32 {
            let with_reuse = model.decode_step_into(step + 3, &mut caches_reused, &mut scratch);
            let with_fresh = model.decode_step(step + 3, &mut caches_fresh);
            assert_eq!(with_reuse, with_fresh.as_slice(), "step {step}");
        }
    }

    #[test]
    fn step_scratch_reuse_matches_fresh_scratch_bit_exactly() {
        let config = ModelConfig::tiny_for_tests();
        let model = Transformer::new(config.clone(), 11);
        let tokens = prompt();
        let mut caches_reused = build_caches(&config, &CacheSpec::Full);
        let _ = model.prefill(&tokens, &mut caches_reused, None);
        let mut caches_fresh = build_caches(&config, &CacheSpec::Full);
        let _ = model.prefill(&tokens, &mut caches_fresh, None);

        let mut scratch = StepScratch::new();
        for step in 0..6u32 {
            let with_reuse = model
                .decode_step_into(step + 3, &mut caches_reused, &mut scratch)
                .to_vec();
            let with_fresh = model.decode_step(step + 3, &mut caches_fresh);
            assert_eq!(with_reuse, with_fresh, "step {step}");
            assert_eq!(scratch.logits(), with_fresh.as_slice(), "step {step}");
        }
    }

    #[test]
    fn gqa_maps_query_heads_onto_shared_kv_heads() {
        let config = ModelConfig::tiny_gqa_for_tests();
        let model = Transformer::new(config.clone(), 4);
        let mut caches = build_caches(&config, &CacheSpec::Full);
        let _ = model.prefill(&prompt(), &mut caches, None);
        assert_eq!(caches[0].layout().n_kv_heads, 1);
        let logits = model.decode_step(9, &mut caches);
        assert!(logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn capture_records_post_rope_keys() {
        let config = ModelConfig::tiny_for_tests();
        let model = Transformer::new(config.clone(), 5);
        let mut caches = build_caches(&config, &CacheSpec::Full);
        let mut capture = KvCapture::new(config.n_layers, config.head_dim(), 64);
        let _ = model.prefill(&prompt(), &mut caches, Some(&mut capture));
        for l in 0..config.n_layers {
            assert_eq!(capture.tokens(l), 8);
            assert_eq!(capture.keys(l).cols(), config.kv_width());
        }
    }

    #[test]
    fn logits_are_a_valid_distribution_after_softmax() {
        let config = ModelConfig::tiny_for_tests();
        let model = Transformer::new(config.clone(), 6);
        let mut caches = build_caches(&config, &CacheSpec::Full);
        let logits = model.prefill(&prompt(), &mut caches, None);
        let lp = log_softmax(logits.row(3));
        let sum: f32 = lp.iter().map(|l| l.exp()).sum();
        assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "prefill requires empty caches")]
    fn prefill_twice_panics() {
        let config = ModelConfig::tiny_for_tests();
        let model = Transformer::new(config.clone(), 7);
        let mut caches = build_caches(&config, &CacheSpec::Full);
        let _ = model.prefill(&prompt(), &mut caches, None);
        let _ = model.prefill(&prompt(), &mut caches, None);
    }

    #[test]
    #[should_panic(expected = "outside vocabulary")]
    fn out_of_vocab_token_panics() {
        let config = ModelConfig::tiny_for_tests();
        let model = Transformer::new(config.clone(), 8);
        let mut caches = build_caches(&config, &CacheSpec::Full);
        let _ = model.prefill(&[100_000], &mut caches, None);
    }

    #[test]
    fn embed_into_reuses_buffer_and_matches_fresh() {
        let mut config = ModelConfig::tiny_for_tests();
        config.positional = Positional::Absolute; // learned position rows
        let model = Transformer::new(config, 12);
        let mut buf = Matrix::default();
        model.embed_into(&[3, 9, 27], 5, &mut buf);
        let fresh = model.embed(&[3, 9, 27], 5);
        assert_eq!(buf, fresh);
        // A second, shorter embed reuses the same backing buffer.
        let ptr = buf.as_slice().as_ptr();
        model.embed_into(&[1], 0, &mut buf);
        assert_eq!(buf.as_slice().as_ptr(), ptr);
        assert_eq!(buf, model.embed(&[1], 0));
    }
}
