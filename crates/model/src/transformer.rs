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
//! Only attention differs by where the chunk sits — **two arms**:
//!
//! * **prompt** — on empty caches, causal self-attention at full precision:
//!   the flash-style tiled kernel ([`prefill_attention_tiled`]: per (head,
//!   query-tile) work unit it walks key/value tiles with an online softmax,
//!   fusing scale, ALiBi and the causal mask into the tile loop, so no
//!   `n x n` score matrix is ever materialised). The (possibly lossy) cache
//!   backends see the chunk's KV in one bulk append *afterwards*, step ③/④
//!   of Fig. 4. The seed's naive attention is kept as
//!   [`Transformer::prefill_reference`] for equivalence tests and
//!   benchmarks;
//! * **cached** — behind any cache state, token by token in order: every
//!   query head attends over the cached history through the backend
//!   ([`million_kvcache::KvCache::attend`]) merged with the token's own
//!   full-precision pair (Eq. 7), then the pair is appended. Every backend
//!   sees the same call sequence whatever the chunk boundaries, so a chunk
//!   is bit-identical to feeding its tokens one at a time.
//!
//! The entry points differ in the arm they pick and in the **three shapes**
//! the final hidden states leave in: logits of every position
//! ([`Transformer::prefill`] and its variants on the prompt arm,
//! [`Transformer::extend_into`] on the cached arm), the last position's
//! logits into a caller's buffer ([`Transformer::prefill_chunk`], either
//! arm — what an admission needs), and the one fed position's logits
//! borrowed from the scratch ([`Transformer::decode_step_into`], cached arm
//! — the decode loop, which performs no steady-state allocations).

use million_kvcache::{AttendParams, AttendScratch, CacheLayout, KvCache};
use million_tensor::alibi::alibi_slopes;
use million_tensor::ops::{
    apply_causal_mask, gelu_in_place, layer_norm, rms_norm, silu_in_place, softmax_in_place,
    vec_matmul_transposed_into,
};
use million_tensor::prompt_attention::{attend_unit, UnitScratch, KEY_TILE};
use million_tensor::{GemmScratch, Matrix, Rope, StridedRows};
use rayon::prelude::*;

use crate::config::{ModelConfig, NormKind, Positional};
use crate::hooks::KvCapture;
use crate::weights::ModelWeights;

/// Query rows covered by one prefill work unit (one head x one query tile).
pub const PREFILL_Q_TILE: usize = 32;

/// Key rows walked per inner step of the tiled prefill kernel
/// ([`million_tensor::prompt_attention`]).
pub const PREFILL_K_TILE: usize = KEY_TILE;

/// Widest head the tiled kernel is used for; [`Transformer::prefill`] falls
/// back to the reference path for anything wider. Every Table I preset is
/// far below it.
pub const PREFILL_MAX_HEAD_DIM: usize = 256;

/// Analytical work threshold for fanning prefill (head x query-tile) units
/// across rayon workers. Mirrors the decode-side gate: the vendored shim
/// spawns scoped threads per call (~tens of µs each), which only pays for
/// itself once a unit's tile walk (≈ `Q_TILE · n/2 · head_dim` mul-adds)
/// reaches the tens-of-µs range.
const PARALLEL_PREFILL_MIN_WORK: usize = 1 << 18;

/// Balancing permutation of a head's query tiles for the prefill fan-out.
///
/// Causal attention skews the tile costs: tile `t` walks `(t + 1) ·
/// PREFILL_Q_TILE` keys, so enumerating tiles in natural order and splitting
/// them contiguously across workers (all the vendored shim does) hands the
/// worker holding a head's late tiles ~2x the work of the one holding its
/// early tiles. Pairing the tiles from both ends — `0, T-1, 1, T-2, …` —
/// makes every adjacent pair cost ≈ `T + 1` key-tiles, so *any* contiguous
/// split of the permuted order is within one tile of even. The mapping is a
/// bijection that depends only on the slot index, never on the worker count,
/// so results stay bit-identical across thread counts (pinned by the
/// determinism suite).
#[inline]
fn balanced_tile(slot: usize, tiles: usize) -> usize {
    if slot.is_multiple_of(2) {
        slot / 2
    } else {
        tiles - 1 - slot / 2
    }
}

/// Working memory of the tiled prefill kernel: one [`UnitScratch`] per rayon
/// worker plus the head-major staging buffer the (head, query-tile) units
/// write into.
#[derive(Debug)]
struct TileScratch {
    pool: Vec<UnitScratch>,
    /// Unit-major staging `[n_heads * tiles, PREFILL_Q_TILE, head_dim]`;
    /// each (head, query-tile) work unit owns one contiguous chunk, with the
    /// tiles of a head in [`balanced_tile`] order so contiguous worker
    /// partitions see even causal work.
    head_out: Vec<f32>,
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
/// kernel's per-worker tile states and staging, one [`AttendScratch`] per
/// parallel attention worker for tokens that attend through the caches, and
/// the logits row of [`Transformer::decode_step_into`].
///
/// Every part grows lazily to the largest geometry it has seen and is then
/// reused across layers and calls, so a second forward of a shape already
/// seen performs **zero** heap allocations
/// (`crates/model/tests/zero_alloc_step.rs` proves it with a counting
/// allocator) — and a decode loop's copy stays one row tall and never
/// touches the tile pool or the pack buffer. It carries no results between
/// calls. Whoever drives a loop owns one: an inference session keeps one
/// alive for its decode steps, an admission builds one per chunk.
#[derive(Debug)]
pub struct ForwardScratch {
    tiles: TileScratch,
    chunk: ChunkScratch,
    attend: Vec<AttendScratch>,
    logits: Vec<f32>,
}

/// The [`ForwardScratch`] a decode loop holds.
pub type StepScratch = ForwardScratch;

/// The [`ForwardScratch`] a prompt admission holds.
pub type PrefillScratch = ForwardScratch;

impl ForwardScratch {
    /// Creates a scratch with one tile state and one attention state per
    /// rayon worker.
    #[allow(
        clippy::disallowed_methods,
        reason = "sizes the per-worker pools only; neither tile partitioning nor the per-head fan-out changes float accumulation order (pinned across worker counts by the equivalence suites)"
    )]
    pub fn new() -> Self {
        Self::with_workers(rayon::current_num_threads())
    }

    /// Creates a scratch with an explicit worker count. A single-worker
    /// scratch forces the tile loop, the GEMM row blocks and the per-token
    /// head loop down their serial (thread- and allocation-free) paths
    /// regardless of chunk or context length — the reference when testing
    /// the parallel paths, or a cap on a session's parallelism.
    pub fn with_workers(workers: usize) -> Self {
        let workers = workers.max(1);
        let gemm = if workers == 1 {
            GemmScratch::serial()
        } else {
            GemmScratch::new()
        };
        Self {
            tiles: TileScratch {
                pool: (0..workers).map(|_| UnitScratch::default()).collect(),
                head_out: Vec::new(),
            },
            chunk: ChunkScratch {
                gemm,
                ..ChunkScratch::default()
            },
            attend: (0..workers).map(|_| AttendScratch::new()).collect(),
            logits: Vec::new(),
        }
    }

    /// Number of per-worker tile (and attention) states.
    pub fn workers(&self) -> usize {
        self.tiles.pool.len()
    }

    /// Logits written by the most recent [`Transformer::decode_step_into`].
    pub fn logits(&self) -> &[f32] {
        &self.logits
    }

    /// Bytes of per-worker tile state once warmed for `head_dim` — the
    /// staging arena (key tile, value tile, score row) plus the per-row
    /// accumulators. Deterministic from the geometry, tracked by the
    /// `BENCH_prefill.json` regression gate.
    pub fn tile_bytes(head_dim: usize) -> usize {
        UnitScratch::bytes(head_dim, PREFILL_Q_TILE)
    }
}

impl Default for ForwardScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// How a chunk forward attends (everything else is shared).
enum ChunkAttention<'a> {
    /// Empty caches: causal self-attention over the chunk's own
    /// full-precision `(q, k, v)` — the injected kernel writes the packed
    /// output — then one bulk append.
    Prompt(&'a mut dyn FnMut(&Matrix, &Matrix, &Matrix, &mut Matrix)),
    /// Any cache state: per token, in order, every head attends over the
    /// cached history merged with the token's own pair (through the lent
    /// attention pool), then a one-row append.
    Cached(&'a mut [AttendScratch]),
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
/// mask pass and no per-head copy exists. Units fan out across the rayon shim, one
/// [`PrefillScratch`] pool slot per worker, once the per-unit tile walk
/// crosses an analytical work threshold; below it the loop runs serially on
/// `pool[0]`, which is thread- and allocation-free.
///
/// Results are bit-identical across worker counts and repeated runs (each
/// unit's arithmetic depends only on its own index), and match
/// [`prefill_attention_reference`] up to the floating-point reassociation of
/// the online softmax.
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
    tiled_attention(
        q,
        k,
        v,
        n_heads,
        n_kv_heads,
        scale,
        alibi,
        &mut scratch.tiles,
        attn,
    );
}

/// [`prefill_attention_tiled`] on the tile part of a [`ForwardScratch`], so
/// the chunk forward can lend its activation buffers alongside.
#[allow(clippy::too_many_arguments)]
fn tiled_attention(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
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
    assert_eq!(k.rows(), n, "key rows mismatch");
    assert_eq!(v.rows(), n, "value rows mismatch");
    assert_eq!(k.cols(), n_kv_heads * hd, "key width mismatch");
    assert_eq!(v.cols(), n_kv_heads * hd, "value width mismatch");
    if let Some(slopes) = alibi {
        assert_eq!(slopes.len(), n_heads, "one ALiBi slope per head required");
    }
    assert!(
        hd <= PREFILL_MAX_HEAD_DIM,
        "tiled prefill supports head_dim <= {PREFILL_MAX_HEAD_DIM} (got {hd})"
    );
    let group = n_heads / n_kv_heads;

    attn.resize_zeroed(n, n_heads * hd);
    let tiles = n.div_ceil(PREFILL_Q_TILE);
    let staged = n_heads * tiles * PREFILL_Q_TILE * hd;
    if scratch.head_out.len() < staged {
        scratch.head_out.resize(staged, 0.0);
    }
    let units = n_heads * tiles;
    let parallel = units > 1 && PREFILL_Q_TILE * (n / 2).max(1) * hd >= PARALLEL_PREFILL_MIN_WORK;
    let pool_len = if parallel { scratch.pool.len() } else { 1 };

    let TileScratch { pool, head_out } = scratch;
    let stage = &mut head_out[..staged];
    stage
        .par_chunks_mut(PREFILL_Q_TILE * hd)
        .enumerate()
        .for_each_with_scratch(&mut pool[..pool_len], |unit_scratch, (unit, chunk)| {
            let qh = unit / tiles;
            let tile = balanced_tile(unit % tiles, tiles);
            let q0 = tile * PREFILL_Q_TILE;
            let q1 = (q0 + PREFILL_Q_TILE).min(n);
            let kvh = qh / group;
            attend_unit(
                StridedRows::from_matrix(q, qh * hd, hd),
                StridedRows::from_matrix(k, kvh * hd, hd),
                StridedRows::from_matrix(v, kvh * hd, hd),
                q0..q1,
                scale,
                alibi.map(|s| s[qh]),
                unit_scratch,
                &mut chunk[..(q1 - q0) * hd],
            );
        });

    // Fold the staging into the packed [n, n_heads*hd] output. Each unit's
    // chunk holds the query rows of one (head, balanced-permuted tile); the
    // permutation is undone here by recomputing each chunk's tile.
    for unit in 0..units {
        let qh = unit / tiles;
        let tile = balanced_tile(unit % tiles, tiles);
        let q0 = tile * PREFILL_Q_TILE;
        let q1 = (q0 + PREFILL_Q_TILE).min(n);
        let chunk = &stage[unit * PREFILL_Q_TILE * hd..];
        for (i, t) in (q0..q1).enumerate() {
            attn.row_mut(t)[qh * hd..(qh + 1) * hd].copy_from_slice(&chunk[i * hd..(i + 1) * hd]);
        }
    }
}

/// The seed's naive prefill attention: per head, materialise the head's
/// activations, the full `n x n` score matrix, a separate ALiBi pass, a
/// separate causal-mask pass and a per-row softmax. Kept bit-identical to
/// the pre-tiling implementation as the reference the tiled kernel is pinned
/// against (and the baseline `bench_prefill_baseline` measures).
///
/// # Panics
///
/// Same shape contract as [`prefill_attention_tiled`].
#[allow(clippy::too_many_arguments)]
pub fn prefill_attention_reference(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    n_heads: usize,
    n_kv_heads: usize,
    scale: f32,
    alibi: Option<&[f32]>,
    attn: &mut Matrix,
) {
    let n = q.rows();
    let hd = q.cols() / n_heads;
    let group = n_heads / n_kv_heads.max(1);
    attn.resize_zeroed(n, n_heads * hd);
    for qh in 0..n_heads {
        let kvh = qh / group;
        let q_h = Matrix::from_fn(n, hd, |t, c| q.get(t, qh * hd + c));
        let k_h = Matrix::from_fn(n, hd, |t, c| k.get(t, kvh * hd + c));
        let v_h = Matrix::from_fn(n, hd, |t, c| v.get(t, kvh * hd + c));
        let mut scores = q_h.matmul_transposed(&k_h);
        scores.scale(scale);
        if let Some(slopes) = alibi {
            let slope = slopes[qh];
            for i in 0..n {
                let row = scores.row_mut(i);
                for (j, s) in row.iter_mut().enumerate().take(i + 1) {
                    *s -= slope * (i - j) as f32;
                }
            }
        }
        apply_causal_mask(&mut scores);
        for i in 0..n {
            softmax_in_place(scores.row_mut(i));
        }
        let out_h = scores.matmul(&v_h);
        for t in 0..n {
            attn.row_mut(t)[qh * hd..(qh + 1) * hd].copy_from_slice(out_h.row(t));
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
        self.assert_within_window(tokens.len(), caches);
        self.prompt_hidden(tokens, caches, capture, scratch)
            .matmul_transposed(&self.weights.embedding)
    }

    /// [`Self::prefill`] through the seed's naive per-head attention path
    /// (materialised `n x n` scores, separate ALiBi/mask/softmax passes).
    ///
    /// The online softmax of the tiled kernel reorders floating-point
    /// summation, so the two paths agree only within tolerance; this
    /// reference is what the equivalence tests pin against and what
    /// `bench_prefill_baseline` measures the speedup over.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::prefill`].
    pub fn prefill_reference<C: KvCache>(
        &self,
        tokens: &[u32],
        caches: &mut [C],
        capture: Option<&mut KvCapture>,
    ) -> Matrix {
        self.assert_within_window(tokens.len(), caches);
        let mut chunk = ChunkScratch::default();
        self.forward_chunk(
            tokens,
            caches,
            capture,
            &mut chunk,
            ChunkAttention::Prompt(&mut self.prompt_attention(None)),
        );
        chunk.x.matmul_transposed(&self.weights.embedding)
    }

    /// Feeds one chunk of known tokens at the caches' current length and
    /// writes the logits of its **last** position into `logits` (resized in
    /// place) — what an admission needs, without the `[chunk, vocab]` logits
    /// of [`Self::prefill`] / [`Self::extend_into`].
    ///
    /// On empty caches the chunk takes the prompt arm — it attends to itself
    /// through the tiled kernel and its KV reaches the caches in one bulk
    /// append, exactly as [`Self::prefill`]; behind cached history it takes
    /// the cached arm, exactly as [`Self::extend_into`]. That is the one seam
    /// between this and [`Self::decode_step_into`], which takes the cached
    /// arm on empty caches too: a *single* token fed to empty caches attends
    /// to nothing but itself either way, and the two agree bit for bit
    /// (pinned in `crates/model/tests/extend_equivalence.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty, if `caches.len() != n_layers`, or if the
    /// extended sequence would exceed `max_seq_len`.
    pub fn prefill_chunk<C: KvCache>(
        &self,
        tokens: &[u32],
        caches: &mut [C],
        scratch: &mut PrefillScratch,
        logits: &mut Vec<f32>,
    ) {
        self.assert_within_window(tokens.len(), caches);
        let hidden = if caches.iter().all(|c| c.is_empty()) {
            self.prompt_hidden(tokens, caches, None, scratch)
        } else {
            self.cached_hidden(tokens, caches, scratch)
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

    /// The chunk forward over empty caches with this model's production
    /// prompt attention — the tiled kernel, or the naive reference for heads
    /// wider than its stack staging supports (still correct, just slower).
    /// Returns the final-normed hidden states, borrowed from the scratch.
    fn prompt_hidden<'s, C: KvCache>(
        &self,
        tokens: &[u32],
        caches: &mut [C],
        capture: Option<&mut KvCapture>,
        scratch: &'s mut PrefillScratch,
    ) -> &'s Matrix {
        let ForwardScratch { tiles, chunk, .. } = scratch;
        let tiles = (self.config.head_dim() <= PREFILL_MAX_HEAD_DIM).then_some(tiles);
        let mut kernel = self.prompt_attention(tiles);
        self.forward_chunk(
            tokens,
            caches,
            capture,
            chunk,
            ChunkAttention::Prompt(&mut kernel),
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

    /// Causal self-attention over a prompt chunk's own `(q, k, v)`: the
    /// tiled kernel on `tiles`, the naive reference without.
    fn prompt_attention<'a>(
        &'a self,
        mut tiles: Option<&'a mut TileScratch>,
    ) -> impl FnMut(&Matrix, &Matrix, &Matrix, &mut Matrix) + 'a {
        let (n_heads, n_kv_heads) = (self.config.n_heads, self.config.n_kv_heads);
        let scale = self.attention_scale();
        let alibi = self.alibi.as_deref();
        move |q, k, v, attn| match tiles.as_deref_mut() {
            Some(tiles) => {
                tiled_attention(q, k, v, n_heads, n_kv_heads, scale, alibi, tiles, attn);
            }
            None => prefill_attention_reference(q, k, v, n_heads, n_kv_heads, scale, alibi, attn),
        }
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
    /// `crates/model/tests/extend_equivalence.rs`). It does not check the
    /// context window; the multi-token entry points do.
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
        if matches!(attention, ChunkAttention::Prompt(_)) {
            assert!(
                caches.iter().all(|c| c.is_empty()),
                "prefill requires empty caches"
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
                ChunkAttention::Prompt(kernel) => {
                    kernel(q, k, v, attn);
                    // Hand the full-precision KV to the (possibly lossy)
                    // cache only after the attention output is produced.
                    caches[l].append(k, v);
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
    /// Heads are independent readers of the cache (`attend` takes `&self`),
    /// so they fan out across rayon workers, one scratch per worker — but
    /// only when each head has enough cached tokens to amortise the
    /// scoped-thread spawns of the vendored rayon shim (~tens of µs each,
    /// paid per layer per token); short contexts run serially on pool[0],
    /// which the shim guarantees is thread- and allocation-free. Either path
    /// computes the identical result. The threshold is analytical, not
    /// measured (per-head attend work ≈ pos·M table adds plus the LUT build,
    /// so pos·hd ≈ 2^18 puts each head in the tens-of-µs range where a spawn
    /// pays for itself); revisit when the shim grows a persistent worker
    /// pool (ROADMAP).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn attend_token<C: KvCache>(
        &self,
        cache: &C,
        q: &[f32],
        k: &[f32],
        v: &[f32],
        pos: usize,
        attend: &mut [AttendScratch],
        out: &mut [f32],
    ) {
        const PARALLEL_HEADS_MIN_WORK: usize = 1 << 18;
        let hd = self.config.head_dim();
        let group = self.config.group_size();
        let scale = self.attention_scale();
        let alibi = self.alibi.as_deref();
        let parallel_heads = self.config.n_heads > 1 && pos * hd >= PARALLEL_HEADS_MIN_WORK;
        let pool_len = if parallel_heads { attend.len() } else { 1 };
        out.par_chunks_mut(hd).enumerate().for_each_with_scratch(
            &mut attend[..pool_len],
            |attend_scratch, (qh, out)| {
                let kvh = qh / group;
                let mut params = AttendParams::new(kvh, &q[qh * hd..(qh + 1) * hd], scale, pos)
                    .with_current(&k[kvh * hd..(kvh + 1) * hd], &v[kvh * hd..(kvh + 1) * hd]);
                if let Some(slopes) = alibi {
                    params = params.with_alibi(slopes[qh]);
                }
                cache.attend(&params, attend_scratch, out);
            },
        );
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
    /// cached arm — embedding, norms, projections, per-head attention
    /// (parallel over rayon workers above the work threshold), cache append,
    /// feed-forward — plus the logits product, every buffer borrowed from
    /// `scratch`. Once the scratch is warm the whole step performs **zero**
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
    fn balanced_tile_is_a_balanced_bijection() {
        for tiles in 1..=33 {
            let mut seen = vec![false; tiles];
            for slot in 0..tiles {
                let t = balanced_tile(slot, tiles);
                assert!(t < tiles, "tiles={tiles} slot={slot}");
                assert!(!seen[t], "tiles={tiles}: tile {t} mapped twice");
                seen[t] = true;
            }
            // Causal cost of tile t is proportional to t + 1 key tiles. Any
            // contiguous split of the permuted order must be within one
            // maximal tile cost of the even share — the property the
            // permutation exists to provide under static partitioning.
            let total: usize = (0..tiles).map(|t| t + 1).sum();
            for workers in 1..=8 {
                let per = tiles.div_ceil(workers);
                for w in 0..workers {
                    let lo = w * per;
                    let hi = ((w + 1) * per).min(tiles);
                    if lo >= hi {
                        continue;
                    }
                    let cost: usize = (lo..hi).map(|s| balanced_tile(s, tiles) + 1).sum();
                    let share = total * (hi - lo) / tiles;
                    assert!(
                        cost.abs_diff(share) <= tiles + 1,
                        "tiles={tiles} workers={workers}: worker {w} cost {cost} vs share {share}"
                    );
                }
            }
        }
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
        // GQA config so the parallel head loop maps several query heads onto
        // one kv head while sharing worker scratch.
        let config = ModelConfig::tiny_gqa_for_tests();
        let model = Transformer::new(config.clone(), 9);
        let tokens = prompt();
        let mut caches_reused = build_caches(&config, &CacheSpec::Full);
        let _ = model.prefill(&tokens, &mut caches_reused, None);
        let mut caches_fresh = build_caches(&config, &CacheSpec::Full);
        let _ = model.prefill(&tokens, &mut caches_fresh, None);

        let mut scratch = StepScratch::new();
        assert!(scratch.workers() >= 1);
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
