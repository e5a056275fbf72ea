//! Persistent streaming inference sessions.
//!
//! The seed engine exposed one-shot `generate(prompt, n, sampler)` calls that
//! rebuilt the quantized KV cache from scratch every time — exactly the wrong
//! shape for the long-context serving scenario the paper targets, where a
//! sequence's PQ-compressed cache is the asset being preserved. An
//! [`InferenceSession`] instead owns its per-layer
//! [`million_kvcache::PqKvCache`]s across calls:
//!
//! * [`InferenceSession::prefill`] processes the opening prompt and encodes
//!   its KV (synchronously, as in Fig. 4 steps ③/④);
//! * [`InferenceSession::step`] decodes one token, absorbing finished blocks
//!   from the asynchronous quantization stream before attention and shipping
//!   newly staged tokens after it, and reports per-step telemetry;
//! * [`InferenceSession::append_prompt`] continues a conversation: the new
//!   user turn is one prefill behind the cached history, attending to the
//!   *already-quantized* tokens decoded to their centroids — nothing is
//!   re-prefetched or re-encoded;
//! * [`InferenceSession::stream`] yields tokens lazily until a
//!   [`StopCriteria`] fires.
//!
//! Sessions either own a private [`QuantWorker`] (standalone use) or
//! delegate encode traffic to a shared worker managed by
//! [`crate::ServingEngine`].

use million_kvcache::{KvCache, PqCacheConfig, PqKvCache};
use million_model::{ChunkArm, PrefillScratch, Sampler, StepScratch};
use million_store::{Block, ChainHandle};

use crate::async_quant::{EncodeRequest, EncodeResult, QuantWorker};
use crate::engine::{GenerationResult, MillionEngine};

/// Token-level termination conditions for a generation call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StopCriteria {
    /// Generation stops after emitting this token (the token itself is kept).
    pub eos_id: Option<u32>,
    /// Additional token ids that terminate generation, for stop-word style
    /// protocols.
    pub stop_ids: Vec<u32>,
}

impl StopCriteria {
    /// No termination tokens: generation runs to the requested length.
    pub fn none() -> Self {
        Self::default()
    }

    /// Stops on the given end-of-sequence token.
    pub fn eos(eos_id: u32) -> Self {
        Self {
            eos_id: Some(eos_id),
            stop_ids: Vec::new(),
        }
    }

    /// Adds extra stop tokens.
    #[must_use]
    pub fn with_stop_ids(mut self, stop_ids: Vec<u32>) -> Self {
        self.stop_ids = stop_ids;
        self
    }

    /// Returns `true` if `token` terminates generation.
    pub fn matches(&self, token: u32) -> bool {
        self.eos_id == Some(token) || self.stop_ids.contains(&token)
    }
}

/// Options for one generation call, replacing the positional
/// `(max_new_tokens, sampler)` arguments of the seed API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerationOptions {
    /// Upper bound on the number of new tokens.
    pub max_new_tokens: usize,
    /// Early-termination tokens.
    pub stop: StopCriteria,
}

impl GenerationOptions {
    /// Generates exactly `max_new_tokens` tokens (no stop tokens).
    pub fn max_tokens(max_new_tokens: usize) -> Self {
        Self {
            max_new_tokens,
            stop: StopCriteria::none(),
        }
    }

    /// Sets the termination criteria.
    #[must_use]
    pub fn with_stop(mut self, stop: StopCriteria) -> Self {
        self.stop = stop;
        self
    }
}

/// One decoded token plus the telemetry of the step that produced it.
/// Serializable so streaming front-ends can ship it as an event payload.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct StepResult {
    /// The sampled token id.
    pub token: u32,
    /// Absolute position of this token in the session's stream (prompt
    /// tokens included, 0-based).
    pub position: usize,
    /// KV-cache bytes across all layers after this step.
    pub kv_bytes: usize,
    /// What an fp16 cache of the same length would use.
    pub fp16_kv_bytes: usize,
    /// Tokens still held densely (not yet quantized) per layer.
    pub residual_tokens: usize,
    /// Encoded blocks absorbed from the asynchronous quantization stream
    /// during this step.
    pub async_batches: usize,
    /// Whether this token matched the session's stop criteria (set by the
    /// looping surfaces; a bare [`InferenceSession::step`] leaves it
    /// `false`).
    pub matched_stop: bool,
}

/// Where a session's decode-time encodes run. The session schedules every
/// encode of its caches (none of them encodes on append): an admission's
/// last chunk and [`InferenceSession::flush`] encode on the spot whatever
/// the stream; after a decode step, the stream decides.
#[derive(Debug)]
enum QuantStream {
    /// Synchronous engine configuration: a decode step encodes its overflow
    /// in place, on the critical path. No worker.
    Sync,
    /// The session owns a private worker.
    Owned(Box<QuantWorker>),
    /// A scheduler routes traffic through a shared worker; requests are
    /// parked here until [`InferenceSession::take_encode_requests`] collects
    /// them.
    External { outbox: Vec<EncodeRequest> },
}

/// A persistent inference session: per-layer PQ caches, the decode position,
/// and this sequence's share of the asynchronous quantization stream.
#[derive(Debug)]
pub struct InferenceSession<'e> {
    engine: &'e MillionEngine,
    pub(crate) id: usize,
    pub(crate) caches: Vec<PqKvCache>,
    /// The forward's working memory (attention pool plus every per-layer
    /// activation buffer), resident for the one-token feeds: reused across
    /// every decode step (and every turn) of this session, so the
    /// steady-state decode step never allocates. Scratch carries no results
    /// between calls, so N sessions interleaved by a scheduler stay
    /// token-for-token identical to serial execution.
    scratch: StepScratch,
    stream: QuantStream,
    /// Per-layer tokens currently in flight to the worker (one batch per
    /// layer keeps ordering trivial, as in the paper's single stream).
    sent: Vec<usize>,
    /// Logits predicting the next position, written by every feed.
    pub(crate) cur_logits: Option<Vec<f32>>,
    /// Sampled but not yet fed back through the model.
    pub(crate) pending: Option<u32>,
    /// Default sampler used by [`InferenceSession::step`].
    sampler: Sampler,
    pub(crate) prompt_tokens: usize,
    pub(crate) generated: Vec<u32>,
    async_batches_total: usize,
    /// Blocks absorbed since the last step, consumed into that step's
    /// telemetry.
    absorbed_since_step: usize,
    /// This session's retained view of its sealed block chain in the
    /// engine's store (`None` when the store is disabled). Dropping the
    /// session releases the references, evicting blocks no other session
    /// shares.
    pub(crate) chain: Option<ChainHandle>,
    /// Every token whose KV currently lives in the caches, in cache order —
    /// the content stream that names sealed blocks in the store's prefix
    /// index (and the replay source for persistence).
    pub(crate) history: Vec<u32>,
    /// Prompt tokens satisfied from resident shared blocks at admission
    /// instead of being prefilled.
    pub(crate) prefix_reused: usize,
    /// The prompt tokens an admission opened by [`Self::prefill_begin`] (or
    /// a turn of [`Self::append_prompt`]) has still to feed, in order. While
    /// non-empty, the admission is open: the caches hold the new tokens' KV
    /// dense, every chunk takes the model's prompt arm over the history so
    /// far, and nothing is encoded, shipped or sealed; the chunk that feeds
    /// the last of them encodes and seals the tokens, as one prefill does.
    pub(crate) unfed: Vec<u32>,
    /// Wall-clock nanoseconds spent in [`InferenceSession::prefill`]
    /// admissions (prefix attach, tiled prefill attention and synchronous
    /// prompt encoding).
    prefill_ns: u64,
    /// Prompt tokens admitted through [`InferenceSession::prefill`]
    /// (including prefix tokens satisfied from the store).
    prefill_admitted: usize,
    /// Number of [`InferenceSession::prefill_chunk`] executions (a monolithic
    /// [`InferenceSession::prefill`] counts as one chunk).
    prefill_chunks: usize,
    /// Wall-clock nanoseconds spent in [`InferenceSession::step_with`]
    /// (decode forward passes plus sampling), accumulated across steps.
    decode_ns: u64,
    /// Set when sealing found a resident block with this session's token
    /// chain but *different* codes (same tokens admitted through a different
    /// prefill/turn segmentation). The session then keeps its tail private
    /// forever rather than adopting codes it did not compute — correctness
    /// over sharing.
    seal_stalled: bool,
}

impl<'e> InferenceSession<'e> {
    pub(crate) fn new(engine: &'e MillionEngine, id: usize, shared_worker: bool) -> Self {
        let n_layers = engine.model().config().n_layers;
        let async_quant = engine.config().async_quant;
        let caches = build_session_caches(engine);
        let stream = if !async_quant {
            QuantStream::Sync
        } else if shared_worker {
            QuantStream::External { outbox: Vec::new() }
        } else {
            QuantStream::Owned(Box::new(QuantWorker::spawn(
                engine.codebooks().key.clone(),
                engine.codebooks().value.clone(),
                engine.model().cache_layout(),
            )))
        };
        let chain = engine.store().map(|store| ChainHandle::new(store.clone()));
        Self {
            engine,
            id,
            caches,
            scratch: StepScratch::new(),
            stream,
            sent: vec![0; n_layers],
            cur_logits: None,
            pending: None,
            sampler: Sampler::greedy(),
            prompt_tokens: 0,
            generated: Vec::new(),
            async_batches_total: 0,
            absorbed_since_step: 0,
            chain,
            history: Vec::new(),
            prefix_reused: 0,
            unfed: Vec::new(),
            prefill_ns: 0,
            prefill_admitted: 0,
            prefill_chunks: 0,
            decode_ns: 0,
            seal_stalled: false,
        }
    }

    /// The engine this session runs on.
    pub fn engine(&self) -> &'e MillionEngine {
        self.engine
    }

    /// The scheduler-assigned session id (0 for standalone sessions).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Replaces the session's default sampler (used by [`Self::step`] and
    /// [`Self::stream`]).
    pub fn set_sampler(&mut self, sampler: Sampler) {
        self.sampler = sampler;
    }

    /// Number of tokens whose KV currently lives in the caches.
    pub fn cached_tokens(&self) -> usize {
        self.caches.first().map_or(0, |c| c.len())
    }

    /// Absolute position the next sampled token will occupy.
    pub fn position(&self) -> usize {
        self.cached_tokens() + usize::from(self.pending.is_some())
    }

    /// Prompt tokens consumed so far (across all turns).
    pub fn prompt_tokens(&self) -> usize {
        self.prompt_tokens
    }

    /// Prompt tokens the open admission has still to feed through
    /// [`Self::prefill_chunk`]; `0` when no admission is open.
    pub fn unfed_prompt_tokens(&self) -> usize {
        self.unfed.len()
    }

    /// All tokens generated by this session, across turns.
    pub fn generated_tokens(&self) -> &[u32] {
        &self.generated
    }

    /// KV-cache bytes across all layers.
    pub fn kv_bytes(&self) -> usize {
        self.caches.iter().map(|c| c.memory_bytes()).sum()
    }

    /// Bytes an fp16 cache of the same length would use.
    pub fn fp16_kv_bytes(&self) -> usize {
        let layout = self.engine.model().cache_layout();
        self.cached_tokens() * layout.fp16_bytes_per_token() * self.caches.len()
    }

    /// Tokens still held densely (not yet quantized) in each layer.
    pub fn residual_tokens(&self) -> usize {
        self.caches.first().map_or(0, |c| c.recent_len())
    }

    /// Encoded blocks absorbed from the quantization stream so far.
    pub fn async_batches(&self) -> usize {
        self.async_batches_total
    }

    /// Fraction of fp16 storage used by the quantized cache.
    pub fn compression_ratio(&self) -> f64 {
        let fp16 = self.fp16_kv_bytes();
        if fp16 == 0 {
            return 1.0;
        }
        self.kv_bytes() as f64 / fp16 as f64
    }

    /// Prompt tokens satisfied from resident shared blocks at admission
    /// (never prefilled or re-encoded by this session).
    pub fn prefix_tokens_reused(&self) -> usize {
        self.prefix_reused
    }

    /// Tokens of this session's history sealed into store blocks (the
    /// shareable part of the cache).
    pub fn sealed_tokens(&self) -> usize {
        self.chain.as_ref().map_or(0, |c| c.sealed_tokens())
    }

    /// Bytes of this session's KV currently held in blocks co-referenced by
    /// at least one other session — memory the session would otherwise have
    /// duplicated privately.
    pub fn kv_shared_bytes(&self) -> usize {
        self.chain.as_ref().map_or(0, |c| c.shared_bytes())
    }

    /// Bytes of this session's KV it holds exclusively (private tails, dense
    /// residual, and blocks no other session references).
    /// `kv_shared_bytes + kv_owned_bytes == kv_bytes`.
    pub fn kv_owned_bytes(&self) -> usize {
        self.kv_bytes() - self.kv_shared_bytes()
    }

    /// Bytes of this session's KV held *outside* the engine's block store:
    /// private code tails plus the dense residual window. The store-resident
    /// part is accounted once, fleet-wide, by
    /// [`million_store::StoreStats::resident_bytes`] — summing
    /// `kv_private_bytes` over sessions and adding the store's resident
    /// bytes yields the physical footprint with no double counting, which is
    /// what the serving engine's admission budget meters.
    pub fn kv_private_bytes(&self) -> usize {
        let chain_bytes: usize = self.chain.as_ref().map_or(0, |c| {
            c.blocks().iter().map(|(_, b)| b.memory_bytes()).sum()
        });
        self.kv_bytes() - chain_bytes
    }

    /// Wall-clock nanoseconds this session has spent admitting prompts
    /// through [`Self::prefill`] (prefix attach, tiled prefill attention and
    /// synchronous prompt encoding). Later [`Self::append_prompt`] turns are
    /// not counted.
    pub fn prefill_ns(&self) -> u64 {
        self.prefill_ns
    }

    /// Number of prefill chunks executed during admission. A monolithic
    /// [`Self::prefill`] counts as one; a chunked admission driven through
    /// [`Self::prefill_begin`]/[`Self::prefill_chunk`] counts each chunk.
    pub fn prefill_chunks(&self) -> usize {
        self.prefill_chunks
    }

    /// Wall-clock nanoseconds this session has spent generating tokens in
    /// [`Self::step_with`] (decode forward passes plus sampling),
    /// accumulated across every step since construction or [`Self::reset`].
    pub fn decode_ns(&self) -> u64 {
        self.decode_ns
    }

    /// Prompt tokens per second achieved during admission, or `0.0` before
    /// the first [`Self::prefill`].
    pub fn prefill_tokens_per_s(&self) -> f64 {
        if self.prefill_ns == 0 {
            return 0.0;
        }
        self.prefill_admitted as f64 * 1e9 / self.prefill_ns as f64
    }

    /// Processes the opening prompt: full-precision prefill attention, then
    /// synchronous PQ encoding of the prompt KV (Fig. 4 steps ③/④).
    ///
    /// With [`crate::MillionConfig::prefix_sharing`] enabled, the prompt is
    /// first looked up in the engine's block store: any whole-block prefix
    /// another session already sealed is **attached** instead of prefilled —
    /// no prefill compute, no code memory, copy-on-write from the first
    /// divergent token — and only the unmatched suffix is prefilled, over
    /// the attached codes decoded (exactly as a [`Self::append_prompt`]
    /// continuation would be).
    ///
    /// # Panics
    ///
    /// Panics if the session already holds tokens (use
    /// [`Self::append_prompt`] for later turns), if the prompt is empty, or
    /// if it exceeds the model's context window.
    pub fn prefill(&mut self, prompt: &[u32]) {
        self.prefill_begin(prompt.to_vec());
        self.prefill_chunk(usize::MAX);
    }

    /// Opens a (possibly chunked) admission of `prompt`: validates the
    /// fresh-session invariants and, with
    /// [`crate::MillionConfig::prefix_sharing`] enabled, attaches any
    /// whole-block prompt prefix another session already sealed. The rest
    /// of the prompt moves into the session, which feeds it through one or
    /// more [`Self::prefill_chunk`] calls, in any sizes. Returns the number
    /// of prompt tokens satisfied from the store.
    ///
    /// Every admission stays open until its last chunk: the new tokens' KV
    /// stays dense in the caches, every chunk attends through the tiled
    /// kernel over the history so far — for a **cold** admission (nothing
    /// attached) the prompt at full precision, for a **warm** one the
    /// attached codes decoded to their centroids followed by the suffix at
    /// full precision — and the last chunk encodes and seals the new
    /// tokens. The chunks therefore yield [`Self::prefill`]'s logits, codes
    /// and tokens bit for bit, whatever their sizes. A [`Self::persist`]
    /// snapshot taken between chunks records the unfed tokens, so the
    /// restored session finishes the same admission.
    ///
    /// # Panics
    ///
    /// Panics if the session already holds tokens (use
    /// [`Self::append_prompt`] for later turns), if an admission is still
    /// open, or if the prompt is empty.
    pub fn prefill_begin(&mut self, mut prompt: Vec<u32>) -> usize {
        self.assert_admitted();
        assert_eq!(
            self.cached_tokens(),
            0,
            "session already prefilled; use append_prompt for later turns"
        );
        assert!(!prompt.is_empty(), "prefill requires at least one token");
        let admission_start = std::time::Instant::now();
        let mut reused = 0;
        if self.engine.config().prefix_sharing {
            // Keep at least the final token for the decode path: its logits
            // seed generation, so it can never be satisfied from the store.
            let limit = prompt.len() - 1;
            let attached = match &self.chain {
                Some(chain) => chain.store().attach_prefix(&prompt[..limit]),
                None => Vec::new(),
            };
            if !attached.is_empty() {
                reused = attached.iter().map(|(_, b)| b.len()).sum();
                for cache in &mut self.caches {
                    for (_, block) in &attached {
                        cache.attach_shared_block(block.clone());
                    }
                }
                self.chain
                    .as_mut()
                    .expect("attached blocks imply a chain")
                    .adopt(attached);
                self.history.extend(prompt.drain(..reused));
                self.prefix_reused = reused;
            }
        }
        self.unfed = prompt;
        self.prompt_tokens += reused;
        self.prefill_admitted += reused;
        self.prefill_ns += admission_start.elapsed().as_nanos() as u64;
        reused
    }

    /// Feeds the next at most `max_tokens` tokens of the open admission
    /// and returns how many it fed. Every chunk runs the model's one
    /// forward (dense stages as whole-chunk GEMMs) and attends through the
    /// tiled prefill kernel over the history so far, read back from the
    /// caches: the prompt's earlier chunks at full precision, and on a warm
    /// admission the attached prefix's codes decoded to their centroids
    /// before them. The chunk that feeds the last token encodes and seals
    /// the new tokens, so the chunks are one [`Self::prefill`] bit for bit.
    /// Chunk boundaries are therefore scheduling artefacts only — the token
    /// stream a session produces does not depend on them.
    ///
    /// # Panics
    ///
    /// Panics if `max_tokens` is `0` or if no admission is open (no
    /// [`Self::prefill_begin`] came first, or its last token was fed).
    pub fn prefill_chunk(&mut self, max_tokens: usize) -> usize {
        assert!(max_tokens > 0, "prefill_chunk feeds at least one token");
        assert!(
            !self.unfed.is_empty(),
            "prefill_chunk needs an open admission: prefill_begin first"
        );
        let chunk_start = std::time::Instant::now();
        let fed = self.feed_prompt(max_tokens);
        self.prompt_tokens += fed;
        self.prefill_admitted += fed;
        self.prefill_chunks += 1;
        self.prefill_ns += chunk_start.elapsed().as_nanos() as u64;
        fed
    }

    /// Continues a multi-turn conversation. The previously sampled token, if
    /// any, enters the caches as a decode step; the turn is then one prefill
    /// chunk over the history — the already-quantized tokens decoded to
    /// their centroids, the dense window as it is — through the tiled
    /// kernel, and is encoded at its end as an admission's last chunk is.
    /// The session's cache is reused as-is — no token is re-prefetched and
    /// no code is re-encoded.
    ///
    /// On a fresh session this is equivalent to [`Self::prefill`].
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty.
    pub fn append_prompt(&mut self, tokens: &[u32]) {
        assert!(
            !tokens.is_empty(),
            "append_prompt requires at least one token"
        );
        if self.cached_tokens() == 0 {
            self.prefill(tokens);
            return;
        }
        self.assert_admitted();
        // The previously sampled token is part of the history the new turn
        // attends to; its KV enters the cache here.
        if let Some(tok) = self.pending.take() {
            self.feed_decoded(tok);
        }
        self.unfed = tokens.to_vec();
        self.feed_prompt(tokens.len());
        self.prompt_tokens += tokens.len();
    }

    /// Decodes one token with the session's default sampler.
    ///
    /// # Panics
    ///
    /// Panics if the session has not been prefilled.
    pub fn step(&mut self) -> StepResult {
        let mut sampler = std::mem::replace(&mut self.sampler, Sampler::greedy());
        let result = self.step_with(&mut sampler);
        self.sampler = sampler;
        result
    }

    /// Decodes one token with an explicit sampler.
    ///
    /// The step order mirrors the paper's decode loop exactly: finished
    /// encode blocks are absorbed *before* attention, the newly staged tokens
    /// are shipped *after* it.
    ///
    /// # Panics
    ///
    /// Panics if the session has not been prefilled, or if feeding the
    /// previously sampled token would run past the model's context window.
    pub fn step_with(&mut self, sampler: &mut Sampler) -> StepResult {
        self.assert_admitted();
        let step_start = std::time::Instant::now();
        if let Some(tok) = self.pending.take() {
            self.feed_decoded(tok);
        }
        let logits = self
            .cur_logits
            .as_deref()
            .expect("session must be prefilled before stepping");
        let token = sampler.sample(logits);
        let position = self.cached_tokens();
        self.pending = Some(token);
        self.generated.push(token);
        let result = StepResult {
            token,
            position,
            kv_bytes: self.kv_bytes(),
            fp16_kv_bytes: self.fp16_kv_bytes(),
            residual_tokens: self.residual_tokens(),
            async_batches: std::mem::take(&mut self.absorbed_since_step),
            matched_stop: false,
        };
        self.decode_ns += step_start.elapsed().as_nanos() as u64;
        result
    }

    /// Decoding and later turns follow a finished admission.
    fn assert_admitted(&self) {
        let left = self.unfed.len();
        assert!(
            left == 0,
            "the admission still has {left} prompt tokens to feed through prefill_chunk"
        );
    }

    /// Runs a whole generation call and returns the seed-compatible
    /// [`GenerationResult`]; telemetry reflects the cache state after a
    /// final [`Self::flush`].
    pub fn generate(&mut self, options: &GenerationOptions) -> GenerationResult {
        let mut sampler = std::mem::replace(&mut self.sampler, Sampler::greedy());
        let result = self.generate_with(options, &mut sampler);
        self.sampler = sampler;
        result
    }

    /// [`Self::generate`] with an explicit sampler.
    pub fn generate_with(
        &mut self,
        options: &GenerationOptions,
        sampler: &mut Sampler,
    ) -> GenerationResult {
        // `async_batches` reports this call only; cache/prompt fields are
        // session-state snapshots (see the GenerationResult field docs).
        let batches_before = self.async_batches_total;
        let mut tokens = Vec::with_capacity(options.max_new_tokens);
        for _ in 0..options.max_new_tokens {
            let step = self.step_with(sampler);
            tokens.push(step.token);
            if options.stop.matches(step.token) {
                break;
            }
        }
        self.flush();
        GenerationResult {
            tokens,
            prefill_tokens: self.prompt_tokens,
            kv_bytes: self.kv_bytes(),
            fp16_kv_bytes: self.fp16_kv_bytes(),
            async_batches: self.async_batches_total - batches_before,
            residual_tokens: self.residual_tokens(),
        }
    }

    /// Returns a streaming iterator over decode steps, ending after
    /// `options.max_new_tokens` tokens or on a stop token (whose step is
    /// yielded with [`StepResult::matched_stop`] set).
    pub fn stream(&mut self, options: GenerationOptions) -> SessionStream<'_, 'e> {
        SessionStream {
            session: self,
            options,
            emitted: 0,
            stopped: false,
        }
    }

    /// Synchronisation point: blocks until the quantization stream has
    /// caught up, then encodes any tokens that were never shipped, so the
    /// cache reflects the steady state. The session remains usable. An open
    /// admission keeps its new tokens dense: its last chunk encodes them.
    ///
    /// Standalone sessions call this from [`Self::generate`]; scheduler-run
    /// sessions are flushed by the scheduler, which owns the shared worker.
    pub fn flush(&mut self) {
        let results = match &mut self.stream {
            QuantStream::Owned(worker) => worker.drain_all(),
            _ => Vec::new(),
        };
        for result in results {
            self.absorb(result);
        }
        if self.unfed.is_empty() {
            self.encode_dense_now();
            self.maybe_seal();
        }
    }

    /// Routes one finished encode block into this session's caches.
    ///
    /// # Panics
    ///
    /// Panics if the result belongs to a different session.
    pub(crate) fn absorb(&mut self, result: EncodeResult) {
        assert_eq!(
            result.session, self.id,
            "encode result routed to wrong session"
        );
        self.sent[result.layer] -= result.tokens;
        self.caches[result.layer].absorb_encoded(result.encoded);
        self.async_batches_total += 1;
        self.absorbed_since_step += 1;
    }

    /// Collects encode requests for layers with staged dense tokens and no
    /// batch currently in flight. Used by the scheduler to feed the shared
    /// worker; standalone sessions ship through their own worker.
    pub(crate) fn take_encode_requests(&mut self) -> Vec<EncodeRequest> {
        match &mut self.stream {
            QuantStream::External { outbox } => std::mem::take(outbox),
            _ => Vec::new(),
        }
    }

    /// The one way tokens enter the caches: absorb finished encode blocks,
    /// run `tokens` through the model's forward at the caches' current
    /// length along `arm` — the logits of the last position land in
    /// `cur_logits`, whose buffer is reused — and extend `history`. What
    /// is encoded, shipped and sealed afterwards is the caller's: a decode
    /// step's ([`Self::feed_decoded`]) or an admission chunk's
    /// ([`Self::feed_prompt`]).
    ///
    /// A decode step is a chunk of one through the session's resident
    /// scratch, so the steady state allocates nothing. A prompt chunk builds
    /// and drops its own: its activation buffers (~6 MB at 512 tokens of a
    /// `*-7b-sim` model) and the KV head of history it decodes would
    /// otherwise sit in resident memory between chunks — per session —
    /// while re-growing them costs under 1 % of a 100 ms-scale chunk
    /// (measured in `docs/PERF.md`).
    fn feed(&mut self, tokens: &[u32], arm: ChunkArm) {
        let results = match &mut self.stream {
            QuantStream::Owned(worker) => worker.try_drain(),
            _ => Vec::new(),
        };
        for result in results {
            self.absorb(result);
        }
        // A chunk's own scratch is gone before its caller encodes.
        let mut own = (arm == ChunkArm::Prompt).then(PrefillScratch::new);
        let scratch = own.as_mut().unwrap_or(&mut self.scratch);
        let logits = self.cur_logits.get_or_insert_with(Vec::new);
        self.engine
            .model()
            .prefill_chunk(tokens, &mut self.caches, arm, scratch, logits);
        self.history.extend_from_slice(tokens);
    }

    /// A decode step's feed: `token` through the model's cached arm, then
    /// its KV to the quantization stream and any completed block to the
    /// store.
    fn feed_decoded(&mut self, token: u32) {
        self.feed(&[token], ChunkArm::Cached);
        self.ship_staged();
        self.maybe_seal();
    }

    /// Feeds the next at most `max_tokens` tokens of the open admission
    /// through the model's prompt arm, leaving their KV dense, and returns
    /// how many it fed. The caches reserve rows for the whole rest of the
    /// admission first (a no-op after its first chunk): regrowing them
    /// chunk by chunk would leave the copies they outgrew resident. The
    /// chunk that feeds the last token closes the admission and encodes the
    /// new tokens on the spot instead of shipping them — prompt encoding is
    /// part of prefill in the paper (only *decode-time* encoding is off the
    /// critical path).
    fn feed_prompt(&mut self, max_tokens: usize) -> usize {
        let mut unfed = std::mem::take(&mut self.unfed);
        for cache in &mut self.caches {
            cache.reserve_dense(unfed.len());
        }
        let n = max_tokens.min(unfed.len());
        self.feed(&unfed[..n], ChunkArm::Prompt);
        if n < unfed.len() {
            unfed.drain(..n);
            self.unfed = unfed;
        } else {
            // The last chunk: encode the new tokens, as one prefill.
            self.encode_dense_now();
            self.maybe_seal();
        }
        n
    }

    /// Seals every completed block of quantized history into the engine's
    /// store: once *all* layers have quantized `block_tokens` tokens beyond
    /// the sealed frontier, their codes move out of the private tails into
    /// one immutable multi-layer [`Block`]. If another session already
    /// published the identical block (same token chain), this session's
    /// copy is dropped and the resident block adopted — publish-time
    /// copy-on-write convergence.
    fn maybe_seal(&mut self) {
        if self.seal_stalled {
            return;
        }
        let Some(chain) = self.chain.as_mut() else {
            return;
        };
        let store = chain.store().clone();
        let bt = store.block_tokens();
        loop {
            let sealable = self
                .caches
                .iter()
                .map(|c| c.private_quantized_len())
                .min()
                .unwrap_or(0);
            if sealable < bt {
                return;
            }
            let sealed = chain.sealed_tokens();
            let tokens: Vec<u32> = self.history[sealed..sealed + bt].to_vec();
            if let Some((id, block)) = store.lookup_child(chain.last_id(), &tokens) {
                // Token-chain identity is necessary but not sufficient: the
                // same tokens admitted through a different prefill/turn
                // segmentation yield (slightly) different KV and hence
                // different codes. Adopt the resident block only when its
                // codes are bit-identical to what this session computed;
                // otherwise keep the tail private and stop sealing — sharing
                // must never change a session's arithmetic.
                let matches = self.caches.iter().enumerate().all(|(layer, cache)| {
                    (0..cache.layout().n_kv_heads).all(|h| {
                        let k = cache.private_key_codes()[h].clone_rows(0, bt);
                        let v = cache.private_value_codes()[h].clone_rows(0, bt);
                        k.packed_bytes() == block.key_codes(layer, h).packed_bytes()
                            && v.packed_bytes() == block.value_codes(layer, h).packed_bytes()
                    })
                });
                if !matches {
                    store.release(id);
                    self.seal_stalled = true;
                    return;
                }
                for cache in &mut self.caches {
                    cache.replace_private_front_with_block(block.clone());
                }
                chain.push(id, block);
            } else {
                let heads = self.engine.model().cache_layout().n_kv_heads;
                let n_layers = self.caches.len();
                let mut key_codes = Vec::with_capacity(n_layers * heads);
                let mut value_codes = Vec::with_capacity(n_layers * heads);
                for cache in &mut self.caches {
                    let (keys, values) = cache.take_private_front(bt);
                    key_codes.extend(keys);
                    value_codes.extend(values);
                }
                let block = Block::new(n_layers, heads, key_codes, value_codes);
                let (id, arc) = store.insert_child(chain.last_id(), &tokens, block);
                for cache in &mut self.caches {
                    cache.attach_shared_block(arc.clone());
                }
                chain.push(id, arc);
            }
        }
    }

    /// Hands a decode step's overflow to the quantization stream: encoded
    /// in place under [`QuantStream::Sync`], otherwise shipped to the
    /// worker.
    fn ship_staged(&mut self) {
        let (caches, sent, session) = (&self.caches, &mut self.sent, self.id);
        match &mut self.stream {
            QuantStream::Sync => self.encode_dense_now(),
            QuantStream::Owned(worker) => stage(caches, sent, session, |r| worker.submit(r)),
            QuantStream::External { outbox } => stage(caches, sent, session, |r| outbox.push(r)),
        }
    }

    /// Synchronously encodes all dense tokens beyond the residual window
    /// (skipping layers with a batch in flight, whose results are owed to
    /// the worker).
    fn encode_dense_now(&mut self) {
        for (cache, &sent) in self.caches.iter_mut().zip(&self.sent) {
            if sent == 0 {
                cache.encode_overflow();
            }
        }
    }

    /// Clears the caches and counters so the session can serve a new
    /// conversation without re-allocating or re-training anything. Shared
    /// block references are released (evicting blocks no other session
    /// holds).
    pub fn reset(&mut self) {
        self.flush();
        for cache in &mut self.caches {
            cache.reset();
        }
        if let Some(chain) = self.chain.as_mut() {
            chain.release_all();
        }
        self.history.clear();
        self.prefix_reused = 0;
        self.unfed = Vec::new();
        self.prefill_ns = 0;
        self.prefill_admitted = 0;
        self.prefill_chunks = 0;
        self.decode_ns = 0;
        self.seal_stalled = false;
        self.sent.iter_mut().for_each(|s| *s = 0);
        self.cur_logits = None;
        self.pending = None;
        self.prompt_tokens = 0;
        self.generated.clear();
        self.async_batches_total = 0;
        self.absorbed_since_step = 0;
    }
}

/// Submits every layer's encodable dense block of `session`'s `caches`,
/// one batch in flight per layer (`sent` counts the tokens in flight).
fn stage(
    caches: &[PqKvCache],
    sent: &mut [usize],
    session: usize,
    mut submit: impl FnMut(EncodeRequest),
) {
    for (layer, (cache, sent)) in caches.iter().zip(sent).enumerate() {
        if *sent != 0 {
            continue;
        }
        if let Some((keys, values)) = cache.encodable_dense() {
            *sent = keys.rows();
            submit(EncodeRequest {
                session,
                layer,
                keys,
                values,
            });
        }
    }
}

/// The session's per-layer caches. None of them encodes on append: the
/// session schedules every encode ([`QuantStream`]).
fn build_session_caches(engine: &MillionEngine) -> Vec<PqKvCache> {
    let layout = engine.model().cache_layout();
    (0..engine.model().config().n_layers)
        .map(|l| {
            let mut cfg = PqCacheConfig::new(
                engine.codebooks().key[l].clone(),
                engine.codebooks().value[l].clone(),
                engine.config().residual_len,
            )
            .with_layer(l);
            cfg.auto_encode = false;
            PqKvCache::new(layout, cfg)
        })
        .collect()
}

/// Streaming iterator returned by [`InferenceSession::stream`].
pub struct SessionStream<'s, 'e> {
    session: &'s mut InferenceSession<'e>,
    options: GenerationOptions,
    emitted: usize,
    stopped: bool,
}

impl Iterator for SessionStream<'_, '_> {
    type Item = StepResult;

    fn next(&mut self) -> Option<StepResult> {
        if self.stopped || self.emitted >= self.options.max_new_tokens {
            return None;
        }
        let mut step = self.session.step();
        self.emitted += 1;
        if self.options.stop.matches(step.token) {
            step.matched_stop = true;
            self.stopped = true;
        }
        Some(step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::test_fixtures::{engine, engine_for, prompt};

    #[test]
    fn step_produces_positions_and_telemetry() {
        let engine = engine(false, 0);
        let mut session = engine.session();
        session.prefill(&prompt());
        let first = session.step();
        assert_eq!(first.position, prompt().len());
        assert!(first.kv_bytes > 0);
        assert!(first.fp16_kv_bytes > first.kv_bytes);
        let second = session.step();
        assert_eq!(second.position, prompt().len() + 1);
        assert_eq!(session.generated_tokens().len(), 2);
    }

    #[test]
    fn stream_respects_stop_criteria() {
        let engine = engine(false, 1);
        let mut probe = engine.session();
        probe.prefill(&prompt());
        let probed: Vec<u32> = probe
            .stream(GenerationOptions::max_tokens(3))
            .map(|s| s.token)
            .collect();
        let target = probed[2];
        let expected_len = probed.iter().position(|&t| t == target).unwrap() + 1;

        let mut session = engine.session();
        session.prefill(&prompt());
        let options = GenerationOptions::max_tokens(16).with_stop(StopCriteria::eos(target));
        let steps: Vec<StepResult> = session.stream(options).collect();
        assert_eq!(
            steps.len(),
            expected_len,
            "stream should stop at the known token"
        );
        assert!(steps.last().unwrap().matched_stop);
    }

    #[test]
    fn append_prompt_extends_without_reencoding_history() {
        let engine = engine(false, 2);
        let mut session = engine.session();
        session.prefill(&prompt());
        let quantized_before = session.cached_tokens() - session.residual_tokens();
        for _ in 0..4 {
            session.step();
        }
        session.append_prompt(&[7, 21, 63]);
        // History grew monotonically: prompt + 4 generated + 3 appended.
        assert_eq!(session.cached_tokens(), prompt().len() + 4 + 3);
        assert!(session.cached_tokens() - session.residual_tokens() >= quantized_before);
        let step = session.step();
        assert_eq!(step.position, session.cached_tokens());
    }

    #[test]
    fn append_prompt_on_fresh_session_prefills() {
        let engine = engine(false, 3);
        let mut session = engine.session();
        session.append_prompt(&prompt());
        assert_eq!(session.cached_tokens(), prompt().len());
        assert_eq!(session.prompt_tokens(), prompt().len());
    }

    #[test]
    fn generate_stops_on_eos() {
        let engine = engine(false, 4);
        let mut probe = engine.session();
        probe.prefill(&prompt());
        let probed: Vec<u32> = probe
            .stream(GenerationOptions::max_tokens(2))
            .map(|s| s.token)
            .collect();
        let target = probed[1];
        let expected_len = probed.iter().position(|&t| t == target).unwrap() + 1;

        let mut session = engine.session();
        session.prefill(&prompt());
        let result = session
            .generate(&GenerationOptions::max_tokens(24).with_stop(StopCriteria::eos(target)));
        assert_eq!(result.tokens.len(), expected_len);
        assert_eq!(*result.tokens.last().unwrap(), target);
    }

    #[test]
    fn async_session_absorbs_worker_batches() {
        let engine = engine(true, 5);
        let mut session = engine.session();
        session.prefill(&prompt());
        for _ in 0..24 {
            session.step();
        }
        session.flush();
        assert!(session.async_batches() > 0);
        assert_eq!(session.residual_tokens(), 0);
    }

    #[test]
    fn prefill_telemetry_reports_admission_throughput() {
        let engine = engine(false, 9);
        let mut session = engine.session();
        assert_eq!(session.prefill_ns(), 0);
        assert_eq!(session.prefill_tokens_per_s(), 0.0);
        session.prefill(&prompt());
        assert!(session.prefill_ns() > 0);
        assert!(session.prefill_tokens_per_s() > 0.0);
        let after_prefill = session.prefill_ns();
        // Decode steps and later turns ride the decode path: not counted.
        session.step();
        session.append_prompt(&[3, 5]);
        assert_eq!(session.prefill_ns(), after_prefill);
        session.reset();
        assert_eq!(session.prefill_ns(), 0);
    }

    #[test]
    fn reset_allows_session_reuse() {
        let engine = engine(true, 6);
        let mut session = engine.session();
        session.prefill(&prompt());
        for _ in 0..6 {
            session.step();
        }
        session.reset();
        assert_eq!(session.cached_tokens(), 0);
        assert_eq!(session.generated_tokens().len(), 0);
        session.prefill(&prompt());
        let step = session.step();
        assert_eq!(step.position, prompt().len());
    }

    /// Everything an admission leaves behind, as bits: the last logits,
    /// every layer's codes (sealed blocks, then the private tail) and dense
    /// rows, the sealed frontier, and the tokens streamed after it.
    #[derive(Debug, PartialEq)]
    struct Admitted {
        logits: Vec<u32>,
        codes: Vec<Vec<u8>>,
        dense: Vec<Vec<u32>>,
        sealed: usize,
        tokens: Vec<u32>,
    }

    /// Admits `prompt` on a fresh session in chunks of `chunk` tokens (one
    /// [`InferenceSession::prefill`] when `None`) and streams 8 tokens.
    fn admit(engine: &MillionEngine, prompt: &[u32], chunk: Option<usize>) -> Admitted {
        let mut session = engine.session();
        match chunk {
            None => session.prefill(prompt),
            Some(size) => {
                assert_eq!(
                    session.prefill_begin(prompt.to_vec()),
                    0,
                    "a cold admission"
                );
                while session.unfed_prompt_tokens() > 0 {
                    session.prefill_chunk(size);
                }
            }
        }
        snapshot(session)
    }

    /// What `session` holds right after its admission, then 8 streamed
    /// tokens.
    fn snapshot(mut session: InferenceSession<'_>) -> Admitted {
        let logits = session.cur_logits.as_deref().expect("admitted");
        let mut codes = Vec::new();
        let mut dense = Vec::new();
        for (layer, cache) in session.caches.iter().enumerate() {
            for h in 0..cache.layout().n_kv_heads {
                for block in cache.shared_blocks() {
                    codes.push(block.key_codes(layer, h).packed_bytes().to_vec());
                    codes.push(block.value_codes(layer, h).packed_bytes().to_vec());
                }
                codes.push(cache.private_key_codes()[h].packed_bytes().to_vec());
                codes.push(cache.private_value_codes()[h].packed_bytes().to_vec());
                for rows in [&cache.recent_key_rows()[h], &cache.recent_value_rows()[h]] {
                    dense.push(rows.iter().map(|x| x.to_bits()).collect());
                }
            }
        }
        let mut admitted = Admitted {
            logits: logits.iter().map(|x| x.to_bits()).collect(),
            codes,
            dense,
            sealed: session.sealed_tokens(),
            tokens: Vec::new(),
        };
        admitted.tokens = session
            .stream(GenerationOptions::max_tokens(8))
            .map(|s| s.token)
            .collect();
        admitted
    }

    /// The engine of [`engine_for`] with a dense residual window.
    fn engine_with_residual(
        config: million_model::ModelConfig,
        async_quant: bool,
        residual_len: usize,
    ) -> MillionEngine {
        let mut engine_cfg = crate::MillionConfig::four_bit(config.head_dim());
        engine_cfg.async_quant = async_quant;
        engine_cfg.residual_len = residual_len;
        engine_with(config, engine_cfg)
    }

    fn engine_with(
        config: million_model::ModelConfig,
        engine_cfg: crate::MillionConfig,
    ) -> MillionEngine {
        let calibration: Vec<u32> = (0..96)
            .map(|i| ((i * 13 + 5) % config.vocab_size) as u32)
            .collect();
        let model = million_model::Transformer::new(config, 31);
        MillionEngine::new(model, engine_cfg, &calibration).expect("engine builds")
    }

    #[test]
    fn chunked_cold_admission_is_one_shot_prefill() {
        use million_model::{ModelConfig, NormKind, Positional};
        const LEN: usize = 200;
        let positionals = [
            (
                Positional::Rope {
                    theta: 10_000.0,
                    position_scale: 4.0,
                },
                NormKind::RmsNorm,
            ),
            (Positional::Alibi, NormKind::LayerNorm),
            (Positional::Absolute, NormKind::LayerNorm),
        ];
        let mut cases = 0;
        for base in [
            ModelConfig::tiny_for_tests(),
            ModelConfig::tiny_gqa_for_tests(),
        ] {
            for (positional, norm) in positionals {
                let mut config = base.clone();
                config.positional = positional;
                config.norm = norm;
                let prompt: Vec<u32> = (0..LEN)
                    .map(|i| ((i * 37 + 11) % config.vocab_size) as u32)
                    .collect();
                for async_quant in [false, true] {
                    // A residual window of 8 keeps the prompt's tail dense
                    // after the last chunk too.
                    for residual_len in [0, 8] {
                        let engine =
                            engine_with_residual(config.clone(), async_quant, residual_len);
                        let expected = admit(&engine, &prompt, None);
                        for size in [1, 7, 31, 32, 33, 64, 65, 512, LEN + 1] {
                            assert_eq!(
                                admit(&engine, &prompt, Some(size)),
                                expected,
                                "{positional:?} {} kv heads, async {async_quant}, \
                                 residual {residual_len}, chunks of {size}",
                                config.n_kv_heads
                            );
                            cases += 1;
                        }
                    }
                }
            }
        }
        println!("chunked cold admission: {cases} chunkings of a {LEN}-token prompt bit-compared with one prefill");
    }

    /// The serving shape: a 1,024-token prompt on llama2-7b-sim in chunks
    /// of 512 (the serving default) and 100, sync and async, against one
    /// prefill. Too slow for a debug build.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "release-only: 1k-token llama2-7b-sim admissions"
    )]
    fn chunked_cold_admission_is_one_shot_prefill_on_llama2_7b_sim() {
        let config = million_model::ModelConfig::llama2_7b_sim();
        let prompt: Vec<u32> = (0..1024)
            .map(|i| ((i * 7919 + 13) % config.vocab_size) as u32)
            .collect();
        for async_quant in [false, true] {
            let engine = engine_for(config.clone(), async_quant, 7);
            let expected = admit(&engine, &prompt, None);
            for size in [512, 100] {
                assert_eq!(
                    admit(&engine, &prompt, Some(size)),
                    expected,
                    "async {async_quant}, chunks of {size}"
                );
                println!(
                    "chunked cold admission: llama2-7b-sim, 1024-token prompt, chunks of {size}, \
                     async {async_quant}: logits, codes of {} layers and 8 streamed tokens \
                     bit-identical to one prefill",
                    config.n_layers
                );
            }
        }
    }

    /// Admits `prefix ++ suffix` on a fresh session of an engine whose
    /// store holds `prefix`'s whole blocks — the suffix in chunks of `chunk`
    /// tokens, or one [`InferenceSession::prefill`] when `None` — and
    /// streams 8 tokens. The session drops at the end, so the blocks its
    /// suffix sealed leave the store and the next admission attaches the
    /// prefix alone.
    fn admit_warm(
        engine: &MillionEngine,
        prefix: &[u32],
        suffix: &[u32],
        chunk: Option<usize>,
    ) -> Admitted {
        let prompt: Vec<u32> = prefix.iter().chain(suffix).copied().collect();
        let attached = prefix.len() / engine.config().block_tokens * engine.config().block_tokens;
        let mut session = engine.session();
        match chunk {
            None => session.prefill(&prompt),
            Some(size) => {
                assert_eq!(session.prefill_begin(prompt), attached, "a warm admission");
                while session.unfed_prompt_tokens() > 0 {
                    session.prefill_chunk(size);
                }
            }
        }
        assert_eq!(session.prefix_tokens_reused(), attached);
        snapshot(session)
    }

    /// The engine of [`engine_with_residual`], sharing prefixes through its
    /// store.
    fn warm_engine(
        config: million_model::ModelConfig,
        async_quant: bool,
        residual_len: usize,
    ) -> MillionEngine {
        let mut engine_cfg = crate::MillionConfig::four_bit(config.head_dim())
            .with_residual_len(residual_len)
            .with_prefix_sharing();
        engine_cfg.async_quant = async_quant;
        engine_with(config, engine_cfg)
    }

    #[test]
    fn warm_chunked_admission_is_one_shot_prefill() {
        // A 104-token prefix (3 whole blocks of 32 sealed and attached, 8
        // spill) and a 96-token suffix: every chunking of the 104 unmatched
        // tokens
        // against one prefill, sync and async, across RoPE/ALiBi/absolute x
        // MHA/GQA x residual {0, 8}.
        use million_model::{ModelConfig, NormKind, Positional};
        let positionals = [
            (
                Positional::Rope {
                    theta: 10_000.0,
                    position_scale: 4.0,
                },
                NormKind::RmsNorm,
            ),
            (Positional::Alibi, NormKind::LayerNorm),
            (Positional::Absolute, NormKind::LayerNorm),
        ];
        let mut cases = 0;
        for base in [
            ModelConfig::tiny_for_tests(),
            ModelConfig::tiny_gqa_for_tests(),
        ] {
            for (positional, norm) in positionals {
                let mut config = base.clone();
                config.positional = positional;
                config.norm = norm;
                let stream: Vec<u32> = (0..200)
                    .map(|i| ((i * 37 + 11) % config.vocab_size) as u32)
                    .collect();
                let (prefix, suffix) = stream.split_at(104);
                for async_quant in [false, true] {
                    for residual_len in [0, 8] {
                        let engine = warm_engine(config.clone(), async_quant, residual_len);
                        let mut seeder = engine.session();
                        seeder.prefill(prefix);
                        assert_eq!(seeder.sealed_tokens(), 96);
                        let expected = admit_warm(&engine, prefix, suffix, None);
                        for size in [1, 7, 31, 32, 33, 64, 512] {
                            assert_eq!(
                                admit_warm(&engine, prefix, suffix, Some(size)),
                                expected,
                                "{positional:?} {} kv heads, async {async_quant}, \
                                 residual {residual_len}, chunks of {size}",
                                config.n_kv_heads
                            );
                            cases += 1;
                        }
                    }
                }
            }
        }
        println!(
            "warm chunked admission: {cases} chunkings of a 104-token suffix behind 96 \
             attached tokens bit-compared with one prefill"
        );
    }

    /// The serving shape: 512 tokens behind a 1,024-token prefix on
    /// llama2-7b-sim in chunks of 512 (the serving default) and 100, sync
    /// and async, against one prefill. Too slow for a debug build.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "release-only: 512 tokens behind a 1k-token prefix on llama2-7b-sim"
    )]
    fn warm_chunked_admission_is_one_shot_prefill_on_llama2_7b_sim() {
        let config = million_model::ModelConfig::llama2_7b_sim();
        let stream: Vec<u32> = (0..1536)
            .map(|i| ((i * 7919 + 13) % config.vocab_size) as u32)
            .collect();
        let (prefix, suffix) = stream.split_at(1024);
        for async_quant in [false, true] {
            let engine = warm_engine(config.clone(), async_quant, 0);
            let mut seeder = engine.session();
            seeder.prefill(prefix);
            assert_eq!(seeder.sealed_tokens(), 1024);
            let expected = admit_warm(&engine, prefix, suffix, None);
            for size in [512, 100] {
                assert_eq!(
                    admit_warm(&engine, prefix, suffix, Some(size)),
                    expected,
                    "async {async_quant}, chunks of {size}"
                );
                println!(
                    "warm chunked admission: llama2-7b-sim, 512 tokens behind a 1024-token \
                     prefix, chunks of {size}, async {async_quant}: logits, codes of {} layers \
                     and 8 streamed tokens bit-identical to one prefill",
                    config.n_layers
                );
            }
        }
    }

    /// Admits `prompt` on a fresh session in chunks of `size`, with a
    /// standalone [`InferenceSession::persist`] after the first chunk: the
    /// session is dropped, restored from the file, and fed the rest in the
    /// same chunk sizes.
    fn admit_through_persist(
        engine: &MillionEngine,
        prompt: &[u32],
        size: usize,
        path: &std::path::Path,
    ) -> Admitted {
        let mut session = engine.session();
        let reused = session.prefill_begin(prompt.to_vec());
        assert_eq!(session.prefill_chunk(size), size);
        session.persist(path).expect("snapshot written");
        drop(session);
        let mut restored = engine.restore_session(path).expect("snapshot restores");
        std::fs::remove_file(path).expect("snapshot removed");
        assert_eq!(restored.unfed_prompt_tokens(), prompt.len() - reused - size);
        let mut chunks = 1;
        while restored.unfed_prompt_tokens() > 0 {
            restored.prefill_chunk(size);
            chunks += 1;
        }
        assert!(chunks >= 3, "{chunks} chunks");
        snapshot(restored)
    }

    #[test]
    fn persist_mid_admission_restores_one_prefill() {
        // A 200-token cold prompt, and a 104-token suffix behind 96 attached
        // tokens, each persisted after its first chunk and restored, against
        // one prefill: sync and async, residual {0, 8}.
        let config = million_model::ModelConfig::tiny_for_tests();
        let stream: Vec<u32> = (0..200)
            .map(|i| ((i * 37 + 11) % config.vocab_size) as u32)
            .collect();
        let (prefix, suffix) = stream.split_at(104);
        let path =
            std::env::temp_dir().join(format!("million_mid_admission_{}.bin", std::process::id()));
        let mut cases = 0;
        for async_quant in [false, true] {
            for residual_len in [0, 8] {
                let label = format!("async {async_quant}, residual {residual_len}");
                let cold = engine_with_residual(config.clone(), async_quant, residual_len);
                let expected = admit(&cold, &stream, None);
                let warm = warm_engine(config.clone(), async_quant, residual_len);
                let mut seeder = warm.session();
                seeder.prefill(prefix);
                assert_eq!(seeder.sealed_tokens(), 96);
                let expected_warm = admit_warm(&warm, prefix, suffix, None);
                for size in [7, 33] {
                    assert_eq!(
                        admit_through_persist(&cold, &stream, size, &path),
                        expected,
                        "cold, {label}, chunks of {size}"
                    );
                    assert_eq!(
                        admit_through_persist(&warm, &stream, size, &path),
                        expected_warm,
                        "warm, {label}, chunks of {size}"
                    );
                    cases += 2;
                }
            }
        }
        println!(
            "persist mid-admission: {cases} admissions persisted after their first chunk, \
             restored and finished, bit-identical to one prefill"
        );
    }

    #[test]
    fn a_chunk_feeds_at_most_what_the_admission_has_left() {
        let engine = engine(false, 10);
        let mut session = engine.session();
        session.prefill_begin(prompt());
        assert_eq!(session.prefill_chunk(8), 8);
        assert_eq!(session.unfed_prompt_tokens(), prompt().len() - 8);
        assert_eq!(session.prefill_chunk(8), prompt().len() - 8);
        assert_eq!(session.unfed_prompt_tokens(), 0);
        assert_eq!(session.cached_tokens(), prompt().len());
    }

    #[test]
    #[should_panic(expected = "needs an open admission")]
    fn a_chunk_without_an_open_admission_panics() {
        let engine = engine(false, 10);
        let mut session = engine.session();
        session.prefill(&prompt());
        session.prefill_chunk(1);
    }

    #[test]
    #[should_panic(expected = "prompt tokens to feed")]
    fn stepping_an_open_admission_panics() {
        let engine = engine(true, 11);
        let mut session = engine.session();
        session.prefill_begin(prompt());
        session.prefill_chunk(5);
        let _ = session.step();
    }

    #[test]
    #[should_panic(expected = "prompt tokens to feed")]
    fn opening_an_admission_over_an_unfed_one_panics() {
        let engine = engine(false, 12);
        let mut session = engine.session();
        session.prefill_begin(prompt());
        session.prefill_begin(prompt());
    }

    #[test]
    #[should_panic(expected = "session must be prefilled")]
    fn stepping_before_prefill_panics() {
        let engine = engine(false, 7);
        let mut session = engine.session();
        let _ = session.step();
    }

    #[test]
    #[should_panic(expected = "already prefilled")]
    fn double_prefill_panics() {
        let engine = engine(false, 8);
        let mut session = engine.session();
        session.prefill(&prompt());
        session.prefill(&prompt());
    }
}
