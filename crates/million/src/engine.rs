//! The end-to-end MILLION inference engine.
//!
//! The engine holds the immutable, shareable state — the transformer and the
//! trained PQ codebooks. All decoding goes through persistent
//! [`InferenceSession`]s ([`MillionEngine::session`]); the one-shot
//! [`MillionEngine::generate`] / [`MillionEngine::generate_reference`] calls
//! are thin compatibility wrappers that build a session, run it, and drop it.

use std::sync::Arc;

use million_model::{build_caches, CacheSpec, Sampler, StepScratch, Transformer};
use million_store::{BlockStore, StoreStats};

use crate::config::MillionConfig;
use crate::session::{GenerationOptions, InferenceSession};
use crate::trainer::{train_codebooks, TrainedCodebooks};
use crate::MillionError;

/// Outcome of one generation call.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationResult {
    /// The generated token ids (length = requested new tokens, or fewer if a
    /// stop token fired).
    pub tokens: Vec<u32>,
    /// Prompt tokens the session has consumed in total — the prompt length
    /// for a one-shot `generate`, the sum over turns for a multi-turn
    /// session.
    pub prefill_tokens: usize,
    /// KV-cache bytes across all layers at the end of generation.
    pub kv_bytes: usize,
    /// What an fp16 cache of the same length would have used.
    pub fp16_kv_bytes: usize,
    /// Encoded blocks received from the asynchronous quantization worker
    /// during this call (0 when running synchronously).
    pub async_batches: usize,
    /// Tokens still held densely (not yet quantized) at the end.
    pub residual_tokens: usize,
}

impl GenerationResult {
    /// Fraction of fp16 storage used by the quantized cache (lower is better).
    pub fn compression_ratio(&self) -> f64 {
        if self.fp16_kv_bytes == 0 {
            return 1.0;
        }
        self.kv_bytes as f64 / self.fp16_kv_bytes as f64
    }
}

/// MILLION engine: a transformer plus trained PQ codebooks. Decode state
/// (caches, positions, the asynchronous quantization stream) lives in
/// [`InferenceSession`]s, so one engine serves any number of concurrent
/// sequences. The model and codebooks are shared, read-only, by every
/// [`Self::sibling`]; only the block store is per engine.
#[derive(Debug)]
pub struct MillionEngine {
    model: Arc<Transformer>,
    codebooks: Arc<TrainedCodebooks>,
    config: MillionConfig,
    /// Copy-on-write code store shared by every session of this engine
    /// (`None` when `config.block_tokens == 0`). Token-content addressing is
    /// sound only within one engine, because codes are a deterministic
    /// function of the weights, the codebooks, and the token prefix.
    store: Option<Arc<BlockStore>>,
}

impl MillionEngine {
    /// Trains codebooks on `calibration` and builds the engine.
    ///
    /// # Errors
    ///
    /// Returns [`MillionError`] if codebook training fails (empty calibration
    /// stream, PQ geometry not dividing the head dimension, ...).
    pub fn new(
        model: impl Into<Arc<Transformer>>,
        config: MillionConfig,
        calibration: &[u32],
    ) -> Result<Self, MillionError> {
        let model = model.into();
        let codebooks = train_codebooks(&model, calibration, &config)?;
        Self::from_parts(model, codebooks, config)
    }

    /// Builds an engine from already-trained codebooks.
    ///
    /// # Errors
    ///
    /// Returns [`MillionError::InvalidConfig`] if the codebook count does not
    /// match the model's layer count.
    pub fn from_parts(
        model: impl Into<Arc<Transformer>>,
        codebooks: TrainedCodebooks,
        config: MillionConfig,
    ) -> Result<Self, MillionError> {
        let model = model.into();
        if codebooks.n_layers() != model.config().n_layers {
            return Err(MillionError::InvalidConfig(format!(
                "{} codebook pairs for a {}-layer model",
                codebooks.n_layers(),
                model.config().n_layers
            )));
        }
        let store = Self::build_store(&config);
        Ok(Self {
            model,
            codebooks: Arc::new(codebooks),
            config,
            store,
        })
    }

    /// An engine over this one's model and codebooks, with the same config
    /// and a fresh, empty block store: no weights are copied and nothing is
    /// trained. Sessions of one engine never see another's blocks.
    pub fn sibling(&self) -> Self {
        Self {
            model: Arc::clone(&self.model),
            codebooks: Arc::clone(&self.codebooks),
            config: self.config.clone(),
            store: Self::build_store(&self.config),
        }
    }

    fn build_store(config: &MillionConfig) -> Option<Arc<BlockStore>> {
        (config.block_tokens > 0).then(|| {
            Arc::new(BlockStore::with_byte_budget(
                config.block_tokens,
                config.store_byte_budget,
            ))
        })
    }

    /// The engine's copy-on-write code store, if enabled.
    pub fn store(&self) -> Option<&Arc<BlockStore>> {
        self.store.as_ref()
    }

    /// Aggregate block-store accounting (`None` when the store is disabled).
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(|s| s.stats())
    }

    /// The underlying transformer, shared with every [`Self::sibling`].
    pub fn model(&self) -> &Arc<Transformer> {
        &self.model
    }

    /// The engine configuration.
    pub fn config(&self) -> &MillionConfig {
        &self.config
    }

    /// The trained codebooks.
    pub fn codebooks(&self) -> &TrainedCodebooks {
        &self.codebooks
    }

    /// Opens a new standalone inference session. With
    /// [`MillionConfig::async_quant`] set, the session spawns its own
    /// quantization worker; use a [`crate::ServingEngine`] to share one
    /// worker across many sessions.
    pub fn session(&self) -> InferenceSession<'_> {
        InferenceSession::new(self, 0, false)
    }

    /// Cache specification equivalent to this engine's decode pipeline, for
    /// use with the evaluation harnesses (teacher-forced perplexity and KL
    /// against the fp16 cache).
    pub fn cache_spec(&self) -> CacheSpec {
        CacheSpec::Pq(self.codebooks.to_pq_spec(self.config.residual_len))
    }

    /// Generates `max_new_tokens` tokens after `prompt`, using the configured
    /// decode pipeline (asynchronous or synchronous quantization).
    ///
    /// Compatibility wrapper: equivalent to opening a [`Self::session`],
    /// prefilling, and generating once.
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty or exceeds the model's context window.
    pub fn generate(
        &self,
        prompt: &[u32],
        max_new_tokens: usize,
        sampler: &mut Sampler,
    ) -> GenerationResult {
        let mut session = self.session();
        session.prefill(prompt);
        session.generate_with(&GenerationOptions::max_tokens(max_new_tokens), sampler)
    }

    /// Generates with a full-precision cache — the fp16 reference a
    /// quantized generation is compared against token for token.
    ///
    /// It is not [`Self::generate`] over another cache: a session always
    /// decodes through the engine's PQ caches, so the full-precision
    /// baseline drives the model directly.
    pub fn generate_reference(
        &self,
        prompt: &[u32],
        max_new_tokens: usize,
        sampler: &mut Sampler,
    ) -> Vec<u32> {
        let mut caches = build_caches(self.model.config(), &CacheSpec::Full);
        let logits = self.model.prefill(prompt, &mut caches, None);
        let mut tokens = Vec::with_capacity(max_new_tokens);
        if max_new_tokens == 0 {
            return tokens;
        }
        let mut next = sampler.sample(logits.row(prompt.len() - 1));
        tokens.push(next);
        let mut scratch = StepScratch::new();
        for _ in 1..max_new_tokens {
            let logits = self.model.decode_step_into(next, &mut caches, &mut scratch);
            next = sampler.sample(logits);
            tokens.push(next);
        }
        tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use million_model::ModelConfig;

    use crate::test_fixtures::{engine, prompt};

    #[test]
    fn sync_generation_produces_requested_tokens_and_compresses() {
        let engine = engine(false, 0);
        let mut sampler = Sampler::greedy();
        let result = engine.generate(&prompt(), 16, &mut sampler);
        assert_eq!(result.tokens.len(), 16);
        assert_eq!(result.prefill_tokens, prompt().len());
        assert!(
            result.compression_ratio() < 0.35,
            "ratio {}",
            result.compression_ratio()
        );
        assert_eq!(result.async_batches, 0);
    }

    #[test]
    fn async_generation_matches_sync_generation() {
        // The asynchronous pipeline only changes *when* tokens are encoded,
        // never which tokens attention sees, so greedy outputs must agree.
        let sync_engine = engine(false, 1);
        let async_engine = engine(true, 1);
        let mut s1 = Sampler::greedy();
        let mut s2 = Sampler::greedy();
        let sync_out = sync_engine.generate(&prompt(), 12, &mut s1);
        let async_out = async_engine.generate(&prompt(), 12, &mut s2);
        // Note: sync quantizes each new token immediately (residual 0) while
        // async keeps it dense until the worker returns, so the *cache state*
        // differs transiently; outputs may differ only if that transient
        // difference changes an argmax. Require high agreement.
        let agree = sync_out
            .tokens
            .iter()
            .zip(async_out.tokens.iter())
            .filter(|(a, b)| a == b)
            .count();
        assert!(
            agree >= 10,
            "sync {:?} vs async {:?}",
            sync_out.tokens,
            async_out.tokens
        );
        assert!(async_out.async_batches > 0);
    }

    #[test]
    fn async_pipeline_eventually_quantizes_everything() {
        let engine = engine(true, 2);
        let mut sampler = Sampler::greedy();
        let result = engine.generate(&prompt(), 24, &mut sampler);
        // After the final flush, at most the configured residual remains
        // dense (residual_len = 0 for this engine).
        assert_eq!(result.residual_tokens, 0);
        assert!(result.kv_bytes > 0);
    }

    #[test]
    fn reference_generation_uses_full_precision() {
        let engine = engine(false, 3);
        let mut sampler = Sampler::greedy();
        let reference = engine.generate_reference(&prompt(), 8, &mut sampler);
        assert_eq!(reference.len(), 8);
        assert!(reference
            .iter()
            .all(|&t| (t as usize) < engine.model().config().vocab_size));
    }

    #[test]
    fn reference_and_quantized_generation_return_the_same_length() {
        let engine = engine(false, 7);
        for max_new_tokens in [0, 1] {
            let reference =
                engine.generate_reference(&prompt(), max_new_tokens, &mut Sampler::greedy());
            let quantized = engine
                .generate(&prompt(), max_new_tokens, &mut Sampler::greedy())
                .tokens;
            assert_eq!(reference.len(), max_new_tokens);
            assert_eq!(quantized.len(), max_new_tokens);
        }
    }

    #[test]
    fn quantized_generation_tracks_reference_closely() {
        let engine = engine(false, 4);
        let mut s1 = Sampler::greedy();
        let mut s2 = Sampler::greedy();
        let reference = engine.generate_reference(&prompt(), 16, &mut s1);
        let quantized = engine.generate(&prompt(), 16, &mut s2).tokens;
        let agree = reference
            .iter()
            .zip(quantized.iter())
            .filter(|(a, b)| a == b)
            .count();
        assert!(
            agree >= 12,
            "agreement {agree}/16: {reference:?} vs {quantized:?}"
        );
    }

    #[test]
    fn from_parts_validates_layer_count() {
        let config = ModelConfig::tiny_for_tests();
        let model = Transformer::new(config.clone(), 5);
        let calibration: Vec<u32> = (0..64).map(|i| (i % config.vocab_size) as u32).collect();
        let engine_cfg = MillionConfig::four_bit(config.head_dim());
        let mut codebooks = train_codebooks(&model, &calibration, &engine_cfg).unwrap();
        codebooks.key.pop();
        codebooks.value.pop();
        assert!(MillionEngine::from_parts(model, codebooks, engine_cfg).is_err());
    }

    #[test]
    fn sibling_shares_model_and_codebooks_but_not_the_store() {
        let engine = engine(false, 8);
        let mut session = engine.session();
        session.prefill(&prompt());
        let tokens = session.generate(&GenerationOptions::max_tokens(40)).tokens;
        assert!(engine.store_stats().unwrap().resident_bytes > 0);

        let sibling = engine.sibling();
        assert!(Arc::ptr_eq(engine.model(), sibling.model()));
        assert!(std::ptr::eq(engine.codebooks(), sibling.codebooks()));
        assert_eq!(sibling.store_stats().unwrap().resident_bytes, 0);
        let mut session = sibling.session();
        session.prefill(&prompt());
        assert_eq!(
            session.generate(&GenerationOptions::max_tokens(40)).tokens,
            tokens
        );
    }

    #[test]
    fn cache_spec_matches_model_layers() {
        let engine = engine(false, 6);
        match engine.cache_spec() {
            CacheSpec::Pq(spec) => {
                assert_eq!(spec.key_codebooks.len(), engine.model().config().n_layers);
            }
            other => panic!("unexpected spec {other:?}"),
        }
    }
}
