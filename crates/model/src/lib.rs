//! Decoder-only transformer substrate for the MILLION reproduction.
//!
//! The paper evaluates KV-cache quantization on five checkpoints that differ
//! mainly in positional embedding and context length (Table I). This crate
//! provides a from-scratch, CPU-only decoder-only transformer that covers the
//! same axis of variation — RoPE (with position interpolation for the
//! long-context variants), ALiBi and absolute embeddings, MHA and GQA — with
//! deterministic synthetic weights whose key projections carry the
//! channel-wise outliers that motivate the paper (Fig. 2/3).
//!
//! The KV cache is pluggable: every layer talks to a
//! [`million_kvcache::KvCache`] backend, so the same forward pass runs on the
//! fp16 baseline, KIVI, KVQuant or MILLION's product-quantized cache.
//!
//! # Quick start
//!
//! ```
//! use million_model::{build_caches, CacheSpec, ModelConfig, Sampler, Transformer};
//!
//! let config = ModelConfig::tiny_for_tests();
//! let model = Transformer::new(config.clone(), 42);
//! let mut caches = build_caches(&config, &CacheSpec::Full);
//! let logits = model.prefill(&[1, 2, 3, 4], &mut caches, None);
//! let mut sampler = Sampler::greedy();
//! let next = sampler.sample(logits.row(3));
//! assert!((next as usize) < config.vocab_size);
//! ```

#![warn(missing_docs)]

pub mod cache_factory;
pub mod config;
pub mod hooks;
pub mod sampler;
pub mod transformer;
pub mod weights;

pub use cache_factory::{build_caches, total_cache_bytes, CacheSpec, PqSpec};
pub use config::{ModelConfig, NormKind, Positional};
pub use hooks::KvCapture;
pub use sampler::{Sampler, SamplerState};
pub use transformer::{
    prefill_attention_reference, prefill_attention_tiled, ForwardScratch, PrefillScratch,
    StepScratch, Transformer, PREFILL_K_TILE, PREFILL_Q_TILE,
};
pub use weights::{LayerWeights, ModelWeights};
