//! # MILLION — outlier-immunized KV-cache product quantization
//!
//! End-to-end engine tying together the substrates of this workspace, in the
//! shape of the system described in the DAC 2025 paper *"MILLION: MasterIng
//! Long-Context LLM Inference Via Outlier-Immunized KV Product
//! QuaNtization"*:
//!
//! 1. **Offline codebook training** ([`trainer`]) — run the model over a
//!    calibration stream, sample its keys/values, and fit per-layer product
//!    quantization codebooks.
//! 2. **Persistent sessions** ([`session`]) — an [`InferenceSession`] owns a
//!    sequence's quantized KV caches across prefill, decoding, and follow-up
//!    turns, streaming one token (plus telemetry) per [`InferenceSession::step`].
//! 3. **Decode with KV quantization** — attention over the history is
//!    computed directly on the codes through per-query lookup tables; the
//!    current token stays full precision and is merged with an online
//!    softmax.
//! 4. **Asynchronous quantization** ([`async_quant`]) — freshly generated KV
//!    is encoded on a background worker (the paper's low-priority CUDA
//!    stream) so encoding never blocks the decode critical path.
//! 5. **Continuous-batching serving** ([`serving`]) — a [`ServingEngine`]
//!    accepts a stream of prioritised [`Request`]s, schedules at *iteration*
//!    granularity (finished requests retire per round, freed slots refill
//!    from the queue under a KV-byte admission budget), shares decode
//!    throughput across QoS classes with deficit-weighted round-robin, and
//!    streams tokens through [`RequestHandle`]s with first-class
//!    cancellation and queue-full backpressure.
//!
//! ## Quickstart: a streaming chat session
//!
//! ```no_run
//! use million::{GenerationOptions, MillionConfig, MillionEngine, StopCriteria};
//! use million_model::{ModelConfig, Transformer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = ModelConfig::llama2_7b_sim();
//! let model = Transformer::new(config.clone(), 42);
//! let calibration: Vec<u32> = (0..512).map(|i| (i * 7 % config.vocab_size as u32)).collect();
//! let engine = MillionEngine::new(model, MillionConfig::four_bit(config.head_dim()), &calibration)?;
//!
//! // One persistent session per user; its PQ-compressed cache survives turns.
//! let mut session = engine.session();
//! session.prefill(&[1, 2, 3, 4]);
//! for step in session.stream(GenerationOptions::max_tokens(32).with_stop(StopCriteria::eos(0))) {
//!     println!("token {} @ {} (cache {} B, {} batches quantized in background)",
//!              step.token, step.position, step.kv_bytes, step.async_batches);
//! }
//!
//! // A follow-up turn attends to the already-quantized history — nothing is
//! // re-prefetched or re-encoded.
//! session.append_prompt(&[9, 8, 7]);
//! let reply = session.generate(&GenerationOptions::max_tokens(16));
//! println!("turn 2: {} tokens, cache at {:.1}% of fp16",
//!          reply.tokens.len(), reply.compression_ratio() * 100.0);
//! # Ok(())
//! # }
//! ```
//!
//! To serve many users, submit their prompts to a [`ServingEngine`] instead
//! (see `examples/continuous_serving.rs` and docs/SERVING.md); a fixed
//! cohort is the same engine with `max_resident: usize::MAX`
//! (`examples/shared_prefix_serving.rs`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod async_quant;
pub mod config;
pub mod engine;
pub mod fault;
pub mod observe;
mod persist;
pub mod serving;
pub mod session;
pub mod trainer;

pub use async_quant::QuantWorker;
pub use config::MillionConfig;
pub use engine::{GenerationResult, MillionEngine};
pub use fault::FaultPlan;
pub use million_store::{Block, BlockStore, StoreStats};
pub use observe::{RequestInfo, RequestState, RoundPhase, ServingTelemetry, TelemetrySnapshot};
pub use serving::{
    DrainReport, QosClass, RecoverReport, Request, RequestHandle, RequestId, ServingConfig,
    ServingEngine, ServingStats, SessionReport, SubmitError, TokenWait,
};
pub use session::{GenerationOptions, InferenceSession, SessionStream, StepResult, StopCriteria};
pub use trainer::{train_codebooks, TrainedCodebooks};

/// Errors produced by the MILLION engine.
#[derive(Debug)]
pub enum MillionError {
    /// Codebook training failed (propagated from the quantization crate).
    Quant(million_quant::QuantError),
    /// The engine was configured inconsistently with the model.
    InvalidConfig(String),
    /// A persisted session could not be read back (I/O failure, corruption,
    /// or an engine-geometry mismatch).
    Persist(String),
}

impl std::fmt::Display for MillionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MillionError::Quant(e) => write!(f, "codebook training failed: {e}"),
            MillionError::InvalidConfig(msg) => write!(f, "invalid engine configuration: {msg}"),
            MillionError::Persist(msg) => write!(f, "session restore failed: {msg}"),
        }
    }
}

impl std::error::Error for MillionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MillionError::Quant(e) => Some(e),
            MillionError::InvalidConfig(_) | MillionError::Persist(_) => None,
        }
    }
}

impl From<million_quant::QuantError> for MillionError {
    fn from(e: million_quant::QuantError) -> Self {
        MillionError::Quant(e)
    }
}

#[cfg(test)]
pub(crate) mod test_fixtures {
    use million_model::{ModelConfig, Transformer};

    use crate::{MillionConfig, MillionEngine};

    /// The tiny engine shared by the engine/session/serving test modules.
    pub(crate) fn engine(async_quant: bool, seed: u64) -> MillionEngine {
        engine_for(ModelConfig::tiny_for_tests(), async_quant, seed)
    }

    /// [`engine`] over a variant of the tiny model configuration.
    pub(crate) fn engine_for(config: ModelConfig, async_quant: bool, seed: u64) -> MillionEngine {
        let model = Transformer::new(config.clone(), seed);
        let calibration: Vec<u32> = (0..96)
            .map(|i| ((i * 13 + 5) % config.vocab_size) as u32)
            .collect();
        let mut engine_cfg = MillionConfig::four_bit(config.head_dim());
        engine_cfg.async_quant = async_quant;
        MillionEngine::new(model, engine_cfg, &calibration).expect("engine builds")
    }

    /// A short fixed prompt within the tiny model's vocabulary.
    pub(crate) fn prompt() -> Vec<u32> {
        vec![3, 9, 27, 81, 11, 33, 99, 41, 2, 6, 18, 54]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let err: MillionError = million_quant::QuantError::InvalidConfig("nbits".into()).into();
        assert!(err.to_string().contains("nbits"));
        assert!(std::error::Error::source(&err).is_some());
        let err = MillionError::InvalidConfig("bad".into());
        assert!(std::error::Error::source(&err).is_none());
    }
}
