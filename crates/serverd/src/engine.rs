//! Deterministic engine construction: [`crate::Server::bind`] builds one
//! engine per process (weights and codebook training) and every shard
//! incarnation serves from a [`MillionEngine::sibling`] of it.
//!
//! Determinism is the contract the end-to-end tests lean on: an engine
//! built from the same [`EngineSettings`] holds bit-identical simulated
//! weights and codebooks, so the socket tests can compare an HTTP/SSE
//! stream against a direct in-process [`million::ServingEngine`] run over a
//! reference engine token for token.

use million::{MillionEngine, MillionError};

use crate::config::{ConfigError, EngineSettings};

/// Why the engine could not be constructed.
#[derive(Debug)]
pub enum BuildError {
    /// The settings were internally inconsistent (bad preset name, etc.).
    Config(ConfigError),
    /// Codebook calibration or engine assembly failed.
    Engine(MillionError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Config(e) => write!(f, "engine settings: {e}"),
            BuildError::Engine(e) => write!(f, "engine build: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<ConfigError> for BuildError {
    fn from(e: ConfigError) -> Self {
        BuildError::Config(e)
    }
}

impl From<MillionError> for BuildError {
    fn from(e: MillionError) -> Self {
        BuildError::Engine(e)
    }
}

/// The deterministic calibration stream the codebooks are trained on: the
/// same mixed-congruential walk the engine's own test fixtures use,
/// stretched to `len` tokens.
pub fn calibration_stream(len: usize, vocab_size: usize) -> Vec<u32> {
    (0..len)
        .map(|i| ((i * 13 + 5) % vocab_size) as u32)
        .collect()
}

/// Builds the engine from `settings`: resolve the model preset, instantiate
/// seeded simulated weights, train codebooks on the synthetic calibration
/// stream, and wire the PQ store.
pub fn build_engine(settings: &EngineSettings) -> Result<MillionEngine, BuildError> {
    let model_config = settings.model_config()?;
    let model = million_model::Transformer::new(model_config.clone(), settings.seed);
    let calibration = calibration_stream(settings.calibration_tokens, model_config.vocab_size);
    let million_config = settings.million_config(model_config.head_dim());
    Ok(MillionEngine::new(model, million_config, &calibration)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use million::{GenerationOptions, MillionConfig};

    fn tiny_settings() -> EngineSettings {
        EngineSettings {
            model: "tiny-test".into(),
            calibration_tokens: 96,
            async_quant: false,
            ..EngineSettings::default()
        }
    }

    #[test]
    fn equal_settings_build_bit_identical_engines() {
        let a = build_engine(&tiny_settings()).unwrap();
        let b = build_engine(&tiny_settings()).unwrap();
        let prompt = [3u32, 9, 27, 81, 11, 33];
        let mut sa = a.session();
        sa.prefill(&prompt);
        let mut sb = b.session();
        sb.prefill(&prompt);
        let ta = sa.generate(&GenerationOptions::max_tokens(12)).tokens;
        let tb = sb.generate(&GenerationOptions::max_tokens(12)).tokens;
        assert_eq!(ta, tb);
    }

    #[test]
    fn settings_flow_through_to_the_engine_config() {
        let mut settings = tiny_settings();
        settings.block_tokens = 16;
        settings.bits = 3;
        let engine = build_engine(&settings).unwrap();
        assert_eq!(engine.config().block_tokens, 16);
        let model_cfg = settings.model_config().unwrap();
        assert_eq!(
            engine.config().pq.nbits,
            MillionConfig::three_bit(model_cfg.head_dim()).pq.nbits
        );
    }
}
