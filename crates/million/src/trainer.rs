//! Offline PQ codebook training (step ①/② of Fig. 4 in the paper).

use std::sync::Arc;

use million_model::{build_caches, CacheSpec, KvCapture, PqSpec, Transformer};
use million_quant::pq::PqCodebook;
use million_quant::QuantError;

use crate::config::MillionConfig;

/// Per-layer key and value codebooks produced by calibration.
#[derive(Debug, Clone)]
pub struct TrainedCodebooks {
    /// One key codebook per layer (dimension = `head_dim`).
    pub key: Vec<Arc<PqCodebook>>,
    /// One value codebook per layer (dimension = `head_dim`).
    pub value: Vec<Arc<PqCodebook>>,
}

impl TrainedCodebooks {
    /// Number of layers covered.
    pub fn n_layers(&self) -> usize {
        self.key.len()
    }

    /// Bytes occupied by all codebooks (the GPU-resident state of Fig. 4).
    pub fn total_bytes(&self) -> usize {
        self.key
            .iter()
            .chain(self.value.iter())
            .map(|cb| cb.codebook_bytes())
            .sum()
    }

    /// Builds the cache specification used by the transformer substrate.
    pub fn to_pq_spec(&self, residual_len: usize) -> PqSpec {
        PqSpec {
            key_codebooks: self.key.clone(),
            value_codebooks: self.value.clone(),
            residual_len,
        }
    }
}

/// Runs the model over a calibration stream with a full-precision cache,
/// samples the produced keys/values, and trains per-layer PQ codebooks.
///
/// # Errors
///
/// Returns the underlying [`QuantError`] if the calibration stream is too
/// short or the PQ geometry does not divide the head dimension.
pub fn train_codebooks(
    model: &Transformer,
    calibration: &[u32],
    config: &MillionConfig,
) -> Result<TrainedCodebooks, QuantError> {
    if calibration.is_empty() {
        return Err(QuantError::InsufficientData(
            "calibration stream is empty".into(),
        ));
    }
    let model_config = model.config();
    let head_dim = model_config.head_dim();
    if !head_dim.is_multiple_of(config.pq.m) {
        return Err(QuantError::ShapeMismatch(format!(
            "head_dim {head_dim} is not divisible by M = {}",
            config.pq.m
        )));
    }

    // Capture KV during a full-precision prefill of the calibration prompt.
    let sample_len = calibration
        .len()
        .min(model_config.max_seq_len)
        .min(config.calibration_tokens.max(2));
    let mut caches = build_caches(model_config, &CacheSpec::Full);
    let mut capture = KvCapture::new(
        model_config.n_layers,
        head_dim,
        config.calibration_tokens.max(sample_len),
    );
    let _ = model.prefill(&calibration[..sample_len], &mut caches, Some(&mut capture));

    let mut key = Vec::with_capacity(model_config.n_layers);
    let mut value = Vec::with_capacity(model_config.n_layers);
    for layer in 0..model_config.n_layers {
        let key_samples = capture.key_head_vectors(layer);
        let value_samples = capture.value_head_vectors(layer);
        key.push(Arc::new(PqCodebook::train(
            &config.pq,
            &key_samples,
            &config.train_options,
            config.seed ^ (layer as u64) << 1,
        )?));
        value.push(Arc::new(PqCodebook::train(
            &config.pq,
            &value_samples,
            &config.train_options,
            config.seed ^ ((layer as u64) << 1 | 1),
        )?));
    }
    Ok(TrainedCodebooks { key, value })
}

#[cfg(test)]
mod tests {
    use super::*;
    use million_model::ModelConfig;
    use million_quant::pq::PqConfig;

    fn calibration(vocab: usize, len: usize) -> Vec<u32> {
        (0..len).map(|i| ((i * 31 + 7) % vocab) as u32).collect()
    }

    #[test]
    fn trains_one_codebook_pair_per_layer() {
        let config = ModelConfig::tiny_for_tests();
        let model = Transformer::new(config.clone(), 0);
        let engine_cfg = MillionConfig::four_bit(config.head_dim());
        let cbs = train_codebooks(&model, &calibration(config.vocab_size, 80), &engine_cfg)
            .expect("training succeeds");
        assert_eq!(cbs.n_layers(), config.n_layers);
        assert_eq!(cbs.key[0].dim(), config.head_dim());
        assert!(cbs.total_bytes() > 0);
    }

    #[test]
    fn codebooks_reconstruct_calibration_kv_well() {
        let config = ModelConfig::tiny_for_tests();
        let model = Transformer::new(config.clone(), 1);
        let engine_cfg = MillionConfig::four_bit(config.head_dim());
        let tokens = calibration(config.vocab_size, 80);
        let cbs = train_codebooks(&model, &tokens, &engine_cfg).unwrap();

        // Re-capture KV and check reconstruction error is small relative to
        // the data scale.
        let mut caches = build_caches(&config, &CacheSpec::Full);
        let mut capture = KvCapture::new(config.n_layers, config.head_dim(), 256);
        let _ = model.prefill(&tokens[..64], &mut caches, Some(&mut capture));
        for layer in 0..config.n_layers {
            let samples = capture.key_head_vectors(layer);
            let mse = cbs.key[layer].reconstruction_mse(&samples);
            let scale = samples.frobenius_norm().powi(2) / samples.len() as f64;
            assert!(
                mse < scale * 0.2,
                "layer {layer}: mse {mse} vs scale {scale}"
            );
        }
    }

    #[test]
    fn rejects_empty_calibration() {
        let config = ModelConfig::tiny_for_tests();
        let model = Transformer::new(config.clone(), 2);
        let engine_cfg = MillionConfig::four_bit(config.head_dim());
        assert!(train_codebooks(&model, &[], &engine_cfg).is_err());
    }

    #[test]
    fn rejects_indivisible_pq_geometry() {
        let config = ModelConfig::tiny_for_tests(); // head_dim = 16
        let model = Transformer::new(config.clone(), 3);
        let engine_cfg = MillionConfig::new(PqConfig::new(5, 8).unwrap());
        assert!(matches!(
            train_codebooks(&model, &calibration(config.vocab_size, 40), &engine_cfg),
            Err(QuantError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn a_non_finite_capture_is_an_error_not_a_panic() {
        // A NaN embedding row makes every key and value of that token NaN.
        let config = ModelConfig::tiny_for_tests();
        let mut weights = million_model::ModelWeights::initialize(&config, 5);
        let poisoned = 7;
        for c in 0..config.d_model {
            weights.embedding.set(poisoned, c, f32::NAN);
        }
        let model = Transformer::from_weights(config.clone(), weights);
        let mut tokens = calibration(config.vocab_size, 40);
        tokens[3] = poisoned as u32;
        let engine_cfg = MillionConfig::four_bit(config.head_dim());
        assert!(matches!(
            train_codebooks(&model, &tokens, &engine_cfg),
            Err(QuantError::NonFinite(_))
        ));
    }

    #[test]
    fn to_pq_spec_propagates_options() {
        let config = ModelConfig::tiny_for_tests();
        let model = Transformer::new(config.clone(), 4);
        let engine_cfg = MillionConfig::four_bit(config.head_dim());
        let cbs =
            train_codebooks(&model, &calibration(config.vocab_size, 60), &engine_cfg).unwrap();
        let spec = cbs.to_pq_spec(7);
        assert_eq!(spec.residual_len, 7);
        assert_eq!(spec.key_codebooks.len(), config.n_layers);
    }
}
