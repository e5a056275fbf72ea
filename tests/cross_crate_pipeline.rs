//! Cross-crate pipeline tests: the evaluation harnesses, the engine and the
//! cache backends working together the way the experiment binaries use them.

use million::{train_codebooks, MillionConfig, MillionEngine};
use million_eval::corpus::{CorpusConfig, SyntheticCorpus};
use million_eval::perplexity::{evaluate_perplexity_against, teacher_log_probs};
use million_kvcache::{KvCache, KvQuantConfig};
use million_model::{build_caches, CacheSpec, ModelConfig, Transformer};

fn model_and_streams() -> (Transformer, Vec<u32>, Vec<u32>) {
    let config = ModelConfig::tiny_for_tests();
    let model = Transformer::new(config.clone(), 21);
    let corpus = SyntheticCorpus::new(CorpusConfig::wikitext2_like(config.vocab_size));
    (model, corpus.generate(192), corpus.generate(96))
}

#[test]
fn table2_pipeline_orders_methods_as_the_paper_does() {
    let (model, calibration, stream) = model_and_streams();
    let config = model.config().clone();
    let codebooks = train_codebooks(
        &model,
        &calibration,
        &MillionConfig::four_bit(config.head_dim()),
    )
    .expect("codebooks train");

    let teacher = teacher_log_probs(&model, &stream, 8);
    let baseline = evaluate_perplexity_against(&model, &CacheSpec::Full, &stream, 8, &teacher);
    let million = evaluate_perplexity_against(
        &model,
        &CacheSpec::Pq(codebooks.to_pq_spec(0)),
        &stream,
        8,
        &teacher,
    );
    let kvquant_2b = evaluate_perplexity_against(
        &model,
        &CacheSpec::KvQuant(KvQuantConfig {
            bits: 2,
            ..KvQuantConfig::default()
        }),
        &stream,
        8,
        &teacher,
    );

    // Paper shape: baseline <= MILLION << low-bit scalar quantization.
    assert!(million.ppl >= baseline.ppl - 1e-9);
    assert!(million.degradation_vs(&baseline) < 15.0);
    assert!(million.kl_vs_fp16 < kvquant_2b.kl_vs_fp16);
}

#[test]
fn engine_cache_spec_plugs_into_the_eval_harnesses() {
    let (model, calibration, stream) = model_and_streams();
    let config = model.config().clone();
    let engine = MillionEngine::new(
        model,
        MillionConfig::four_bit(config.head_dim()),
        &calibration,
    )
    .expect("engine builds");
    let teacher = teacher_log_probs(engine.model(), &stream, 8);
    let report =
        evaluate_perplexity_against(engine.model(), &engine.cache_spec(), &stream, 8, &teacher);
    assert!(report.kl_vs_fp16 >= 0.0);
    assert!(
        report.kl_vs_fp16 < 1.0,
        "KL {} too large",
        report.kl_vs_fp16
    );
}

#[test]
fn cache_memory_accounting_is_consistent_across_backends() {
    let (model, calibration, _) = model_and_streams();
    let config = model.config().clone();
    let codebooks = train_codebooks(
        &model,
        &calibration,
        &MillionConfig::four_bit(config.head_dim()),
    )
    .expect("codebooks train");

    let keys = million_tensor::init::normal_matrix(
        &mut million_tensor::init::seeded_rng(1),
        128,
        config.kv_width(),
        0.0,
        1.0,
    );
    for spec in [
        CacheSpec::Full,
        CacheSpec::KvQuant(KvQuantConfig::default()),
        CacheSpec::Pq(codebooks.to_pq_spec(0)),
    ] {
        let mut caches = build_caches(&config, &spec);
        caches[0].append(&keys, &keys);
        assert_eq!(caches[0].len(), 128, "{}", spec.label());
        assert!(caches[0].memory_bytes() > 0, "{}", spec.label());
    }
}
