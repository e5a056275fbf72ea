//! Quickstart: build a model, calibrate MILLION's codebooks, then serve a
//! streaming session whose product-quantized KV cache persists across decode
//! steps — reporting the memory saving as it grows.
//!
//! Run with `cargo run --release -p million --example quickstart`.

use million::{GenerationOptions, MillionConfig, MillionEngine};
use million_eval::corpus::{CorpusConfig, SyntheticCorpus};
use million_model::{ModelConfig, Sampler, Transformer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A scaled-down Llama-2-style model with synthetic weights (RoPE,
    //    RMSNorm, channel-wise key outliers planted per layer).
    let config = ModelConfig::llama2_7b_sim();
    let model = Transformer::new(config.clone(), 42);
    println!(
        "model: {} ({} layers, d_model {}, head_dim {})",
        config.name,
        config.n_layers,
        config.d_model,
        config.head_dim()
    );

    // 2. Offline codebook calibration on a synthetic Wikitext-like stream.
    let corpus = SyntheticCorpus::new(CorpusConfig::wikitext2_like(config.vocab_size));
    let calibration = corpus.generate(512);
    let engine_config = MillionConfig::four_bit(config.head_dim());
    println!(
        "calibrating PQ codebooks: M = {}, nbits = {} ({} bits/channel)",
        engine_config.pq.m,
        engine_config.pq.nbits,
        engine_config.bits_per_channel(config.head_dim())
    );
    let engine = MillionEngine::new(model, engine_config, &calibration)?;

    // 3. Open a persistent session and stream tokens from it. The session
    //    owns the quantized cache and the background quantization worker;
    //    every step reports live telemetry.
    let prompt = corpus.generate(256);
    let mut session = engine.session();
    session.set_sampler(Sampler::top_k(0.8, 16, 7));
    session.prefill(&prompt);
    println!(
        "\nstreaming 64 tokens from a {}-token prompt:",
        prompt.len()
    );
    for step in session.stream(GenerationOptions::max_tokens(64)) {
        if step.position % 16 == 0 {
            println!(
                "  position {:>4}: cache {:>7} B (fp16 {:>7} B), {} tokens awaiting encode",
                step.position, step.kv_bytes, step.fp16_kv_bytes, step.residual_tokens
            );
        }
    }
    session.flush();
    println!(
        "session cache after turn 1: {:.1}% of fp16 ({:.1}x smaller), {} async batches",
        session.compression_ratio() * 100.0,
        1.0 / session.compression_ratio(),
        session.async_batches()
    );

    // 4. Compare one-shot generation against the fp16 reference of the same
    //    model (the compatibility wrappers around sessions).
    let mut greedy_a = Sampler::greedy();
    let mut greedy_b = Sampler::greedy();
    let reference = engine.generate_reference(&prompt, 64, &mut greedy_a);
    let quantized = engine.generate(&prompt, 64, &mut greedy_b).tokens;
    let agreement = reference
        .iter()
        .zip(quantized.iter())
        .filter(|(a, b)| a == b)
        .count();
    println!("greedy agreement with fp16 reference: {agreement}/64 tokens");
    println!(
        "\nnext: serve many users through the continuous-batching front-end —\n  \
         cargo run --release -p million --example continuous_serving\n\
         (request queue, QoS priorities, mid-flight admission; docs/SERVING.md)"
    );
    Ok(())
}
