//! Long-context chat scenario: a Longchat-style model carries one persistent
//! session across several user turns. The first turn pays the long-document
//! prefill once; every later turn rides on the already-quantized history via
//! `append_prompt`, which is exactly the serving pattern MILLION's
//! PQ-compressed cache exists for.
//!
//! Run with `cargo run --release -p million --example long_context_chat`.

use million::{GenerationOptions, MillionConfig, MillionEngine};
use million_eval::corpus::{CorpusConfig, SyntheticCorpus};
use million_model::{ModelConfig, Transformer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Longchat-style preset: RoPE with position interpolation, 32K window.
    let config = ModelConfig::longchat_7b_sim();
    let model = Transformer::new(config.clone(), 1234);
    let corpus = SyntheticCorpus::new(CorpusConfig::wikitext2_like(config.vocab_size));

    let engine = MillionEngine::new(
        model,
        MillionConfig::four_bit(config.head_dim()).with_residual_len(16),
        &corpus.generate(512),
    )?;

    // Turn 1: a "long document" plus the first question (scaled down so the
    // CPU example stays snappy; raise it freely on a faster machine).
    let document = corpus.generate(1024);
    let answer_len = 32;

    let mut session = engine.session();
    let t0 = std::time::Instant::now();
    session.prefill(&document);
    let prefill_ms = t0.elapsed().as_secs_f64() * 1e3;
    let turn1 = session.generate(&GenerationOptions::max_tokens(answer_len));

    println!("long-context chat with {}", config.name);
    println!(
        "turn 1: {} document tokens prefilled in {prefill_ms:.0} ms,",
        document.len()
    );
    println!(
        "        answered {} tokens; cache {:.1} KiB (fp16 would be {:.1} KiB, {:.1}x smaller)",
        turn1.tokens.len(),
        turn1.kv_bytes as f64 / 1024.0,
        turn1.fp16_kv_bytes as f64 / 1024.0,
        1.0 / turn1.compression_ratio()
    );

    // Turns 2..4: follow-up questions reuse the quantized document instead of
    // re-prefilling it.
    for turn in 2..=4 {
        let question = corpus.generate(24);
        let t = std::time::Instant::now();
        session.append_prompt(&question);
        let reply = session.generate(&GenerationOptions::max_tokens(answer_len));
        let turn_ms = t.elapsed().as_secs_f64() * 1e3;
        println!(
            "turn {turn}: +{} question tokens (no re-prefill), {} answer tokens in {turn_ms:.0} ms; \
             cache now {} tokens at {:.1}% of fp16",
            question.len(),
            reply.tokens.len(),
            session.cached_tokens(),
            session.compression_ratio() * 100.0,
        );
    }

    Ok(())
}
