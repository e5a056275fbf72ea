//! Experiment E9 — ablation of the asynchronous quantization stream.
//!
//! Measured wall-clock of the CPU engine decoding with the background
//! quantization worker on and off.

use std::time::Instant;

use million::{MillionConfig, MillionEngine};
use million_bench::{print_table, wikitext_stream, write_json};
use million_model::{ModelConfig, Sampler, Transformer};
use serde::Serialize;

#[derive(Serialize)]
struct AblationRecord {
    mode: String,
    cpu_ms_per_token: f64,
    tokens_generated: usize,
    async_batches: usize,
}

fn measure(async_quant: bool) -> AblationRecord {
    let config = ModelConfig::llama2_7b_sim();
    let model = Transformer::new(config.clone(), 55);
    let calibration = wikitext_stream(&config, 256);
    let mut engine_cfg = MillionConfig::four_bit(config.head_dim());
    engine_cfg.async_quant = async_quant;
    let engine = MillionEngine::new(model, engine_cfg, &calibration).expect("engine builds");

    let prompt = wikitext_stream(&config, 256);
    let gen_tokens = 48;
    let mut sampler = Sampler::greedy();
    let start = Instant::now();
    let result = engine.generate(&prompt, gen_tokens, &mut sampler);
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    AblationRecord {
        mode: if async_quant { "async" } else { "sync" }.into(),
        cpu_ms_per_token: elapsed / gen_tokens as f64,
        tokens_generated: result.tokens.len(),
        async_batches: result.async_batches,
    }
}

fn main() {
    let sync = measure(false);
    let async_ = measure(true);
    print_table(
        "Ablation — asynchronous quantization stream (CPU engine, llama-2-7b-sim)",
        &["mode", "ms / token (CPU)", "tokens", "worker batches"],
        &[
            vec![
                sync.mode.clone(),
                format!("{:.2}", sync.cpu_ms_per_token),
                sync.tokens_generated.to_string(),
                sync.async_batches.to_string(),
            ],
            vec![
                async_.mode.clone(),
                format!("{:.2}", async_.cpu_ms_per_token),
                async_.tokens_generated.to_string(),
                async_.async_batches.to_string(),
            ],
        ],
    );
    write_json("ablation_async_quant", &[sync, async_]);
}
