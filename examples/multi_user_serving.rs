//! Multi-user serving: N concurrent chat sessions driven through the
//! continuous-batching [`ServingEngine`] and one shared asynchronous
//! quantization worker — the scenario the paper's PQ cache exists for,
//! where every resident sequence's KV budget directly limits how many users
//! fit on the machine.
//!
//! This example keeps the fleet uniform (same class, all submitted up
//! front) so the memory story stays in the foreground; see
//! `continuous_serving.rs` for staggered arrivals, priorities, and
//! cancellation.
//!
//! Run with `cargo run --release -p million --example multi_user_serving`.

use million::{
    GenerationOptions, MillionConfig, MillionEngine, Request, ServingConfig, ServingEngine,
};
use million_eval::corpus::{CorpusConfig, SyntheticCorpus};
use million_model::{ModelConfig, Sampler, Transformer};

const USERS: usize = 6;
const TOKENS_PER_USER: usize = 32;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = ModelConfig::llama2_7b_sim();
    let model = Transformer::new(config.clone(), 42);
    let corpus = SyntheticCorpus::new(CorpusConfig::wikitext2_like(config.vocab_size));
    let engine = MillionEngine::new(
        model,
        MillionConfig::four_bit(config.head_dim()),
        &corpus.generate(512),
    )?;

    // Submit USERS requests with different prompt lengths (as real traffic
    // would have) and different sampling temperatures. Four decode slots
    // serve six users: the last two wait in the queue until slots free.
    let mut serving = ServingEngine::new(
        &engine,
        ServingConfig {
            max_resident: 4,
            queue_capacity: USERS,
            ..ServingConfig::default()
        },
    );
    let mut handles = Vec::new();
    for user in 0..USERS {
        let prompt = corpus.generate(96 + 32 * user);
        let request = Request::new(prompt, GenerationOptions::max_tokens(TOKENS_PER_USER))
            .with_sampler(Sampler::top_k(0.8, 16, user as u64));
        handles.push(serving.submit(request)?);
    }
    println!(
        "serving {USERS} concurrent sessions on {} ({} layers, head_dim {})\n",
        config.name,
        config.n_layers,
        config.head_dim()
    );

    // Drive scheduling rounds, printing fleet telemetry as the batch
    // progresses; finished sessions retire per round and free their slots
    // for the queued users.
    let start = std::time::Instant::now();
    while !serving.is_idle() {
        serving.serve_round();
        if serving.rounds().is_multiple_of(8) {
            println!(
                "round {:>3}: {} resident / {} queued, fleet KV {:>8} B (fp16 would be {:>8} B)",
                serving.rounds(),
                serving.resident_sessions(),
                serving.queued_requests(),
                serving.kv_bytes(),
                serving.fp16_kv_bytes(),
            );
        }
    }
    let elapsed = start.elapsed();
    let rounds = serving.rounds();

    let reports: Vec<_> = handles
        .iter()
        .map(|h| h.report().expect("all users served"))
        .collect();
    let total_tokens: usize = reports.iter().map(|r| r.tokens.len()).sum();
    let kv: usize = reports.iter().map(|r| r.kv_bytes).sum();
    let fp16: usize = reports.iter().map(|r| r.fp16_kv_bytes).sum();

    println!("\nper-session results:");
    for r in &reports {
        println!(
            "  user {}: {} prompt + {} generated tokens, waited {} rounds, cache {:>7} B ({:.1}% of fp16), {} async batches, admitted at {:.0} tok/s ({:.2} ms prefill)",
            r.session,
            r.prompt_tokens,
            r.tokens.len(),
            r.queue_wait_rounds,
            r.kv_bytes,
            100.0 * r.kv_bytes as f64 / r.fp16_kv_bytes as f64,
            r.async_batches,
            r.prefill_tokens_per_s,
            r.prefill_ns as f64 / 1e6,
        );
    }
    println!("\nfleet totals:");
    println!("  generated            : {total_tokens} tokens in {rounds} rounds");
    println!(
        "  KV across sessions   : {kv} bytes ({fp16} fp16-equivalent, {:.2}x smaller)",
        fp16 as f64 / kv as f64
    );
    println!(
        "  throughput           : {:.1} tokens/s aggregate, {:.2} ms/step/session",
        total_tokens as f64 / elapsed.as_secs_f64(),
        elapsed.as_secs_f64() * 1e3 / (rounds as f64 * USERS as f64),
    );
    let prefill_tokens: usize = reports.iter().map(|r| r.prompt_tokens).sum();
    let prefill_ns: u64 = reports.iter().map(|r| r.prefill_ns).sum();
    println!(
        "  admission (prefill)  : {} prompt tokens in {:.2} ms ({:.0} tok/s, tiled kernel)",
        prefill_tokens,
        prefill_ns as f64 / 1e6,
        prefill_tokens as f64 * 1e9 / prefill_ns.max(1) as f64,
    );
    println!(
        "  headroom             : at this ratio, the same KV budget holds {:.1}x more users",
        fp16 as f64 / kv as f64
    );
    Ok(())
}
