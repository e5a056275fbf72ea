//! Shared-prefix serving: N users over one system prompt.
//!
//! Every session's prompt opens with the same system prompt. With prefix
//! sharing enabled, the first admission seals the system prompt into
//! content-addressed blocks of the engine's copy-on-write store; every later
//! admission *attaches* those blocks — no prefill compute, no duplicate code
//! memory — and diverges privately from its first user-specific token.
//!
//! The users are served as one fixed cohort: a [`ServingEngine`] with
//! `max_resident: usize::MAX` admits every queued request in its first round.
//!
//! Run with `cargo run --release --example shared_prefix_serving`.

use million::{
    GenerationOptions, MillionConfig, MillionEngine, Request, ServingConfig, ServingEngine,
};
use million_eval::corpus::{CorpusConfig, SyntheticCorpus};
use million_model::{ModelConfig, Transformer};

const USERS: usize = 8;
const SYSTEM_PROMPT_TOKENS: usize = 192;
const BLOCK_TOKENS: usize = 32;

fn main() {
    let config = ModelConfig::tiny_for_tests();
    let model = Transformer::new(config.clone(), 7);
    let corpus = SyntheticCorpus::new(CorpusConfig::wikitext2_like(config.vocab_size));
    let engine_cfg = MillionConfig::four_bit(config.head_dim())
        .with_sync_quant()
        .with_block_tokens(BLOCK_TOKENS)
        .with_prefix_sharing();
    let engine =
        MillionEngine::new(model, engine_cfg, &corpus.generate(256)).expect("engine builds");

    let system_prompt = corpus.generate(SYSTEM_PROMPT_TOKENS);
    let mut serving = ServingEngine::new(
        &engine,
        ServingConfig {
            max_resident: usize::MAX,
            ..ServingConfig::default()
        },
    );
    for user in 0..USERS {
        let mut prompt = system_prompt.clone();
        prompt.extend((0..8).map(|i| ((user * 37 + i * 11 + 5) % config.vocab_size) as u32));
        serving
            .submit(Request::new(prompt, GenerationOptions::max_tokens(24)))
            .expect("queued");
    }

    println!(
        "{USERS} users, {SYSTEM_PROMPT_TOKENS}-token shared system prompt, \
         {BLOCK_TOKENS}-token blocks\n"
    );
    println!("user | reused prefix | KV bytes | shared | owned | tokens");
    // Measure sharing while the whole cohort is resident: requests retire —
    // and release their blocks — the round they finish, so the last one out
    // reports nothing shared.
    serving.serve_round();
    let stats = engine.store_stats().expect("store enabled");
    let (as_if_owned, physical) = (serving.kv_bytes(), serving.fleet_kv_bytes());
    serving.run_until_idle();
    let reports = serving.shutdown();
    for report in &reports {
        println!(
            "{:>4} | {:>13} | {:>8} | {:>6} | {:>5} | {}",
            report.session,
            report.prefix_tokens_reused,
            report.kv_bytes,
            report.kv_shared_bytes,
            report.kv_owned_bytes,
            report.tokens.len(),
        );
    }

    println!("\nblock store:");
    println!("  live blocks          {}", stats.live_blocks);
    println!("  resident code bytes  {}", stats.resident_bytes);
    println!(
        "  replicated bytes     {} (what {USERS} private copies would hold)",
        stats.replicated_bytes
    );
    println!("  dedup ratio          {:.2}x", stats.dedup_ratio());
    println!("  prefix attach hits   {}", stats.attach_hits);
    println!("  publish dedup hits   {}", stats.dedup_hits);
    println!("\nresident cohort KV as-if-owned: {as_if_owned} B; physically held: {physical} B");
    println!(
        "shared system prompt held once instead of {USERS} times — \
         {:.1}% of the cohort's KV deduplicated",
        100.0 * (as_if_owned - physical) as f64 / as_if_owned.max(1) as f64
    );
}
