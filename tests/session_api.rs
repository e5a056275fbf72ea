//! Equivalence tests for the session-based inference API: the compatibility
//! wrappers must reproduce the seed one-shot behaviour, multi-turn
//! continuation must agree with from-scratch prefills, and sessions
//! interleaved by the serving engine must match serial execution.

use million::{
    GenerationOptions, MillionConfig, MillionEngine, Request, ServingConfig, ServingEngine,
    SessionReport, StopCriteria,
};
use million_eval::corpus::{CorpusConfig, SyntheticCorpus};
use million_model::{build_caches, ModelConfig, Sampler, Transformer};

fn build_engine(config: &ModelConfig, engine_cfg: MillionConfig, seed: u64) -> MillionEngine {
    let model = Transformer::new(config.clone(), seed);
    let corpus = SyntheticCorpus::new(CorpusConfig::wikitext2_like(config.vocab_size));
    MillionEngine::new(model, engine_cfg, &corpus.generate(256)).expect("engine builds")
}

fn prompt(config: &ModelConfig, len: usize) -> Vec<u32> {
    SyntheticCorpus::new(CorpusConfig::ptb_like(config.vocab_size)).generate(len)
}

/// The seed engine's synchronous decode loop, reproduced with the substrate
/// primitives: prefill into auto-encoding PQ caches, then greedy one-token
/// steps. The session-driven `generate` wrapper must match it token for
/// token.
fn seed_sync_loop(engine: &MillionEngine, prompt: &[u32], max_new_tokens: usize) -> Vec<u32> {
    let mut sampler = Sampler::greedy();
    let mut caches = build_caches(engine.model().config(), &engine.cache_spec());
    let logits = engine.model().prefill(prompt, &mut caches, None);
    let mut tokens = Vec::with_capacity(max_new_tokens);
    let mut next = sampler.sample(logits.row(prompt.len() - 1));
    tokens.push(next);
    for _ in 1..max_new_tokens {
        let logits = engine.model().decode_step(next, &mut caches);
        next = sampler.sample(&logits);
        tokens.push(next);
    }
    tokens
}

/// Serves `prompts` as one fixed cohort — every request admitted in the first
/// round, none held back — and returns the reports in submission order.
fn serve_cohort(
    engine: &MillionEngine,
    prompts: &[Vec<u32>],
    max_new_tokens: usize,
) -> Vec<SessionReport> {
    let mut serving = ServingEngine::new(
        engine,
        ServingConfig {
            max_resident: usize::MAX,
            ..ServingConfig::default()
        },
    );
    for p in prompts {
        serving
            .submit(Request::new(
                p.clone(),
                GenerationOptions::max_tokens(max_new_tokens),
            ))
            .expect("queued");
    }
    serving.run_until_idle();
    serving.shutdown()
}

#[test]
fn generate_wrapper_reproduces_seed_sync_loop_token_for_token() {
    let config = ModelConfig::tiny_for_tests();
    let engine = build_engine(
        &config,
        MillionConfig::four_bit(config.head_dim()).with_sync_quant(),
        41,
    );
    let p = prompt(&config, 48);
    let expected = seed_sync_loop(&engine, &p, 20);
    let mut sampler = Sampler::greedy();
    let result = engine.generate(&p, 20, &mut sampler);
    assert_eq!(result.tokens, expected);
    assert_eq!(result.prefill_tokens, p.len());
}

#[test]
fn session_step_stream_and_generate_agree() {
    let config = ModelConfig::tiny_for_tests();
    let engine = build_engine(
        &config,
        MillionConfig::four_bit(config.head_dim()).with_sync_quant(),
        43,
    );
    let p = prompt(&config, 32);

    let mut by_step = engine.session();
    by_step.prefill(&p);
    let stepped: Vec<u32> = (0..12).map(|_| by_step.step().token).collect();

    let mut by_stream = engine.session();
    by_stream.prefill(&p);
    let streamed: Vec<u32> = by_stream
        .stream(GenerationOptions::max_tokens(12))
        .map(|s| s.token)
        .collect();

    let mut by_generate = engine.session();
    by_generate.prefill(&p);
    let generated = by_generate.generate(&GenerationOptions::max_tokens(12));

    assert_eq!(stepped, streamed);
    assert_eq!(stepped, generated.tokens);
}

#[test]
fn append_prompt_matches_from_scratch_prefill_of_concatenated_turns() {
    let config = ModelConfig::tiny_for_tests();
    let engine = build_engine(
        &config,
        MillionConfig::four_bit(config.head_dim()).with_sync_quant(),
        47,
    );
    let turn1 = prompt(&config, 40);
    let turn2 = prompt(&config, 72)[40..].to_vec();
    let gen_tokens = 16;

    // Multi-turn path: the second turn rides on the already-quantized cache.
    let mut session = engine.session();
    session.prefill(&turn1);
    session.append_prompt(&turn2);
    let multi_turn = session.generate(&GenerationOptions::max_tokens(gen_tokens));

    // From-scratch path: one prefill of the concatenated turns.
    let concat: Vec<u32> = turn1.iter().chain(turn2.iter()).copied().collect();
    let mut scratch = engine.session();
    scratch.prefill(&concat);
    let from_scratch = scratch.generate(&GenerationOptions::max_tokens(gen_tokens));

    // The paths see numerically different histories for turn 2 (decode-path
    // attention over quantized turn-1 codes vs full-precision prefill
    // attention), so require high agreement rather than identity — the same
    // tolerance the paper's fidelity metrics use.
    let agree = multi_turn
        .tokens
        .iter()
        .zip(from_scratch.tokens.iter())
        .filter(|(a, b)| a == b)
        .count();
    assert!(
        agree * 100 >= gen_tokens * 70,
        "agreement {agree}/{gen_tokens}: {:?} vs {:?}",
        multi_turn.tokens,
        from_scratch.tokens
    );
    // Both paths quantize the same number of tokens in steady state.
    assert_eq!(session.cached_tokens(), scratch.cached_tokens());
}

#[test]
fn append_prompt_reuses_quantized_history() {
    let config = ModelConfig::tiny_for_tests();
    let engine = build_engine(&config, MillionConfig::four_bit(config.head_dim()), 53);
    let turn1 = prompt(&config, 40);

    let mut session = engine.session();
    session.prefill(&turn1);
    let result1 = session.generate(&GenerationOptions::max_tokens(8));
    let quantized_after_turn1 = session.cached_tokens() - session.residual_tokens();
    assert_eq!(result1.tokens.len(), 8);

    session.append_prompt(&[5, 9, 13]);
    let result2 = session.generate(&GenerationOptions::max_tokens(8));
    assert_eq!(result2.tokens.len(), 8);
    // Continuation only ever grows the cache: the quantized turn-1 prefix is
    // still there (nothing was re-encoded from scratch) and the new tokens
    // landed on top.
    assert!(session.cached_tokens() - session.residual_tokens() >= quantized_after_turn1);
    // The final sampled token is not fed back until the next turn, so its KV
    // is not cached yet — hence the trailing -1.
    assert_eq!(
        session.cached_tokens(),
        turn1.len() + 8 + 3 + 8 - 1,
        "prompt + turn-1 generation + appended turn + turn-2 generation - pending"
    );
    assert_eq!(session.prompt_tokens(), turn1.len() + 3);
}

#[test]
fn scheduler_scratch_reuse_matches_fresh_scratch_decode_token_for_token() {
    // Sessions own per-worker attention scratch reused across every step;
    // the serving engine interleaves N sessions, so one session's scratch sees
    // many (layer, head) calls between its own steps. A stale buffer — a
    // leftover LUT, score, or centroid-mass value — would show up here as a
    // divergence from the fresh-scratch-per-step reference loop, which
    // builds a new StepScratch on every decode_step call.
    let config = ModelConfig::tiny_for_tests();
    let engine = build_engine(
        &config,
        MillionConfig::four_bit(config.head_dim()).with_sync_quant(),
        67,
    );
    let prompts: Vec<Vec<u32>> = (0..3).map(|i| prompt(&config, 20 + 6 * i)).collect();
    let reports = serve_cohort(&engine, &prompts, 10);

    for (p, report) in prompts.iter().zip(reports.iter()) {
        let fresh = seed_sync_loop(&engine, p, 10);
        assert_eq!(
            report.tokens, fresh,
            "scratch-reusing scheduled session diverged from fresh-scratch decode"
        );
    }
}

#[test]
fn async_batch_scheduler_completes_and_compresses() {
    let config = ModelConfig::tiny_for_tests();
    let engine = build_engine(&config, MillionConfig::four_bit(config.head_dim()), 61);
    let prompts: Vec<Vec<u32>> = (0..5).map(|i| prompt(&config, 20 + 4 * i)).collect();
    let reports = serve_cohort(&engine, &prompts, 16);
    assert_eq!(reports.len(), 5);
    for report in &reports {
        assert_eq!(report.tokens.len(), 16);
        assert!(
            (report.kv_bytes as f64) < 0.35 * report.fp16_kv_bytes as f64,
            "session {} compressed only to {}/{}",
            report.session,
            report.kv_bytes,
            report.fp16_kv_bytes
        );
    }
    assert!(reports.iter().map(|r| r.async_batches).sum::<usize>() > 0);
}

#[test]
fn stop_criteria_terminate_generation_early() {
    let config = ModelConfig::tiny_for_tests();
    let engine = build_engine(
        &config,
        MillionConfig::four_bit(config.head_dim()).with_sync_quant(),
        67,
    );
    let p = prompt(&config, 32);

    // Learn the fourth greedy token, then use it as a stop id. Greedy decode
    // can repeat tokens, so the expected stop position is the target's first
    // occurrence.
    let mut probe = engine.session();
    probe.prefill(&p);
    let probed: Vec<u32> = probe
        .stream(GenerationOptions::max_tokens(4))
        .map(|s| s.token)
        .collect();
    let target = probed[3];
    let expected_len = probed.iter().position(|&t| t == target).unwrap() + 1;

    let mut session = engine.session();
    session.prefill(&p);
    let options = GenerationOptions::max_tokens(32)
        .with_stop(StopCriteria::none().with_stop_ids(vec![target]));
    let result = session.generate(&options);
    assert_eq!(result.tokens.len(), expected_len);
    assert_eq!(*result.tokens.last().unwrap(), target);
}
