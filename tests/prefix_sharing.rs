//! Acceptance tests for the paged copy-on-write code store: cross-session
//! prefix sharing (correctness *and* memory wins) and session persistence.
//!
//! The sharing equivalence class: an attached session is bit-identical to an
//! **unshared** session admitted the same way — `prefill(matched_prefix)`
//! followed by `append_prompt(rest)` — because attached codes are the
//! deterministic encoder's output for the same token prefix, both prefill
//! the rest in one pass over those codes decoded to their centroids, and
//! the paged fused kernel performs the identical arithmetic sequence as the
//! monolithic one when they decode. (A session that cold-prefills the
//! *whole* prompt sees the prefix in full precision during prefill, which
//! is a different — equally valid — numeric path; that asymmetry is
//! inherent to the paper's design and is why prefix sharing is opt-in.)

use million::{
    GenerationOptions, MillionConfig, MillionEngine, Request, ServingConfig, ServingEngine,
    StopCriteria,
};
use million_eval::corpus::{CorpusConfig, SyntheticCorpus};
use million_model::{ModelConfig, Transformer};

const BLOCK_TOKENS: usize = 32;

fn build_engine(config: &ModelConfig, engine_cfg: MillionConfig, seed: u64) -> MillionEngine {
    let model = Transformer::new(config.clone(), seed);
    let corpus = SyntheticCorpus::new(CorpusConfig::wikitext2_like(config.vocab_size));
    MillionEngine::new(model, engine_cfg, &corpus.generate(256)).expect("engine builds")
}

fn sharing_config(head_dim: usize) -> MillionConfig {
    MillionConfig::four_bit(head_dim)
        .with_sync_quant()
        .with_block_tokens(BLOCK_TOKENS)
        .with_prefix_sharing()
}

fn unshared_config(head_dim: usize) -> MillionConfig {
    MillionConfig::four_bit(head_dim)
        .with_sync_quant()
        .with_block_tokens(BLOCK_TOKENS)
}

fn prompt(config: &ModelConfig, len: usize) -> Vec<u32> {
    SyntheticCorpus::new(CorpusConfig::ptb_like(config.vocab_size)).generate(len)
}

/// A serving engine that holds nothing back, with `prompts` queued: the
/// first round admits them all, as one fixed cohort.
fn cohort<'e>(
    engine: &'e MillionEngine,
    prompts: &[Vec<u32>],
    max_new_tokens: usize,
) -> ServingEngine<'e> {
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
    serving
}

/// Shared-prefix serving equivalence at a parameterized prefix length.
fn assert_shared_sessions_match_unshared(config: &ModelConfig, prefix_len: usize, users: usize) {
    let shared_engine = build_engine(config, sharing_config(config.head_dim()), 71);
    let unshared_engine = build_engine(config, unshared_config(config.head_dim()), 71);
    let prefix = prompt(config, prefix_len);
    let matched = (prefix_len / BLOCK_TOKENS) * BLOCK_TOKENS;

    // A seeder session prefilled with the bare prefix publishes its blocks
    // and stays alive so they remain resident.
    let mut seeder = shared_engine.session();
    seeder.prefill(&prefix);
    assert_eq!(seeder.sealed_tokens(), matched);
    assert_eq!(seeder.prefix_tokens_reused(), 0);

    let mut shared_tokens_out = Vec::new();
    let mut shared_sessions = Vec::new();
    for u in 0..users {
        let suffix: Vec<u32> = (0..6)
            .map(|i| ((u * 31 + i * 7 + 3) % config.vocab_size) as u32)
            .collect();
        let full: Vec<u32> = prefix.iter().chain(suffix.iter()).copied().collect();

        // Attached admission on the sharing engine.
        let mut session = shared_engine.session();
        session.prefill(&full);
        assert_eq!(
            session.prefix_tokens_reused(),
            matched,
            "user {u} should attach every whole prefix block"
        );
        let generated = session.generate(&GenerationOptions::max_tokens(12));

        // Unshared equivalent: same admission structure, fully private codes.
        let mut baseline = unshared_engine.session();
        baseline.prefill(&full[..matched]);
        baseline.append_prompt(&full[matched..]);
        assert_eq!(baseline.prefix_tokens_reused(), 0);
        let expected = baseline.generate(&GenerationOptions::max_tokens(12));

        assert_eq!(
            generated.tokens, expected.tokens,
            "user {u}: attached session diverged from its unshared equivalent"
        );
        assert_eq!(generated.kv_bytes, expected.kv_bytes);
        shared_tokens_out.push(generated.tokens);
        shared_sessions.push(session);
    }

    // Every attached session co-references the prefix blocks.
    let prefix_bytes = shared_sessions[0].kv_shared_bytes();
    assert!(prefix_bytes > 0);
    for session in &shared_sessions {
        assert!(session.kv_shared_bytes() >= prefix_bytes);
        assert_eq!(
            session.kv_shared_bytes() + session.kv_owned_bytes(),
            session.kv_bytes()
        );
    }

    // The memory win: the prefix is resident once, not once per session.
    let stats = shared_engine.store_stats().expect("store enabled");
    assert!(
        stats.shared_bytes >= prefix_bytes,
        "prefix blocks should be shared"
    );
    let unshared_total = stats.replicated_bytes as f64;
    let resident = stats.resident_bytes as f64;
    let min_ratio = 0.8 * (users + 1) as f64;
    assert!(
        unshared_total / resident >= min_ratio.min((users + 1) as f64),
        "dedup ratio {:.2} too low for {} sessions over one prefix",
        unshared_total / resident,
        users + 1
    );
}

#[test]
fn shared_prefix_sessions_are_bit_identical_to_unshared_equivalents() {
    let config = ModelConfig::tiny_for_tests();
    // 130 = 4 whole blocks of 32 + 2 spill tokens.
    assert_shared_sessions_match_unshared(&config, 130, 4);
}

/// The acceptance-scale variant: a common 4k-token prefix. Run with
/// `cargo test --release -- --ignored` (CI does); the O(n²) full-precision
/// prefills of the unshared baselines are too slow for debug-mode test runs.
#[test]
#[ignore]
fn shared_prefix_4k_sessions_are_bit_identical_to_unshared_equivalents() {
    let config = ModelConfig {
        max_seq_len: 4416,
        ..ModelConfig::tiny_for_tests()
    };
    // 4100 = 128 whole blocks of 32 + 4 spill tokens.
    assert_shared_sessions_match_unshared(&config, 4100, 3);
}

#[test]
fn admission_skips_prefill_entirely_on_a_full_prefix_hit() {
    let config = ModelConfig::tiny_for_tests();
    let engine = build_engine(&config, sharing_config(config.head_dim()), 73);
    let p = prompt(&config, 97); // 3 whole blocks + 1: everything but the
                                 // final token is attachable.
    let mut seeder = engine.session();
    seeder.prefill(&p);
    let mut warm = engine.session();
    warm.prefill(&p);
    assert_eq!(warm.prefix_tokens_reused(), 96);
    assert_eq!(warm.cached_tokens(), 97);
    // Bit-identical to the unshared session admitted the same way.
    let unshared = build_engine(&config, unshared_config(config.head_dim()), 73);
    let mut baseline = unshared.session();
    baseline.prefill(&p[..96]);
    baseline.append_prompt(&p[96..]);
    let a = warm.generate(&GenerationOptions::max_tokens(8));
    let b = baseline.generate(&GenerationOptions::max_tokens(8));
    assert_eq!(a.tokens, b.tokens);
}

#[test]
fn scheduler_observes_prefix_sharing_per_session() {
    let config = ModelConfig::tiny_for_tests();
    let engine = build_engine(&config, sharing_config(config.head_dim()), 79);
    let system_prompt = prompt(&config, 70); // 2 whole blocks + 6
    let prompts: Vec<Vec<u32>> = (0..3)
        .map(|u| {
            let mut p = system_prompt.clone();
            p.extend((0..4).map(|i| ((u * 13 + i * 5) % config.vocab_size) as u32));
            p
        })
        .collect();
    let mut serving = cohort(&engine, &prompts, 6);
    // Sharing is observed while all three are resident: the fleet holds the
    // system prompt's blocks once, the per-session sum counts them thrice.
    // (A report is built as its request retires, so the last of a cohort to
    // leave legitimately reports nothing shared.)
    serving.serve_round();
    assert_eq!(serving.resident_sessions(), 3);
    assert!(serving.fleet_kv_bytes() < serving.kv_bytes());
    serving.run_until_idle();
    let reports = serving.shutdown();
    assert_eq!(reports[0].prefix_tokens_reused, 0, "first user is cold");
    for report in &reports[1..] {
        assert_eq!(report.prefix_tokens_reused, 64);
    }
    for report in &reports {
        assert_eq!(
            report.kv_shared_bytes + report.kv_owned_bytes,
            report.kv_bytes
        );
        assert_eq!(report.tokens.len(), 6);
    }
}

#[test]
fn async_sessions_seal_and_share_through_the_scheduler() {
    let config = ModelConfig::tiny_for_tests();
    let engine_cfg = MillionConfig::four_bit(config.head_dim())
        .with_block_tokens(BLOCK_TOKENS)
        .with_prefix_sharing();
    let engine = build_engine(&config, engine_cfg, 83);
    let shared = prompt(&config, 66);
    let prompts: Vec<Vec<u32>> = (0..3)
        .map(|u| {
            let mut p = shared.clone();
            p.push((u * 11 + 1) as u32);
            p
        })
        .collect();
    let mut serving = cohort(&engine, &prompts, 40);
    serving.run_until_idle();
    let reports = serving.shutdown();
    for report in &reports[1..] {
        assert_eq!(report.prefix_tokens_reused, 64);
    }
    // Decode generated enough tokens to seal blocks beyond the prefix.
    let stats = engine.store_stats().unwrap();
    assert!(stats.published > 2, "decode-time sealing should have run");
    assert!(reports.iter().map(|r| r.async_batches).sum::<usize>() > 0);
}

#[test]
fn sealing_dedup_never_adopts_differently_segmented_codes() {
    // PQ codes are a deterministic function of the *computation path*, not
    // of the token ids alone: the same tokens admitted through a different
    // prefill/turn segmentation yield slightly different KV and codes. The
    // store's publish-time dedup must therefore verify code content before
    // converging — a session may never silently adopt codes it did not
    // compute. This runs in the DEFAULT configuration (store on, sharing
    // off): the regression it guards against needed no opt-in.
    let config = ModelConfig::tiny_for_tests();
    let engine = build_engine(&config, unshared_config(config.head_dim()), 99);
    let control_engine = build_engine(&config, unshared_config(config.head_dim()), 99);
    let t = prompt(&config, 64);

    // Session A seals prefill-derived codes for the whole token chain.
    let mut a = engine.session();
    a.prefill(&t);
    assert_eq!(a.sealed_tokens(), 64);

    // Session B reaches the same 64-token history with a turn boundary at
    // 32, so its codes for t[32..64) are decode-path-derived. Its output
    // must be identical to the same admission on an engine where A never
    // existed.
    let run = |engine: &MillionEngine| {
        let mut b = engine.session();
        b.prefill(&t[..32]);
        b.append_prompt(&t[32..]);
        b.generate(&GenerationOptions::max_tokens(10)).tokens
    };
    let with_a_resident = run(&engine);
    let alone = run(&control_engine);
    assert_eq!(
        with_a_resident, alone,
        "dedup spliced another session's differently-derived codes"
    );
}

#[test]
fn stop_tokens_still_work_with_sharing() {
    let config = ModelConfig::tiny_for_tests();
    let engine = build_engine(&config, sharing_config(config.head_dim()), 89);
    let p = prompt(&config, 40);
    let mut seeder = engine.session();
    seeder.prefill(&p);
    let probed: Vec<u32> = seeder
        .stream(GenerationOptions::max_tokens(3))
        .map(|s| s.token)
        .collect();
    let target = probed[2];

    let mut warm = engine.session();
    warm.prefill(&p);
    assert_eq!(warm.prefix_tokens_reused(), 32);
    let result =
        warm.generate(&GenerationOptions::max_tokens(16).with_stop(StopCriteria::eos(target)));
    assert_eq!(*result.tokens.last().unwrap(), target);
}

mod persistence {
    use super::*;

    fn snapshot_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("million_session_{tag}_{}.bin", std::process::id()))
    }

    #[test]
    fn persisted_session_restores_and_continues_bit_identically() {
        let config = ModelConfig::tiny_for_tests();
        let engine = build_engine(&config, sharing_config(config.head_dim()), 91);
        let p = prompt(&config, 50);

        // Twin sessions: `control` runs uninterrupted; `persisted` round-trips
        // through disk mid-stream.
        let mut control = engine.session();
        control.prefill(&p);
        let mut persisted = engine.session();
        persisted.prefill(&p);
        for _ in 0..10 {
            assert_eq!(control.step().token, persisted.step().token);
        }

        let path = snapshot_path("roundtrip");
        persisted.persist(&path).expect("snapshot written");
        let generated_before: Vec<u32> = persisted.generated_tokens().to_vec();
        drop(persisted);

        let mut restored = engine.restore_session(&path).expect("snapshot restores");
        assert_eq!(restored.generated_tokens(), &generated_before[..]);
        assert_eq!(restored.cached_tokens(), control.cached_tokens());
        assert_eq!(restored.prompt_tokens(), control.prompt_tokens());
        // The restored chain re-attached to the resident blocks the control
        // session still references — restore participates in sharing.
        assert!(restored.kv_shared_bytes() > 0);

        for i in 0..20 {
            assert_eq!(
                control.step().token,
                restored.step().token,
                "divergence at post-restore step {i}"
            );
        }
        // Restored sessions remain persistable and continue further.
        restored.persist(&path).expect("re-snapshot");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restore_works_without_resident_blocks_and_without_a_store() {
        let config = ModelConfig::tiny_for_tests();
        let engine = build_engine(&config, sharing_config(config.head_dim()), 93);
        let p = prompt(&config, 44);
        let mut session = engine.session();
        session.prefill(&p);
        let expected: Vec<u32> = (0..6).map(|_| session.step().token).collect();

        // Re-admit an identical session, persist it, then drop every session
        // so the store evicts all blocks before restoring.
        let mut twin = engine.session();
        twin.prefill(&p);
        let path = snapshot_path("cold");
        twin.persist(&path).expect("snapshot written");
        drop(twin);
        drop(session);
        assert_eq!(engine.store_stats().unwrap().live_blocks, 0);

        let mut restored = engine.restore_session(&path).expect("cold restore");
        let replayed: Vec<u32> = (0..6).map(|_| restored.step().token).collect();
        assert_eq!(replayed, expected);

        // An engine with the store disabled folds the chain into private
        // codes and still continues identically.
        let storeless = build_engine(
            &config,
            MillionConfig::four_bit(config.head_dim())
                .with_sync_quant()
                .with_block_tokens(0),
            93,
        );
        let mut folded = storeless.restore_session(&path).expect("folded restore");
        let refolded: Vec<u32> = (0..6).map(|_| folded.step().token).collect();
        assert_eq!(refolded, expected);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restore_folds_rather_than_adopting_differently_segmented_resident_blocks() {
        // Between persist and restore, another session can seal blocks for
        // the *same* token chain computed through a different admission
        // segmentation. Restore must fold the snapshot's own codes privately
        // instead of adopting the hash-identical-but-content-different
        // resident blocks, so continuation stays bit-identical.
        let config = ModelConfig::tiny_for_tests();
        let engine = build_engine(&config, unshared_config(config.head_dim()), 101);
        let control_engine = build_engine(&config, unshared_config(config.head_dim()), 101);
        let t = prompt(&config, 64);

        // Persisted session: turn boundary at 32 (second block is
        // decode-path-derived).
        let mut original = engine.session();
        original.prefill(&t[..32]);
        original.append_prompt(&t[32..]);
        let path = snapshot_path("segmented");
        original.persist(&path).expect("snapshot written");
        drop(original); // its blocks are evicted

        // Another session now seals prefill-derived blocks for the same
        // token chain.
        let mut other = engine.session();
        other.prefill(&t);
        assert_eq!(other.sealed_tokens(), 64);

        // The uninterrupted twin of the persisted session, on an engine
        // free of competing blocks.
        let mut twin = control_engine.session();
        twin.prefill(&t[..32]);
        twin.append_prompt(&t[32..]);

        let mut restored = engine.restore_session(&path).expect("restores");
        for i in 0..10 {
            assert_eq!(
                restored.step().token,
                twin.step().token,
                "divergence at step {i}: restore adopted foreign codes"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restore_rejects_corrupt_and_mismatched_snapshots() {
        let config = ModelConfig::tiny_for_tests();
        let engine = build_engine(&config, sharing_config(config.head_dim()), 95);
        let mut session = engine.session();
        session.prefill(&prompt(&config, 40));
        let path = snapshot_path("corrupt");
        session.persist(&path).expect("snapshot written");

        // Truncation is detected.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(engine.restore_session(&path).is_err());

        // A different model geometry is rejected.
        std::fs::write(&path, &bytes).unwrap();
        let gqa = ModelConfig::tiny_gqa_for_tests();
        let other = build_engine(&gqa, sharing_config(gqa.head_dim()), 95);
        assert!(other.restore_session(&path).is_err());

        // Garbage is rejected.
        std::fs::write(&path, b"not a snapshot").unwrap();
        assert!(engine.restore_session(&path).is_err());
        assert!(engine.restore_session("/nonexistent/million.bin").is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn detached_session_blocks_are_evicted_on_drop() {
        let config = ModelConfig::tiny_for_tests();
        let engine = build_engine(&config, sharing_config(config.head_dim()), 97);
        let p = prompt(&config, 70);
        let mut a = engine.session();
        a.prefill(&p);
        let mut b = engine.session();
        b.prefill(&p);
        let stats = engine.store_stats().unwrap();
        assert_eq!(stats.live_blocks, 2);
        assert_eq!(stats.shared_blocks, 2);
        drop(a);
        let stats = engine.store_stats().unwrap();
        assert_eq!(stats.live_blocks, 2, "b still references the blocks");
        assert_eq!(stats.shared_blocks, 0);
        drop(b);
        let stats = engine.store_stats().unwrap();
        assert_eq!(stats.live_blocks, 0, "no leaked blocks after detach");
        assert_eq!(stats.evicted, 2);
    }
}
