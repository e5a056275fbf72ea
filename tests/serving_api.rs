//! Acceptance tests for the continuous-batching serving API.
//!
//! The load-bearing property, inherited from the session design: every
//! request owns independent KV caches, so *when* the scheduler runs a
//! request's steps — interleaved with any fleet, admitted into any freed
//! slot — never changes *what* its attention sees. A served request's
//! tokens are therefore bit-identical to running the same prompt alone on a
//! fresh session, which is what lets iteration-level scheduling, QoS
//! weighting, and mid-flight admission be pure policy.

use million::{
    GenerationOptions, MillionConfig, MillionEngine, QosClass, Request, ServingConfig,
    ServingEngine,
};
use million_eval::corpus::{CorpusConfig, SyntheticCorpus};
use million_model::{ModelConfig, Transformer};

fn build_engine(config: &ModelConfig, engine_cfg: MillionConfig, seed: u64) -> MillionEngine {
    let model = Transformer::new(config.clone(), seed);
    let corpus = SyntheticCorpus::new(CorpusConfig::wikitext2_like(config.vocab_size));
    MillionEngine::new(model, engine_cfg, &corpus.generate(256)).expect("engine builds")
}

fn prompt(config: &ModelConfig, len: usize) -> Vec<u32> {
    SyntheticCorpus::new(CorpusConfig::ptb_like(config.vocab_size)).generate(len)
}

fn sync_config(head_dim: usize) -> MillionConfig {
    MillionConfig::four_bit(head_dim).with_sync_quant()
}

/// The issue's acceptance scenario: a long-running batch holds every slot;
/// a short high-priority request submitted mid-flight is admitted into the
/// first freed slot and completes while the rest of the cohort is still
/// decoding — with tokens bit-identical to a serial run. A static-cohort
/// scheduler cannot do this: it would hold the short request until the whole
/// batch drained.
#[test]
fn short_high_priority_request_overtakes_a_long_running_batch() {
    let config = ModelConfig::tiny_for_tests();
    let engine = build_engine(&config, sync_config(config.head_dim()), 11);
    let mut serving = ServingEngine::new(
        &engine,
        ServingConfig {
            max_resident: 2,
            ..ServingConfig::default()
        },
    );

    // Two requests fill the machine: one short-ish, one long. A third long
    // request is queued *before* the interactive one, so FIFO alone would
    // starve the latter behind it.
    let prompts: Vec<Vec<u32>> = (0..3).map(|i| prompt(&config, 24 + 8 * i)).collect();
    let first = serving
        .submit(
            Request::new(prompts[0].clone(), GenerationOptions::max_tokens(10))
                .with_class(QosClass::Background),
        )
        .expect("queued");
    let long = serving
        .submit(
            Request::new(prompts[1].clone(), GenerationOptions::max_tokens(48))
                .with_class(QosClass::Background),
        )
        .expect("queued");
    let queued_long = serving
        .submit(
            Request::new(prompts[2].clone(), GenerationOptions::max_tokens(48))
                .with_class(QosClass::Background),
        )
        .expect("queued");

    // Let the batch get well into flight before the urgent request arrives.
    for _ in 0..4 {
        serving.serve_round();
    }
    let short_prompt = prompt(&config, 18);
    let urgent = serving
        .submit(
            Request::new(short_prompt.clone(), GenerationOptions::max_tokens(6))
                .with_class(QosClass::Interactive),
        )
        .expect("queued");
    assert!(!urgent.is_finished());

    // Drive until the urgent request completes; the long-running cohort must
    // still be decoding at that moment.
    while !urgent.is_finished() {
        assert!(
            !serving.is_idle(),
            "urgent request must complete before the batch drains"
        );
        serving.serve_round();
    }
    assert!(first.is_finished(), "its slot is what freed up");
    assert!(!long.is_finished(), "long batch-mate still in flight");
    assert!(
        !queued_long.is_finished(),
        "urgent overtook the queued long"
    );

    let report = urgent.report().expect("finished");
    assert!(report.queue_wait_rounds > 0, "was admitted mid-flight");
    assert!(!report.cancelled);

    // Bit-identical to a serial run of the same prompt on a fresh session.
    let mut serial = engine.session();
    serial.prefill(&short_prompt);
    let expected = serial.generate(&GenerationOptions::max_tokens(6));
    assert_eq!(report.tokens, expected.tokens);

    // The rest of the fleet drains and every request is bit-identical to its
    // serial twin too.
    serving.run_until_idle();
    for (p, handle, budget) in [
        (&prompts[0], &first, 10),
        (&prompts[1], &long, 48),
        (&prompts[2], &queued_long, 48),
    ] {
        let mut serial = engine.session();
        serial.prefill(p);
        let expected = serial.generate(&GenerationOptions::max_tokens(budget));
        assert_eq!(handle.report().expect("finished").tokens, expected.tokens);
    }
}

/// Satellite: persistence from inside the serving loop. A session persisted
/// mid-decode *from a serving round* restores into a standalone session that
/// continues token-identically with the remainder the serving run produced.
#[test]
fn request_persisted_mid_serving_round_restores_and_continues_identically() {
    let config = ModelConfig::tiny_for_tests();
    let engine = build_engine(&config, sync_config(config.head_dim()), 17);
    let mut serving = ServingEngine::new(
        &engine,
        ServingConfig {
            max_resident: 2,
            ..ServingConfig::default()
        },
    );
    let p0 = prompt(&config, 30);
    let p1 = prompt(&config, 44);
    let _other = serving
        .submit(Request::new(p0, GenerationOptions::max_tokens(20)))
        .expect("queued");
    let target = serving
        .submit(Request::new(p1, GenerationOptions::max_tokens(20)))
        .expect("queued");

    for _ in 0..7 {
        serving.serve_round();
    }
    let path = std::env::temp_dir().join(format!(
        "million_serving_persist_{}.bin",
        std::process::id()
    ));
    assert!(
        serving
            .persist_request(target.id(), &path)
            .expect("snapshot written"),
        "request is resident"
    );

    // The serving run continues to completion, unperturbed by the snapshot.
    serving.run_until_idle();
    let report = target.report().expect("finished");
    assert_eq!(report.tokens.len(), 20);

    // The restored session picks up exactly where the snapshot was taken:
    // 7 tokens in, 13 to go.
    let mut restored = engine.restore_session(&path).expect("snapshot restores");
    assert_eq!(restored.generated_tokens(), &report.tokens[..7]);
    let continued: Vec<u32> = (0..13).map(|_| restored.step().token).collect();
    assert_eq!(continued, &report.tokens[7..]);
    std::fs::remove_file(&path).ok();
}

/// Satellite: the budgeted store keeps a departed session's blocks resident,
/// so prefix sharing now works across sessions whose lifetimes never
/// overlap — the block outlives its last reference until budget pressure
/// evicts it.
#[test]
fn budgeted_store_shares_prefixes_across_non_overlapping_sessions() {
    let config = ModelConfig::tiny_for_tests();
    let shared_cfg = sync_config(config.head_dim())
        .with_block_tokens(16)
        .with_store_byte_budget(8 << 20)
        .with_prefix_sharing();
    let engine = build_engine(&config, shared_cfg, 19);
    let p = prompt(&config, 49); // 3 whole blocks of 16 + 1

    // The seeder session seals the prefix and *dies*.
    let mut seeder = engine.session();
    seeder.prefill(&p);
    assert_eq!(seeder.sealed_tokens(), 48);
    drop(seeder);
    let stats = engine.store_stats().expect("store enabled");
    assert_eq!(stats.live_blocks, 3, "blocks survive their last reference");
    assert_eq!(stats.cached_blocks, 3);

    // A later admission of the same prompt revives the cached chain instead
    // of prefilling it.
    let mut warm = engine.session();
    warm.prefill(&p);
    assert_eq!(warm.prefix_tokens_reused(), 48);
    let stats = engine.store_stats().expect("store enabled");
    assert!(stats.cached_hits >= 3, "admission revived cached blocks");
    assert_eq!(stats.cached_blocks, 0);

    // Bit-identity of the revived admission: same tokens as the equivalent
    // unshared warm admission on a budget-less engine.
    let baseline_engine = build_engine(
        &config,
        sync_config(config.head_dim()).with_block_tokens(16),
        19,
    );
    let mut baseline = baseline_engine.session();
    baseline.prefill(&p[..48]);
    baseline.append_prompt(&p[48..]);
    let expected = baseline.generate(&GenerationOptions::max_tokens(8));
    let got = warm.generate(&GenerationOptions::max_tokens(8));
    assert_eq!(got.tokens, expected.tokens);
}

/// Continuous serving composes with prefix sharing: staggered arrivals with
/// a common system prompt attach the resident prefix at admission inside the
/// serving loop.
#[test]
fn staggered_arrivals_reuse_the_resident_prefix_inside_the_loop() {
    let config = ModelConfig::tiny_for_tests();
    let shared_cfg = sync_config(config.head_dim())
        .with_block_tokens(16)
        .with_prefix_sharing();
    let engine = build_engine(&config, shared_cfg, 23);
    let system = prompt(&config, 38); // 2 whole blocks of 16 + 6
    let mut serving = ServingEngine::new(
        &engine,
        ServingConfig {
            max_resident: 3,
            ..ServingConfig::default()
        },
    );

    let mut handles = Vec::new();
    for user in 0..3u32 {
        let mut p = system.clone();
        p.extend((0..4).map(|i| (user * 17 + i * 3 + 1) % config.vocab_size as u32));
        handles.push(
            serving
                .submit(Request::new(p, GenerationOptions::max_tokens(6)))
                .expect("queued"),
        );
        // Staggered: two rounds of decode between arrivals.
        serving.serve_round();
        serving.serve_round();
    }
    serving.run_until_idle();
    let reports: Vec<_> = handles.iter().map(|h| h.report().expect("done")).collect();
    assert_eq!(reports[0].prefix_tokens_reused, 0, "first arrival is cold");
    for report in &reports[1..] {
        assert_eq!(report.prefix_tokens_reused, 32, "warm arrivals attach");
    }
    for report in &reports {
        assert_eq!(report.tokens.len(), 6);
    }
}

/// Tentpole contract: chunked admission is invisible in the token stream.
/// Sweeping the chunk size across degenerate-small (1), prime-and-awkward
/// (7), the default (512), and larger-than-any-prompt — with prefix sharing
/// on, so both cold and warm (store-attached) admissions ride the chunk
/// path — every request stays bit-identical to a serial one-shot run.
///
/// For chunk sizes covering the whole prompt (512, 4096 here) this is
/// structural: admission *is* the one-shot path. For sub-prompt chunks the
/// suffix rides the extend path, whose agreement with one-shot prefill is
/// the PR 3 session contract (decode-path attention over quantized codes);
/// this fixed-seed run pins the streams as exactly equal. The structural
/// sub-prompt guarantee — scheduling never changes what attention sees — is
/// pinned against split serial twins in the two tests below.
#[test]
fn chunked_prefill_is_bit_identical_across_chunk_sizes_and_warm_admissions() {
    let config = ModelConfig::tiny_for_tests();
    let system = prompt(&config, 38); // 2 whole blocks of 16 + 6
    let mut prompts: Vec<Vec<u32>> = (0..2).map(|i| prompt(&config, 40 + 9 * i)).collect();
    // Two more share the system prefix; the second admits warm once the
    // first has sealed its blocks.
    for user in 0..2u32 {
        let mut p = system.clone();
        p.extend((0..5).map(|i| (user * 13 + i * 7 + 2) % config.vocab_size as u32));
        prompts.push(p);
    }

    for chunk_tokens in [1usize, 7, 512, 4096] {
        let shared_cfg = sync_config(config.head_dim())
            .with_block_tokens(16)
            .with_prefix_sharing();
        let engine = build_engine(&config, shared_cfg, 29);
        let mut serving = ServingEngine::new(
            &engine,
            ServingConfig {
                max_resident: 2, // forces queueing + mid-flight refills
                prefill_chunk_tokens: chunk_tokens,
                ..ServingConfig::default()
            },
        );
        let handles: Vec<_> = prompts
            .iter()
            .map(|p| {
                serving
                    .submit(Request::new(p.clone(), GenerationOptions::max_tokens(8)))
                    .expect("queued")
            })
            .collect();
        serving.run_until_idle();
        for (p, handle) in prompts.iter().zip(&handles) {
            let report = handle.report().expect("finished");
            let mut serial = engine.session();
            serial.prefill(p);
            let expected = serial.generate(&GenerationOptions::max_tokens(8));
            assert_eq!(
                report.tokens,
                expected.tokens,
                "chunk_tokens={chunk_tokens} prompt_len={}",
                p.len()
            );
        }
        // The fourth request admits after its prefix twin finished, so it
        // attaches the sealed system blocks — on the chunked path too.
        let warm = handles[3].report().expect("finished");
        assert_eq!(
            warm.prefix_tokens_reused, 32,
            "warm admission attaches under chunk_tokens={chunk_tokens}"
        );
    }
}

/// The structural half of the chunking contract, cold path: a served
/// request's stream depends only on its session's cache-construction
/// sequence — first chunk through the tiled prefill, the rest through the
/// extend path — never on how the scheduler interleaved the chunks with
/// other residents' work. The serial twin replays that exact construction
/// (chunk call granularity is bitwise-invisible on the extend path), so
/// equality here is guaranteed by design, not by a lucky seed.
#[test]
fn cold_chunked_admission_matches_the_split_serial_twin() {
    let config = ModelConfig::tiny_for_tests();
    for chunk_tokens in [1usize, 7, 512] {
        // No store: every admission is cold and nothing is shared, so the
        // twin reconstructs the served state exactly.
        let engine = build_engine(&config, sync_config(config.head_dim()), 43);
        let mut serving = ServingEngine::new(
            &engine,
            ServingConfig {
                max_resident: 2,
                prefill_chunk_tokens: chunk_tokens,
                ..ServingConfig::default()
            },
        );
        let prompts: Vec<Vec<u32>> = (0..3).map(|i| prompt(&config, 30 + 13 * i)).collect();
        let handles: Vec<_> = prompts
            .iter()
            .map(|p| {
                serving
                    .submit(Request::new(p.clone(), GenerationOptions::max_tokens(8)))
                    .expect("queued")
            })
            .collect();
        serving.run_until_idle();
        for (p, handle) in prompts.iter().zip(&handles) {
            let first = chunk_tokens.min(p.len());
            let mut twin = engine.session();
            twin.prefill(&p[..first]);
            if first < p.len() {
                twin.append_prompt(&p[first..]);
            }
            let expected = twin.generate(&GenerationOptions::max_tokens(8));
            assert_eq!(
                handle.report().expect("finished").tokens,
                expected.tokens,
                "chunk_tokens={chunk_tokens} prompt_len={}",
                p.len()
            );
        }
    }
}

/// The structural half of the chunking contract, warm path: a warm chunked
/// admission (store prefix attached, remainder chunked through the extend
/// path) is bit-identical to a warm serial one-shot admission — attach is
/// code adoption and the unmatched suffix rides the extend path in both,
/// so this identity holds for every chunk size, whole-prompt included. The
/// budgeted store keeps the seeder's blocks resident after it retires,
/// which is what lets the serial twin admit warm after the fact.
#[test]
fn warm_chunked_admission_is_bit_identical_to_a_warm_serial_twin() {
    let config = ModelConfig::tiny_for_tests();
    for chunk_tokens in [1usize, 7, 512] {
        let shared_cfg = sync_config(config.head_dim())
            .with_block_tokens(16)
            .with_store_byte_budget(8 << 20)
            .with_prefix_sharing();
        let engine = build_engine(&config, shared_cfg, 41);
        let mut serving = ServingEngine::new(
            &engine,
            ServingConfig {
                max_resident: 2,
                prefill_chunk_tokens: chunk_tokens,
                ..ServingConfig::default()
            },
        );
        let system = prompt(&config, 38); // 2 whole blocks of 16 + 6
        let mut p = system.clone();
        p.extend([9u32, 4, 77, 15, 6]);

        // The seeder seals the shared blocks and retires before the warm
        // request arrives.
        let seeder = serving
            .submit(Request::new(
                system.clone(),
                GenerationOptions::max_tokens(4),
            ))
            .expect("queued");
        serving.run_until_idle();
        assert!(seeder.is_finished());

        let warm = serving
            .submit(Request::new(p.clone(), GenerationOptions::max_tokens(8)))
            .expect("queued");
        serving.run_until_idle();
        let report = warm.report().expect("finished");
        assert_eq!(
            report.prefix_tokens_reused, 32,
            "warm admission attaches under chunk_tokens={chunk_tokens}"
        );

        let mut twin = engine.session();
        twin.prefill(&p);
        assert_eq!(twin.prefix_tokens_reused(), 32, "twin admits warm too");
        let expected = twin.generate(&GenerationOptions::max_tokens(8));
        assert_eq!(
            report.tokens, expected.tokens,
            "chunk_tokens={chunk_tokens}"
        );
    }
}

/// A deadline expiring mid-prefill retires the slot at the next round
/// boundary — a chunk boundary — with the request reported as timed out,
/// never as cancelled, and no tokens ever decoded.
#[test]
fn deadline_expiry_mid_prefill_retires_at_the_chunk_boundary() {
    let config = ModelConfig::tiny_for_tests();
    let engine = build_engine(&config, sync_config(config.head_dim()), 31);
    let mut serving = ServingEngine::new(
        &engine,
        ServingConfig {
            max_resident: 1,
            prefill_chunk_tokens: 8,
            ..ServingConfig::default()
        },
    );
    let long = prompt(&config, 64);
    let doomed = serving
        .submit(Request::new(long, GenerationOptions::max_tokens(8)).with_deadline_ms(150))
        .expect("queued");
    // Two rounds feed 16 of 64 tokens; the deadline then lapses while the
    // request is still prefilling.
    serving.serve_round();
    serving.serve_round();
    assert_eq!(serving.prefilling_sessions(), 1);
    std::thread::sleep(std::time::Duration::from_millis(200));
    serving.serve_round();
    let report = doomed.report().expect("timed out mid-prefill");
    assert!(report.timed_out);
    assert!(!report.cancelled, "distinct from cancellation");
    assert!(report.tokens.is_empty(), "never reached decoding");
    assert_eq!(report.prompt_tokens, 16, "stopped at the chunk boundary");
    assert_eq!(serving.prefilling_sessions(), 0, "slot freed");
    assert!(serving.is_idle());
}

/// Draining in persist mode mid-prefill snapshots the partially-fed
/// session. Restoring it and feeding the *rest* of the prompt continues
/// bit-identically with a serial one-shot run — the chunked prefix state is
/// exactly the serial prefix state.
#[test]
fn drain_persist_mid_prefill_restores_and_completes_identically() {
    let config = ModelConfig::tiny_for_tests();
    let engine = build_engine(&config, sync_config(config.head_dim()), 37);
    let dir = std::env::temp_dir().join(format!("million_drain_prefill_{}", std::process::id()));
    let mut serving = ServingEngine::new(
        &engine,
        ServingConfig {
            max_resident: 1,
            prefill_chunk_tokens: 8,
            ..ServingConfig::default()
        },
    );
    let p = prompt(&config, 56);
    let handle = serving
        .submit(Request::new(p.clone(), GenerationOptions::max_tokens(10)))
        .expect("queued");
    // Admission chunk + one scheduled chunk: 16 of 56 tokens fed.
    serving.serve_round();
    serving.serve_round();
    let report = serving.drain(Some(&dir)).expect("drain persists");
    assert_eq!(report.persisted.len(), 1);
    assert!(serving.is_idle(), "mid-prefill resident retired");
    let partial = handle.report().expect("retired");
    assert!(partial.cancelled, "stream ended early");
    assert!(partial.tokens.is_empty());
    assert_eq!(partial.prompt_tokens, 16, "snapshot taken at the boundary");

    let (id, path) = &report.persisted[0];
    assert_eq!(*id, handle.id());
    let mut restored = engine.restore_session(path).expect("snapshot loads");
    restored.append_prompt(&p[16..]);
    let resumed = restored.generate(&GenerationOptions::max_tokens(10));
    // The serial twin mirrors the chunked construction — first chunk through
    // the tiled prefill, the rest through the extend path (PR 3's resume
    // primitive); chunk call granularity is bitwise-invisible, so one
    // append_prompt of the whole remainder is the same state.
    let mut serial = engine.session();
    serial.prefill(&p[..8]);
    serial.append_prompt(&p[8..]);
    let expected = serial.generate(&GenerationOptions::max_tokens(10));
    assert_eq!(
        resumed.tokens, expected.tokens,
        "restored mid-prefill state splices into the serial stream"
    );
    std::fs::remove_dir_all(&dir).ok();
}
