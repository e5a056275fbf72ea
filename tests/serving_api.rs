//! Acceptance tests for the continuous-batching serving API.
//!
//! The load-bearing property, inherited from the session design: every
//! request owns independent KV caches, so *when* the scheduler runs a
//! request's steps — interleaved with any fleet, admitted into any freed
//! slot — never changes *what* its attention sees. A served request's
//! tokens are therefore bit-identical to running the same prompt alone on a
//! fresh session, which is what lets iteration-level scheduling, QoS
//! weighting, and mid-flight admission be pure policy.

use std::path::PathBuf;

use million::{
    GenerationOptions, MillionConfig, MillionEngine, QosClass, Request, RequestHandle,
    ServingConfig, ServingEngine,
};
use million_eval::corpus::{CorpusConfig, SyntheticCorpus};
use million_model::{ModelConfig, NormKind, Positional, Sampler, Transformer};

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

/// A fresh, empty scratch directory for one test's checkpoints.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("million_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Satellite: persistence from inside the serving loop. A request
/// checkpointed mid-decode *by a serving round* recovers into a fresh
/// serving engine that continues token-identically with the remainder the
/// serving run produced.
#[test]
fn request_persisted_mid_serving_round_restores_and_continues_identically() {
    let config = ModelConfig::tiny_for_tests();
    let engine = build_engine(&config, sync_config(config.head_dim()), 17);
    let dir = scratch_dir("serving_persist");
    let mut serving = ServingEngine::new(
        &engine,
        ServingConfig {
            max_resident: 2,
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every_rounds: 7,
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
    // Round 7 checkpointed every resident; keep the target's file before
    // its clean retirement removes it.
    let kept = scratch_dir("serving_persist_kept");
    std::fs::create_dir_all(&kept).unwrap();
    let name = format!("request-{}.ckpt", target.id().as_u64());
    std::fs::copy(dir.join(&name), kept.join(&name)).expect("checkpoint written");

    // The serving run continues to completion, unperturbed by the checkpoint.
    serving.run_until_idle();
    let report = target.report().expect("finished");
    assert_eq!(report.tokens.len(), 20);

    // The recovered request picks up exactly where the checkpoint was
    // taken: 7 tokens in, 13 to go.
    let mut restarted = ServingEngine::new(&engine, ServingConfig::default());
    let recovered = restarted.recover(&kept);
    assert!(recovered.failed.is_empty(), "{:?}", recovered.failed);
    let restored = &recovered.restored[0];
    assert_eq!(restored.id(), target.id());
    assert_eq!(restored.recovered_tokens(), 7);
    restarted.run_until_idle();
    let continued: Vec<u32> = restored.drain_tokens().iter().map(|s| s.token).collect();
    assert_eq!(continued, &report.tokens[7..]);
    assert_eq!(restored.report().expect("finished").tokens, report.tokens);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&kept).ok();
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
/// This is structural for every chunk size: an admission's chunks attend
/// over the history so far — a warm one's attached prefix decoded to its
/// centroids, then the prompt's own tokens at full precision — and its last
/// chunk encodes them, which is one prefill bit for bit (pinned for every
/// chunking in `million`'s `chunked_cold_admission_is_one_shot_prefill` and
/// `warm_chunked_admission_is_one_shot_prefill`, and against a warm serial
/// twin below).
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
        // The retention budget keeps the system blocks resident after
        // their first session retires.
        let shared_cfg = sync_config(config.head_dim())
            .with_block_tokens(16)
            .with_store_byte_budget(8 << 20)
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
        let submit = |serving: &mut ServingEngine<'_>, p: &Vec<u32>| {
            serving
                .submit(Request::new(p.clone(), GenerationOptions::max_tokens(8)))
                .expect("queued")
        };
        let mut handles: Vec<_> = prompts[..3]
            .iter()
            .map(|p| submit(&mut serving, p))
            .collect();
        // A cold prompt longer than a chunk seals at its last chunk, so the
        // fourth request arrives once its prefix twin is done.
        serving.run_until_idle();
        handles.push(submit(&mut serving, &prompts[3]));
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
        // The fourth request admits after its prefix twin sealed, so it
        // attaches the system blocks — on the chunked path too.
        let warm = handles[3].report().expect("finished");
        assert_eq!(
            warm.prefix_tokens_reused, 32,
            "warm admission attaches under chunk_tokens={chunk_tokens}"
        );
    }
}

/// The structural half of the chunking contract, cold path: a served
/// request's stream is that of one prefill of its whole prompt, however the
/// scheduler chunked it and interleaved the chunks with other residents'
/// work — its chunks attend over the prompt so far at full precision and
/// its last chunk encodes it. The twin is one `prefill(prompt)`, sync and
/// async, so equality here is guaranteed by design, not by a lucky seed.
#[test]
fn cold_chunked_admission_matches_the_one_shot_serial_twin() {
    let config = ModelConfig::tiny_for_tests();
    for (chunk_tokens, async_quant) in [(1usize, false), (7, false), (512, false), (7, true)] {
        // No store: every admission is cold and nothing is shared, so the
        // twin reconstructs the served state exactly.
        let mut engine_cfg = sync_config(config.head_dim());
        engine_cfg.async_quant = async_quant;
        let engine = build_engine(&config, engine_cfg, 43);
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
            let mut twin = engine.session();
            twin.prefill(p);
            let expected = twin.generate(&GenerationOptions::max_tokens(8));
            assert_eq!(
                handle.report().expect("finished").tokens,
                expected.tokens,
                "chunk_tokens={chunk_tokens} async={async_quant} prompt_len={}",
                p.len()
            );
        }
    }
}

/// The structural half of the chunking contract, warm path: a warm chunked
/// admission (store prefix attached, remainder chunked) is bit-identical to
/// a warm serial one-shot admission — attach is code adoption, and the
/// unmatched suffix is one prefill over the attached codes decoded in both,
/// held dense until its last chunk, so this identity holds for every chunk
/// size, whole-prompt included. The budgeted store keeps the seeder's
/// blocks resident after it retires, which is what lets the serial twin
/// admit warm after the fact.
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

/// Draining in persist mode mid-prefill checkpoints the partially-fed
/// session together with the rest of its prompt. Recovering it resumes
/// chunked admission where the drain stopped and completes bit-identically
/// with the uninterrupted run — the open admission's dense prompt is
/// exactly what the checkpoint holds, and nothing of the prompt has to be
/// supplied again.
#[test]
fn drain_persist_mid_prefill_restores_and_completes_identically() {
    let config = ModelConfig::tiny_for_tests();
    let engine = build_engine(&config, sync_config(config.head_dim()), 37);
    let dir = scratch_dir("drain_prefill");
    let serving_config = ServingConfig {
        max_resident: 1,
        prefill_chunk_tokens: 8,
        ..ServingConfig::default()
    };
    let mut serving = ServingEngine::new(&engine, serving_config.clone());
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
    assert_eq!(
        partial.prompt_tokens, 16,
        "checkpoint taken at the boundary"
    );

    let (id, _) = &report.persisted[0];
    assert_eq!(*id, handle.id());
    let mut restarted = ServingEngine::new(&engine, serving_config);
    let recovered = restarted.recover(&dir);
    assert!(recovered.failed.is_empty(), "{:?}", recovered.failed);
    assert_eq!(restarted.prefilling_sessions(), 1, "resumes mid-prefill");
    assert_eq!(restarted.prefill_tokens_remaining(), 40);
    restarted.run_until_idle();
    let resumed = recovered.restored[0].report().expect("finished");
    assert_eq!(resumed.prompt_tokens, 56);
    // The checkpoint kept the 16 fed tokens dense and the recovered slot
    // resumes the open admission, so the uninterrupted run — one prefill of
    // the whole prompt — is the twin.
    let mut serial = engine.session();
    serial.prefill(&p);
    let expected = serial.generate(&GenerationOptions::max_tokens(10));
    assert_eq!(
        resumed.tokens, expected.tokens,
        "recovered mid-prefill state splices into the serial stream"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The warm sibling of the test above: a request that attached a prefix
/// from the store and was drained mid-suffix checkpoints its fed suffix
/// dense behind the prefix codes, recovers with its admission open, and
/// completes identically to the uninterrupted warm run — one prefill of the
/// suffix over the decoded prefix — sync and async. Identically down to
/// the codes: the uninterrupted twin, still alive, has sealed its blocks,
/// and the recovered request adopts every one of them, which a request
/// whose suffix was encoded chunk by chunk would not.
#[test]
fn drain_persist_mid_warm_prefill_restores_and_completes_identically() {
    let config = ModelConfig::tiny_for_tests();
    for async_quant in [false, true] {
        let mut engine_cfg = sync_config(config.head_dim())
            .with_block_tokens(16)
            .with_prefix_sharing();
        engine_cfg.async_quant = async_quant;
        let engine = build_engine(&config, engine_cfg, 39);
        let system = prompt(&config, 38); // 2 whole blocks of 16 + 6
        let mut p = system.clone();
        p.extend((0..40u32).map(|i| (i * 7 + 5) % config.vocab_size as u32));
        // The seeder keeps the system prompt's blocks resident throughout.
        let mut seeder = engine.session();
        seeder.prefill(&system);
        assert_eq!(seeder.sealed_tokens(), 32);

        let dir = scratch_dir(&format!("drain_warm_prefill_{async_quant}"));
        let serving_config = ServingConfig {
            max_resident: 1,
            prefill_chunk_tokens: 8,
            ..ServingConfig::default()
        };
        let mut serving = ServingEngine::new(&engine, serving_config.clone());
        let handle = serving
            .submit(Request::new(p.clone(), GenerationOptions::max_tokens(10)))
            .expect("queued");
        // Admission chunk + one scheduled chunk: 16 of the 46 unmatched
        // tokens fed behind the 32 attached ones.
        serving.serve_round();
        serving.serve_round();
        assert_eq!(serving.prefill_tokens_remaining(), 30);
        let report = serving.drain(Some(&dir)).expect("drain persists");
        assert_eq!(report.persisted.len(), 1);
        let partial = handle.report().expect("retired");
        assert!(partial.cancelled && partial.tokens.is_empty());
        assert_eq!(partial.prefix_tokens_reused, 32);
        assert_eq!(
            partial.prompt_tokens, 48,
            "checkpoint taken at the boundary"
        );

        let mut serial = engine.session();
        serial.prefill(&p);
        assert_eq!(serial.prefix_tokens_reused(), 32, "the twin admits warm");
        let expected = serial.generate(&GenerationOptions::max_tokens(10));

        let mut restarted = ServingEngine::new(&engine, serving_config);
        let recovered = restarted.recover(&dir);
        assert!(recovered.failed.is_empty(), "{:?}", recovered.failed);
        assert_eq!(restarted.prefilling_sessions(), 1, "resumes mid-prefill");
        assert_eq!(restarted.prefill_tokens_remaining(), 30);
        restarted.run_until_idle();
        let resumed = recovered.restored[0].report().expect("finished");
        assert_eq!(resumed.prompt_tokens, p.len());
        assert_eq!(
            resumed.tokens, expected.tokens,
            "async {async_quant}: recovered mid-suffix state splices into the serial stream"
        );
        // The seeder co-references the two system blocks, the recovered
        // request every block the twin sealed.
        let block_bytes = seeder.kv_shared_bytes() / 2;
        assert_eq!(serial.sealed_tokens(), 80);
        assert_eq!(
            resumed.kv_shared_bytes,
            5 * block_bytes,
            "async {async_quant}: the recovered request's codes are the twin's"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// `(arrival_round, prompt_tokens, max_new_tokens, class)`.
type Arrival = (u64, usize, usize, QosClass);

/// A bursty schedule exercising queueing, mid-flight refills, priority
/// admission and all three QoS classes against 3 decode slots.
const WORKLOAD: &[Arrival] = &[
    (0, 96, 24, QosClass::Background),
    (0, 48, 20, QosClass::Standard),
    (0, 160, 24, QosClass::Background),
    (1, 64, 16, QosClass::Standard),
    (3, 32, 8, QosClass::Interactive),
    (5, 128, 20, QosClass::Background),
    (7, 24, 6, QosClass::Interactive),
    (8, 96, 16, QosClass::Standard),
    (10, 40, 8, QosClass::Interactive),
    (12, 72, 12, QosClass::Standard),
    (14, 56, 12, QosClass::Background),
    (16, 16, 4, QosClass::Interactive),
];

/// One long prompt (768 tokens of a 1024-token window) lands mid-stream
/// over short interactive decodes. It is the only Background request, so
/// the Background prefill ledger isolates its per-round charge.
const LONG_WORKLOAD: &[Arrival] = &[
    (0, 24, 40, QosClass::Interactive),
    (0, 32, 40, QosClass::Interactive),
    (4, 768, 8, QosClass::Background),
    (8, 16, 12, QosClass::Interactive),
    (12, 20, 12, QosClass::Interactive),
];

const LONG_PROMPT_CHUNK: usize = 64;

/// What [`serve_arrivals`] observed beyond the engine's own stats.
struct Served {
    handles: Vec<RequestHandle>,
    /// The distinct rounds in which each request produced a token.
    produced_rounds: Vec<Vec<u64>>,
    /// The largest Background prefill charge of any one round.
    max_background_prefill: u64,
}

/// Submits each arrival at its round, with prompt token `i` of request `r`
/// set to `token(r, i)`, and serves rounds until the engine is idle.
fn serve_arrivals(
    serving: &mut ServingEngine<'_>,
    workload: &[Arrival],
    token: impl Fn(usize, usize) -> u32,
) -> Served {
    let background = QosClass::Background.index();
    let mut served = Served {
        handles: Vec::new(),
        produced_rounds: Vec::new(),
        max_background_prefill: 0,
    };
    let mut next = 0;
    while next < workload.len() || !serving.is_idle() {
        while next < workload.len() && workload[next].0 <= serving.rounds() {
            let (_, prompt_len, max_tokens, class) = workload[next];
            let prompt = (0..prompt_len).map(|i| token(next, i)).collect();
            let request = Request::new(prompt, GenerationOptions::max_tokens(max_tokens))
                .with_class(class)
                .with_sampler(Sampler::greedy());
            served
                .handles
                .push(serving.submit(request).expect("queue sized for workload"));
            served.produced_rounds.push(Vec::new());
            next += 1;
        }
        let before = serving.stats().prefill_tokens_by_class[background];
        let produced = serving.serve_round();
        let charged = serving.stats().prefill_tokens_by_class[background] - before;
        served.max_background_prefill = served.max_background_prefill.max(charged);
        for (id, _) in &produced {
            let idx = served
                .handles
                .iter()
                .position(|h| h.id() == *id)
                .expect("known id");
            let rounds = &mut served.produced_rounds[idx];
            if rounds.last() != Some(&serving.rounds()) {
                rounds.push(serving.rounds());
            }
        }
    }
    served
}

/// The entry at quantile `q` of sorted values (nearest rank).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// No request stops early, so every request runs exactly its token budget
/// and the scheduling counts are a pure function of the workloads and the
/// scheduler policy: they are pinned exactly. A change to any of them is a
/// change to admission, fairness or chunking.
#[test]
fn scheduling_counts_of_the_fixed_workloads_are_exact() {
    let config = ModelConfig {
        name: "serving-bench".into(),
        vocab_size: 512,
        d_model: 64,
        n_layers: 2,
        n_heads: 4,
        n_kv_heads: 2,
        d_ff: 128,
        max_seq_len: 1024,
        positional: Positional::Rope {
            theta: 10_000.0,
            position_scale: 1.0,
        },
        norm: NormKind::RmsNorm,
        outlier_channels: 2,
        outlier_scale: (4.0, 12.0),
    };
    let calibration: Vec<u32> = (0..512u64).map(|i| ((i * 13 + 5) % 512) as u32).collect();
    let engine = MillionEngine::new(
        Transformer::new(config.clone(), 7),
        sync_config(config.head_dim()),
        &calibration,
    )
    .expect("engine builds");

    // The mixed workload: 12 requests over 3 slots.
    let mut serving = ServingEngine::new(
        &engine,
        ServingConfig {
            max_resident: 3,
            queue_capacity: WORKLOAD.len(),
            ..ServingConfig::default()
        },
    );
    let served = serve_arrivals(&mut serving, WORKLOAD, |r, i| {
        ((i * 31 + r * 97 + 7) % 512) as u32
    });
    let reports: Vec<_> = served
        .handles
        .iter()
        .map(|h| h.report().expect("workload drained"))
        .collect();
    let stats = serving.stats();
    assert_eq!(serving.rounds(), 46);
    assert_eq!(stats.completed as usize, WORKLOAD.len());
    assert_eq!(stats.tokens_by_class, [26, 64, 80]);
    let mut waits: Vec<u64> = reports.iter().map(|r| r.queue_wait_rounds).collect();
    waits.sort_unstable();
    assert_eq!(
        [
            percentile(&waits, 0.5),
            percentile(&waits, 0.95),
            waits[waits.len() - 1]
        ],
        [7, 17, 21],
        "queue-wait rounds p50/p95/max"
    );
    let mean_x100_by_class = QosClass::ALL.map(|class| {
        let class_waits: Vec<u64> = reports
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.queue_wait_rounds)
            .collect();
        100 * class_waits.iter().sum::<u64>() / class_waits.len() as u64
    });
    assert_eq!(mean_x100_by_class, [400, 1100, 950]);
    assert!(
        mean_x100_by_class[QosClass::Interactive.index()]
            <= mean_x100_by_class[QosClass::Background.index()],
        "interactive admission must not lag background"
    );

    // The long prompt's arrival, admitted in chunks.
    let mut serving = ServingEngine::new(
        &engine,
        ServingConfig {
            max_resident: 3,
            queue_capacity: LONG_WORKLOAD.len(),
            prefill_chunk_tokens: LONG_PROMPT_CHUNK,
            ..ServingConfig::default()
        },
    );
    let served = serve_arrivals(&mut serving, LONG_WORKLOAD, |r, i| {
        ((i * 29 + r * 83 + 11) % 512) as u32
    });
    let stats = serving.stats();
    assert_eq!(serving.rounds(), 23);
    assert_eq!(stats.completed as usize, LONG_WORKLOAD.len());
    assert_eq!(stats.prefill_chunks, 16);
    assert_eq!(
        served.max_background_prefill, LONG_PROMPT_CHUNK as u64,
        "per-round prefill work must be bounded by the chunk size"
    );
    // The longest gap between a request's producing rounds: resident
    // decodes never stall behind the chunked prefill.
    let decode_stall_rounds_max = served
        .produced_rounds
        .iter()
        .flat_map(|rounds| rounds.windows(2).map(|pair| pair[1] - pair[0] - 1))
        .max();
    assert_eq!(decode_stall_rounds_max, Some(0));
    let mut interactive_waits: Vec<u64> = served
        .handles
        .iter()
        .zip(LONG_WORKLOAD)
        .filter(|(_, arrival)| arrival.3 == QosClass::Interactive)
        .map(|(h, _)| h.report().expect("drained").queue_wait_rounds)
        .collect();
    interactive_waits.sort_unstable();
    assert_eq!(percentile(&interactive_waits, 0.95), 5);
}
