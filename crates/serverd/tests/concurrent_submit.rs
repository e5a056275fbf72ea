//! Concurrent submission against one shard engine: many client threads
//! pushing through the same [`ShardHandle`] must lose nothing, duplicate
//! nothing, and stream exactly what a serial run of the same prompts
//! produces.
//!
//! This is the thread-safety contract of the command-channel design: the
//! serving engine itself stays single-threaded on the shard thread, and
//! every cross-thread interaction is a channel round-trip.
//!
//! [`ShardHandle`]: million_serverd::ShardHandle

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use million::{GenerationOptions, Request, TokenWait};
use million_serverd::{
    build_engine, spawn_shard, EngineSettings, ServingSettings, SupervisorSettings,
};

fn tiny_settings() -> EngineSettings {
    EngineSettings {
        model: "tiny-test".into(),
        calibration_tokens: 96,
        async_quant: false,
        ..EngineSettings::default()
    }
}

/// A distinct prompt per (thread, request) pair, within the tiny vocab.
fn prompt_for(thread: usize, request: usize) -> Vec<u32> {
    vec![
        (thread * 31 + 1) as u32 % 128,
        (request * 7 + 2) as u32 % 128,
        ((thread + request) % 100 + 1) as u32,
        ((thread * 13 + request * 5) % 120 + 3) as u32,
    ]
}

#[test]
fn concurrent_submitters_are_bit_identical_to_serial_and_lose_nothing() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 6;
    const MAX_TOKENS: usize = 5;

    let shard = Arc::new(
        spawn_shard(
            0,
            Arc::new(build_engine(&tiny_settings()).unwrap()),
            ServingSettings::default(),
            SupervisorSettings::default(),
        )
        .unwrap(),
    );

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let shard = Arc::clone(&shard);
            std::thread::spawn(move || {
                let mut results = Vec::new();
                for r in 0..PER_THREAD {
                    let prompt = prompt_for(t, r);
                    let handle = shard
                        .submit(Request::new(
                            prompt.clone(),
                            GenerationOptions::max_tokens(MAX_TOKENS),
                        ))
                        .expect("submission accepted");
                    let mut tokens = Vec::new();
                    loop {
                        match handle.recv_token(Duration::from_secs(2)) {
                            TokenWait::Token(step) => tokens.push(step.token),
                            TokenWait::Idle => panic!("stream stalled for {prompt:?}"),
                            TokenWait::Closed => break,
                        }
                    }
                    let report = handle.report().expect("report published at retirement");
                    results.push((prompt, handle.id().as_u64(), tokens, report));
                }
                results
            })
        })
        .collect();

    let mut all = Vec::new();
    for worker in workers {
        all.extend(worker.join().expect("client thread"));
    }
    assert_eq!(all.len(), THREADS * PER_THREAD, "no submission lost");

    // No duplicated or lost handles: every request id is unique and the
    // engine counted exactly one submission per client call.
    let ids: HashSet<u64> = all.iter().map(|(_, id, _, _)| *id).collect();
    assert_eq!(ids.len(), THREADS * PER_THREAD, "request ids are unique");
    let snapshot = shard.snapshot().expect("shard alive");
    assert_eq!(snapshot.stats.submitted, (THREADS * PER_THREAD) as u64);
    assert_eq!(snapshot.stats.completed, (THREADS * PER_THREAD) as u64);
    assert_eq!(snapshot.stats.cancelled, 0);
    assert_eq!(snapshot.queued, 0);
    assert_eq!(snapshot.resident, 0);

    // Bit-identical to serial: replay every prompt on a fresh engine
    // built from the same settings, one session at a time.
    let reference = build_engine(&tiny_settings()).unwrap();
    for (prompt, _, tokens, report) in &all {
        let mut session = reference.session();
        session.prefill(prompt);
        let serial = session
            .generate(&GenerationOptions::max_tokens(MAX_TOKENS))
            .tokens;
        assert_eq!(
            tokens, &serial,
            "prompt {prompt:?} diverged under concurrency"
        );
        assert_eq!(&report.tokens, tokens, "report matches the stream");
    }

    shard.shutdown();
}
