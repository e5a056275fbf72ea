//! Continuous-batching serving: staggered arrivals, mixed prompt lengths,
//! QoS priorities, a mid-flight cancellation, and a very long prompt that
//! trickles in through chunked prefill while the interactive streams keep
//! decoding — the traffic shape the paper's PQ cache exists for, where
//! requests come and go while the resident batch never stops decoding.
//!
//! Run with `cargo run --release -p million --example continuous_serving`.

use million::{
    GenerationOptions, MillionConfig, MillionEngine, QosClass, Request, RequestHandle, RoundPhase,
    ServingConfig, ServingEngine,
};
use million_eval::corpus::{CorpusConfig, SyntheticCorpus};
use million_model::{ModelConfig, Sampler, Transformer};

/// `(arrival_round, prompt_tokens, max_new_tokens, class)` — a bursty
/// schedule with long background work early and urgent traffic late. The
/// round-6 arrival is a 768-token document summarisation landing on top of
/// live streams: with `prefill_chunk_tokens` set, its prefill runs one
/// chunk per round instead of freezing the fleet for the whole prompt.
const WORKLOAD: &[(u64, usize, usize, QosClass)] = &[
    (0, 192, 48, QosClass::Background),
    (0, 96, 40, QosClass::Standard),
    (2, 256, 48, QosClass::Background),
    (4, 64, 24, QosClass::Standard),
    (6, 768, 16, QosClass::Background),
    (6, 48, 12, QosClass::Interactive),
    (9, 160, 40, QosClass::Background),
    (12, 32, 8, QosClass::Interactive),
    (14, 128, 32, QosClass::Standard),
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = ModelConfig::llama2_7b_sim();
    let model = Transformer::new(config.clone(), 42);
    let corpus = SyntheticCorpus::new(CorpusConfig::wikitext2_like(config.vocab_size));
    let engine = MillionEngine::new(
        model,
        MillionConfig::four_bit(config.head_dim()),
        &corpus.generate(512),
    )?;

    // Three decode slots for nine requests: the queue, the admission
    // policy, and per-round retirement do the rest. The 96-token prefill
    // chunk bounds how much admission work any single round can charge,
    // so the 768-token arrival never stalls the resident streams.
    let mut serving = ServingEngine::new(
        &engine,
        ServingConfig {
            max_resident: 3,
            queue_capacity: 16,
            kv_byte_budget: Some(64 << 20),
            prefill_chunk_tokens: 96,
            ..ServingConfig::default()
        },
    );
    println!(
        "continuous serving on {} ({} layers, head_dim {}): 3 slots, {} staggered requests\n",
        config.name,
        config.n_layers,
        config.head_dim(),
        WORKLOAD.len()
    );

    let start = std::time::Instant::now();
    let mut handles: Vec<RequestHandle> = Vec::new();
    let mut next = 0usize;
    let mut cancelled_one = false;
    while next < WORKLOAD.len() || !serving.is_idle() {
        // Admit this round's arrivals.
        while next < WORKLOAD.len() && WORKLOAD[next].0 <= serving.rounds() {
            let (_, prompt_len, max_tokens, class) = WORKLOAD[next];
            let request = Request::new(
                corpus.generate(prompt_len),
                GenerationOptions::max_tokens(max_tokens),
            )
            .with_class(class)
            .with_sampler(Sampler::top_k(0.8, 16, next as u64));
            match serving.submit(request) {
                Ok(handle) => {
                    println!(
                        "round {:>3}: submitted request {} ({} prompt tokens, {} max, {})",
                        serving.rounds(),
                        handle.id().as_u64(),
                        prompt_len,
                        max_tokens,
                        class.name()
                    );
                    handles.push(handle);
                }
                Err(e) => println!("round {:>3}: backpressure: {e}", serving.rounds()),
            }
            next += 1;
        }
        serving.serve_round();
        // A client walks away mid-flight: cancel the first background
        // request once the fleet is busy.
        if !cancelled_one && serving.rounds() == 8 {
            handles[0].cancel();
            cancelled_one = true;
            println!("round   8: client cancelled request 0 mid-flight");
        }
        if serving.prefilling_sessions() > 0 {
            println!(
                "round {:>3}: long prompt trickling in — {} tokens of prefill left, \
                 {} resident streams still decoding",
                serving.rounds(),
                serving.prefill_tokens_remaining(),
                serving.resident_sessions() - serving.prefilling_sessions(),
            );
        }
        if serving.rounds().is_multiple_of(8) {
            println!(
                "round {:>3}: {} resident / {} queued, fleet KV {:>9} B (physical {:>9} B)",
                serving.rounds(),
                serving.resident_sessions(),
                serving.queued_requests(),
                serving.kv_bytes(),
                serving.fleet_kv_bytes(),
            );
        }
    }
    let elapsed = start.elapsed();

    println!("\nper-request results:");
    let mut total_tokens = 0usize;
    for handle in &handles {
        let r = handle.report().expect("all requests resolved");
        total_tokens += r.tokens.len();
        println!(
            "  request {:>2} [{:>11}]: {:>3} prompt + {:>2} generated{}, waited {:>2} rounds ({:>6.2} ms), cache {:>8} B",
            r.session,
            r.class.name(),
            r.prompt_tokens,
            r.tokens.len(),
            if r.cancelled { " (cancelled)" } else { "" },
            r.queue_wait_rounds,
            r.queue_wait_ns as f64 / 1e6,
            r.kv_bytes,
        );
    }
    let stats = serving.stats();
    println!("\nfleet totals:");
    println!(
        "  served               : {} requests ({} completed, {} cancelled) in {} rounds",
        stats.submitted, stats.completed, stats.cancelled, stats.rounds
    );
    println!(
        "  throughput           : {:.1} tokens/s aggregate ({} tokens in {:.2} s)",
        total_tokens as f64 / elapsed.as_secs_f64(),
        total_tokens,
        elapsed.as_secs_f64()
    );
    println!(
        "  fairness ledger      : interactive {} / standard {} / background {} tokens (weights 4:2:1)",
        stats.tokens_by_class[QosClass::Interactive.index()],
        stats.tokens_by_class[QosClass::Standard.index()],
        stats.tokens_by_class[QosClass::Background.index()],
    );
    println!(
        "  peaks                : {} resident sessions, {} queued requests",
        stats.max_resident_sessions, stats.max_queue_depth
    );
    println!(
        "  chunked prefill      : {} chunks, prefill tokens i/s/b {}/{}/{}",
        stats.prefill_chunks,
        stats.prefill_tokens_by_class[QosClass::Interactive.index()],
        stats.prefill_tokens_by_class[QosClass::Standard.index()],
        stats.prefill_tokens_by_class[QosClass::Background.index()],
    );

    // The serving engine timed every request and round phase as it went
    // (see docs/OBSERVABILITY.md); read the percentiles back out.
    let telemetry = serving.telemetry();
    let ms = |ns: u64| ns as f64 / 1e6;
    println!("\nlatency percentiles:");
    for (name, h) in [
        ("time to first token", &telemetry.ttft),
        ("inter-token gap", &telemetry.inter_token),
        ("queue wait", &telemetry.queue_wait),
        ("end-to-end", &telemetry.e2e),
    ] {
        println!(
            "  {name:<21}: n={:<4} p50 {:>9.3} ms, p95 {:>9.3} ms, p99 {:>9.3} ms, max {:>9.3} ms",
            h.count,
            ms(h.p50_ns),
            ms(h.p95_ns),
            ms(h.p99_ns),
            ms(h.max_ns)
        );
    }
    println!("  round phase p95      :");
    for phase in RoundPhase::ALL {
        let h = &telemetry.phases[phase.index()];
        println!(
            "    {:<19}: {:>9.3} ms over {} rounds",
            phase.name(),
            ms(h.p95_ns),
            h.count
        );
    }
    Ok(())
}
