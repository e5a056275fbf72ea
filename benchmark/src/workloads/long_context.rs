//! `long_context`: the paper's headline scenario. One `InferenceSession`
//! driven directly. A lap is one request on a fresh session — a
//! [`PROMPT_TOKENS`]-token prefill (cache writes), then [`STEPS`] decode steps
//! whose attention walks the prompt's PQ codes (cache reads). Closed loop, one
//! client; `million::serving` and store sharing do nothing here.

use std::time::Instant;

use million::MillionEngine;
use million_model::{ModelConfig, Sampler};

use super::{Outcome, RunOptions};
use crate::engine::{self, EngineSpec};
use crate::gen::corpus_tokens;
use crate::probes;
use crate::stats::{percentile, sorted};
use crate::trace::{Recorder, SpanId};

/// Prompt length of a lap's request.
const PROMPT_TOKENS: usize = 2048;
/// Decode steps of a lap's request: enough gaps that a lap's p95 has ten
/// samples beyond it.
const STEPS: usize = 256;

/// One request: prefill `prompt`, then `steps` decode steps.
fn lap(
    engine: &MillionEngine,
    prompt: &[u32],
    steps: usize,
    request: u64,
    rec: &mut Recorder,
    root: Option<SpanId>,
) -> Outcome {
    let vocab = engine.model().config().vocab_size;
    let mut out = Outcome::default();
    let origin = Instant::now();
    let ms = |at: Instant| at.duration_since(origin).as_secs_f64() * 1e3;

    let mut session = engine.session();
    rec.span("session.prefill", root, request, || session.prefill(prompt));
    let prefill_ms = ms(Instant::now());
    let mut sampler = Sampler::greedy();
    let mut token_ms = Vec::with_capacity(steps);
    let mut tokens = Vec::with_capacity(steps);
    let mut dense_window = Vec::with_capacity(steps);
    let mut async_batches = 0;
    for _ in 0..steps {
        let step = rec.span("session.step_with", root, request, || {
            session.step_with(&mut sampler)
        });
        token_ms.push(ms(Instant::now()));
        tokens.push(step.token);
        dense_window.push(step.residual_tokens as f64);
        async_batches += step.async_batches;
    }
    let wall_s = origin.elapsed().as_secs_f64();

    session.flush();
    let kv_bytes_per_token = session.kv_bytes() as f64 / session.cached_tokens() as f64;

    out.attempted = steps as u64;
    out.failed = (steps - tokens.len()) as u64;
    out.check(tokens.len() == steps, || {
        format!("generated {} of {steps} tokens", tokens.len())
    });
    out.check(tokens.iter().all(|&t| (t as usize) < vocab), || {
        "a generated token id is outside the vocabulary".into()
    });
    out.check(session.cached_tokens() == prompt.len() + steps - 1, || {
        format!("cache holds {} tokens", session.cached_tokens())
    });

    // One request per lap: TTFT and latency have that one sample, and the
    // TPOT samples are its own step-to-step gaps.
    out.samples.insert("ttft_ms", vec![token_ms[0]]);
    out.samples
        .insert("request_latency_ms", vec![token_ms[steps - 1]]);
    out.samples.insert(
        "tpot_ms",
        token_ms.windows(2).map(|w| w[1] - w[0]).collect(),
    );
    out.set(
        "prefill_tokens_per_s",
        prompt.len() as f64 / (prefill_ms / 1e3),
    );
    out.set("output_tokens_per_s", steps as f64 / wall_s);
    out.set("requests_per_s", 1.0 / wall_s);
    out.set("kv_bytes_per_token", kv_bytes_per_token);
    out.exact.insert("kv_bytes_per_token", kv_bytes_per_token);

    if rec.enabled() {
        let window = sorted(dense_window);
        out.set("kvcache.dense_window_tokens_p95", percentile(&window, 95.0));
        // The newest token cannot have been shipped yet; the rest of the
        // dense window is what the worker still owes.
        out.set(
            "async_quant.lag_tokens_p95",
            (percentile(&window, 95.0) - 1.0).max(0.0),
        );
        out.set("async_quant.batches", async_batches as f64);
    }
    out
}

/// Runs one pass.
pub fn run(options: &RunOptions) -> Outcome {
    let (prompt_tokens, steps, fidelity_tokens) = if options.smoke {
        (512, 16, 64)
    } else {
        (PROMPT_TOKENS, STEPS, 256)
    };
    let spec = EngineSpec::new(ModelConfig::longchat_7b_sim(), options.smoke);
    let built = engine::build(&spec);
    let engine = &built.engine;
    let vocab = spec.model.vocab_size;
    engine::warm_up(engine);

    let mut rec = Recorder::new(options.traced, Instant::now());
    let root = rec.begin("harness.timed_phase", None, 0);
    let laps = options.run_laps(Instant::now(), |i| {
        let prompt = corpus_tokens(vocab, options.lap_seed(i), prompt_tokens);
        lap(engine, &prompt, steps, i as u64, &mut rec, root)
    });
    rec.end(root);

    let mut out = Outcome::fold(laps);
    out.set("setup_s", built.setup_s);
    out.set("ppl_ratio", engine::ppl_ratio(engine, fidelity_tokens));
    out.exact.insert("ppl_ratio", out.metrics["ppl_ratio"]);
    out.set("peak_rss_mb", engine::peak_rss_mb());
    if options.traced {
        probes::store_counters(engine, prompt_tokens as f64, 0.0, &mut out);
        probes::run(engine, built.train_s, options, &mut out);
    }
    out.trace = Some(rec);
    out
}
