//! `serve_mixed` and `serve_shared_prefix`: an in-process `ServingEngine`
//! driven by the bench thread calling `submit` / `serve_round`. A lap serves
//! one request list to completion on a fresh `ServingEngine` over the run's
//! one `MillionEngine` (and so its one block store).
//!
//! Arrivals are scheduled on the engine's **round clock**: request *i* is
//! submitted once the engine has served `due_round` rounds. The offered load
//! per round is therefore identical on every machine, commit and lap — queue
//! depths and batch sizes are exact counts, and wall-clock latencies reflect
//! only how long rounds take. An open loop on the round clock; TTFT counts
//! from the submit call.

use std::time::Instant;

use million::{
    GenerationOptions, MillionEngine, Request, RequestHandle, ServingConfig, ServingEngine,
    ServingStats, SessionReport,
};
use million_model::ModelConfig;

use super::{Latencies, Outcome, ReportSums, RunOptions};
use crate::engine::{self, EngineSpec};
use crate::gen::{self, GenRequest, ServeShape};
use crate::probes::{self, StoreWatch};
use crate::stats::{median, percentile, sorted};
use crate::trace::{Recorder, SpanId};

/// Which traffic mix to serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Short unshared prompts plus two long arrivals: dense GEMV and
    /// scheduling dominate, the store only writes.
    Mixed,
    /// Two 1024-token system prompts with unique suffixes: the store reads.
    SharedPrefix,
}

impl Mix {
    /// The request list of one lap.
    fn shape(self, smoke: bool) -> ServeShape {
        match (self, smoke) {
            (Mix::Mixed, false) => ServeShape {
                requests: 5,
                prompt_tokens: (32, 512),
                log_uniform: true,
                output_tokens: (32, 128),
                long_prompts: (1, 1024, 64),
                system_prompts: (0, 0),
                rounds_per_arrival: 8.0,
            },
            (Mix::SharedPrefix, false) => ServeShape {
                requests: 8,
                prompt_tokens: (32, 96),
                log_uniform: false,
                output_tokens: (24, 48),
                long_prompts: (0, 0, 0),
                system_prompts: (2, 1024),
                rounds_per_arrival: 4.0,
            },
            (Mix::Mixed, true) => ServeShape {
                requests: 4,
                prompt_tokens: (16, 64),
                log_uniform: true,
                output_tokens: (8, 16),
                long_prompts: (1, 160, 8),
                system_prompts: (0, 0),
                rounds_per_arrival: 3.0,
            },
            (Mix::SharedPrefix, true) => ServeShape {
                requests: 4,
                prompt_tokens: (8, 24),
                log_uniform: false,
                output_tokens: (6, 12),
                long_prompts: (0, 0, 0),
                system_prompts: (2, 128),
                rounds_per_arrival: 2.0,
            },
        }
    }
}

/// One `serve_round` as the harness saw it.
#[derive(Debug, Clone, Copy)]
struct Round {
    /// Wall milliseconds of the call.
    ms: f64,
    /// Whether it ran at least one prefill chunk.
    prefilled: bool,
}

/// Everything observed while serving one request list.
struct Served {
    /// Final report per request, in list order (`None` if refused).
    reports: Vec<Option<SessionReport>>,
    /// Streamed token ids per request.
    tokens: Vec<Vec<u32>>,
    /// Client-side latency samples.
    latencies: Latencies,
    /// Every round served.
    rounds: Vec<Round>,
    /// Dense (not yet quantized) window after each streamed step.
    dense_window: Vec<f64>,
    /// Wall seconds from the first submit to idle.
    wall_s: f64,
    /// The engine's counters at the end.
    stats: ServingStats,
    /// Store readings taken after every round of a traced pass.
    watch: StoreWatch,
}

/// Serves `requests` to completion on a fresh `ServingEngine`.
fn serve(
    engine: &MillionEngine,
    requests: &[GenRequest],
    config: ServingConfig,
    rec: &mut Recorder,
    root: Option<SpanId>,
) -> Served {
    let origin = Instant::now();
    let ms = |at: Instant| at.duration_since(origin).as_secs_f64() * 1e3;
    let n = requests.len();
    let mut serving = ServingEngine::new(engine, config);
    let mut handles: Vec<Option<RequestHandle>> = (0..n).map(|_| None).collect();
    let mut index_of_id = Vec::with_capacity(n);
    let mut due_ms = vec![0.0; n];
    // (first, last) token arrival per request; a round's tokens become
    // visible to the client when `serve_round` returns.
    let mut seen_ms: Vec<Option<(f64, f64)>> = vec![None; n];
    let mut served = Served {
        reports: vec![None; n],
        tokens: vec![Vec::new(); n],
        latencies: Latencies::default(),
        rounds: Vec::new(),
        dense_window: Vec::new(),
        wall_s: 0.0,
        stats: ServingStats::default(),
        watch: StoreWatch::default(),
    };
    let mut next = 0;
    loop {
        // An idle engine skips ahead to the next arrival: the round clock
        // only advances while there is work.
        while next < n && (requests[next].due_round <= serving.rounds() || serving.is_idle()) {
            let r = &requests[next];
            let request = Request::new(
                r.prompt.clone(),
                GenerationOptions::max_tokens(r.max_new_tokens),
            )
            .with_class(r.class);
            due_ms[next] = ms(Instant::now());
            let submitted = rec.span("serving.submit", root, next as u64, || {
                serving.submit(request)
            });
            // A refusal leaves the request without a report: it fails.
            if let Ok(handle) = submitted {
                index_of_id.push(next);
                handles[next] = Some(handle);
            }
            next += 1;
        }
        if next == n && serving.is_idle() {
            break;
        }
        let chunks_before = serving.stats().prefill_chunks;
        let start = Instant::now();
        let produced = rec.span("serving.serve_round", root, 0, || serving.serve_round());
        let end = Instant::now();
        for (id, step) in &produced {
            let i = index_of_id[id.as_u64() as usize];
            served.tokens[i].push(step.token);
            served.dense_window.push(step.residual_tokens as f64);
            let at = ms(end);
            seen_ms[i] = Some((seen_ms[i].map_or(at, |(first, _)| first), at));
        }
        served.rounds.push(Round {
            ms: end.duration_since(start).as_secs_f64() * 1e3,
            prefilled: serving.stats().prefill_chunks > chunks_before,
        });
        if rec.enabled() {
            if let Some(stats) = engine.store_stats() {
                served.watch.sample(&stats);
            }
        }
    }
    served.wall_s = origin.elapsed().as_secs_f64();
    served.stats = serving.stats();
    for (i, handle) in handles.iter().enumerate() {
        served.reports[i] = handle.as_ref().and_then(RequestHandle::report);
        if let Some((first, last)) = seen_ms[i] {
            served
                .latencies
                .add_request(due_ms[i], first, last, served.tokens[i].len());
        }
    }
    served
}

/// Serves one lap's `requests`, checks every output, and returns the lap's
/// metrics.
fn lap(
    engine: &MillionEngine,
    requests: &[GenRequest],
    config: &ServingConfig,
    rec: &mut Recorder,
    root: Option<SpanId>,
) -> Outcome {
    let vocab = engine.model().config().vocab_size;
    let mut out = Outcome::default();
    out.notes.push(format!(
        "inputs: {} requests, digest {:016x}",
        requests.len(),
        gen::digest(requests)
    ));
    let first_span = rec.spans().len();
    let served = serve(engine, requests, config.clone(), rec, root);

    // Output checks.
    out.attempted = requests.len() as u64;
    let mut reports = Vec::with_capacity(requests.len());
    for (i, request) in requests.iter().enumerate() {
        let complete = served.reports[i]
            .as_ref()
            .filter(|r| r.tokens.len() == request.max_new_tokens && !r.cancelled && !r.timed_out);
        match complete {
            Some(report) => {
                out.check(report.tokens == served.tokens[i], || {
                    format!("request {i}: streamed tokens differ from the report")
                });
                out.check(report.tokens.iter().all(|&t| (t as usize) < vocab), || {
                    format!("request {i}: token id outside the vocabulary")
                });
                reports.push(report);
            }
            None => out.failed += 1,
        }
    }
    let failed = out.failed;
    out.check(failed == 0, || {
        format!("{} requests refused or short of budget", failed)
    });
    let store_end = engine.store_stats().unwrap_or_default();
    out.check(store_end.total_refs == 0, || {
        format!(
            "{} store references outlive the drain",
            store_end.total_refs
        )
    });

    // End-to-end metrics.
    let sum = |f: &dyn Fn(&SessionReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>();
    let sums = ReportSums {
        completed: reports.len() as f64,
        prompt_tokens: sum(&|r| r.prompt_tokens as f64),
        output_tokens: sum(&|r| r.tokens.len() as f64),
        reused_tokens: sum(&|r| r.prefix_tokens_reused as f64),
        kv_bytes: sum(&|r| r.kv_bytes as f64),
        prefill_ns: sum(&|r| r.prefill_ns as f64),
    };
    served.latencies.emit(&mut out);
    sums.emit(
        served.wall_s,
        engine::quantized_bytes_per_token(engine),
        &mut out,
    );

    // Counts that depend only on the round clock.
    let wait_rounds = sorted(reports.iter().map(|r| r.queue_wait_rounds as f64).collect());
    let counts = [
        ("serving.rounds_total", served.stats.rounds as f64),
        ("serving.prefill_chunks", served.stats.prefill_chunks as f64),
        (
            "serving.queue_wait_rounds_p50",
            percentile(&wait_rounds, 50.0),
        ),
        (
            "serving.queue_wait_rounds_p95",
            percentile(&wait_rounds, 95.0),
        ),
        (
            "serving.batch_tokens_per_round_mean",
            sums.output_tokens / served.stats.rounds as f64,
        ),
    ];
    out.exact.extend(counts);
    out.exact
        .insert("kv_bytes_per_token", out.metrics["kv_bytes_per_token"]);

    if rec.enabled() {
        for (name, value) in counts {
            out.set(name, value);
        }
        let round_ms = |keep: &dyn Fn(&Round) -> bool| -> Vec<f64> {
            let picked: Vec<f64> = served
                .rounds
                .iter()
                .filter(|r| keep(r))
                .map(|r| r.ms)
                .collect();
            sorted(if picked.is_empty() { vec![0.0] } else { picked })
        };
        let all = round_ms(&|_| true);
        out.set("serving.round_ms_p50", percentile(&all, 50.0));
        out.set("serving.round_ms_p95", percentile(&all, 95.0));
        out.set(
            "serving.decode_round_ms_p50",
            percentile(&round_ms(&|r| !r.prefilled), 50.0),
        );
        out.set(
            "serving.prefill_round_ms_p50",
            percentile(&round_ms(&|r| r.prefilled), 50.0),
        );
        let waits: Vec<f64> = reports
            .iter()
            .map(|r| r.queue_wait_ns as f64 / 1e6)
            .collect();
        out.set("serving.queue_wait_ms_p50", median(&waits));
        out.set(
            "serving.submit_us",
            median(&rec.durations_ns("serving.submit", first_span)) / 1e3,
        );
        let busy_ms = sum(&|r| (r.prefill_ns + r.decode_ns) as f64) / 1e6;
        out.set(
            "serving.sched_overhead_share",
            crate::trace::residual_share(all.iter().sum(), &[busy_ms]),
        );
        out.set_p95("kvcache.dense_window_tokens_p95", served.dense_window);
        served
            .watch
            .emit(&store_end, sums.prompt_tokens, sums.reused_tokens, &mut out);
    }
    out
}

/// Runs one pass.
pub fn run(mix: Mix, options: &RunOptions) -> Outcome {
    let shape = mix.shape(options.smoke);
    let mut spec = EngineSpec::new(ModelConfig::llama2_7b_sim(), options.smoke);
    spec.prefix_sharing = true;
    if mix == Mix::SharedPrefix {
        spec.store_byte_budget = 64 << 20;
    }
    let built = engine::build(&spec);
    let engine = &built.engine;
    let vocab = spec.model.vocab_size;
    engine::warm_up(engine);
    let config = ServingConfig {
        // Smoke prompts are short; keep them chunking.
        prefill_chunk_tokens: if options.smoke { 64 } else { 512 },
        ..ServingConfig::default()
    };
    let mut rec = Recorder::new(options.traced, Instant::now());
    let root = rec.begin("harness.timed_phase", None, 0);
    let start = Instant::now();
    // A service's steady state: the system prompts were served before, and
    // the store's retention budget keeps their blocks resident, so every
    // request of every lap finds its system prompt in the store. Serving them
    // that first time is part of the timed phase but of no lap.
    let leaders = gen::system_prompt_leaders(options.seed, vocab, &shape);
    if !leaders.is_empty() {
        serve(engine, &leaders, config.clone(), &mut rec, root);
    }
    let laps = options.run_laps(start, |i| {
        let requests = gen::serve_requests(options.seed, options.lap_seed(i), vocab, &shape);
        lap(engine, &requests, &config, &mut rec, root)
    });
    rec.end(root);

    let mut out = Outcome::fold(laps);
    out.set("setup_s", built.setup_s);
    out.set(
        "ppl_ratio",
        engine::ppl_ratio(engine, if options.smoke { 64 } else { 256 }),
    );
    out.exact.insert("ppl_ratio", out.metrics["ppl_ratio"]);
    out.set("peak_rss_mb", engine::peak_rss_mb());
    if options.traced {
        if mix == Mix::Mixed {
            let requests = gen::serve_requests(options.seed, options.seed, vocab, &shape);
            out.set(
                "telemetry.overhead_share",
                telemetry_overhead_share(engine, &requests, &config),
            );
        }
        probes::run(engine, built.train_s, options, &mut out);
    }
    out.trace = Some(rec);
    out
}

/// Wall-time share telemetry costs: a short slice of the mix served with
/// `ServingConfig::telemetry` on and off, alternating, best of two each.
fn telemetry_overhead_share(
    engine: &MillionEngine,
    requests: &[GenRequest],
    config: &ServingConfig,
) -> f64 {
    let slice: Vec<GenRequest> = requests
        .iter()
        .filter(|r| r.prompt.len() <= 512)
        .take(4)
        .map(|r| GenRequest {
            due_round: 0,
            ..r.clone()
        })
        .collect();
    let mut off = Recorder::new(false, Instant::now());
    let mut best = [f64::INFINITY; 2];
    for _ in 0..2 {
        for (slot, telemetry) in [(0, true), (1, false)] {
            let config = ServingConfig {
                telemetry,
                ..config.clone()
            };
            let wall = serve(engine, &slice, config, &mut off, None).wall_s;
            best[slot] = best[slot].min(wall);
        }
    }
    best[0] / best[1] - 1.0
}
