//! Engine set-up shared by the in-process workloads, plus the whole-run
//! measurements every workload reports: set-up time, fidelity and peak RSS.

use std::time::{Duration, Instant};

use million::{train_codebooks, MillionConfig, MillionEngine};
use million_eval::perplexity::{evaluate_perplexity_against, teacher_log_probs};
use million_model::{ModelConfig, Transformer};

use crate::gen::corpus_tokens;

/// Weight seed of every benchmarked model (`million_serverd`'s default).
pub const MODEL_SEED: u64 = 42;
/// Seed of the fixed stream codebooks are calibrated on and fidelity is
/// scored on. Fixed, like a held-out evaluation set: `--seed` varies the
/// traffic, not the yardstick.
const CALIBRATION_SEED: u64 = 20_250_011;
/// Calibration prompt length (`million_serverd`'s default).
const CALIBRATION_TOKENS: usize = 512;
/// Set-up is repeated while its total stays under this, at most
/// [`MAX_SETUP_REPS`] times; the median is reported.
const SETUP_REPEAT_BUDGET: Duration = Duration::from_secs(2);
const MAX_SETUP_REPS: usize = 5;

/// What an in-process workload needs built.
#[derive(Debug, Clone)]
pub struct EngineSpec {
    /// Model preset.
    pub model: ModelConfig,
    /// Attach resident prompt prefixes at admission.
    pub prefix_sharing: bool,
    /// Store retention budget in bytes (0 = strict reference counting).
    pub store_byte_budget: usize,
    /// Calibration tokens (cut in smoke mode).
    pub calibration_tokens: usize,
}

impl EngineSpec {
    /// `MillionConfig::four_bit` with production defaults otherwise.
    pub fn new(model: ModelConfig, smoke: bool) -> Self {
        Self {
            model,
            prefix_sharing: false,
            store_byte_budget: 0,
            calibration_tokens: if smoke { 64 } else { CALIBRATION_TOKENS },
        }
    }

    fn million_config(&self) -> MillionConfig {
        let mut config = MillionConfig::four_bit(self.model.head_dim())
            .with_store_byte_budget(self.store_byte_budget);
        config.calibration_tokens = self.calibration_tokens;
        config.prefix_sharing = self.prefix_sharing;
        config
    }
}

/// A built engine and what building it cost.
pub struct Built {
    /// The engine.
    pub engine: MillionEngine,
    /// Median wall seconds of one whole set-up (model init + training).
    pub setup_s: f64,
    /// Seconds of the last set-up spent in `train_codebooks`.
    pub train_s: f64,
}

fn build_once(spec: &EngineSpec) -> (MillionEngine, f64) {
    let model = Transformer::new(spec.model.clone(), MODEL_SEED);
    let calibration = corpus_tokens(
        spec.model.vocab_size,
        CALIBRATION_SEED,
        spec.calibration_tokens,
    );
    let config = spec.million_config();
    let train_start = Instant::now();
    let codebooks = train_codebooks(&model, &calibration, &config).expect("codebooks train");
    let train_s = train_start.elapsed().as_secs_f64();
    let engine = MillionEngine::from_parts(model, codebooks, config).expect("engine builds");
    (engine, train_s)
}

/// Builds the engine for `spec` — repeatedly while under the repeat budget —
/// and reports the median wall seconds of one set-up.
pub fn build(spec: &EngineSpec) -> Built {
    let mut times = Vec::new();
    let budget_start = Instant::now();
    loop {
        let start = Instant::now();
        let (engine, train_s) = build_once(spec);
        times.push(start.elapsed().as_secs_f64());
        if times.len() == MAX_SETUP_REPS || budget_start.elapsed() >= SETUP_REPEAT_BUDGET {
            return Built {
                engine,
                setup_s: crate::stats::median(&times),
                train_s,
            };
        }
    }
}

/// Warm-up before any timed phase: one 64-token prefill and 16 steps on a
/// throwaway session, so lazy allocation and page faults are paid up front.
pub fn warm_up(engine: &MillionEngine) {
    let vocab = engine.model().config().vocab_size;
    let mut session = engine.session();
    session.prefill(&corpus_tokens(vocab, CALIBRATION_SEED ^ 1, 64));
    for _ in 0..16 {
        std::hint::black_box(session.step());
    }
}

/// PQ perplexity over full-precision perplexity on a held-out slice of the
/// calibration stream. The harness scores both against the fp16 reference, so
/// the ratio is exactly `exp(mean KL)`; deterministic for a given build.
pub fn ppl_ratio(engine: &MillionEngine, tokens: usize) -> f64 {
    let config = engine.model().config();
    let tokens = tokens.min(config.max_seq_len - 1);
    let calibrated = engine.config().calibration_tokens;
    let stream = corpus_tokens(config.vocab_size, CALIBRATION_SEED, calibrated + tokens);
    let held_out = &stream[calibrated..];
    let seed_len = tokens / 8;
    let teacher = teacher_log_probs(engine.model(), held_out, seed_len);
    let report = evaluate_perplexity_against(
        engine.model(),
        &engine.cache_spec(),
        held_out,
        seed_len,
        &teacher,
    );
    report.kl_vs_fp16.exp()
}

/// Quantized bytes one cached token costs across all layers and heads —
/// computed from the codebook geometry, not measured.
pub fn quantized_bytes_per_token(engine: &MillionEngine) -> f64 {
    let config = engine.model().config();
    let books = engine.codebooks();
    (config.n_layers
        * config.n_kv_heads
        * (books.key[0].bytes_per_vector() + books.value[0].bytes_per_vector())) as f64
}

/// Pins the calling thread — and every thread spawned from it afterwards — to
/// one CPU, the highest it is allowed on. Besides the bench thread a workload
/// has the engine's quantization worker, and on a two-CPU box the guest
/// scheduler sometimes ran the two side by side and sometimes stacked them on
/// one CPU, for minutes at a time: the same `serve_round` took 300 ms or
/// 560 ms, and whole runs differed by 15 % in throughput and 2x in
/// `ttft_ms_p50`. On one CPU the placement is always the same, and what is
/// measured is the work done, whichever thread does it. Best effort: where the
/// call is unavailable or refused, nothing is pinned.
pub fn pin_to_one_cpu() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        let mut allowed = [0u64; 16];
        let bytes = std::mem::size_of_val(&allowed);
        // SAFETY: the kernel writes at most `bytes` bytes into `allowed`,
        // which is exactly that long.
        if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
            return;
        }
        let Some(word) = allowed.iter().rposition(|&w| w != 0) else {
            return;
        };
        let mut one = [0u64; 16];
        one[word] = 1 << (63 - allowed[word].leading_zeros());
        // SAFETY: the kernel reads `bytes` bytes from `one`, which is exactly
        // that long.
        unsafe { sched_setaffinity(0, bytes, one.as_ptr()) };
    }
}

/// Resets the kernel's peak-RSS watermark to the current RSS. A process
/// spawned by a suite run was observed to start with a watermark tens of MiB
/// above its own RSS; resetting it first makes `peak_rss_mb` the workload's
/// own peak however the process was started. Best effort: where `clear_refs`
/// is not writable the watermark is left as it is.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
