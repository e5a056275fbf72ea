//! The three workloads. Each builds its engines once, then runs **laps**: a
//! lap is one small, fixed unit of traffic (same shape every lap, token
//! contents drawn from the seed and the lap number) served from a clean
//! start. Laps repeat until `--seconds` is used up, and the run reports
//! **medians over laps**: a rate or a count is computed per lap and the median
//! lap is reported; a latency is sampled per request, each request's value is
//! the median of its values over the laps (the shape is frozen, so request *i*
//! is the same request in every lap), and the percentiles are taken over those.
//! A burst of host interference that hits a minority of laps — or, for one
//! request, a minority of that request's repetitions — does not move the
//! result.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::{highest_supported_percentile, median, percentile, sorted};
use crate::trace::Recorder;

pub mod long_context;
pub mod serving;

/// Laps run however short `--seconds` is, so a median exists.
const MIN_LAPS: usize = 3;

/// How one pass of one workload is run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the timed phase: laps start while one more fits.
    pub seconds: u64,
    /// Record spans and run the layer probes.
    pub traced: bool,
    /// Same code paths with sizes cut; never a baseline.
    pub smoke: bool,
}

impl RunOptions {
    /// Token-content seed of lap `lap`: distinct per (seed, lap).
    pub fn lap_seed(&self, lap: usize) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(lap as u64 + 1)
    }

    /// Runs `lap(0)`, `lap(1)`, ... while the next lap — taken to last as long
    /// as the slowest so far — still ends within `seconds` of `start`, when
    /// the timed phase began (smoke: exactly [`MIN_LAPS`]; traced: half of
    /// `seconds`). The run length is thereby set by the clock, not by how
    /// fast the host happens to be.
    pub fn run_laps(&self, start: Instant, mut lap: impl FnMut(usize) -> Outcome) -> Vec<Outcome> {
        let budget = match (self.smoke, self.traced) {
            (true, _) => 0.0,
            // A traced pass spends the other half of its time in the probes.
            (false, true) => self.seconds as f64 / 2.0,
            (false, false) => self.seconds as f64,
        };
        let mut slowest = 0.0f64;
        let mut laps = Vec::new();
        while laps.len() < MIN_LAPS || start.elapsed().as_secs_f64() + slowest <= budget {
            let lap_start = Instant::now();
            laps.push(lap(laps.len()));
            slowest = slowest.max(lap_start.elapsed().as_secs_f64());
        }
        laps
    }
}

/// Everything one lap produced, or — after [`Outcome::fold`] — one pass.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric name → value: the end-to-end metrics always, the per-layer
    /// metrics after a traced pass.
    pub metrics: BTreeMap<String, f64>,
    /// Timing samples of a lap, one per request in list order (name without
    /// the `_p50` / `_p95` suffix); folded per request, then into percentiles.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Counts that must be identical from lap to lap, and between the
    /// untraced and the traced pass of one invocation.
    pub exact: BTreeMap<&'static str, f64>,
    /// Operations attempted (requests; decode steps on `long_context`).
    pub attempted: u64,
    /// Operations that failed, were refused, or fell short of their budget.
    pub failed: u64,
    /// Output checks that did not hold (empty = correct).
    pub check_failures: Vec<String>,
    /// Sample counts and percentile support, printed beside the metrics.
    pub notes: Vec<String>,
    /// The span log of a traced pass.
    pub trace: Option<Recorder>,
}

impl Outcome {
    /// Folds a pass's laps into its result: each metric is the median of its
    /// per-lap values, each timing sample the median of that request's values
    /// over the laps (then `_p50` / `_p95` over requests), operations add up,
    /// and the exact counts — the laps are the same traffic shape — must not
    /// differ from lap to lap.
    pub fn fold(laps: Vec<Outcome>) -> Outcome {
        let mut out = Outcome::default();
        out.notes.push(format!("laps: {}", laps.len()));
        let mut per_metric: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut per_sample: BTreeMap<&'static str, Vec<Vec<f64>>> = BTreeMap::new();
        for (i, lap) in laps.into_iter().enumerate() {
            for (name, value) in lap.metrics {
                per_metric.entry(name).or_default().push(value);
            }
            for (name, values) in lap.samples {
                per_sample.entry(name).or_default().push(values);
            }
            out.attempted += lap.attempted;
            out.failed += lap.failed;
            out.check_failures.extend(lap.check_failures);
            if i == 0 {
                out.exact = lap.exact;
                out.notes
                    .extend(lap.notes.iter().map(|n| format!("lap 0 {n}")));
            } else if lap.exact != out.exact {
                out.check_failures.push(format!(
                    "exact counts of lap {i} differ from lap 0: {:?} vs {:?}",
                    lap.exact, out.exact
                ));
            }
        }
        for (name, values) in per_metric {
            // The laps of each end-to-end metric, for a look at the run's
            // quiet and disturbed stretches.
            if !name.contains('.') {
                let laps: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
                out.notes.push(format!("{name} by lap: {}", laps.join(" ")));
            }
            out.metrics.insert(name, median(&values));
        }
        for (name, laps) in per_sample {
            let requests = laps[0].len();
            if requests == 0 || laps.iter().any(|lap| lap.len() != requests) {
                out.check_failures.push(format!(
                    "{name}: a lap has no samples, or laps differ in how many they have"
                ));
                continue;
            }
            let per_request: Vec<f64> = (0..requests)
                .map(|r| median(&laps.iter().map(|lap| lap[r]).collect::<Vec<_>>()))
                .collect();
            out.set_timing(name, &per_request);
        }
        out
    }

    /// Records a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records the nearest-rank 95th percentile of `samples` (0 if empty).
    pub fn set_p95(&mut self, name: &str, samples: Vec<f64>) {
        let s = sorted(samples);
        self.set(
            name,
            if s.is_empty() {
                0.0
            } else {
                percentile(&s, 95.0)
            },
        );
    }

    /// Records an output-check verdict.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.check_failures.push(what());
        }
    }

    /// Emits `<name>_p50` (the median) and `<name>_p95` (nearest rank) for a
    /// timing sample, and notes what backs them.
    pub fn set_timing(&mut self, name: &str, samples: &[f64]) {
        let s = sorted(samples.to_vec());
        self.set(&format!("{name}_p50"), median(&s));
        self.set(&format!("{name}_p95"), percentile(&s, 95.0));
        self.note_ladder(name, &s);
    }

    /// Notes a sorted sample's count, the highest percentile it supports —
    /// so a p95 with fewer than ten samples beyond it is flagged — and its
    /// percentile ladder.
    pub fn note_ladder(&mut self, name: &str, sorted: &[f64]) {
        let support = match highest_supported_percentile(sorted.len()) {
            Some(p) if p >= 95.0 => "p95 supported".to_string(),
            Some(p) => format!("highest supported percentile p{p}"),
            None => "too few samples for any percentile".to_string(),
        };
        let ladder: Vec<String> = [50.0, 75.0, 90.0, 95.0, 99.0]
            .iter()
            .map(|&p| format!("p{p}={:.3}", percentile(sorted, p)))
            .collect();
        self.notes.push(format!(
            "{name}: n={} ({support}) {}",
            sorted.len(),
            ladder.join(" ")
        ));
    }
}

/// The latency samples of a serving lap, one of each per request.
#[derive(Debug, Default)]
pub struct Latencies {
    /// Milliseconds from when a request was due to its first token.
    pub ttft_ms: Vec<f64>,
    /// Milliseconds per output token after the first, per request:
    /// `(last token − first token) / (tokens − 1)`.
    pub tpot_ms: Vec<f64>,
    /// Milliseconds from due to the last token.
    pub request_ms: Vec<f64>,
}

impl Latencies {
    /// Adds one request that was due at `due_ms` and saw its first and last
    /// of `tokens` tokens at `first_ms` and `last_ms`.
    pub fn add_request(&mut self, due_ms: f64, first_ms: f64, last_ms: f64, tokens: usize) {
        if tokens == 0 {
            return;
        }
        self.ttft_ms.push(first_ms - due_ms);
        if tokens > 1 {
            self.tpot_ms
                .push((last_ms - first_ms) / (tokens - 1) as f64);
        }
        self.request_ms.push(last_ms - due_ms);
    }

    /// Hands the lap's samples over: the six latency metrics come out of
    /// [`Outcome::fold`].
    pub fn emit(self, outcome: &mut Outcome) {
        outcome.samples.insert("ttft_ms", self.ttft_ms);
        outcome.samples.insert("tpot_ms", self.tpot_ms);
        outcome
            .samples
            .insert("request_latency_ms", self.request_ms);
    }
}

/// Sums over the final reports of a lap's completed requests — the basis of
/// the serving workloads' throughput and memory metrics.
#[derive(Debug, Default)]
pub struct ReportSums {
    /// Requests that completed with their full budget.
    pub completed: f64,
    /// Σ `SessionReport::prompt_tokens`.
    pub prompt_tokens: f64,
    /// Σ generated tokens.
    pub output_tokens: f64,
    /// Σ `SessionReport::prefix_tokens_reused`.
    pub reused_tokens: f64,
    /// Σ `SessionReport::kv_bytes`.
    pub kv_bytes: f64,
    /// Σ `SessionReport::prefill_ns`.
    pub prefill_ns: f64,
}

impl ReportSums {
    /// Emits the throughput and memory metrics over `wall_s` of timed phase.
    /// `kv_bytes_per_token` is the bytes each request had to newly hold
    /// (attached prefix blocks already existed, at `quantized_bytes_per_token`
    /// each) over the tokens it cached; a request's last sampled token is
    /// still pending, hence `- completed`.
    pub fn emit(&self, wall_s: f64, quantized_bytes_per_token: f64, out: &mut Outcome) {
        out.set(
            "prefill_tokens_per_s",
            self.prompt_tokens / (self.prefill_ns / 1e9),
        );
        out.set("output_tokens_per_s", self.output_tokens / wall_s);
        out.set("requests_per_s", self.completed / wall_s);
        out.set(
            "kv_bytes_per_token",
            (self.kv_bytes - self.reused_tokens * quantized_bytes_per_token)
                / (self.prompt_tokens + self.output_tokens - self.completed),
        );
    }
}

/// Runs one pass of the named workload.
pub fn run(name: &str, options: &RunOptions) -> Option<Outcome> {
    match name {
        "long_context" => Some(long_context::run(options)),
        "serve_mixed" => Some(serving::run(serving::Mix::Mixed, options)),
        "serve_shared_prefix" => Some(serving::run(serving::Mix::SharedPrefix, options)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tpot_is_the_per_request_mean_gap_after_the_first_token() {
        let mut lat = Latencies::default();
        lat.add_request(10.0, 14.0, 24.0, 5);
        assert_eq!(lat.ttft_ms, [4.0]);
        assert_eq!(lat.tpot_ms, [2.5]);
        assert_eq!(lat.request_ms, [14.0]);
        // One token has no gap; no tokens is no request.
        lat.add_request(0.0, 3.0, 3.0, 1);
        lat.add_request(0.0, 0.0, 0.0, 0);
        assert_eq!((lat.ttft_ms.len(), lat.tpot_ms.len()), (2, 1));
    }

    #[test]
    fn laps_stop_when_the_next_would_overrun_and_fold_takes_medians() {
        let options = RunOptions {
            seed: 1,
            seconds: 0,
            traced: false,
            smoke: false,
        };
        // No time at all still gives the minimum number of laps.
        let laps = options.run_laps(Instant::now(), |lap| {
            let mut out = Outcome::default();
            out.set("x_per_s", [5.0, 100.0, 7.0][lap]);
            // Request 1 is disturbed in lap 1 only, request 0 never.
            out.samples
                .insert("y_ms", vec![1.0 + lap as f64, [10.0, 100.0, 12.0][lap]]);
            out.attempted = 2;
            out.exact.insert("rounds", 9.0);
            out
        });
        assert_eq!(laps.len(), MIN_LAPS);
        let folded = Outcome::fold(laps);
        assert_eq!(
            folded.metrics["x_per_s"], 7.0,
            "the disturbed lap is voted out"
        );
        // Per request [2, 12]: the median is their mean, p95 the larger.
        assert_eq!(folded.metrics["y_ms_p50"], 7.0);
        assert_eq!(folded.metrics["y_ms_p95"], 12.0);
        assert_eq!((folded.attempted, folded.failed), (6, 0));
        assert_eq!(folded.exact["rounds"], 9.0);
        assert!(folded.check_failures.is_empty());
        assert_ne!(options.lap_seed(0), options.lap_seed(1));
    }

    #[test]
    fn fold_reports_a_lap_whose_exact_counts_differ() {
        let lap = |rounds| {
            let mut out = Outcome::default();
            out.exact.insert("rounds", rounds);
            out
        };
        let folded = Outcome::fold(vec![lap(9.0), lap(9.0), lap(10.0)]);
        assert_eq!(folded.check_failures.len(), 1);
        let short = |n| {
            let mut out = Outcome::default();
            out.samples.insert("y_ms", vec![1.0; n]);
            out
        };
        let folded = Outcome::fold(vec![short(2), short(1)]);
        assert_eq!(folded.check_failures.len(), 1);
    }
}
