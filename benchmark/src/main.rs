//! One benchmark for the whole stack. See `benchmark/README.md`.
//!
//! ```text
//! million_benchmark run [--workload <name>] [--seed <n>] [--seconds <s>]
//!                       [--trace <0|1|both>] [--out <file>] [--smoke]
//! million_benchmark compare <a.json> <b.json>
//! million_benchmark repeat [--seed <n>] [--seconds <s>] [--smoke]
//! million_benchmark spread <suite.json>...
//! ```

mod engine;
mod gen;
mod probes;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Suite, WorkloadResult};
use spec::Spec;
use workloads::{Outcome, RunOptions};

/// Default workload seed.
const DEFAULT_SEED: u64 = 11;

/// Which passes `run` makes over each workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Passes {
    Untraced,
    Traced,
    /// Untraced, then traced; exact counts must agree between the two.
    Both,
}

impl Passes {
    /// The `--trace` value that selects these passes.
    fn flag(self) -> &'static str {
        match self {
            Passes::Untraced => "0",
            Passes::Traced => "1",
            Passes::Both => "both",
        }
    }
}

#[derive(Debug)]
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    passes: Passes,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_run_args(args: &[String], spec: &Spec) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec.run_seconds,
        passes: Passes::Untraced,
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !spec.workloads.contains(name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                parsed.workload = Some(name.clone());
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                parsed.passes = match value()?.as_str() {
                    "0" => Passes::Untraced,
                    "1" => Passes::Traced,
                    "both" => Passes::Both,
                    other => return Err(format!("--trace takes 0, 1 or both, not `{other}`")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// Derives the trace-level metrics of a traced pass, writes the Chrome trace
/// under `benchmark/out/`, and prints the span ledger.
fn finish_trace(name: &str, seed: u64, outcome: &mut Outcome) {
    let Some(rec) = outcome.trace.take().filter(trace::Recorder::enabled) else {
        return;
    };
    let spans = rec.spans();
    let selfs = trace::self_times_ns(spans);
    // Span 0 is the timed phase; its self time is the harness's own
    // bookkeeping between calls into the layers.
    let root_ns = spans[0].duration_ns().max(1) as f64;
    outcome.set("harness.residual_share", selfs[0] as f64 / root_ns);
    outcome.set(
        "trace_overhead_share",
        spans.len() as f64 * trace::Recorder::cost_per_span_ns() / root_ns,
    );
    eprintln!("  span ledger ({} spans):", spans.len());
    for (span, (count, total, own)) in trace::ledger(spans) {
        eprintln!(
            "    {span:<24} n={count:<7} total={:>11.3} ms  self={:>11.3} ms",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{name}-seed{seed}.trace.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::render_chrome_trace(spans)));
    match written {
        Ok(()) => eprintln!("  trace written to {}", path.display()),
        Err(e) => outcome
            .check_failures
            .push(format!("cannot write {}: {e}", path.display())),
    }
}

/// Runs the requested passes of one workload and folds them into one result.
fn run_workload(name: &str, args: &RunArgs, spec: &Spec) -> WorkloadResult {
    engine::reset_peak_rss();
    let mut result = WorkloadResult {
        name: name.to_string(),
        correct: true,
        ..WorkloadResult::default()
    };
    let passes: &[bool] = match args.passes {
        Passes::Untraced => &[false],
        Passes::Traced => &[true],
        Passes::Both => &[false, true],
    };
    for &traced in passes {
        let options = RunOptions {
            seed: args.seed,
            seconds: args.seconds,
            traced,
            smoke: args.smoke,
        };
        eprintln!(
            "== {name} (seed {}, {} s, {}{})",
            args.seed,
            args.seconds,
            if traced { "traced" } else { "untraced" },
            if args.smoke { ", smoke" } else { "" }
        );
        let mut outcome = workloads::run(name, &options).expect("catalogued workload");
        if traced {
            finish_trace(name, args.seed, &mut outcome);
        }
        let catalogue = if traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        let values = if traced {
            &mut result.per_layer
        } else {
            &mut result.end_to_end
        };
        for m in catalogue {
            // A layer that is not on this workload's request path reports 0.
            let fallback = traced.then_some(0.0);
            match outcome.metrics.get(&m.name).copied().or(fallback) {
                Some(v) if v.is_finite() => {
                    println!("{name} {} {v} {}", m.name, m.unit);
                    values.insert(m.name.clone(), v);
                }
                other => outcome
                    .check_failures
                    .push(format!("metric {} is {other:?}", m.name)),
            }
        }
        for note in &outcome.notes {
            eprintln!("  {note}");
        }
        let exact: report::Values = outcome
            .exact
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        if !result.exact.is_empty() && result.exact != exact {
            outcome.check_failures.push(format!(
                "exact counts differ between passes: {:?} vs {exact:?}",
                result.exact
            ));
        }
        result.exact = exact;
        for failure in &outcome.check_failures {
            eprintln!("  CHECK FAILED: {failure}");
        }
        result.attempted = outcome.attempted;
        result.failed = result.failed.max(outcome.failed);
        result.correct &= outcome.check_failures.is_empty() && outcome.failed == 0;
        println!("{}", report::contract_line(&result, traced, spec));
    }
    result
}

/// Runs one workload of a multi-workload suite in a child process — exactly
/// as the driver runs it — so its peak RSS and allocator state owe nothing to
/// the workloads before it.
fn run_in_child(name: &str, args: &RunArgs) -> Result<WorkloadResult, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let out = dir.join(format!(".suite-{name}-{}.json", std::process::id()));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = std::process::Command::new(exe);
    child
        .args(["run", "--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", args.passes.flag()])
        .arg("--out")
        .arg(&out);
    if args.smoke {
        child.arg("--smoke");
    }
    // A failed output check exits non-zero but still writes its results.
    child
        .status()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    let suite = load_suite(&out)?;
    let _ = std::fs::remove_file(&out);
    suite
        .workloads
        .into_iter()
        .next()
        .ok_or(format!("{name}: child wrote no result"))
}

fn run_suite(args: &RunArgs, spec: &Spec) -> Result<Suite, String> {
    let workloads = match &args.workload {
        Some(name) => vec![run_workload(name, args, spec)],
        None => spec
            .workloads
            .iter()
            .map(|name| run_in_child(name, args))
            .collect::<Result<_, _>>()?,
    };
    Ok(Suite {
        mode: if args.smoke { "smoke" } else { "full" }.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        workloads,
    })
}

fn run(args: &[String], spec: &Spec) -> Result<ExitCode, String> {
    let args = parse_run_args(args, spec)?;
    let suite = run_suite(&args, spec)?;
    if let Some(path) = &args.out {
        std::fs::write(path, suite.to_json(spec))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(if suite.workloads.iter().all(|w| w.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn load_suite(path: impl AsRef<std::path::Path>) -> Result<Suite, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Suite::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare(args: &[String], spec: &Spec) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two suite files".into());
    };
    let (a, b) = (load_suite(a)?, load_suite(b)?);
    if a.mode == "smoke" || b.mode == "smoke" {
        eprintln!("note: a smoke run is never a baseline; its numbers are not comparable");
    }
    let (table, worse) = report::compare(&a, &b, spec);
    print!("{table}");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn repeat(args: &[String], spec: &Spec) -> Result<ExitCode, String> {
    let args = parse_run_args(args, spec)?;
    let first = run_suite(&args, spec)?;
    let second = run_suite(&args, spec)?;
    let (table, worse) = report::compare(&first, &second, spec);
    print!("{table}");
    let correct = first
        .workloads
        .iter()
        .chain(&second.workloads)
        .all(|w| w.correct);
    Ok(if worse == 0 && correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Prints `{workload: {metric: spread}}` over several suite files (one per
/// seed): the interquartile distance of each end-to-end metric as a share of
/// its median. `baseline/spreads.json` is this output.
fn spread(paths: &[String], spec: &Spec) -> Result<ExitCode, String> {
    let suites: Vec<Suite> = paths.iter().map(load_suite).collect::<Result<_, _>>()?;
    let mut workloads = Vec::new();
    for name in &spec.workloads {
        let mut metrics = Vec::new();
        for m in &spec.end_to_end {
            let values: Vec<f64> = suites
                .iter()
                .flat_map(|s| &s.workloads)
                .filter(|w| &w.name == name)
                .filter_map(|w| w.end_to_end.get(&m.name).copied())
                .collect();
            if values.len() >= 2 {
                metrics.push(format!("    \"{}\": {:.4}", m.name, stats::spread(&values)));
            }
        }
        if !metrics.is_empty() {
            workloads.push(format!("  \"{name}\": {{\n{}\n  }}", metrics.join(",\n")));
        }
    }
    println!("{{\n{}\n}}", workloads.join(",\n"));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    // The benchmark runs on one CPU, and the engines' fork-join loops on one
    // worker thread (the vendored rayon reads this once, on first use): where
    // the guest scheduler puts a second thread, and which core the host is
    // disturbing, otherwise decide the numbers. See the README.
    engine::pin_to_one_cpu();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest, &spec),
        Some((cmd, rest)) if cmd == "compare" => compare(rest, &spec),
        Some((cmd, rest)) if cmd == "repeat" => repeat(rest, &spec),
        Some((cmd, rest)) if cmd == "spread" => spread(rest, &spec),
        _ => Err("usage: million_benchmark <run|compare|repeat|spread> [options]".into()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("error: {message}");
        ExitCode::from(2)
    })
}
