//! `cosim-bench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload as a closed loop of seeded, verified co-verification
//! runs for `--seconds` seconds (and at least [`MIN_RUNS`] runs), prints a
//! human-readable block, and ends with one JSON line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

use cosim_bench::pipeline::{assemble, check_equivalence, Build, Measure, RunRecord, Trace};
use cosim_bench::tally::{self, Metric, TraceWindow};
use cosim_bench::{reference, Workload};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Runs per plain window, so `run_ms_p90` has ≥10 samples above it.
const MIN_RUNS: usize = 100;

/// Traced windows run at least this many plain/traced pairs.
const MIN_TRACED_PAIRS: usize = 3;

/// No window keeps looping past this, whatever the run count.
const HARD_CAP: Duration = Duration::from_secs(150);

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

const USAGE: &str =
    "usage: cosim-bench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let (mut workloads, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(cosim_bench::WORKLOADS.to_vec()),
            "--workload" => {
                let w = Workload::by_name(&value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?;
                workloads = Some(vec![w]);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds = Some(Duration::from_secs(s.max(1)));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn one_run(w: &Workload, seed: u64, trace: Option<&Trace>) -> RunRecord {
    let cfg = w.config(seed);
    let measure = Measure {
        cfg: &cfg,
        timers: trace.map(|t| &*t.timers),
    };
    assemble(w.pipeline, &cfg, Build::Probed(trace), measure)
}

fn report_failures(runs: &[RunRecord], base_seed: u64) {
    for (i, r) in runs.iter().enumerate().filter(|(_, r)| r.failed()).take(5) {
        eprintln!(
            "failed run: seed {} — error {:?}, {} of {} cells lost",
            base_seed.wrapping_add(i as u64),
            r.error.as_ref().map(ToString::to_string),
            r.cells_lost,
            r.cells_offered
        );
    }
}

fn print_table(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<38} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// A plain window: untraced runs back to back.
fn plain_window(w: &Workload, args: &Args) -> (bool, usize, usize, Vec<Metric>) {
    let start = Instant::now();
    let (mut runs, mut speeds) = (Vec::new(), Vec::new());
    while (runs.len() < MIN_RUNS || start.elapsed() < args.seconds) && start.elapsed() < HARD_CAP {
        runs.push(one_run(w, args.seed.wrapping_add(runs.len() as u64), None));
        speeds.push(reference::host_speed());
    }
    report_failures(&runs, args.seed);
    let failed = runs.iter().filter(|r| r.failed()).count();
    let rss = peak_rss_mib();
    let metrics = tally::end_to_end(&runs, &speeds, rss);
    println!(
        "runs: {} in {:.1} s, {} samples above run_ms_p90; median host-speed factor {:.4}",
        runs.len(),
        start.elapsed().as_secs_f64(),
        tally::samples_above(runs.len(), 90),
        tally::percentile(&speeds, 50)
    );
    print_table(&metrics);
    // The first five rows are the time-based ones the scaling changes.
    println!("  unscaled:");
    print_table(&tally::end_to_end(&runs, &vec![1.0; runs.len()], rss)[..5]);
    println!(
        "  {:<38} {:>16.6} ratio",
        "failed_run_ratio",
        tally::failed_run_ratio(&runs)
    );
    println!(
        "  {:<38} {:>16.6} ratio",
        "cell_mismatch_ratio",
        tally::cell_mismatch_ratio(&runs)
    );
    (failed == 0, runs.len(), failed, metrics)
}

/// A traced window: for each seed a plain run, then a traced run.
fn traced_window(w: &Workload, args: &Args) -> (bool, usize, usize, Vec<Metric>) {
    let equivalence = check_equivalence(w.pipeline, &w.config(args.seed));
    if let Err(e) = &equivalence {
        eprintln!("equivalence: {e}");
    }
    let trace = Trace::default();
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut plain_wall, mut traced_wall) = (Duration::ZERO, Duration::ZERO);
    while (traced.len() < MIN_TRACED_PAIRS || start.elapsed() < args.seconds)
        && start.elapsed() < HARD_CAP
    {
        let seed = args.seed.wrapping_add(traced.len() as u64);
        let t = Instant::now();
        plain.push(one_run(w, seed, None));
        plain_wall += t.elapsed();
        let t = Instant::now();
        traced.push(one_run(w, seed, Some(&trace)));
        traced_wall += t.elapsed();
    }
    report_failures(&plain, args.seed);
    report_failures(&traced, args.seed);
    let snap = trace.tel.metrics_snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let window = TraceWindow {
        timers: trace.timers.snapshot(),
        traced_wall,
        plain_wall,
        ring_parks: (
            counter("ring.originator_parks"),
            counter("ring.follower_parks"),
        ),
        timewarp: (counter("timewarp.commits"), counter("timewarp.rollbacks")),
        compiled_evals: (
            counter("compiled.schedule_evals"),
            counter("compiled.fallback_evals"),
        ),
    };
    let metrics = tally::per_layer(&traced, &window);
    println!(
        "traced runs: {} (each paired with a plain run of the same seed) in {:.1} s; equivalence with the scenario constructor: {}",
        traced.len(),
        start.elapsed().as_secs_f64(),
        if equivalence.is_ok() { "ok" } else { "DIVERGES" }
    );
    print_table(&metrics);
    let all = plain.iter().chain(&traced);
    let failed = all.clone().filter(|r| r.failed()).count();
    let late: u64 = all.clone().map(|r| r.stats.late_responses).sum();
    let correct = failed == 0 && late == 0 && equivalence.is_ok();
    (correct, plain.len() + traced.len(), failed, metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cosim-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    for w in &args.workloads {
        println!(
            "cosim-bench workload={} trace={} seconds={} base_seed={}",
            w.name,
            u8::from(args.trace),
            args.seconds.as_secs(),
            args.seed
        );
        println!(
            "machine: nproc={nproc} cpu={:?} rustc={:?}",
            cpu_model(),
            env!("COSIM_BENCH_RUSTC")
        );
        let (correct, attempted, failed, metrics) = if args.trace {
            traced_window(w, &args)
        } else {
            plain_window(w, &args)
        };
        println!("{}", tally::json_line(correct, attempted, failed, &metrics));
    }
    ExitCode::SUCCESS
}
