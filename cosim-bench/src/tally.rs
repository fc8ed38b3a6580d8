//! Turning run records into the benchmark's metrics.

use crate::pipeline::RunRecord;
use crate::probe::TimerCounts;
use std::fmt::Write as _;
use std::time::Duration;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`.
///
/// # Panics
///
/// Panics on an empty sample set.
#[must_use]
pub fn percentile(samples: &[f64], p: u32) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = (sorted.len() * p as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Samples strictly above the nearest-rank percentile `p`.
#[must_use]
pub fn samples_above(n: usize, p: u32) -> usize {
    n - (n * p as usize).div_ceil(100).max(1)
}

/// Runs that failed, as a share of runs attempted.
#[must_use]
pub fn failed_run_ratio(runs: &[RunRecord]) -> f64 {
    let failed = runs.iter().filter(|r| r.failed()).count();
    ratio(failed as f64, runs.len() as f64)
}

/// Missing, mismatched, unexpected and undecodable cells, as a share of
/// cells offered.
#[must_use]
pub fn cell_mismatch_ratio(runs: &[RunRecord]) -> f64 {
    let lost: u64 = runs.iter().map(|r| r.cells_lost).sum();
    let offered: u64 = runs.iter().map(|r| r.cells_offered).sum();
    ratio(lost as f64, offered as f64)
}

/// The end-to-end metrics of a set of plain runs. Run `i`'s times are
/// scaled by `speeds[i]`, the host-speed factor measured right after it
/// (see [`crate::reference`]); pass all ones for unscaled figures. The
/// two failure ratios are reported as measured; the gated metrics carry
/// their complements, which stay above 0 (see `README.md`).
///
/// # Panics
///
/// Panics on an empty run set or when `speeds` does not match `runs`.
#[must_use]
pub fn end_to_end(runs: &[RunRecord], speeds: &[f64], peak_rss_mib: f64) -> Vec<Metric> {
    assert_eq!(runs.len(), speeds.len(), "one host-speed factor per run");
    let scaled = |f: fn(&RunRecord) -> Duration| -> Vec<f64> {
        runs.iter()
            .zip(speeds)
            .map(|(r, s)| f(r).as_secs_f64() * s)
            .collect()
    };
    let walls = scaled(RunRecord::run_and_compare);
    let secs: f64 = walls.iter().sum();
    let verified: u64 = runs.iter().map(|r| r.cells_verified).sum();
    let offered: u64 = runs.iter().map(|r| r.cells_offered).sum();
    let cycles: u64 = runs.iter().map(|r| r.dut_cycles).sum();
    vec![
        metric("cells_per_s", "cells/s", ratio(verified as f64, secs)),
        metric("dut_cycles_per_s", "cycles/s", ratio(cycles as f64, secs)),
        metric("run_ms_p50", "ms", percentile(&walls, 50) * 1e3),
        metric("run_ms_p90", "ms", percentile(&walls, 90) * 1e3),
        metric("setup_s", "s", percentile(&scaled(RunRecord::setup), 50)),
        metric("peak_rss_mb", "MiB", peak_rss_mib),
        metric("verified_run_ratio", "ratio", 1.0 - failed_run_ratio(runs)),
        metric(
            "verified_cell_ratio",
            "ratio",
            ratio(verified as f64, offered as f64),
        ),
    ]
}

/// Totals of a traced measurement window.
#[derive(Debug, Clone, Copy)]
pub struct TraceWindow {
    /// Follower-call timers over all traced runs.
    pub timers: TimerCounts,
    /// Wall time of the traced runs (set-up, run and compare).
    pub traced_wall: Duration,
    /// Wall time of the plain runs of the same seeds.
    pub plain_wall: Duration,
    /// `ring.originator_parks`, `ring.follower_parks`.
    pub ring_parks: (u64, u64),
    /// `timewarp.commits`, `timewarp.rollbacks`.
    pub timewarp: (u64, u64),
    /// `compiled.schedule_evals`, `compiled.fallback_evals`.
    pub compiled_evals: (u64, u64),
}

/// The per-layer metrics of a traced window. Time and count rows are
/// means per traced run.
///
/// # Panics
///
/// Panics on an empty run set.
#[must_use]
pub fn per_layer(runs: &[RunRecord], w: &TraceWindow) -> Vec<Metric> {
    assert!(!runs.is_empty(), "a traced window has at least one run");
    let n = runs.len() as f64;
    let sum = |f: &dyn Fn(&RunRecord) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let sum_ms = |f: &dyn Fn(&RunRecord) -> Duration| {
        runs.iter().map(f).sum::<Duration>().as_secs_f64() * 1e3
    };
    let t = &w.timers;
    let ns_ms = |ns: u64| ns as f64 / 1e6;
    let cells = sum(&|r| r.cells_offered);
    let (build, preflight, compare) = (
        sum_ms(&|r| r.build),
        sum_ms(&|r| r.preflight),
        sum_ms(&|r| r.compare),
    );
    let timed =
        build + preflight + compare + ns_ms(t.advance_ns + t.deliver_ns + t.fork_ns + t.gap_ns);
    let e = |f: &dyn Fn(&crate::probe::EngineCounts) -> u64| sum(&|r| f(&r.engine));
    let (sim_events, cycle_eval, cycle_skip, compiled_eval) = (
        e(&|c| c.sim_events),
        e(&|c| c.cycle_evaluated),
        e(&|c| c.cycle_skipped),
        e(&|c| c.compiled_evaluated),
    );
    let advance_ns = t.advance_ns as f64;
    let (commits, rollbacks) = w.timewarp;
    let (scheduled, fallback) = w.compiled_evals;
    vec![
        metric("follower.advance_ms", "ms", ns_ms(t.advance_ns) / n),
        metric(
            "follower.advance_calls",
            "count",
            t.advance_calls as f64 / n,
        ),
        metric(
            "follower.responses_per_advance",
            "ratio",
            ratio(t.responses as f64, t.advance_calls as f64),
        ),
        metric("follower.deliver_ms", "ms", ns_ms(t.deliver_ns) / n),
        metric(
            "follower.deliver_calls",
            "count",
            t.deliver_calls as f64 / n,
        ),
        metric("follower.fork_ms", "ms", ns_ms(t.fork_ns) / n),
        metric("follower.forks", "count", t.forks as f64 / n),
        metric("executor.gap_ms", "ms", ns_ms(t.gap_ns) / n),
        metric("scenario.build_ms", "ms", build / n),
        metric("lint.preflight_ms", "ms", preflight / n),
        metric("compare.ms", "ms", compare / n),
        metric(
            "trace.coverage_ratio",
            "ratio",
            ratio(timed, ms(w.traced_wall)),
        ),
        metric(
            "trace.overhead_ratio",
            "ratio",
            ratio(w.traced_wall.as_secs_f64(), w.plain_wall.as_secs_f64()),
        ),
        metric(
            "netsim.events_per_cell",
            "events/cell",
            ratio(sum(&|r| r.stats.net_events), cells),
        ),
        metric(
            "coupling.deferred_responses",
            "count",
            sum(&|r| r.stats.deferred_responses) / n,
        ),
        metric(
            "coupling.late_responses",
            "count",
            sum(&|r| r.stats.late_responses) / n,
        ),
        metric("sync.messages", "count", sum(&|r| r.sync.messages) / n),
        metric(
            "sync.null_messages",
            "count",
            sum(&|r| r.sync.null_messages) / n,
        ),
        metric("sync.batches", "count", sum(&|r| r.sync.batches) / n),
        metric(
            "sync.max_lag_ns",
            "ns",
            runs.iter()
                .map(|r| r.sync.max_lag.as_picos())
                .max()
                .unwrap_or(0) as f64
                / 1e3,
        ),
        metric(
            "rtl.sim.events_per_cell",
            "events/cell",
            ratio(sim_events, cells),
        ),
        metric(
            "rtl.sim.delta_cycles_per_cell",
            "deltas/cell",
            ratio(e(&|c| c.sim_delta_cycles), cells),
        ),
        metric("rtl.sim.ns_per_event", "ns", ratio(advance_ns, sim_events)),
        metric(
            "rtl.cycle.clocks_evaluated_per_cell",
            "clocks/cell",
            ratio(cycle_eval, cells),
        ),
        metric(
            "rtl.cycle.idle_skip_ratio",
            "ratio",
            ratio(cycle_skip, cycle_eval + cycle_skip),
        ),
        metric(
            "rtl.cycle.ns_per_evaluated_clock",
            "ns",
            ratio(advance_ns, cycle_eval),
        ),
        metric(
            "rtl.compiled.ns_per_evaluated_clock",
            "ns",
            ratio(advance_ns, compiled_eval),
        ),
        metric("ring.originator_parks", "count", w.ring_parks.0 as f64 / n),
        metric("ring.follower_parks", "count", w.ring_parks.1 as f64 / n),
        metric(
            "timewarp.rollback_ratio",
            "ratio",
            ratio(rollbacks as f64, (commits + rollbacks) as f64),
        ),
        metric(
            "compiled.fallback_ratio",
            "ratio",
            ratio(fallback as f64, (scheduled + fallback) as f64),
        ),
    ]
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
#[must_use]
pub fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}
