//! Golden pin of both coupling schedules on the E1 switch scenario.
//!
//! The conformance suites compare egress *contents* across executors and
//! deliberately ignore timestamps and protocol counters, so a grant issued
//! one event later, or a stimulus message injected at a different point of
//! the serial loop, would pass them unnoticed. This test pins exactly those
//! observables on five pipelines, the first four set up as in
//! `cosim-bench`: event-driven and cycle followers under the serial
//! per-event coupling, the cycle follower on the pipelined two-thread
//! executor (400 µs windows, ring depth 8), the one-lane compiled follower
//! under time-warp, and the event-driven follower on the same pipelined
//! executor — the one pipeline that sweeps the event kernel in whole
//! grant windows (`RtlCosim::advance_batch` → `Simulator::run_until`).
//!
//! Pinned per pipeline: [`CouplingStats`], [`SyncStats`] (except under
//! time-warp, whose `max_lag` depends on how speculation happened to
//! resolve) and, per egress line, every cell's arrival time in ps with an
//! FNV-1a hash of its 53 wire bytes. To regenerate after an intentional
//! schedule change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test executor_golden
//! ```

use castanet::sync::conservative::SyncStats;
use castanet::{CouplingStats, ExecMode};
use castanet_atm::addr::HeaderFormat;
use castanet_atm::cell::AtmCell;
use castanet_netsim::process::CollectorHandle;
use castanet_netsim::time::{SimDuration, SimTime};
use coverify::scenarios::{
    switch_cosim, switch_cosim_compiled, switch_cosim_cycle, switch_cosim_parallel,
    SwitchScenarioConfig,
};
use std::fmt::Write as _;

/// Simulated-time limit; every pipeline drains long before it.
const UNTIL: SimTime = SimTime::from_secs(1);

/// E1 traffic (4 ports, 20 ns clock, mixed sources, 10 µs gap), 4×40
/// cells, seed 1.
fn e1() -> SwitchScenarioConfig {
    SwitchScenarioConfig {
        cells_per_source: 40,
        cell_gap: SimDuration::from_us(10),
        seed: 1,
        ..SwitchScenarioConfig::default()
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn render(
    name: &str,
    stats: CouplingStats,
    sync: Option<SyncStats>,
    collectors: &[CollectorHandle],
) -> String {
    let mut out = format!("== {name}\n");
    let CouplingStats {
        net_events,
        messages_to_follower,
        responses,
        late_responses,
        deferred_responses,
    } = stats;
    writeln!(
        out,
        "coupling net_events={net_events} messages_to_follower={messages_to_follower} \
         responses={responses} late_responses={late_responses} \
         deferred_responses={deferred_responses}"
    )
    .unwrap();
    if let Some(SyncStats {
        messages,
        null_messages,
        batches,
        max_lag,
    }) = sync
    {
        writeln!(
            out,
            "sync messages={messages} null_messages={null_messages} batches={batches} \
             max_lag_ps={}",
            max_lag.as_picos()
        )
        .unwrap();
    }
    for (line, handle) in collectors.iter().enumerate() {
        let cells = handle.take();
        writeln!(out, "line {line}: {} cells", cells.len()).unwrap();
        for (t, pkt) in cells {
            match pkt.payload::<AtmCell>() {
                Some(cell) => {
                    let wire = cell.encode(HeaderFormat::Uni).expect("egress cell encodes");
                    writeln!(out, "{} {:016x}", t.as_picos(), fnv1a(&wire)).unwrap();
                }
                None => writeln!(out, "{} undecodable", t.as_picos()).unwrap(),
            }
        }
    }
    out
}

fn event_serial() -> String {
    let mut sc = switch_cosim(e1());
    let stats = sc.coupling.run(UNTIL).expect("event-serial run");
    let sync = sc.coupling.sync_stats();
    render("event-serial", stats, Some(sync), &sc.collectors)
}

fn cycle_serial() -> String {
    let mut sc = switch_cosim_cycle(e1());
    let stats = sc.coupling.run(UNTIL).expect("cycle-serial run");
    let sync = sc.coupling.sync_stats();
    render("cycle-serial", stats, Some(sync), &sc.collectors)
}

fn cycle_parallel() -> String {
    let sc = switch_cosim_parallel(e1());
    let mut coupling = sc.coupling.with_batching(SimDuration::from_us(400), 8);
    let stats = coupling.run(UNTIL).expect("cycle-parallel run");
    let sync = coupling.sync_stats();
    render("cycle-parallel", stats, Some(sync), &sc.collectors)
}

fn compiled_time_warp() -> String {
    let sc = switch_cosim_compiled(e1(), 1);
    let mut coupling = sc
        .coupling
        .into_parallel()
        .with_exec_mode(ExecMode::TimeWarp);
    let stats = coupling.run(UNTIL).expect("compiled time-warp run");
    render("compiled-time-warp", stats, None, &sc.collectors)
}

fn event_parallel() -> String {
    let sc = switch_cosim(e1());
    let mut coupling = sc
        .coupling
        .into_parallel()
        .with_batching(SimDuration::from_us(400), 8);
    let stats = coupling.run(UNTIL).expect("event-parallel run");
    let sync = coupling.sync_stats();
    render("event-parallel", stats, Some(sync), &sc.collectors)
}

#[test]
fn both_schedules_match_the_golden_file() {
    let rendered = [
        event_serial(),
        cycle_serial(),
        cycle_parallel(),
        compiled_time_warp(),
        event_parallel(),
    ]
    .concat();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/executor_stats.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &rendered).expect("update golden");
    }
    let golden =
        std::fs::read_to_string(path).expect("golden file (set UPDATE_GOLDEN=1 to create)");
    if rendered != golden {
        let first = rendered
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| rendered.lines().count().min(golden.lines().count()));
        panic!(
            "executor schedule drifted from tests/golden/executor_stats.txt at line {}: \
             got {:?}, golden {:?}",
            first + 1,
            rendered.lines().nth(first),
            golden.lines().nth(first)
        );
    }
}
