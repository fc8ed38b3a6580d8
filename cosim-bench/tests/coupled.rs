//! Checks of the benchmark's own machinery on small E1-shaped traffic.

use cosim_bench::pipeline::{
    assemble, check_equivalence, Build, Consumer, Measure, Parts, RunRecord, Trace,
};
use cosim_bench::probe::{EngineCounts, Observed, Probe};
use cosim_bench::{tally, Pipeline, WORKLOADS};
use coverify::castanet::coupling::CoupledSimulator;
use coverify::castanet::{CastanetError, Message};
use coverify::netsim::time::SimTime;
use coverify::scenarios::{switch_cosim_cycle, SwitchScenarioConfig};
use std::time::Instant;

const PIPELINES: [Pipeline; 4] = [
    Pipeline::EventSerial,
    Pipeline::CycleSerial,
    Pipeline::CycleParallel,
    Pipeline::CompiledTimeWarp,
];

/// E1 traffic (4 ports, 20 ns clock, mixed sources, 10 µs gap), 4×60
/// cells.
fn small(seed: u64) -> SwitchScenarioConfig {
    SwitchScenarioConfig {
        cells_per_source: 60,
        ..WORKLOADS[0].config(seed)
    }
}

fn plain_run(pipeline: Pipeline, cfg: &SwitchScenarioConfig) -> RunRecord {
    assemble(
        pipeline,
        cfg,
        Build::Probed(None),
        Measure { cfg, timers: None },
    )
}

#[test]
fn every_workload_passes_on_a_small_run() {
    for w in WORKLOADS {
        let cfg = SwitchScenarioConfig {
            cells_per_source: 40,
            ..w.config(5)
        };
        let r = plain_run(w.pipeline, &cfg);
        assert!(!r.failed(), "{}: {:?}", w.name, r.error);
        assert_eq!(r.cells_verified, cfg.total_cells(), "{}", w.name);
        assert!(r.dut_cycles > 0, "{}", w.name);
    }
}

/// The DUT-cycle definition (largest kept response stamp ÷ clock period)
/// must not depend on the executor: serial, parallel and time-warp runs
/// of the cycle-accurate engines agree exactly.
#[test]
fn dut_cycles_agree_across_executors() {
    for seed in [1, 77, 2012] {
        let cfg = small(seed);
        let cycles: Vec<u64> = [
            Pipeline::CycleSerial,
            Pipeline::CycleParallel,
            Pipeline::CompiledTimeWarp,
        ]
        .into_iter()
        .map(|p| plain_run(p, &cfg).dut_cycles)
        .collect();
        assert!(
            cycles.iter().all(|&c| c == cycles[0]),
            "seed {seed}: {cycles:?}"
        );
    }
}

/// One seed must yield the same DUT cycle count on all four workload
/// pipelines, the event-driven follower included.
#[test]
fn dut_cycles_agree_on_all_four_pipelines() {
    let disagreements: Vec<(u64, Vec<u64>)> = [1, 77, 2012]
        .into_iter()
        .map(|seed| {
            let cfg = small(seed);
            (
                seed,
                PIPELINES
                    .into_iter()
                    .map(|p| plain_run(p, &cfg).dut_cycles)
                    .collect(),
            )
        })
        .filter(|(_, cycles): &(u64, Vec<u64>)| cycles.iter().any(|&c| c != cycles[0]))
        .collect();
    assert!(
        disagreements.is_empty(),
        "(seed, cycles per pipeline): {disagreements:?}"
    );
}

#[test]
fn probed_runs_match_the_scenario_constructor() {
    for pipeline in PIPELINES {
        for seed in [3, 2012] {
            check_equivalence(pipeline, &small(seed)).unwrap();
        }
    }
}

#[test]
fn probe_timers_follow_forks_under_time_warp() {
    let trace = Trace::default();
    let cfg = small(9);
    let r = assemble(
        Pipeline::CompiledTimeWarp,
        &cfg,
        Build::Probed(Some(&trace)),
        Measure {
            cfg: &cfg,
            timers: Some(&trace.timers),
        },
    );
    assert!(!r.failed());
    let t = trace.timers.snapshot();
    let snap = trace.tel.metrics_snapshot();
    let speculations = snap.counter("timewarp.commits").unwrap_or(0)
        + snap.counter("timewarp.rollbacks").unwrap_or(0);
    assert!(speculations > 0, "time-warp never speculated");
    // One fork per settled speculation, one for the executor's up-front
    // capability probe, and one per speculation still open when the run
    // ended.
    assert!(t.forks > speculations, "{t:?}, {speculations} speculations");
    assert!(t.advance_calls > t.forks, "{t:?}");
    assert!(
        t.advance_ns > 0 && t.fork_ns > 0 && t.deliver_calls == cfg.total_cells(),
        "{t:?}"
    );
}

#[test]
fn serial_trace_covers_the_wall_time() {
    let trace = Trace::default();
    let cfg = small(4);
    let start = Instant::now();
    let r = assemble(
        Pipeline::CycleSerial,
        &cfg,
        Build::Probed(Some(&trace)),
        Measure {
            cfg: &cfg,
            timers: Some(&trace.timers),
        },
    );
    let window = tally::TraceWindow {
        timers: trace.timers.snapshot(),
        traced_wall: start.elapsed(),
        plain_wall: start.elapsed(),
        ring_parks: (0, 0),
        timewarp: (0, 0),
        compiled_evals: (0, 0),
    };
    let layers = tally::per_layer(&[r], &window);
    let coverage = layers
        .iter()
        .find(|m| m.name == "trace.coverage_ratio")
        .unwrap()
        .value;
    assert!((0.95..=1.0).contains(&coverage), "coverage {coverage}");
}

/// A follower wrapper that injects one fault into an otherwise good run.
struct Faulty<S> {
    inner: S,
    fault: Fault,
    responses_seen: u64,
}

#[derive(Clone, Copy)]
enum Fault {
    /// Drop the n-th response.
    DropResponse(u64),
    /// Fail the advance that would return the n-th response.
    ErrorAt(u64),
}

impl<S: CoupledSimulator> Faulty<S> {
    fn filter(&mut self, mut out: Vec<Message>) -> Result<Vec<Message>, CastanetError> {
        let first = self.responses_seen;
        self.responses_seen += out.len() as u64;
        match self.fault {
            Fault::DropResponse(n) if (first..self.responses_seen).contains(&n) => {
                out.remove((n - first) as usize);
            }
            Fault::ErrorAt(n) if (first..self.responses_seen).contains(&n) => {
                return Err(CastanetError::Transport("injected follower fault".into()));
            }
            _ => {}
        }
        Ok(out)
    }
}

impl<S: CoupledSimulator> CoupledSimulator for Faulty<S> {
    fn deliver(&mut self, msg: Message) -> Result<(), CastanetError> {
        self.inner.deliver(msg)
    }
    fn advance_until(&mut self, horizon: SimTime) -> Result<Vec<Message>, CastanetError> {
        let out = self.inner.advance_until(horizon)?;
        self.filter(out)
    }
    fn now(&self) -> SimTime {
        self.inner.now()
    }
}

impl<S: Observed> Observed for Faulty<S> {
    fn dut_stamp(&self) -> Option<SimTime> {
        self.inner.dut_stamp()
    }
    fn engine(&self) -> EngineCounts {
        self.inner.engine()
    }
}

fn faulty_run(cfg: &SwitchScenarioConfig, fault: Fault) -> RunRecord {
    let sc = switch_cosim_cycle(*cfg);
    let x = Parts::of_serial(sc.coupling)
        .map(|f| Faulty {
            inner: Probe::new(f, None),
            fault,
            responses_seen: 0,
        })
        .serial();
    Measure { cfg, timers: None }.consume(x, &sc.collectors, Instant::now())
}

#[test]
fn a_dropped_response_is_a_failed_run_and_a_lost_cell() {
    let cfg = small(11);
    let good = plain_run(Pipeline::CycleSerial, &cfg);
    // The run's last response: the comparison is in order per connection,
    // so a loss earlier in a stream would also shift every later cell of
    // that connection into a payload mismatch.
    let bad = faulty_run(&cfg, Fault::DropResponse(cfg.total_cells() - 1));
    assert!(bad.error.is_none() && bad.failed());
    assert_eq!(bad.cells_lost, 1);
    assert_eq!(bad.cells_verified, cfg.total_cells() - 1);
    let runs = [good, bad];
    assert_eq!(tally::failed_run_ratio(&runs), 0.5);
    assert_eq!(
        tally::cell_mismatch_ratio(&runs),
        1.0 / (2 * cfg.total_cells()) as f64
    );
    let e2e = tally::end_to_end(&runs, &[1.0, 1.0], 1.0);
    let value = |name: &str| e2e.iter().find(|m| m.name == name).unwrap().value;
    assert_eq!(value("verified_run_ratio"), 0.5);
    assert_eq!(
        value("verified_cell_ratio"),
        1.0 - 1.0 / (2 * cfg.total_cells()) as f64
    );
}

#[test]
fn a_follower_error_is_a_failed_run_and_its_cells_are_lost() {
    let cfg = small(12);
    let bad = faulty_run(&cfg, Fault::ErrorAt(30));
    assert!(
        matches!(bad.error, Some(CastanetError::Transport(_))),
        "{:?}",
        bad.error
    );
    assert!(bad.failed());
    assert_eq!(bad.cells_verified + bad.cells_lost, cfg.total_cells());
    assert!(bad.cells_lost > 0);
    let runs = [plain_run(Pipeline::CycleSerial, &cfg), bad];
    assert_eq!(tally::failed_run_ratio(&runs), 0.5);
    assert!(tally::cell_mismatch_ratio(&runs) > 0.0);
}

#[test]
fn percentiles_use_nearest_rank() {
    let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(tally::percentile(&samples, 50), 50.0);
    assert_eq!(tally::percentile(&samples, 90), 90.0);
    assert_eq!(tally::samples_above(100, 90), 10);
}
