//! One complete co-verification run: build the scenario, run the coupling,
//! compare every egress cell against the reference model.
//!
//! Scenarios come from the `coverify::scenarios` constructors. For a
//! measured run the coupling is taken apart with `into_parts()` and
//! rebuilt around a [`Probe`] with a fresh `ConservativeSync` of the same
//! δ, keeping the scenario's `cell_type()`, `iface_module()` and
//! `outbox()`. [`Build::Constructor`] runs the constructor's coupling as
//! it is, so the two can be checked against each other.

use crate::probe::{EngineCounts, Observed, Probe, Timers};
use coverify::atm::cell::AtmCell;
use coverify::castanet::compare::Mismatch;
use coverify::castanet::coupling::CoupledSimulator;
use coverify::castanet::interface::OutboxHandle;
use coverify::castanet::sync::conservative::SyncStats;
use coverify::castanet::{
    CastanetError, ConservativeSync, Coupling, CouplingStats, ExecMode, MessageTypeId,
    ParallelCoupling, Telemetry,
};
use coverify::netsim::event::ModuleId;
use coverify::netsim::kernel::Kernel;
use coverify::netsim::process::CollectorHandle;
use coverify::netsim::time::{SimDuration, SimTime};
use coverify::scenarios::{
    compare_switch_output, switch_cosim, switch_cosim_compiled, switch_cosim_cycle,
    switch_cosim_parallel, SwitchScenarioConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Simulated-time limit of a run; every workload drains long before it.
const UNTIL: SimTime = SimTime::from_secs(1);

/// Grant window and ring depth of the parallel cycle-engine pipeline —
/// the cycle-engine settings of the repository's `e13_parallel_v2` bench.
const PARALLEL_BATCH_WINDOW: SimDuration = SimDuration::from_us(400);
const PARALLEL_RING_DEPTH: usize = 8;

/// A follower engine under an executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// `switch_cosim` (event-driven `rtl::sim`) under serial `Coupling::run`.
    EventSerial,
    /// `switch_cosim_cycle` (`rtl::cycle`) under serial `Coupling::run`.
    CycleSerial,
    /// `switch_cosim_parallel` (`rtl::cycle`) on conservative
    /// `ParallelCoupling` with the e13 grant window and ring depth.
    CycleParallel,
    /// `switch_cosim_compiled(cfg, 1)` (`rtl::compiled`) on
    /// `ParallelCoupling` under `ExecMode::TimeWarp`.
    CompiledTimeWarp,
}

/// How a run's coupling is assembled.
#[derive(Debug, Clone, Copy)]
pub enum Build<'a> {
    /// The scenario constructor's coupling, unchanged.
    Constructor,
    /// Rebuilt around a [`Probe`]; with a [`Trace`] the probe times every
    /// follower call and counters-only telemetry is attached.
    Probed(Option<&'a Trace>),
}

/// The instruments of a traced run.
#[derive(Debug)]
pub struct Trace {
    /// Follower-call timers, shared by every run that uses this trace.
    pub timers: Arc<Timers>,
    /// Counters-only telemetry for the program's own counters.
    pub tel: Telemetry,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            timers: Arc::new(Timers::default()),
            tel: Telemetry::counters_only(),
        }
    }
}

/// A dismantled scenario coupling, ready to be rebuilt around a wrapper.
#[derive(Debug)]
pub struct Parts<S> {
    net: Kernel,
    follower: S,
    delta: SimDuration,
    cell_type: MessageTypeId,
    iface: ModuleId,
    outbox: OutboxHandle,
}

impl<S: CoupledSimulator> Parts<S> {
    /// Takes a serial scenario coupling apart.
    ///
    /// # Panics
    ///
    /// Panics if the coupling's cell type has no δ registered, which no
    /// scenario constructor produces.
    pub fn of_serial(c: Coupling<S>) -> Self {
        let delta = c
            .sync()
            .type_delta(c.cell_type())
            .expect("scenario registers its cell type");
        let (cell_type, iface, outbox) = (c.cell_type(), c.iface_module(), c.outbox());
        let (net, follower) = c.into_parts();
        Parts {
            net,
            follower,
            delta,
            cell_type,
            iface,
            outbox,
        }
    }

    /// Wraps the follower.
    pub fn map<W>(self, wrap: impl FnOnce(S) -> W) -> Parts<W> {
        Parts {
            net: self.net,
            follower: wrap(self.follower),
            delta: self.delta,
            cell_type: self.cell_type,
            iface: self.iface,
            outbox: self.outbox,
        }
    }

    fn sync(&self) -> ConservativeSync {
        let mut sync = ConservativeSync::new();
        let cell_type = sync.register_type(self.delta);
        assert_eq!(
            cell_type, self.cell_type,
            "fresh sync reproduces the cell type"
        );
        sync
    }

    /// Rebuilds a serial coupling (not strict: [`Measure`] runs the
    /// pre-flight itself, as a separate step).
    pub fn serial(self) -> Coupling<S> {
        let sync = self.sync();
        Coupling::new(
            self.net,
            self.follower,
            sync,
            self.cell_type,
            self.iface,
            self.outbox,
        )
    }
}

impl<S: CoupledSimulator + Send> Parts<S> {
    /// Takes a parallel scenario coupling apart.
    ///
    /// # Panics
    ///
    /// As [`Parts::of_serial`].
    pub fn of_parallel(c: ParallelCoupling<S>) -> Self {
        let delta = c
            .sync()
            .type_delta(c.cell_type())
            .expect("scenario registers its cell type");
        let (cell_type, iface, outbox) = (c.cell_type(), c.iface_module(), c.outbox());
        let (net, follower) = c.into_parts();
        Parts {
            net,
            follower,
            delta,
            cell_type,
            iface,
            outbox,
        }
    }

    /// Rebuilds a parallel coupling (not strict, as [`Parts::serial`]).
    pub fn parallel(self) -> ParallelCoupling<S> {
        let sync = self.sync();
        ParallelCoupling::new(
            self.net,
            self.follower,
            sync,
            self.cell_type,
            self.iface,
            self.outbox,
        )
    }
}

/// The two executors behind one interface.
pub trait Executor {
    /// The follower type.
    type Follower;
    /// Static pre-flight of the assembled coupling.
    ///
    /// # Errors
    ///
    /// The pre-flight findings.
    fn preflight(&self) -> Result<(), CastanetError>;
    /// Runs the coupling to completion.
    ///
    /// # Errors
    ///
    /// Any error of the run.
    fn run(&mut self, until: SimTime) -> Result<CouplingStats, CastanetError>;
    /// Coupling counters.
    fn stats(&self) -> CouplingStats;
    /// Synchronization counters.
    fn sync_stats(&self) -> SyncStats;
    /// The follower.
    fn follower(&self) -> &Self::Follower;
}

macro_rules! impl_executor {
    ($ty:ident, $($bound:tt)+) => {
        impl<S: $($bound)+> Executor for $ty<S> {
            type Follower = S;
            fn preflight(&self) -> Result<(), CastanetError> {
                $ty::preflight(self)
            }
            fn run(&mut self, until: SimTime) -> Result<CouplingStats, CastanetError> {
                $ty::run(self, until)
            }
            fn stats(&self) -> CouplingStats {
                $ty::stats(self)
            }
            fn sync_stats(&self) -> SyncStats {
                $ty::sync_stats(self)
            }
            fn follower(&self) -> &S {
                $ty::follower(self)
            }
        }
    };
}
impl_executor!(Coupling, CoupledSimulator);
impl_executor!(ParallelCoupling, CoupledSimulator + Send);

/// What to do with an assembled coupling.
pub trait Consumer {
    /// The result.
    type Out;
    /// Consumes the coupling and the scenario's egress collectors;
    /// `started` is when scenario construction began.
    fn consume<X: Executor>(
        self,
        x: X,
        collectors: &[CollectorHandle],
        started: Instant,
    ) -> Self::Out
    where
        X::Follower: Observed;
}

fn probe<S>(follower: S, trace: Option<&Trace>) -> Probe<S> {
    Probe::new(follower, trace.map(|t| Arc::clone(&t.timers)))
}

fn traced<X>(x: X, trace: Option<&Trace>, attach: impl FnOnce(X, &Telemetry) -> X) -> X {
    match trace {
        Some(t) => attach(x, &t.tel),
        None => x,
    }
}

fn cycle_parallel<S: CoupledSimulator + Send>(c: ParallelCoupling<S>) -> ParallelCoupling<S> {
    c.with_batching(PARALLEL_BATCH_WINDOW, PARALLEL_RING_DEPTH)
}

fn time_warp<S: CoupledSimulator + Send>(c: ParallelCoupling<S>) -> ParallelCoupling<S> {
    c.with_exec_mode(ExecMode::TimeWarp)
}

/// Builds `pipeline` on `cfg`'s traffic the way `build` says and hands it
/// to `consumer`.
pub fn assemble<C: Consumer>(
    pipeline: Pipeline,
    cfg: &SwitchScenarioConfig,
    build: Build<'_>,
    consumer: C,
) -> C::Out {
    let started = Instant::now();
    match (pipeline, build) {
        (Pipeline::EventSerial, Build::Constructor) => {
            let sc = switch_cosim(*cfg);
            consumer.consume(sc.coupling, &sc.collectors, started)
        }
        (Pipeline::EventSerial, Build::Probed(t)) => {
            let sc = switch_cosim(*cfg);
            let x = Parts::of_serial(sc.coupling).map(|f| probe(f, t)).serial();
            consumer.consume(
                traced(x, t, Coupling::with_telemetry),
                &sc.collectors,
                started,
            )
        }
        (Pipeline::CycleSerial, Build::Constructor) => {
            let sc = switch_cosim_cycle(*cfg);
            consumer.consume(sc.coupling, &sc.collectors, started)
        }
        (Pipeline::CycleSerial, Build::Probed(t)) => {
            let sc = switch_cosim_cycle(*cfg);
            let x = Parts::of_serial(sc.coupling).map(|f| probe(f, t)).serial();
            consumer.consume(
                traced(x, t, Coupling::with_telemetry),
                &sc.collectors,
                started,
            )
        }
        (Pipeline::CycleParallel, Build::Constructor) => {
            let sc = switch_cosim_parallel(*cfg);
            consumer.consume(cycle_parallel(sc.coupling), &sc.collectors, started)
        }
        (Pipeline::CycleParallel, Build::Probed(t)) => {
            let sc = switch_cosim_parallel(*cfg);
            let x = cycle_parallel(
                Parts::of_parallel(sc.coupling)
                    .map(|f| probe(f, t))
                    .parallel(),
            );
            consumer.consume(
                traced(x, t, ParallelCoupling::with_telemetry),
                &sc.collectors,
                started,
            )
        }
        (Pipeline::CompiledTimeWarp, Build::Constructor) => {
            let sc = switch_cosim_compiled(*cfg, 1);
            consumer.consume(
                time_warp(sc.coupling.into_parallel()),
                &sc.collectors,
                started,
            )
        }
        (Pipeline::CompiledTimeWarp, Build::Probed(t)) => {
            let sc = switch_cosim_compiled(*cfg, 1);
            let x = time_warp(
                Parts::of_serial(sc.coupling)
                    .map(|f| probe(f, t))
                    .parallel(),
            );
            consumer.consume(
                traced(x, t, ParallelCoupling::with_telemetry),
                &sc.collectors,
                started,
            )
        }
    }
}

/// The outcome of one measured run.
#[derive(Debug)]
pub struct RunRecord {
    /// Cells the traffic sources offered.
    pub cells_offered: u64,
    /// Egress cells that matched the reference model.
    pub cells_verified: u64,
    /// Missing, mismatched, unexpected and undecodable cells.
    pub cells_lost: u64,
    /// Whether the comparison found no discrepancy.
    pub compare_passed: bool,
    /// The error the pre-flight or the run returned, if any.
    pub error: Option<CastanetError>,
    /// Scenario construction (including the rebuild around the probe).
    pub build: Duration,
    /// The separate strict pre-flight call.
    pub preflight: Duration,
    /// `Executor::run`.
    pub run: Duration,
    /// `compare_switch_output`.
    pub compare: Duration,
    /// DUT cycles: the largest DUT-side response stamp ÷ the clock period.
    pub dut_cycles: u64,
    /// Coupling counters.
    pub stats: CouplingStats,
    /// Synchronization counters.
    pub sync: SyncStats,
    /// RTL engine counters.
    pub engine: EngineCounts,
}

impl RunRecord {
    /// A run fails when its comparison failed or it returned an error.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.error.is_some() || !self.compare_passed
    }

    /// Scenario construction plus pre-flight.
    #[must_use]
    pub fn setup(&self) -> Duration {
        self.build + self.preflight
    }

    /// Running plus comparing.
    #[must_use]
    pub fn run_and_compare(&self) -> Duration {
        self.run + self.compare
    }
}

/// The measuring consumer: separate pre-flight, run, compare, with each
/// step timed.
#[derive(Debug)]
pub struct Measure<'a> {
    /// The scenario configuration the coupling was built from.
    pub cfg: &'a SwitchScenarioConfig,
    /// Timers to start the executor gap on (traced runs).
    pub timers: Option<&'a Timers>,
}

impl Consumer for Measure<'_> {
    type Out = RunRecord;

    fn consume<X: Executor>(
        self,
        mut x: X,
        collectors: &[CollectorHandle],
        started: Instant,
    ) -> RunRecord
    where
        X::Follower: Observed,
    {
        let built = Instant::now();
        let mut error = x.preflight().err();
        let preflighted = Instant::now();
        if error.is_none() {
            if let Some(t) = self.timers {
                t.mark();
            }
            error = x.run(UNTIL).err();
        }
        let ran = Instant::now();
        let report = compare_switch_output(self.cfg, collectors);
        let compared = Instant::now();

        let cells_lost = report
            .mismatches
            .iter()
            .map(|m| match m {
                Mismatch::Missing { count, .. } => *count,
                _ => 1,
            })
            .sum();
        let period = self.cfg.clock_period.as_picos();
        let follower = x.follower();
        RunRecord {
            cells_offered: self.cfg.total_cells(),
            cells_verified: report.matched,
            cells_lost,
            compare_passed: report.passed(),
            error,
            build: built - started,
            preflight: preflighted - built,
            run: ran - preflighted,
            compare: compared - ran,
            dut_cycles: follower.dut_stamp().map_or(0, |t| t.as_picos() / period),
            stats: x.stats(),
            sync: x.sync_stats(),
            engine: follower.engine(),
        }
    }
}

/// What a run left behind, for checking two builds against each other.
#[derive(Debug, PartialEq, Eq)]
pub struct Egress {
    /// Per egress line: arrival time and cell, in arrival order.
    pub cells: Vec<Vec<(SimTime, Option<AtmCell>)>>,
    /// Coupling counters.
    pub stats: CouplingStats,
    /// The run's result, rendered.
    pub result: Result<(), String>,
}

/// The capturing consumer: runs the coupling (strict mode as built) and
/// takes the egress cells without comparing them.
#[derive(Debug, Clone, Copy)]
pub struct Capture;

impl Consumer for Capture {
    type Out = Egress;

    fn consume<X: Executor>(self, mut x: X, collectors: &[CollectorHandle], _: Instant) -> Egress
    where
        X::Follower: Observed,
    {
        let result = x.run(UNTIL).map(drop).map_err(|e| e.to_string());
        let cells = collectors
            .iter()
            .map(|h| {
                h.take()
                    .into_iter()
                    .map(|(t, p)| (t, p.payload::<AtmCell>().cloned()))
                    .collect()
            })
            .collect();
        Egress {
            cells,
            stats: x.stats(),
            result,
        }
    }
}

/// Checks that the probed coupling, traced and plain, reproduces the
/// scenario constructor's egress cells and `CouplingStats` on `cfg`.
///
/// # Errors
///
/// Names the build that diverged.
pub fn check_equivalence(pipeline: Pipeline, cfg: &SwitchScenarioConfig) -> Result<(), String> {
    let reference = assemble(pipeline, cfg, Build::Constructor, Capture);
    let trace = Trace::default();
    for (name, build) in [
        ("traced", Build::Probed(Some(&trace))),
        ("plain", Build::Probed(None)),
    ] {
        let got = assemble(pipeline, cfg, build, Capture);
        if got != reference {
            return Err(format!(
                "{pipeline:?} seed {}: {name} run diverges from the scenario constructor \
                 (stats {:?} vs {:?}, result {:?} vs {:?})",
                cfg.seed, got.stats, reference.stats, got.result, reference.result
            ));
        }
    }
    Ok(())
}
