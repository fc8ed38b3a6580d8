//! The outside-in timing wrapper around a coupled follower.
//!
//! [`Probe`] implements the public [`CoupledSimulator`] trait around the
//! real follower (event-driven, cycle or compiled engine), so every call
//! the executor makes into the RTL side passes through it. Nothing inside
//! the program is instrumented: the per-layer split comes from timing
//! these calls from the benchmark's side of the trait.
//!
//! Two kinds of state live in a probe:
//!
//! * the call timers ([`Timers`]) sit behind an [`Arc`] that
//!   [`CoupledSimulator::fork`] shares with the fork, so time-warp
//!   speculation and rolled-back work are counted like any other work;
//! * the largest response stamp is per-instance state, so a rollback
//!   (which restores the checkpointed fork) also restores the stamp, and
//!   only responses the executor kept define the run's DUT cycles.

use coverify::castanet::coupling::CoupledSimulator;
use coverify::castanet::{CastanetError, CompiledCosim, CycleCosim, Message, RtlCosim, Telemetry};
use coverify::netsim::time::SimTime;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Call timers shared by a probe and all its forks.
///
/// Every field is a statistic that publishes no other data, so the
/// atomics use `Relaxed`; readers take [`Timers::snapshot`] after the run
/// has joined its threads.
#[derive(Debug)]
pub struct Timers {
    epoch: Instant,
    advance_ns: AtomicU64,
    advance_calls: AtomicU64,
    responses: AtomicU64,
    deliver_ns: AtomicU64,
    deliver_calls: AtomicU64,
    fork_ns: AtomicU64,
    forks: AtomicU64,
    gap_ns: AtomicU64,
    /// End of the latest follower call (or of [`Timers::mark`]), in ns
    /// since `epoch`: the start of the current gap.
    last_end_ns: AtomicU64,
}

/// A plain copy of the [`Timers`] totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimerCounts {
    /// Time inside `advance_until` / `advance_batch`.
    pub advance_ns: u64,
    /// Advance calls.
    pub advance_calls: u64,
    /// Responses those calls returned.
    pub responses: u64,
    /// Time inside `deliver` (cell → pin stimulus conversion).
    pub deliver_ns: u64,
    /// Deliver calls.
    pub deliver_calls: u64,
    /// Time inside `fork` (time-warp checkpoints).
    pub fork_ns: u64,
    /// Fork calls.
    pub forks: u64,
    /// Follower-thread time between consecutive follower calls.
    pub gap_ns: u64,
}

impl Default for Timers {
    fn default() -> Self {
        Timers {
            epoch: Instant::now(),
            advance_ns: AtomicU64::new(0),
            advance_calls: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            deliver_ns: AtomicU64::new(0),
            deliver_calls: AtomicU64::new(0),
            fork_ns: AtomicU64::new(0),
            forks: AtomicU64::new(0),
            gap_ns: AtomicU64::new(0),
            last_end_ns: AtomicU64::new(0),
        }
    }
}

impl Timers {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a gap now: call right before the executor runs, so the time
    /// up to the first follower call counts as executor time.
    pub fn mark(&self) {
        self.last_end_ns.store(self.now_ns(), Ordering::Relaxed);
    }

    /// Closes the running gap; returns the call's start stamp.
    fn enter(&self) -> u64 {
        let now = self.now_ns();
        let gap = now.saturating_sub(self.last_end_ns.load(Ordering::Relaxed));
        self.gap_ns.fetch_add(gap, Ordering::Relaxed);
        now
    }

    /// Charges a call that started at `start` to `ns` / `calls` and opens
    /// the next gap.
    fn leave(&self, start: u64, ns: &AtomicU64, calls: &AtomicU64) {
        let now = self.now_ns();
        ns.fetch_add(now - start, Ordering::Relaxed);
        calls.fetch_add(1, Ordering::Relaxed);
        self.last_end_ns.store(now, Ordering::Relaxed);
    }

    /// The totals so far.
    #[must_use]
    pub fn snapshot(&self) -> TimerCounts {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        TimerCounts {
            advance_ns: get(&self.advance_ns),
            advance_calls: get(&self.advance_calls),
            responses: get(&self.responses),
            deliver_ns: get(&self.deliver_ns),
            deliver_calls: get(&self.deliver_calls),
            fork_ns: get(&self.fork_ns),
            forks: get(&self.forks),
            gap_ns: get(&self.gap_ns),
        }
    }
}

/// Work counters of the RTL engine behind a follower, read through its
/// public accessors after a run. Fields of other engines stay 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounts {
    /// `rtl::sim` signal events.
    pub sim_events: u64,
    /// `rtl::sim` delta cycles.
    pub sim_delta_cycles: u64,
    /// `rtl::cycle` clocks evaluated.
    pub cycle_evaluated: u64,
    /// `rtl::cycle` clocks skipped as idle.
    pub cycle_skipped: u64,
    /// `rtl::compiled` clocks evaluated.
    pub compiled_evaluated: u64,
}

/// A follower the benchmark can read after a run.
pub trait Observed {
    /// The largest DUT-side stamp among the responses the executor kept,
    /// when the follower records it (only [`Probe`] does).
    fn dut_stamp(&self) -> Option<SimTime> {
        None
    }

    /// The RTL engine's work counters.
    fn engine(&self) -> EngineCounts;
}

impl Observed for RtlCosim {
    fn engine(&self) -> EngineCounts {
        let c = self.sim().counters();
        EngineCounts {
            sim_events: c.events,
            sim_delta_cycles: c.delta_cycles,
            ..EngineCounts::default()
        }
    }
}

impl Observed for CycleCosim {
    fn engine(&self) -> EngineCounts {
        EngineCounts {
            cycle_evaluated: self.clocks_evaluated(),
            cycle_skipped: self.clocks_skipped(),
            ..EngineCounts::default()
        }
    }
}

impl Observed for CompiledCosim {
    fn engine(&self) -> EngineCounts {
        EngineCounts {
            compiled_evaluated: self.clocks_evaluated(),
            ..EngineCounts::default()
        }
    }
}

/// The wrapper: forwards every call to the follower, records the largest
/// response stamp, and with timers attached also times the call.
#[derive(Debug)]
pub struct Probe<S> {
    inner: S,
    timers: Option<Arc<Timers>>,
    max_stamp: Option<SimTime>,
}

impl<S> Probe<S> {
    /// Wraps `inner`; `timers` is `None` for an untimed (plain) run.
    pub fn new(inner: S, timers: Option<Arc<Timers>>) -> Self {
        Probe {
            inner,
            timers,
            max_stamp: None,
        }
    }

    /// The wrapped follower.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn note(&mut self, responses: &[Message]) {
        if let Some(top) = responses.iter().map(|m| m.stamp).max() {
            self.max_stamp = self.max_stamp.max(Some(top));
        }
    }
}

impl<S: CoupledSimulator> Probe<S> {
    fn advance_with(
        &mut self,
        f: impl FnOnce(&mut S) -> Result<Vec<Message>, CastanetError>,
    ) -> Result<Vec<Message>, CastanetError> {
        let out = match &self.timers {
            None => f(&mut self.inner),
            Some(t) => {
                let start = t.enter();
                let out = f(&mut self.inner);
                t.leave(start, &t.advance_ns, &t.advance_calls);
                if let Ok(r) = &out {
                    t.responses.fetch_add(r.len() as u64, Ordering::Relaxed);
                }
                out
            }
        };
        if let Ok(r) = &out {
            self.note(r);
        }
        out
    }
}

impl<S: CoupledSimulator> CoupledSimulator for Probe<S> {
    fn deliver(&mut self, msg: Message) -> Result<(), CastanetError> {
        match &self.timers {
            None => self.inner.deliver(msg),
            Some(t) => {
                let start = t.enter();
                let out = self.inner.deliver(msg);
                t.leave(start, &t.deliver_ns, &t.deliver_calls);
                out
            }
        }
    }

    fn advance_until(&mut self, horizon: SimTime) -> Result<Vec<Message>, CastanetError> {
        self.advance_with(|s| s.advance_until(horizon))
    }

    fn advance_batch(&mut self, horizon: SimTime) -> Result<Vec<Message>, CastanetError> {
        self.advance_with(|s| s.advance_batch(horizon))
    }

    fn set_telemetry(&mut self, tel: &Telemetry) {
        self.inner.set_telemetry(tel);
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn structural_preflight(&self) -> Vec<String> {
        self.inner.structural_preflight()
    }

    fn fork(&self) -> Option<Self> {
        let inner = match &self.timers {
            None => self.inner.fork(),
            Some(t) => {
                let start = t.enter();
                let inner = self.inner.fork();
                t.leave(start, &t.fork_ns, &t.forks);
                inner
            }
        }?;
        Some(Probe {
            inner,
            timers: self.timers.clone(),
            max_stamp: self.max_stamp,
        })
    }
}

impl<S: Observed> Observed for Probe<S> {
    fn dut_stamp(&self) -> Option<SimTime> {
        self.max_stamp
    }

    fn engine(&self) -> EngineCounts {
        self.inner.engine()
    }
}
