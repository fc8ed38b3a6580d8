//! End-to-end benchmark of complete CASTANET co-verification runs.
//!
//! One coupled run builds the E1 switch scenario, runs the coupling, and
//! compares every egress cell against the reference model with
//! `compare_switch_output`. A workload is a closed loop of such runs: run
//! `i` uses seed `base + i` and starts when run `i - 1` has ended. See
//! `README.md` for the workloads, the metrics and how to run it.

pub mod pipeline;
pub mod probe;
pub mod reference;
pub mod tally;

use coverify::netsim::time::SimDuration;
use coverify::scenarios::SwitchScenarioConfig;
pub use pipeline::Pipeline;

/// A benchmark workload: a pipeline on one traffic shape.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Follower engine and executor.
    pub pipeline: Pipeline,
    /// Cells per source (the switch has four sources).
    pub cells_per_source: u64,
    /// Mean inter-cell gap per source.
    pub cell_gap: SimDuration,
}

/// The four workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "e1_event_serial",
        pipeline: Pipeline::EventSerial,
        cells_per_source: 250,
        cell_gap: SimDuration::from_us(10),
    },
    Workload {
        name: "e1_cycle_serial",
        pipeline: Pipeline::CycleSerial,
        cells_per_source: 2_500,
        cell_gap: SimDuration::from_us(10),
    },
    Workload {
        name: "dense_cycle_parallel",
        pipeline: Pipeline::CycleParallel,
        cells_per_source: 2_500,
        cell_gap: SimDuration::from_us(3),
    },
    Workload {
        name: "e1_compiled_timewarp",
        pipeline: Pipeline::CompiledTimeWarp,
        cells_per_source: 250,
        cell_gap: SimDuration::from_us(10),
    },
];

impl Workload {
    /// Looks a workload up by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// The E1 switch set-up (4 ports, 20 ns clock, mixed CBR/on-off
    /// sources) at this workload's size and load, seeded with `seed`.
    #[must_use]
    pub fn config(&self, seed: u64) -> SwitchScenarioConfig {
        SwitchScenarioConfig {
            cells_per_source: self.cells_per_source,
            cell_gap: self.cell_gap,
            seed,
            ..SwitchScenarioConfig::default()
        }
    }
}
