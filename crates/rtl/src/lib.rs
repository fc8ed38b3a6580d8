//! # castanet-rtl — event-driven and cycle-based RTL simulation
//!
//! A from-scratch substitute for the Synopsys VHDL System Simulator the
//! DATE'98 CASTANET paper couples to its network simulator:
//!
//! * [`logic`] / [`vector`] — the IEEE-1164 nine-value system and
//!   `STD_LOGIC_VECTOR`s;
//! * [`sim`] — an event-driven kernel with delta cycles, sensitivity lists
//!   and multi-driver signal resolution;
//! * [`cycle`] — the cycle-based engine the paper's conclusion calls for,
//!   sharing DUTs with the event-driven kernel via
//!   [`cycle::attach_cycle_dut`], and [`cycle::ClockedEngine`], the
//!   clocked-engine interface the coupling's cell↔pin follower drives it
//!   and [`compiled::LaneBank`] through. A [`cycle::CycleDut`] steps by
//!   `clock_edge(inputs, outputs)`: it reads one word per input port and
//!   writes one word per output port into a slice its caller owns and
//!   reuses, so no clock edge on any engine allocates;
//! * [`compiled`] — the compiled bit-parallel backend: the levelized
//!   netlist lowered to word-level ops over bit-sliced state, 64 scenario
//!   lanes per instruction, plus the [`compiled::LaneBank`] batching
//!   fallback for behavioral DUTs;
//! * [`netlist`] — netlist introspection: the signal→process→signal
//!   dataflow graph, structural checks (combinational loops, multi-driver
//!   conflicts, sensitivity completeness, gated-clock safety) and the
//!   levelization schedule for a compiled backend;
//! * [`dut`] — the paper's ATM hardware: byte-serial cell receiver and
//!   transmitter (Fig. 4), the 4-port switch with global control unit (the
//!   headline workload) and the accounting unit of the §4 case study;
//! * [`testbench`] — the classic pure-RTL regression bench used as the E1
//!   baseline;
//! * [`wave`] — VCD waveform dumping.
//!
//! ## Quick start
//!
//! ```
//! use castanet_rtl::cycle::CycleSim;
//! use castanet_rtl::dut::CellReceiver;
//! use castanet_atm::addr::{HeaderFormat, VpiVci};
//! use castanet_atm::cell::AtmCell;
//!
//! // Stream one ATM cell into the receiver DUT, one octet per clock.
//! let cell = AtmCell::user_data(VpiVci::uni(1, 42)?, [0; 48]);
//! let wire = cell.encode(HeaderFormat::Uni)?;
//! let mut sim = CycleSim::new(Box::new(CellReceiver::new()));
//! // `step` lends out the engine's own output words until the next edge.
//! let mut last: &[u64] = &[];
//! for (i, &byte) in wire.iter().enumerate() {
//!     last = sim.step(&[u64::from(byte), u64::from(i == 0), 1, 0])?;
//! }
//! assert_eq!(last[0], 1, "cell_valid after 53 clocks");
//! assert_eq!(last[3], 42, "vci decoded");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compiled;
pub mod cycle;
pub mod dut;
pub mod error;
pub mod logic;
pub mod netlist;
pub mod signal;
pub mod sim;
pub mod testbench;
pub mod vector;
pub mod wave;
pub mod wheel;

pub use compiled::{CompileError, CompiledSchedule, CompiledSim, LaneBank, PackedBit, LANES};
pub use cycle::{ClockedEngine, CycleDut, CycleSim, PortDecl};
pub use error::RtlError;
pub use logic::Logic;
pub use netlist::{NetlistGraph, ProcessIo, ProcessKind, StructuralFinding};
pub use signal::SignalId;
pub use sim::{RtlCtx, RtlProcess, SimCounters, Simulator};
pub use vector::LogicVector;
