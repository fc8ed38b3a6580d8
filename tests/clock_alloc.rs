//! Clock edges allocate nothing. A counting global allocator, local to this
//! test binary, counts the heap allocations the current thread makes; after
//! a warm-up pass has grown every buffer to its working size, busy clocks of
//! the cycle engine, of a four-lane `LaneBank` and of the cycle follower
//! must make none. A follower clock that emits a response may allocate its
//! `Message`, so only clocks without one are counted.

// `GlobalAlloc` is an unsafe trait; this implementation only counts and
// forwards every call to the system allocator.
#![allow(unsafe_code)]

use castanet::coupling::CoupledSimulator;
use castanet::cyclecosim::{CycleCosim, EgressIndices, IngressIndices};
use castanet::message::{Message, MessageTypeId};
use castanet_atm::addr::{HeaderFormat, VpiVci};
use castanet_atm::cell::AtmCell;
use castanet_netsim::time::SimDuration;
use castanet_rtl::compiled::LaneBank;
use castanet_rtl::cycle::{ClockedEngine, CycleDut, CycleSim};
use castanet_rtl::dut::{AtmSwitchRtl, SwitchRtlConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each call meets `System`'s contract exactly when the caller meets
// `GlobalAlloc`'s; counting touches only a thread-local `Cell` and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations the current thread makes while running `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const PORTS: usize = 4;
const CLK: SimDuration = SimDuration::from_ns(20);

/// The 4-port switch routing VPI 1 / VCI 40 + i from line i to line
/// (i + 1) mod 4.
fn switch() -> AtmSwitchRtl {
    let mut s = AtmSwitchRtl::new(SwitchRtlConfig {
        ports: PORTS,
        fifo_capacity: 32,
        table_capacity: 16,
    });
    for i in 0..PORTS {
        assert!(s.install_route(1, 40 + i as u16, (i + 1) % PORTS, 7, 70 + i as u16));
    }
    s
}

fn cell(line: usize, k: u8) -> AtmCell {
    AtmCell::user_data(VpiVci::uni(1, 40 + line as u16).unwrap(), [k; 48])
}

/// Per-clock input words of one switch: `cells` back-to-back cells on
/// every line, then idle clocks for the egress to drain.
fn pin_stream(cells: u8) -> Vec<Vec<u64>> {
    let ins = switch().input_ports().len();
    let mut clocks = vec![vec![0; ins]; usize::from(cells) * 53 + 200];
    for line in 0..PORTS {
        for k in 0..cells {
            let wire = cell(line, k).encode(HeaderFormat::Uni).unwrap();
            for (j, &byte) in wire.iter().enumerate() {
                let words = &mut clocks[usize::from(k) * 53 + j][3 * line..3 * line + 3];
                words.copy_from_slice(&[u64::from(byte), u64::from(j == 0), 1]);
            }
        }
    }
    clocks
}

/// Runs `stream` through `engine` twice — a warm-up pass, then a counted
/// one — and returns the busy clocks of the counted pass and the
/// allocations they made.
fn count_busy_edges<E: ClockedEngine>(engine: &mut E, stream: &[Vec<u64>]) -> (u64, u64) {
    let (mut busy, mut allocations) = (0, 0);
    for pass in 0..2 {
        for (k, inputs) in stream.iter().enumerate() {
            let was_busy = !engine.idle() || inputs.iter().any(|&w| w != 0);
            let (result, n) = allocations_in(|| engine.edge(inputs, k as u64));
            result.unwrap();
            if pass == 1 && was_busy {
                busy += 1;
                allocations += n;
            }
        }
    }
    (busy, allocations)
}

#[test]
fn cycle_sim_edges_allocate_nothing() {
    let stream = pin_stream(8);
    let mut sim = CycleSim::new(Box::new(switch()));
    let (busy, allocations) = count_busy_edges(&mut sim, &stream);
    assert!(busy > 400, "only {busy} busy clocks");
    assert_eq!(
        allocations, 0,
        "{allocations} allocations in {busy} busy clocks"
    );
}

#[test]
fn lane_bank_edges_allocate_nothing() {
    const LANES: usize = 4;
    // Every lane gets the same pins, staggered by a few clocks.
    let one = pin_stream(8);
    let stream: Vec<Vec<u64>> = (0..one.len())
        .map(|k| {
            (0..LANES)
                .flat_map(|lane| one[k.saturating_sub(3 * lane)].iter().copied())
                .collect()
        })
        .collect();
    let duts: Vec<Box<dyn CycleDut>> = (0..LANES).map(|_| Box::new(switch()) as _).collect();
    let mut bank = LaneBank::new(duts);
    let (busy, allocations) = count_busy_edges(&mut bank, &stream);
    assert!(busy > 400, "only {busy} busy clocks");
    assert_eq!(
        allocations, 0,
        "{allocations} allocations in {busy} busy clocks"
    );
}

#[test]
fn cycle_follower_clocks_without_responses_allocate_nothing() {
    let mut cosim = CycleCosim::new(
        CycleSim::new(Box::new(switch())),
        CLK,
        MessageTypeId(9),
        HeaderFormat::Uni,
    );
    for line in 0..PORTS {
        let base = 3 * line;
        cosim.add_ingress(IngressIndices {
            data: base,
            sync: base + 1,
            enable: base + 2,
        });
        cosim.add_egress(EgressIndices {
            data: base,
            sync: base + 1,
            valid: base + 2,
        });
    }
    let (mut quiet, mut responses, mut allocations) = (0, 0, 0);
    for pass in 0..2 {
        // Eight cells per line, staggered, all delivered up front.
        let start = cosim.now();
        for line in 0..PORTS {
            for k in 0..8u8 {
                let stamp = start + CLK * (u64::from(k) * 60 + 7 * line as u64);
                let msg = Message::cell(stamp, MessageTypeId(0), line, cell(line, k));
                cosim.deliver(msg).unwrap();
            }
        }
        // One clock per call until the switch has drained.
        for _ in 0..1200 {
            let evaluated = cosim.clocks_evaluated();
            let horizon = cosim.now() + CLK * 2;
            let (out, n) = allocations_in(|| cosim.advance_batch(horizon).unwrap());
            let busy = cosim.clocks_evaluated() > evaluated;
            if pass == 1 && busy {
                if out.is_empty() {
                    quiet += 1;
                    allocations += n;
                } else {
                    responses += out.len();
                }
            }
        }
    }
    assert_eq!(responses, PORTS * 8, "every cell is switched");
    assert!(quiet > 400, "only {quiet} busy clocks without a response");
    assert_eq!(
        allocations, 0,
        "{allocations} allocations in {quiet} busy clocks"
    );
}
