//! E11 — compiled bit-parallel backend vs the two interpreted engines on
//! an e10-class workload.
//!
//! The workload is the registered cousin of E10's `delta_chain_settle`
//! row: a 64-stage inverter-register pipeline (`q <= not d` per stage,
//! one capture per clock) driven by a toggling head input for N clocks.
//! The same netlist semantics run on all three backends:
//!
//! * `serial_cycle_based` — the cycle engine's per-clock behavioral
//!   evaluation (`CycleSim` over a hand-written chain DUT): one
//!   instance, one register-array update per clock. Emitted first so
//!   the criterion shim computes every row's `speedup_vs_serial`
//!   against it;
//! * `serial_event_driven` — the event kernel running the chain as 64
//!   `InvReg` processes: every clock edge schedules, wakes and
//!   delta-settles each stage individually;
//! * `compiled_64lane` — the compiled schedule of the same `InvReg`
//!   netlist in a 64-lane `CompiledSim`: each word-level `Not` op
//!   advances all 64 scenario instances at once.
//!
//! Throughput accounting: one element = one register update, so the
//! serial rows process `N * 64` elements per iteration and the compiled
//! row `N * 64 * 64` (64 lanes). The acceptance comparison ("compiled
//! ≥ 10× the cycle engine per instance") reads
//! `events_per_sec(compiled_64lane) / events_per_sec(serial_cycle_based)`;
//! the `speedup_vs_serial` column is the raw wall-clock ratio of one
//! 64-instance batch against one cycle-engine instance.

use castanet_netsim::time::SimTime;
use castanet_rtl::compiled::gates::InvReg;
use castanet_rtl::compiled::{CompiledSchedule, CompiledSim, LANES};
use castanet_rtl::cycle::{CycleDut, CycleSim, PortDecl};
use castanet_rtl::logic::Logic;
use castanet_rtl::signal::SignalId;
use castanet_rtl::sim::Simulator;
use castanet_rtl::vector::LogicVector;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

/// Pipeline depth, matching E10's 64-stage chain.
const CHAIN: usize = 64;

/// Behavioral twin of the `InvReg` chain for the cycle engine: all
/// registers capture their pre-edge inputs simultaneously.
struct InvChainDut {
    state: Vec<bool>,
}

impl CycleDut for InvChainDut {
    fn input_ports(&self) -> Vec<PortDecl> {
        vec![PortDecl::new("d", 1)]
    }
    fn output_ports(&self) -> Vec<PortDecl> {
        vec![PortDecl::new("q", 1)]
    }
    fn reset(&mut self) {
        self.state = vec![false; CHAIN];
    }
    fn clock_edge(&mut self, inputs: &[u64], outputs: &mut [u64]) {
        let mut next = vec![false; CHAIN];
        next[0] = inputs[0] & 1 == 0;
        for (i, cell) in next.iter_mut().enumerate().skip(1) {
            *cell = !self.state[i - 1];
        }
        self.state = next;
        outputs[0] = u64::from(self.state[CHAIN - 1]);
    }
}

/// Builds the `InvReg` chain netlist; returns `(sim, clk, d_head)`.
fn inv_reg_chain() -> (Simulator, SignalId, SignalId) {
    let mut sim = Simulator::new();
    let clk = sim.add_signal("clk", 1);
    let head = sim.add_signal("d0", 1);
    sim.mark_external_input(clk);
    sim.mark_external_input(head);
    let mut prev = head;
    for i in 0..CHAIN {
        let q = sim.add_signal(format!("q{i}"), 1);
        sim.add_process(Box::new(InvReg::new(format!("r{i}"), clk, prev, q)), &[clk]);
        prev = q;
    }
    sim.mark_external_output(prev);
    (sim, clk, head)
}

fn bench_e11(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_compiled");
    group.sample_size(10);

    for &clocks in &[200u64, 800] {
        let updates = clocks * CHAIN as u64;
        group.throughput(Throughput::Elements(updates));
        group.bench_with_input(
            BenchmarkId::new("serial_cycle_based", clocks),
            &clocks,
            |b, &n| {
                b.iter(|| {
                    let mut sim = CycleSim::new(Box::new(InvChainDut {
                        state: vec![false; CHAIN],
                    }));
                    let mut acc = 0u64;
                    for k in 0..n {
                        acc ^= sim.step(&[k & 1]).expect("step")[0];
                    }
                    acc
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("serial_event_driven", clocks),
            &clocks,
            |b, &n| {
                b.iter(|| {
                    let (mut sim, clk, head) = inv_reg_chain();
                    sim.poke_bit(clk, Logic::Zero, SimTime::from_ns(1))
                        .expect("poke");
                    for k in 0..n {
                        let base = 20 * (k + 1);
                        let level = if k % 2 == 0 { Logic::One } else { Logic::Zero };
                        sim.poke_bit(head, level, SimTime::from_ns(base))
                            .expect("poke");
                        sim.poke_bit(clk, Logic::One, SimTime::from_ns(base + 5))
                            .expect("poke");
                        sim.poke_bit(clk, Logic::Zero, SimTime::from_ns(base + 15))
                            .expect("poke");
                    }
                    sim.run_until(SimTime::from_ns(20 * (n + 2))).expect("run");
                    sim.counters().delta_cycles
                });
            },
        );
        group.throughput(Throughput::Elements(updates * LANES as u64));
        group.bench_with_input(
            BenchmarkId::new("compiled_64lane", clocks),
            &clocks,
            |b, &n| {
                let (sim, _clk, head) = inv_reg_chain();
                let schedule = CompiledSchedule::compile(&sim).expect("chain lowers fully");
                // One steady-state pipeline, clocked across iterations —
                // the iteration body is pure evaluation, no allocation,
                // matching how a sweep amortizes its one-time compile.
                let mut csim = CompiledSim::new(schedule, LANES);
                let levels = [
                    LogicVector::from(Logic::Zero),
                    LogicVector::from(Logic::One),
                ];
                b.iter(|| {
                    for k in 0..n {
                        csim.poke_all_lanes(head, &levels[(k % 2) as usize])
                            .expect("poke");
                        csim.clock();
                    }
                    csim.cycles()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_e11);
criterion_main!(benches);
