//! The cycle-level follower — the paper's §5 conclusion, implemented.
//!
//! "Event-driven VHDL simulators are obviously a bottleneck in the
//! co-verification process. … Thus, the integration of cycle-based
//! simulation techniques is required." [`ClockedCosim`] is that
//! integration: the §3.2 cell↔pin abstraction interface, written once over
//! any [`ClockedEngine`] and driving it one clock edge per call. Two
//! engines instantiate it:
//!
//! * [`CycleCosim`] over [`CycleSim`] — one DUT instance;
//! * [`CompiledCosim`] over [`LaneBank`] — up to 64 DUT instances stepped
//!   by one clock edge.
//!
//! Lane 0 is the *coupled* lane: network stimulus lands there and its
//! egress cells flow back as response messages. Lanes 1..N carry
//! independent scenario instances seeded directly via
//! [`ClockedCosim::seed_cell`]; their egress accumulates in per-lane
//! traces read back with [`ClockedCosim::lane_cells`]. Lane 0 keeps no
//! trace: its egress exists only as the returned responses.
//!
//! **Idle skipping**: when no lane has stimulus pending and every lane's
//! DUT reports quiescence ([`castanet_rtl::cycle::CycleDut::is_idle`]),
//! whole stretches of simulated time advance in O(1). A skipped clock is
//! provably a no-op in every lane, so per-lane traces are invariant to how
//! the other lanes are loaded, and with traffic on lane 0 only both
//! engines evaluate and skip exactly the same clocks — the conformance
//! suite pins this.

use crate::convert::{first_clock_at_or_after, ByteStreamAssembler};
use crate::coupling::CoupledSimulator;
use crate::error::CastanetError;
use crate::message::{Message, MessagePayload, MessageTypeId};
use castanet_atm::addr::HeaderFormat;
use castanet_atm::cell::{AtmCell, CELL_OCTETS};
use castanet_netsim::time::{SimDuration, SimTime};
use castanet_obs::{Counter, Gauge, Telemetry};
use castanet_rtl::compiled::LaneBank;
use castanet_rtl::cycle::{ClockedEngine, CycleSim, PortDecl};

/// The cycle-engine follower: one DUT instance.
pub type CycleCosim = ClockedCosim<CycleSim>;

/// The compiled bit-parallel follower: up to 64 scenario lanes per edge.
pub type CompiledCosim = ClockedCosim<LaneBank>;

/// Indices (into the DUT's input port list) of one ingress line.
#[derive(Debug, Clone, Copy)]
pub struct IngressIndices {
    /// Byte-wide data input port.
    pub data: usize,
    /// Cellsync input port.
    pub sync: usize,
    /// Byte-valid input port.
    pub enable: usize,
}

/// Indices (into the DUT's output port list) of one egress line.
#[derive(Debug, Clone, Copy)]
pub struct EgressIndices {
    /// Byte-wide data output port.
    pub data: usize,
    /// Cellsync output port.
    pub sync: usize,
    /// Byte-valid output port.
    pub valid: usize,
}

#[derive(Clone)]
struct IngressLine {
    idx: IngressIndices,
    /// Per-lane first clock free for the next cell's first byte.
    next_free_clock: Vec<u64>,
}

#[derive(Clone)]
struct EgressLine {
    idx: EgressIndices,
    /// Per-lane cell reassembly state.
    assemblers: Vec<ByteStreamAssembler>,
    /// Per-lane egress traces; lane 0's cells leave as responses instead.
    traces: Vec<Vec<AtmCell>>,
}

/// Metric handles (no-ops until telemetry is attached).
#[derive(Clone, Default)]
struct FollowerObs {
    enabled: bool,
    /// `follower.clocks_evaluated`.
    evaluated: Gauge,
    /// `follower.clocks_skipped`.
    skipped: Gauge,
    /// `<engine>.lanes_active` — lanes with stimulus pending at the last
    /// sweep (the coupled lane counts while the run is live).
    lanes_active: Gauge,
    /// `<engine>.queue_depth` — stimulus clocks queued at the last sweep
    /// (the analogue of `rtl.queue_depth`).
    queue_depth: Gauge,
    /// `<engine>.idle_skips` — idle jumps taken (the analogue of
    /// `rtl.wheel_cascade`: both count O(1) time leaps).
    idle_skips: Counter,
}

/// The input words queued for the clocks ahead of the engine, in one flat
/// clock-major buffer: each row holds one clock's words (one per input
/// port per lane, lane-major), and row [`Stimulus::head`] is the next
/// clock to evaluate. A row is all-zero until a cell drives it, and
/// `driven` flags the rows that a cell wrote. Consumed rows are dropped
/// in place: the buffer empties once every row is consumed and compacts
/// once consumed rows outnumber pending ones, so its capacity is reused
/// and no clock allocates.
struct Stimulus {
    /// Words per row.
    width: usize,
    /// Rows already consumed at the front of the buffer.
    head: usize,
    words: Vec<u64>,
    driven: Vec<bool>,
}

impl Stimulus {
    /// Consumed rows kept at the front before a compaction may move the
    /// pending ones down.
    const COMPACT_ROWS: usize = 256;

    fn new(width: usize) -> Self {
        Stimulus {
            width,
            head: 0,
            words: Vec::new(),
            driven: Vec::new(),
        }
    }

    /// Pending rows, driven or not.
    fn len(&self) -> usize {
        self.driven.len() - self.head
    }

    /// The row `ahead` clocks after the next one, marked driven; the
    /// buffer grows with all-zero rows up to it.
    fn row_mut(&mut self, ahead: usize) -> &mut [u64] {
        let row = self.head + ahead;
        if row >= self.driven.len() {
            self.driven.resize(row + 1, false);
            self.words.resize((row + 1) * self.width, 0);
        }
        self.driven[row] = true;
        &mut self.words[row * self.width..][..self.width]
    }

    /// The next clock's words, or `None` when no cell drives that clock.
    fn front(&self) -> Option<&[u64]> {
        let driven = self.driven.get(self.head).copied().unwrap_or(false);
        driven.then(|| &self.words[self.head * self.width..][..self.width])
    }

    /// How many clocks ahead the next driven row is.
    fn next_driven(&self) -> Option<usize> {
        self.driven[self.head..].iter().position(|&d| d)
    }

    /// Drops the next `n` rows (every pending row when fewer are left).
    fn consume(&mut self, n: usize) {
        let rows = self.driven.len();
        self.head = (self.head + n).min(rows);
        if self.head == rows {
            self.clear();
        } else if self.head >= Self::COMPACT_ROWS && 2 * self.head >= rows {
            self.driven.copy_within(self.head.., 0);
            self.driven.truncate(rows - self.head);
            self.words.copy_within(self.head * self.width.., 0);
            self.words.truncate((rows - self.head) * self.width);
            self.head = 0;
        }
    }

    fn clear(&mut self) {
        self.head = 0;
        self.words.clear();
        self.driven.clear();
    }
}

impl Clone for Stimulus {
    /// Copies the pending rows only.
    fn clone(&self) -> Self {
        Stimulus {
            width: self.width,
            head: 0,
            words: self.words[self.head * self.width..].to_vec(),
            driven: self.driven[self.head..].to_vec(),
        }
    }
}

/// The cell↔pin follower over a [`ClockedEngine`], with bank-wide idle
/// skipping.
pub struct ClockedCosim<E> {
    engine: E,
    clock_period: SimDuration,
    clocks_done: u64,
    /// Input words for clocks `clocks_done..`; undriven clocks are
    /// all-zero (idle lines in every lane).
    stimulus: Stimulus,
    zero_inputs: Vec<u64>,
    ingress: Vec<IngressLine>,
    egress: Vec<EgressLine>,
    response_type: MessageTypeId,
    format: HeaderFormat,
    /// Clocks skipped thanks to idle detection.
    skipped: u64,
    undecodable: u64,
    obs: FollowerObs,
}

impl<E: ClockedEngine> std::fmt::Debug for ClockedCosim<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClockedCosim")
            .field("engine", &E::NAME)
            .field("lanes", &self.engine.lanes())
            .field("clocks_done", &self.clocks_done)
            .field("skipped", &self.skipped)
            .finish()
    }
}

impl<E: ClockedEngine> ClockedCosim<E> {
    /// Wraps a clocked engine as a follower clocked at `clock_period`.
    #[must_use]
    pub fn new(
        engine: E,
        clock_period: SimDuration,
        response_type: MessageTypeId,
        format: HeaderFormat,
    ) -> Self {
        let width = engine.lanes() * engine.input_ports().len();
        ClockedCosim {
            stimulus: Stimulus::new(width),
            zero_inputs: vec![0; width],
            engine,
            clock_period,
            clocks_done: 0,
            ingress: Vec::new(),
            egress: Vec::new(),
            response_type,
            format,
            skipped: 0,
            undecodable: 0,
            obs: FollowerObs::default(),
        }
    }

    /// Registers an ingress line (same pin indices in every lane); returns
    /// its co-simulation port index.
    pub fn add_ingress(&mut self, idx: IngressIndices) -> usize {
        self.ingress.push(IngressLine {
            idx,
            next_free_clock: vec![0; self.engine.lanes()],
        });
        self.ingress.len() - 1
    }

    /// Registers an egress line; returns its co-simulation port index.
    pub fn add_egress(&mut self, idx: EgressIndices) -> usize {
        let lanes = self.engine.lanes();
        self.egress.push(EgressLine {
            idx,
            assemblers: vec![ByteStreamAssembler::new(self.format); lanes],
            traces: vec![Vec::new(); lanes],
        });
        self.egress.len() - 1
    }

    /// Number of scenario lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.engine.lanes()
    }

    /// Clocks actually evaluated (each evaluation steps *every* lane).
    #[must_use]
    pub fn clocks_evaluated(&self) -> u64 {
        self.engine.cycles()
    }

    /// Clocks skipped by idle detection.
    #[must_use]
    pub fn clocks_skipped(&self) -> u64 {
        self.skipped
    }

    /// DUT output bytes that failed cell reassembly (any lane).
    #[must_use]
    pub fn undecodable(&self) -> u64 {
        self.undecodable
    }

    /// Read access to the clocked engine.
    #[must_use]
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Every cell lane `lane` emitted on egress line `port` so far, in
    /// emission order. Only lanes 1..N keep traces: lane 0's egress can
    /// only be read from the response messages the advance calls return.
    ///
    /// # Panics
    ///
    /// Panics for lane 0 and for a lane not below
    /// [`ClockedCosim::lanes`].
    #[must_use]
    pub fn lane_cells(&self, port: usize, lane: usize) -> &[AtmCell] {
        assert!(
            lane > 0,
            "lane 0's egress leaves as responses; lane_cells holds lanes 1..N"
        );
        &self.egress[port].traces[lane]
    }

    /// Schedules `cell` into lane `lane` on ingress line `port` at (or
    /// after) `stamp` — the network's delivery path for lane 0, and the
    /// direct seeding path the scenario sweep uses for every lane.
    ///
    /// # Errors
    ///
    /// [`CastanetError::UnknownPort`] for an unregistered ingress line;
    /// conversion errors when the cell cannot be encoded.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not below [`ClockedCosim::lanes`].
    pub fn seed_cell(
        &mut self,
        lane: usize,
        port: usize,
        stamp: SimTime,
        cell: &AtmCell,
    ) -> Result<(), CastanetError> {
        if port >= self.ingress.len() {
            return Err(CastanetError::UnknownPort { port });
        }
        assert!(lane < self.engine.lanes(), "lane out of range");
        let wire = cell.encode(self.format)?;
        let start = first_clock_at_or_after(stamp, self.clock_period)
            .max(self.ingress[port].next_free_clock[lane])
            .max(self.clocks_done);
        let idx = self.ingress[port].idx;
        let ports = self.engine.input_ports().len();
        let ahead = (start - self.clocks_done) as usize;
        for (k, &byte) in wire.iter().enumerate() {
            let words = &mut self.stimulus.row_mut(ahead + k)[lane * ports..][..ports];
            words[idx.data] = u64::from(byte);
            words[idx.sync] = u64::from(k == 0);
            words[idx.enable] = 1;
        }
        self.ingress[port].next_free_clock[lane] = start + CELL_OCTETS as u64;
        Ok(())
    }

    fn run_clock(&mut self) -> Result<Vec<Message>, CastanetError> {
        let stamp = SimTime::from_picos((self.clocks_done + 1) * self.clock_period.as_picos());
        let inputs = self.stimulus.front().unwrap_or(&self.zero_inputs);
        let edge = self.engine.edge(inputs, stamp.as_picos());
        self.stimulus.consume(1);
        edge?;
        self.clocks_done += 1;
        let mut responses = Vec::new();
        for (port, line) in self.egress.iter_mut().enumerate() {
            for lane in 0..self.engine.lanes() {
                let outs = self.engine.lane_outputs(lane);
                if outs[line.idx.valid] != 1 {
                    continue;
                }
                let data = outs[line.idx.data] as u8;
                let payload = match line.assemblers[lane].push(data, outs[line.idx.sync] == 1) {
                    Ok(None) => continue,
                    Ok(Some(cell)) if lane > 0 => {
                        line.traces[lane].push(cell);
                        continue;
                    }
                    Ok(Some(cell)) => MessagePayload::Cell(cell),
                    Err(_) => {
                        self.undecodable += 1;
                        if lane > 0 {
                            continue;
                        }
                        MessagePayload::Raw(vec![data])
                    }
                };
                responses.push(Message {
                    stamp,
                    type_id: self.response_type,
                    port,
                    payload,
                });
            }
        }
        Ok(responses)
    }

    fn advance_inner(
        &mut self,
        horizon: SimTime,
        stop_at_first: bool,
    ) -> Result<Vec<Message>, CastanetError> {
        let period = self.clock_period.as_picos();
        let target = horizon.as_picos().div_ceil(period).saturating_sub(1);
        if self.obs.enabled {
            // A lane has stimulus pending while some line's last queued
            // octet is still ahead of the engine.
            let active = (0..self.engine.lanes())
                .filter(|&lane| {
                    self.ingress
                        .iter()
                        .any(|l| l.next_free_clock[lane] > self.clocks_done)
                })
                .count();
            self.obs.lanes_active.set(active as u64);
            self.obs.queue_depth.set(self.stimulus.len() as u64);
        }
        let mut collected = Vec::new();
        while self.clocks_done < target {
            // Idle skip: every lane's DUT quiescent and no stimulus
            // pending in any lane's window — a clock edge would change
            // nothing anywhere, so jump to the next stimulus clock (or the
            // horizon) in O(1).
            if self.engine.idle() {
                match self.stimulus.next_driven() {
                    None => {
                        self.skipped += target - self.clocks_done;
                        self.obs.idle_skips.inc();
                        self.stimulus.clear();
                        self.clocks_done = target;
                        break;
                    }
                    Some(off) if off > 0 => {
                        let jump = (off as u64).min(target - self.clocks_done);
                        self.skipped += jump;
                        self.obs.idle_skips.inc();
                        self.stimulus.consume(jump as usize);
                        self.clocks_done += jump;
                        continue;
                    }
                    Some(_) => {}
                }
            }
            let responses = self.run_clock()?;
            if !responses.is_empty() {
                if stop_at_first {
                    self.publish_clock_gauges();
                    return Ok(responses);
                }
                collected.extend(responses);
            }
        }
        self.publish_clock_gauges();
        Ok(collected)
    }

    fn publish_clock_gauges(&self) {
        self.obs.evaluated.set(self.engine.cycles());
        self.obs.skipped.set(self.skipped);
    }
}

impl<E: ClockedEngine> CoupledSimulator for ClockedCosim<E> {
    fn deliver(&mut self, msg: Message) -> Result<(), CastanetError> {
        let MessagePayload::Cell(cell) = &msg.payload else {
            return Err(CastanetError::Convert(format!(
                "{} follower can only play cell payloads, got {}",
                E::NAME,
                msg.payload.kind()
            )));
        };
        self.seed_cell(0, msg.port, msg.stamp, cell)
    }

    fn advance_until(&mut self, horizon: SimTime) -> Result<Vec<Message>, CastanetError> {
        self.advance_inner(horizon, true)
    }

    fn advance_batch(&mut self, horizon: SimTime) -> Result<Vec<Message>, CastanetError> {
        // One uninterrupted sweep to the horizon: egress cells are stamped
        // at their capture clock inside `run_clock`, so collecting them at
        // the end of the window loses no timing information.
        self.advance_inner(horizon, false)
    }

    fn now(&self) -> SimTime {
        SimTime::from_picos(self.clocks_done * self.clock_period.as_picos())
    }

    fn set_telemetry(&mut self, tel: &Telemetry) {
        self.engine.set_telemetry(tel);
        let name = |metric: &str| format!("{}.{metric}", E::NAME);
        self.obs = FollowerObs {
            enabled: tel.is_enabled(),
            evaluated: tel.gauge("follower.clocks_evaluated"),
            skipped: tel.gauge("follower.clocks_skipped"),
            lanes_active: tel.gauge(&name("lanes_active")),
            queue_depth: tel.gauge(&name("queue_depth")),
            idle_skips: tel.counter(&name("idle_skips")),
        };
    }

    fn fork(&self) -> Option<Self> {
        Some(ClockedCosim {
            engine: self.engine.fork()?,
            stimulus: self.stimulus.clone(),
            zero_inputs: self.zero_inputs.clone(),
            ingress: self.ingress.clone(),
            egress: self.egress.clone(),
            obs: self.obs.clone(),
            ..*self
        })
    }

    /// `CAST150`/`CAST151`: every line's pin index must exist on the
    /// engine and be wide enough for its role.
    fn structural_preflight(&self) -> Vec<String> {
        let mut findings = Vec::new();
        let ins = self.ingress.iter().map(|l| {
            let i = l.idx;
            [("data", i.data), ("sync", i.sync), ("enable", i.enable)]
        });
        let outs = self.egress.iter().map(|l| {
            let i = l.idx;
            [("data", i.data), ("sync", i.sync), ("valid", i.valid)]
        });
        check_pins::<E>("ingress", ins, self.engine.input_ports(), &mut findings);
        check_pins::<E>("egress", outs, self.engine.output_ports(), &mut findings);
        findings
    }
}

fn check_pins<E: ClockedEngine>(
    dir: &str,
    lines: impl Iterator<Item = [(&'static str, usize); 3]>,
    ports: &[PortDecl],
    findings: &mut Vec<String>,
) {
    let name = E::NAME;
    for (line, pins) in lines.enumerate() {
        for (pin, i) in pins {
            let Some(decl) = ports.get(i) else {
                findings.push(format!(
                    "CAST150: {name} {dir} {line} {pin} pin index {i} out of range \
                     ({} {dir}-side ports on the {name} engine)",
                    ports.len()
                ));
                continue;
            };
            let want = if pin == "data" { 8 } else { 1 };
            if decl.width < want {
                findings.push(format!(
                    "CAST151: {name} {dir} {line} {pin} pin '{}' is {} bits wide, needs {want}",
                    decl.name, decl.width
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use castanet_atm::addr::VpiVci;
    use castanet_rtl::cycle::CycleDut;
    use castanet_rtl::dut::{AtmSwitchRtl, SwitchRtlConfig};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const CLK: SimDuration = SimDuration::from_ns(20);

    fn switch() -> AtmSwitchRtl {
        let mut s = AtmSwitchRtl::new(SwitchRtlConfig {
            ports: 2,
            fifo_capacity: 32,
            table_capacity: 8,
        });
        assert!(s.install_route(1, 40, 1, 7, 70));
        s
    }

    fn wire<E: ClockedEngine>(engine: E) -> ClockedCosim<E> {
        let mut cosim = ClockedCosim::new(engine, CLK, MessageTypeId(9), HeaderFormat::Uni);
        for base in [0, 3] {
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
        cosim
    }

    fn fixture() -> CycleCosim {
        wire(CycleSim::new(Box::new(switch())))
    }

    fn bank(lanes: usize) -> CompiledCosim {
        let duts: Vec<Box<dyn CycleDut>> = (0..lanes).map(|_| Box::new(switch()) as _).collect();
        wire(LaneBank::new(duts))
    }

    fn cell(vci: u16) -> AtmCell {
        AtmCell::user_data(VpiVci::uni(1, vci).unwrap(), [0x42; 48])
    }

    #[test]
    fn switches_a_cell_on_both_engines() {
        fn check<E: ClockedEngine>(mut cosim: ClockedCosim<E>) {
            cosim
                .deliver(Message::cell(SimTime::ZERO, MessageTypeId(0), 0, cell(40)))
                .unwrap();
            let responses = cosim.advance_until(SimTime::from_us(10)).unwrap();
            assert_eq!(responses.len(), 1, "{}", E::NAME);
            let out = responses[0].as_cell().unwrap();
            assert_eq!(out.id(), VpiVci::uni(7, 70).unwrap());
            assert_eq!(out.payload, [0x42; 48]);
        }
        check(fixture());
        check(bank(4));
    }

    #[test]
    #[should_panic(expected = "lane 0's egress leaves as responses")]
    fn lane_cells_refuses_the_coupled_lane() {
        let _ = bank(2).lane_cells(0, 0);
    }

    #[test]
    fn idle_clocks_are_skipped_not_evaluated() {
        let mut cosim = fixture();
        // A cell stamped far in the future: the gap must be skipped.
        let stamp = SimTime::from_us(100); // 5000 clocks at 20 ns
        cosim
            .deliver(Message::cell(stamp, MessageTypeId(0), 0, cell(40)))
            .unwrap();
        let responses = cosim.advance_until(SimTime::from_us(200)).unwrap();
        assert_eq!(responses.len(), 1);
        assert!(
            cosim.clocks_skipped() > 4000,
            "skipped only {}",
            cosim.clocks_skipped()
        );
        // Evaluated clocks: roughly the 2x53 transfer clocks plus slack.
        assert!(
            cosim.clocks_evaluated() < 400,
            "evaluated {}",
            cosim.clocks_evaluated()
        );
    }

    #[test]
    fn busy_dut_is_not_skipped() {
        let mut cosim = fixture();
        cosim
            .deliver(Message::cell(SimTime::ZERO, MessageTypeId(0), 0, cell(40)))
            .unwrap();
        // While the cell drains through the switch the DUT is never idle,
        // so no clocks are skipped until the response is out.
        let responses = cosim.advance_until(SimTime::from_us(3)).unwrap();
        assert_eq!(responses.len(), 1);
        assert_eq!(cosim.clocks_skipped(), 0);
    }

    #[test]
    fn time_advances_even_when_fully_idle() {
        let mut cosim = fixture();
        let out = cosim.advance_until(SimTime::from_ms(1)).unwrap();
        assert!(out.is_empty());
        assert_eq!(cosim.now(), SimTime::from_picos(49_999 * 20_000));
        assert_eq!(
            cosim.clocks_evaluated(),
            0,
            "pure idle costs zero evaluations"
        );
    }

    #[test]
    fn unknown_port_and_payload_rejected() {
        let mut cosim = fixture();
        assert!(matches!(
            cosim.deliver(Message::cell(SimTime::ZERO, MessageTypeId(0), 5, cell(40))),
            Err(CastanetError::UnknownPort { port: 5 })
        ));
        let msg = Message {
            stamp: SimTime::ZERO,
            type_id: MessageTypeId(0),
            port: 0,
            payload: MessagePayload::Control(1),
        };
        assert!(matches!(cosim.deliver(msg), Err(CastanetError::Convert(_))));
    }

    #[test]
    fn seeded_lanes_produce_independent_traces() {
        let mut cosim = bank(3);
        for lane in 1..3 {
            for k in 0..lane as u64 {
                cosim
                    .seed_cell(lane, 0, SimTime::from_us(5 * (k + 1)), &cell(40))
                    .unwrap();
            }
        }
        assert!(cosim
            .advance_batch(SimTime::from_us(100))
            .unwrap()
            .is_empty());
        for lane in 1..3 {
            assert_eq!(cosim.lane_cells(1, lane).len(), lane, "lane {lane}");
            for c in cosim.lane_cells(1, lane) {
                assert_eq!(c.id(), VpiVci::uni(7, 70).unwrap());
            }
        }
    }

    #[test]
    fn idle_skip_requires_every_lane_quiet() {
        let mut cosim = bank(2);
        // Far-future stimulus on lane 1 only: the bank still skips the
        // gap (both DUTs idle until then), then evaluates lane 1's cell.
        cosim
            .seed_cell(1, 0, SimTime::from_us(100), &cell(40))
            .unwrap();
        cosim.advance_batch(SimTime::from_us(200)).unwrap();
        assert!(cosim.clocks_skipped() > 4000, "{}", cosim.clocks_skipped());
        assert!(
            cosim.clocks_evaluated() < 400,
            "{}",
            cosim.clocks_evaluated()
        );
        assert_eq!(cosim.lane_cells(1, 1).len(), 1);
    }

    #[test]
    fn preflight_flags_bad_pins_on_both_engines() {
        fn check<E: ClockedEngine>(engine: E) {
            let mut cosim = ClockedCosim::new(engine, CLK, MessageTypeId(9), HeaderFormat::Uni);
            cosim.add_ingress(IngressIndices {
                data: 99,
                sync: 1,
                enable: 2,
            });
            cosim.add_egress(EgressIndices {
                data: 1, // 1-bit sync pin used as the 8-bit data pin
                sync: 4,
                valid: 5,
            });
            let findings = cosim.structural_preflight();
            assert!(
                findings.iter().any(|f| f.starts_with("CAST150")),
                "{findings:?}"
            );
            assert!(
                findings.iter().any(|f| f.starts_with("CAST151")),
                "{findings:?}"
            );
        }
        check(CycleSim::new(Box::new(switch())));
        check(LaneBank::new(vec![Box::new(switch())]));
        assert!(fixture().structural_preflight().is_empty());
        assert!(bank(1).structural_preflight().is_empty());
    }

    /// Cells on every lane and both lines of [`routed_switch`]: bursts of
    /// back-to-back cells on one line, short gaps, and idle gaps longer than
    /// the stimulus buffer's compaction threshold. Each `(lane, port)`
    /// stream is in stamp order.
    fn random_traffic(rng: &mut SmallRng, lanes: usize) -> Vec<(usize, usize, SimTime, AtmCell)> {
        let long_gap = 2 * Stimulus::COMPACT_ROWS as u64;
        let mut traffic = Vec::new();
        for lane in 0..lanes {
            for port in 0..2 {
                let mut clock = rng.random_range(0..100u64);
                for _ in 0..rng.random_range(1..10u64) {
                    clock += match rng.random_range(0..4u64) {
                        0 => 0,
                        1 => rng.random_range(long_gap..4 * long_gap),
                        _ => rng.random_range(1..120u64),
                    };
                    let vci = [40, 41, 99][rng.random_range(0..3usize)];
                    let payload = [rng.random::<u32>() as u8; 48];
                    let cell = AtmCell::user_data(VpiVci::uni(1, vci).unwrap(), payload);
                    let stamp = SimTime::from_picos(clock * CLK.as_picos());
                    traffic.push((lane, port, stamp, cell));
                }
            }
        }
        traffic
    }

    /// The switch with a second route, so both egress lines carry cells.
    fn routed_switch() -> AtmSwitchRtl {
        let mut s = switch();
        assert!(s.install_route(1, 41, 0, 8, 80));
        s
    }

    /// Everything a run's outcome consists of: lane 0's responses, every
    /// other lane's egress traces, and the evaluated/skipped clock counts.
    type Outcome = (Vec<Message>, Vec<Vec<AtmCell>>, u64, u64);

    fn outcome<E: ClockedEngine>(cosim: &ClockedCosim<E>, responses: Vec<Message>) -> Outcome {
        let traces = (1..cosim.lanes())
            .flat_map(|lane| (0..2).map(move |port| (lane, port)))
            .map(|(lane, port)| cosim.lane_cells(port, lane).to_vec())
            .collect();
        (
            responses,
            traces,
            cosim.clocks_evaluated(),
            cosim.clocks_skipped(),
        )
    }

    #[test]
    fn stimulus_buffer_is_invariant_to_advance_granularity_and_forks() {
        fn check<E: ClockedEngine>(make: impl Fn() -> ClockedCosim<E>, rng: &mut SmallRng) {
            let lanes = make().lanes();
            let traffic = random_traffic(rng, lanes);
            let last = traffic.iter().map(|t| t.2).max().unwrap();
            let end = last + SimDuration::from_us(40);
            let seeded = || {
                let mut cosim = make();
                for (lane, port, stamp, cell) in &traffic {
                    cosim.seed_cell(*lane, *port, *stamp, cell).unwrap();
                }
                cosim
            };

            // (a) Everything seeded up front, one sweep to the end.
            let mut whole = seeded();
            let responses = whole.advance_batch(end).unwrap();
            let expected = outcome(&whole, responses);
            assert!(expected.2 > 0, "{}: the traffic must be evaluated", E::NAME);

            // (b) Each cell delivered just before the horizon passes its
            // stamp, the run cut into many small `advance_until` calls.
            let mut order: Vec<_> = traffic.iter().collect();
            order.sort_by_key(|t| t.2);
            let mut pending = order.into_iter().peekable();
            let mut stepped = make();
            let mut responses = Vec::new();
            while stepped.now() + CLK < end {
                let step = SimDuration::from_picos(rng.random_range(2..300u64) * CLK.as_picos());
                let horizon = (stepped.now() + step).min(end);
                while let Some((lane, port, stamp, cell)) = pending.next_if(|t| t.2 < horizon) {
                    stepped.seed_cell(*lane, *port, *stamp, cell).unwrap();
                }
                responses.extend(stepped.advance_until(horizon).unwrap());
            }
            assert!(pending.next().is_none());
            assert_eq!(
                outcome(&stepped, responses),
                expected,
                "{}: stepped",
                E::NAME
            );

            // (c) Forked at a random clock; the fork runs to the end.
            let mut original = seeded();
            let cut = SimTime::from_picos(rng.random_range(0..end.as_picos()));
            let mut responses = original.advance_batch(cut).unwrap();
            let mut fork = original.fork().expect("switch lanes fork");
            let mut fork_responses = responses.clone();
            fork_responses.extend(fork.advance_batch(end).unwrap());
            assert_eq!(
                outcome(&fork, fork_responses),
                expected,
                "{}: fork",
                E::NAME
            );
            responses.extend(original.advance_batch(end).unwrap());
            assert_eq!(
                outcome(&original, responses),
                expected,
                "{}: forked from",
                E::NAME
            );
        }

        for seed in 0..24 {
            let mut rng = SmallRng::seed_from_u64(seed);
            check(|| wire(CycleSim::new(Box::new(routed_switch()))), &mut rng);
            let lanes = rng.random_range(2..=4usize);
            let bank = || {
                let duts = (0..lanes).map(|_| Box::new(routed_switch()) as _).collect();
                wire(LaneBank::new(duts))
            };
            check(bank, &mut rng);
        }
    }

    #[test]
    fn matches_event_driven_follower_output() {
        use crate::coupling::RtlCosim;
        use crate::entity::{CosimEntity, EgressSignals, IngressSignals};
        use castanet_rtl::cycle::attach_cycle_dut;
        use castanet_rtl::sim::Simulator;

        // Same DUT, same three cells, both followers: identical cell
        // sequences must come out.
        let stimuli: Vec<Message> = (0..3)
            .map(|k| {
                Message::cell(
                    SimTime::from_us(5 * (k + 1)),
                    MessageTypeId(0),
                    0,
                    AtmCell::user_data(
                        VpiVci::uni(1, 40).unwrap(),
                        castanet_atm::traffic::source::sequenced_payload(k),
                    ),
                )
            })
            .collect();
        let drain = |f: &mut dyn FnMut() -> Vec<Message>| {
            let mut out = Vec::new();
            loop {
                let r = f();
                if r.is_empty() {
                    break out;
                }
                out.extend(r);
            }
        };

        // Cycle follower.
        let mut cy = fixture();
        for m in &stimuli {
            cy.deliver(m.clone()).unwrap();
        }
        let cy_out = drain(&mut || cy.advance_until(SimTime::from_us(60)).unwrap());

        // Event-driven follower.
        let mut sim = Simulator::new();
        let clk = sim.add_clock("clk", CLK);
        let dut = attach_cycle_dut(&mut sim, "sw", Box::new(switch()), clk);
        let mut entity = CosimEntity::new(CLK, HeaderFormat::Uni, MessageTypeId(9));
        entity.add_ingress(IngressSignals {
            data: dut.inputs[0],
            sync: dut.inputs[1],
            enable: dut.inputs[2],
        });
        entity.add_egress(
            &mut sim,
            clk,
            EgressSignals {
                data: dut.outputs[3],
                sync: dut.outputs[4],
                valid: dut.outputs[5],
            },
        );
        let mut ev = RtlCosim::new(sim, entity);
        for m in &stimuli {
            ev.deliver(m.clone()).unwrap();
        }
        let ev_out = drain(&mut || ev.advance_until(SimTime::from_us(60)).unwrap());

        let cells = |out: &[Message], port: usize| -> Vec<AtmCell> {
            out.iter()
                .filter(|m| m.port == port)
                .filter_map(Message::as_cell)
                .cloned()
                .collect()
        };
        // The entity's single egress is line 1, mapped to port 0.
        assert_eq!(
            cells(&cy_out, 1),
            cells(&ev_out, 0),
            "the two engines must agree cell-for-cell"
        );
        assert_eq!(cy_out.iter().filter_map(Message::as_cell).count(), 3);
    }
}
