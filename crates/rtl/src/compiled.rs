//! Compiled bit-parallel backend: the levelized netlist lowered to a flat
//! word-level evaluation schedule, 64 scenario lanes per instruction.
//!
//! This is the "back half" of the CCSS approach the paper's conclusion
//! points at: [`crate::netlist::NetlistGraph::levelize`] produces a
//! topo-ordered combinational schedule; [`CompiledSchedule::compile`]
//! lowers every process on that schedule into straight-line [`Op`]s over a
//! flat word store, and [`CompiledSim`] evaluates the ops with signal state
//! held *structure-of-arrays*: one [`PackedBit`] word per signal bit, lane
//! `k` of every word belonging to scenario instance `k`. A single pass over
//! the op list therefore advances up to [`LANES`] independent simulations.
//!
//! Unknowns survive batching through a two-plane encoding (`val`/`unk`,
//! see [`PackedBit`]): the bitwise kernels reproduce the IEEE-1164 X01
//! algebra of [`Logic::and`]/[`Logic::or`]/[`Logic::xor`]/[`Logic::not`]
//! exactly, per lane, which the module tests pin against the scalar truth
//! tables.
//!
//! Sequential logic is synchronized between combinational settles: clocked
//! processes lower their writes into *shadow* words, and
//! [`CompiledSim::clock`] runs settle → sequential ops → shadow latch →
//! settle, so every register samples the pre-edge value of its inputs no
//! matter the op order — the delta-race discipline of the event kernel,
//! enforced structurally.
//!
//! Behavioral DUTs that cannot be lowered (the stock switch wrapper is an
//! opaque-to-lowering [`CycleDut`]) batch through [`LaneBank`] instead:
//! up to 64 replicated DUT instances stepped by one clock edge, which the
//! coupling layer drives through the same [`ClockedEngine`] interface as
//! the one-lane cycle engine.

use crate::cycle::{check_inputs, clock_dut, ClockedEngine, CycleDut, PortDecl};
use crate::error::RtlError;
use crate::logic::Logic;
use crate::signal::SignalId;
use crate::sim::Simulator;
use crate::vector::LogicVector;
use castanet_obs::{Counter, Phase, Telemetry, Track};
use std::collections::HashMap;
use std::fmt;

/// Number of scenario instances evaluated per instruction: one per bit of
/// the `u64` lane words.
pub const LANES: usize = 64;

/// One signal bit across [`LANES`] scenario instances, two-plane encoded:
/// lane `k` is `X` when bit `k` of `unk` is set, otherwise `One`/`Zero`
/// per bit `k` of `val`. Invariant: `val & unk == 0`.
///
/// The nine-value IEEE-1164 system collapses to X01 here, exactly as the
/// scalar [`Logic`] operators do internally via [`Logic::to_x01`] — so the
/// packed kernels and the event kernel agree on every operator input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackedBit {
    /// Known-one plane: bit `k` set ⇒ lane `k` is `One`.
    pub val: u64,
    /// Unknown plane: bit `k` set ⇒ lane `k` is `X`.
    pub unk: u64,
}

impl PackedBit {
    /// All lanes `X` — the power-on value of every state word.
    pub const ALL_X: PackedBit = PackedBit { val: 0, unk: !0 };

    /// The same [`Logic`] value in every lane (via X01 collapse).
    #[must_use]
    pub fn splat(value: Logic) -> Self {
        match value.to_x01() {
            Logic::Zero => PackedBit { val: 0, unk: 0 },
            Logic::One => PackedBit { val: !0, unk: 0 },
            _ => PackedBit::ALL_X,
        }
    }

    /// Packs per-lane values (lane `i` from `bits[i]`); lanes past the end
    /// of the slice are `X`. Panics when more than [`LANES`] values are
    /// given.
    #[must_use]
    pub fn pack(bits: &[Logic]) -> Self {
        assert!(bits.len() <= LANES, "at most {LANES} lanes");
        let mut w = PackedBit::ALL_X;
        for (i, &b) in bits.iter().enumerate() {
            w.set_lane(i, b);
        }
        w
    }

    /// The X01 value of lane `lane`.
    #[must_use]
    pub fn lane(self, lane: usize) -> Logic {
        assert!(lane < LANES, "lane out of range");
        if self.unk >> lane & 1 == 1 {
            Logic::X
        } else {
            Logic::from_bool(self.val >> lane & 1 == 1)
        }
    }

    /// Sets lane `lane` to `value` (X01-collapsed), preserving the others.
    pub fn set_lane(&mut self, lane: usize, value: Logic) {
        assert!(lane < LANES, "lane out of range");
        let mask = 1u64 << lane;
        self.val &= !mask;
        self.unk &= !mask;
        match value.to_x01() {
            Logic::One => self.val |= mask,
            Logic::Zero => {}
            _ => self.unk |= mask,
        }
    }

    /// Lane-wise X01 AND, matching [`Logic::and`]: a known `Zero` on
    /// either input dominates an `X` on the other.
    #[must_use]
    pub fn and(self, rhs: Self) -> Self {
        let ones = self.val & rhs.val;
        let zeros = (!self.val & !self.unk) | (!rhs.val & !rhs.unk);
        PackedBit {
            val: ones,
            unk: (self.unk | rhs.unk) & !zeros,
        }
    }

    /// Lane-wise X01 OR, matching [`Logic::or`]: a known `One` dominates.
    #[must_use]
    pub fn or(self, rhs: Self) -> Self {
        let ones = self.val | rhs.val;
        PackedBit {
            val: ones,
            unk: (self.unk | rhs.unk) & !ones,
        }
    }

    /// Lane-wise X01 XOR, matching [`Logic::xor`]: any `X` input makes the
    /// lane `X`.
    #[must_use]
    pub fn xor(self, rhs: Self) -> Self {
        let unk = self.unk | rhs.unk;
        PackedBit {
            val: (self.val ^ rhs.val) & !unk,
            unk,
        }
    }

    /// Lane-wise 2:1 multiplexer: `sel ? a : b`, pessimistic on an unknown
    /// select (the lane goes `X` even when both data inputs agree —
    /// matching a gate-level and/or/not expansion under 1164 rules).
    #[must_use]
    pub fn mux(sel: Self, a: Self, b: Self) -> Self {
        let take_a = sel.val;
        let take_b = !sel.val & !sel.unk;
        PackedBit {
            val: (take_a & a.val) | (take_b & b.val),
            unk: (take_a & a.unk) | (take_b & b.unk) | sel.unk,
        }
    }
}

impl std::ops::Not for PackedBit {
    type Output = Self;

    /// Lane-wise X01 NOT, matching [`Logic::not`].
    fn not(self) -> Self {
        PackedBit {
            val: !self.val & !self.unk,
            unk: self.unk,
        }
    }
}

/// Bit-slices `vectors[i]` into lane `i`: word `j` of the result holds bit
/// `j` of every vector. All vectors must share one width; at most
/// [`LANES`] vectors. Lanes past `vectors.len()` read back `X`.
#[must_use]
pub fn pack_vectors(vectors: &[LogicVector]) -> Vec<PackedBit> {
    assert!(!vectors.is_empty(), "nothing to pack");
    assert!(vectors.len() <= LANES, "at most {LANES} lanes");
    let width = vectors[0].width();
    assert!(
        vectors.iter().all(|v| v.width() == width),
        "pack_vectors: mixed widths"
    );
    let mut words = vec![PackedBit::ALL_X; width];
    for (lane, v) in vectors.iter().enumerate() {
        for (bit, word) in words.iter_mut().enumerate() {
            word.set_lane(lane, v.bit(bit));
        }
    }
    words
}

/// Inverse of [`pack_vectors`]: rebuilds `lanes` per-lane vectors from the
/// bit-sliced words. Values come back X01-collapsed (the packed form keeps
/// no nine-value detail).
#[must_use]
pub fn unpack_vectors(words: &[PackedBit], lanes: usize) -> Vec<LogicVector> {
    assert!(lanes <= LANES, "at most {LANES} lanes");
    (0..lanes)
        .map(|lane| {
            let bits: Vec<Logic> = words.iter().map(|w| w.lane(lane)).collect();
            LogicVector::from_bits(&bits)
        })
        .collect()
}

/// One word-level instruction of a compiled schedule. Operands are indices
/// into the flat [`PackedBit`] store (state words first, then shadow and
/// temporary words).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `dst = value` in every lane.
    Const {
        /// Destination word.
        dst: u32,
        /// Splatted value.
        value: Logic,
    },
    /// `dst = a`.
    Copy {
        /// Destination word.
        dst: u32,
        /// Source word.
        a: u32,
    },
    /// `dst = not a`.
    Not {
        /// Destination word.
        dst: u32,
        /// Source word.
        a: u32,
    },
    /// `dst = a and b`.
    And {
        /// Destination word.
        dst: u32,
        /// Left operand.
        a: u32,
        /// Right operand.
        b: u32,
    },
    /// `dst = a or b`.
    Or {
        /// Destination word.
        dst: u32,
        /// Left operand.
        a: u32,
        /// Right operand.
        b: u32,
    },
    /// `dst = a xor b`.
    Xor {
        /// Destination word.
        dst: u32,
        /// Left operand.
        a: u32,
        /// Right operand.
        b: u32,
    },
    /// `dst = sel ? a : b` (pessimistic on unknown `sel`).
    Mux {
        /// Destination word.
        dst: u32,
        /// Select word.
        sel: u32,
        /// Taken when `sel` is `One`.
        a: u32,
        /// Taken when `sel` is `Zero`.
        b: u32,
    },
}

/// Why a netlist could not be compiled.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompileError {
    /// The combinational subgraph has a cycle — the same condition the
    /// event kernel reports as delta runaway, caught statically here.
    CombinationalLoop {
        /// Labels of the processes on the cycle.
        processes: Vec<String>,
    },
    /// An opaque process (no [`crate::netlist::ProcessIo`]) cannot be
    /// placed on the schedule at all.
    Opaque {
        /// Label of the opaque process.
        process: String,
    },
    /// A combinational process declared its dataflow but did not implement
    /// [`crate::sim::RtlProcess::lower`] — the compiled settle would skip
    /// it and silently diverge, so compilation refuses instead.
    UnloweredCombinational {
        /// Label of the process.
        process: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::CombinationalLoop { processes } => {
                write!(f, "combinational loop through {}", processes.join(" -> "))
            }
            CompileError::Opaque { process } => {
                write!(f, "opaque process {process} cannot be scheduled")
            }
            CompileError::UnloweredCombinational { process } => {
                write!(
                    f,
                    "combinational process {process} does not implement lower()"
                )
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// The lowering context handed to [`crate::sim::RtlProcess::lower`]: word
/// allocation plus op emission for one process.
///
/// Combinational processes write their outputs in place; clocked processes
/// transparently write *shadow* words that [`CompiledSim::clock`] latches
/// into state after all sequential ops ran, so every register reads
/// pre-edge values. A clocked process must therefore assign each output
/// unconditionally — "hold" is expressed as a mux of the old value, not by
/// skipping the write.
#[derive(Debug)]
pub struct LowerCtx<'a> {
    sig_base: &'a [u32],
    sig_width: &'a [usize],
    ops: &'a mut Vec<Op>,
    next_word: &'a mut u32,
    clocked: bool,
    /// `(state_word, shadow_word)` latch pairs, in allocation order.
    latches: &'a mut Vec<(u32, u32)>,
    shadow_map: &'a mut HashMap<u32, u32>,
    temp_words: &'a mut u32,
    shadow_words: &'a mut u32,
}

impl LowerCtx<'_> {
    /// Declared width of `signal` in bits.
    #[must_use]
    pub fn width(&self, signal: SignalId) -> usize {
        self.sig_width[signal.index()]
    }

    /// The state word holding bit `bit` of `signal` — read current values
    /// through this.
    #[must_use]
    pub fn read(&self, signal: SignalId, bit: usize) -> u32 {
        assert!(bit < self.width(signal), "bit out of range for {signal}");
        self.sig_base[signal.index()] + bit as u32
    }

    /// The destination word for bit `bit` of `signal`: the state word
    /// itself for combinational processes, a lazily allocated shadow word
    /// (latched at the clock edge) for clocked ones.
    #[must_use]
    pub fn output(&mut self, signal: SignalId, bit: usize) -> u32 {
        let state = self.read(signal, bit);
        if !self.clocked {
            return state;
        }
        if let Some(&shadow) = self.shadow_map.get(&state) {
            return shadow;
        }
        let shadow = *self.next_word;
        *self.next_word += 1;
        *self.shadow_words += 1;
        self.shadow_map.insert(state, shadow);
        self.latches.push((state, shadow));
        shadow
    }

    /// Allocates a scratch word (valid within this process's ops only by
    /// convention; physically it persists, so don't read before writing).
    #[must_use]
    pub fn temp(&mut self) -> u32 {
        let w = *self.next_word;
        *self.next_word += 1;
        *self.temp_words += 1;
        w
    }

    /// Appends one instruction to the process's op stream.
    pub fn emit(&mut self, op: Op) {
        self.ops.push(op);
    }
}

/// Per-level slice of the combinational op stream.
#[derive(Debug, Clone, Copy)]
struct LevelSpan {
    processes: usize,
    ops_start: usize,
    ops_end: usize,
}

/// A netlist lowered to straight-line word code: the artifact
/// [`CompiledSim`] evaluates and the golden schedule dump pins.
#[derive(Debug, Clone)]
pub struct CompiledSchedule {
    /// Total words in the flat store (state + shadow + temp).
    words: u32,
    state_words: u32,
    shadow_words: u32,
    temp_words: u32,
    sig_base: Vec<u32>,
    sig_width: Vec<usize>,
    sig_name: Vec<String>,
    /// Combinational ops, concatenated in level order.
    comb_ops: Vec<Op>,
    levels: Vec<LevelSpan>,
    /// Sequential ops (all clocked processes, writes to shadow words).
    seq_ops: Vec<Op>,
    /// `(state_word, shadow_word)` pairs latched after the sequential ops.
    latches: Vec<(u32, u32)>,
    /// Labels of clocked processes that did not lower — they must be
    /// batched behaviorally (see [`LaneBank`]) instead.
    behavioral: Vec<String>,
    /// Labels of generator processes (external stimulus under compilation).
    generators: Vec<String>,
    gated_clocks: usize,
}

impl CompiledSchedule {
    /// Lowers the elaborated design of `sim` into word code.
    ///
    /// Every combinational process must implement
    /// [`crate::sim::RtlProcess::lower`]; clocked processes may decline
    /// (they are recorded as behavioral slots), generators are skipped
    /// (stimulus is external under compilation), opaque processes are
    /// rejected.
    pub fn compile(sim: &Simulator) -> Result<Self, CompileError> {
        let net = sim.netlist();
        let lev = net.levelize().map_err(|cycle| {
            let processes = cycle
                .iter()
                .map(|&p| net.processes[p.index()].label(p.index()))
                .collect();
            CompileError::CombinationalLoop { processes }
        })?;
        if let Some(&p) = lev.opaque.first() {
            return Err(CompileError::Opaque {
                process: net.processes[p.index()].label(p.index()),
            });
        }

        // One state word per signal bit, SoA, allocated up front so every
        // SignalId maps to a fixed word range.
        let mut sig_base = Vec::with_capacity(net.signals.len());
        let mut sig_width = Vec::with_capacity(net.signals.len());
        let mut sig_name = Vec::with_capacity(net.signals.len());
        let mut next_word: u32 = 0;
        for s in &net.signals {
            sig_base.push(next_word);
            sig_width.push(s.width);
            sig_name.push(s.name.clone());
            next_word += s.width as u32;
        }
        let state_words = next_word;

        let mut comb_ops = Vec::new();
        let mut seq_ops = Vec::new();
        let mut levels = Vec::new();
        let mut latches = Vec::new();
        let mut shadow_map = HashMap::new();
        let mut temp_words: u32 = 0;
        let mut shadow_words: u32 = 0;
        let mut behavioral = Vec::new();
        let mut generators = Vec::new();

        for level in &lev.levels {
            let ops_start = comb_ops.len();
            for &p in level {
                let mut ctx = LowerCtx {
                    sig_base: &sig_base,
                    sig_width: &sig_width,
                    ops: &mut comb_ops,
                    next_word: &mut next_word,
                    clocked: false,
                    latches: &mut latches,
                    shadow_map: &mut shadow_map,
                    temp_words: &mut temp_words,
                    shadow_words: &mut shadow_words,
                };
                let lowered = sim.process_ref(p).is_some_and(|proc| proc.lower(&mut ctx));
                if !lowered {
                    return Err(CompileError::UnloweredCombinational {
                        process: net.processes[p.index()].label(p.index()),
                    });
                }
            }
            levels.push(LevelSpan {
                processes: level.len(),
                ops_start,
                ops_end: comb_ops.len(),
            });
        }

        for &p in &lev.clocked {
            let mut ctx = LowerCtx {
                sig_base: &sig_base,
                sig_width: &sig_width,
                ops: &mut seq_ops,
                next_word: &mut next_word,
                clocked: true,
                latches: &mut latches,
                shadow_map: &mut shadow_map,
                temp_words: &mut temp_words,
                shadow_words: &mut shadow_words,
            };
            let lowered = sim.process_ref(p).is_some_and(|proc| proc.lower(&mut ctx));
            if !lowered {
                behavioral.push(net.processes[p.index()].label(p.index()));
            }
        }
        for &p in &lev.generators {
            generators.push(net.processes[p.index()].label(p.index()));
        }

        Ok(CompiledSchedule {
            words: next_word,
            state_words,
            shadow_words,
            temp_words,
            sig_base,
            sig_width,
            sig_name,
            comb_ops,
            levels,
            seq_ops,
            latches,
            behavioral,
            generators,
            gated_clocks: net.gated_clocks.len(),
        })
    }

    /// Combinational instruction count (all levels).
    #[must_use]
    pub fn comb_op_count(&self) -> usize {
        self.comb_ops.len()
    }

    /// Sequential instruction count.
    #[must_use]
    pub fn seq_op_count(&self) -> usize {
        self.seq_ops.len()
    }

    /// Number of combinational levels.
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Labels of clocked processes the schedule could not lower.
    #[must_use]
    pub fn behavioral_slots(&self) -> &[String] {
        &self.behavioral
    }

    /// `true` when every process is lowered (no behavioral slots): the
    /// netlist is fully evaluable by [`CompiledSim`] alone.
    #[must_use]
    pub fn fully_lowered(&self) -> bool {
        self.behavioral.is_empty()
    }

    /// Human-readable schedule summary: word budget, per-level op counts,
    /// sequential/latch counts and behavioral slots. Pinned as a golden
    /// file for the stock switch so schedule drift is reviewed, not silent.
    #[must_use]
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "compiled schedule");
        let _ = writeln!(
            out,
            "words: {} state + {} shadow + {} temp = {} total",
            self.state_words, self.shadow_words, self.temp_words, self.words
        );
        let _ = writeln!(
            out,
            "signals: {} ({} bits)",
            self.sig_name.len(),
            self.state_words
        );
        let _ = writeln!(
            out,
            "comb levels: {} ({} ops)",
            self.levels.len(),
            self.comb_ops.len()
        );
        for (i, l) in self.levels.iter().enumerate() {
            let _ = writeln!(
                out,
                "  level {i}: {} processes, {} ops",
                l.processes,
                l.ops_end - l.ops_start
            );
        }
        let _ = writeln!(
            out,
            "seq ops: {} ({} latches)",
            self.seq_ops.len(),
            self.latches.len()
        );
        let _ = writeln!(out, "behavioral clocked: {}", self.behavioral.len());
        for label in &self.behavioral {
            let _ = writeln!(out, "  {label}");
        }
        let _ = writeln!(out, "generators (external): {}", self.generators.len());
        for label in &self.generators {
            let _ = writeln!(out, "  {label}");
        }
        let _ = writeln!(out, "gated clocks: {}", self.gated_clocks);
        out
    }

    fn width_of(&self, signal: SignalId) -> usize {
        self.sig_width[signal.index()]
    }

    fn word_of(&self, signal: SignalId, bit: usize) -> usize {
        (self.sig_base[signal.index()] + bit as u32) as usize
    }
}

fn eval(ops: &[Op], state: &mut [PackedBit]) {
    for &op in ops {
        match op {
            Op::Const { dst, value } => state[dst as usize] = PackedBit::splat(value),
            Op::Copy { dst, a } => state[dst as usize] = state[a as usize],
            Op::Not { dst, a } => state[dst as usize] = !state[a as usize],
            Op::And { dst, a, b } => {
                state[dst as usize] = state[a as usize].and(state[b as usize]);
            }
            Op::Or { dst, a, b } => {
                state[dst as usize] = state[a as usize].or(state[b as usize]);
            }
            Op::Xor { dst, a, b } => {
                state[dst as usize] = state[a as usize].xor(state[b as usize]);
            }
            Op::Mux { dst, sel, a, b } => {
                state[dst as usize] =
                    PackedBit::mux(state[sel as usize], state[a as usize], state[b as usize]);
            }
        }
    }
}

/// Evaluates a fully lowered [`CompiledSchedule`] over up to [`LANES`]
/// independent scenario instances at once.
///
/// All state powers on `X` in every lane — including lanes beyond the
/// requested count, which simply stay `X` forever; the kernels need no
/// lane masking.
#[derive(Debug)]
pub struct CompiledSim {
    schedule: CompiledSchedule,
    state: Vec<PackedBit>,
    lanes: usize,
    cycles: u64,
    /// Full schedule sweeps (`compiled.schedule_evals`).
    obs_schedule_evals: Counter,
    tel: Telemetry,
}

impl CompiledSim {
    /// Builds an evaluator with `lanes` active instances (1..=[`LANES`]).
    /// Panics when the schedule still has behavioral clocked slots — those
    /// netlists batch through [`LaneBank`] instead.
    #[must_use]
    pub fn new(schedule: CompiledSchedule, lanes: usize) -> Self {
        assert!(
            (1..=LANES).contains(&lanes),
            "lanes must be 1..={LANES}, got {lanes}"
        );
        assert!(
            schedule.fully_lowered(),
            "schedule has behavioral clocked slots: {:?}",
            schedule.behavioral_slots()
        );
        let words = schedule.words as usize;
        CompiledSim {
            schedule,
            state: vec![PackedBit::ALL_X; words],
            lanes,
            cycles: 0,
            obs_schedule_evals: Counter::default(),
            tel: Telemetry::default(),
        }
    }

    /// Attaches a telemetry handle: registers `compiled.schedule_evals`
    /// and enables the sampled `compiled.schedule_eval` micro-phase around
    /// each clock edge.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.obs_schedule_evals = tel.counter("compiled.schedule_evals");
        self.tel = tel.clone();
    }

    /// Active lane count.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Clock edges executed so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The compiled schedule being evaluated.
    #[must_use]
    pub fn schedule(&self) -> &CompiledSchedule {
        &self.schedule
    }

    /// Overwrites `signal` in lane `lane` with `value` (call
    /// [`CompiledSim::settle`] afterwards to propagate).
    pub fn poke(
        &mut self,
        signal: SignalId,
        lane: usize,
        value: &LogicVector,
    ) -> Result<(), RtlError> {
        assert!(lane < self.lanes, "lane out of range");
        let width = self.schedule.width_of(signal);
        if value.width() != width {
            return Err(RtlError::WidthMismatch {
                expected: width,
                got: value.width(),
            });
        }
        for bit in 0..width {
            let w = self.schedule.word_of(signal, bit);
            self.state[w].set_lane(lane, value.bit(bit));
        }
        Ok(())
    }

    /// Overwrites `signal` with `value` in every active lane. One splat
    /// per bit instead of a per-lane loop, so driving a shared stimulus
    /// (a clock, a common input) costs O(width), not O(width × lanes);
    /// lanes beyond the active count keep reading `X`.
    pub fn poke_all_lanes(
        &mut self,
        signal: SignalId,
        value: &LogicVector,
    ) -> Result<(), RtlError> {
        let width = self.schedule.width_of(signal);
        if value.width() != width {
            return Err(RtlError::WidthMismatch {
                expected: width,
                got: value.width(),
            });
        }
        let active = if self.lanes == LANES {
            !0u64
        } else {
            (1u64 << self.lanes) - 1
        };
        for bit in 0..width {
            let mut word = PackedBit::splat(value.bit(bit));
            word.val &= active;
            word.unk |= !active;
            self.state[self.schedule.word_of(signal, bit)] = word;
        }
        Ok(())
    }

    /// Reads `signal` in lane `lane` (X01-collapsed).
    #[must_use]
    pub fn read(&self, signal: SignalId, lane: usize) -> LogicVector {
        let width = self.schedule.width_of(signal);
        let bits: Vec<Logic> = (0..width)
            .map(|bit| self.state[self.schedule.word_of(signal, bit)].lane(lane))
            .collect();
        LogicVector::from_bits(&bits)
    }

    /// Reads bit 0 of `signal` in lane `lane`.
    #[must_use]
    pub fn read_bit(&self, signal: SignalId, lane: usize) -> Logic {
        self.state[self.schedule.word_of(signal, 0)].lane(lane)
    }

    /// Reads `signal` in lane `lane` as an integer; `None` when any bit is
    /// unknown.
    #[must_use]
    pub fn read_u64(&self, signal: SignalId, lane: usize) -> Option<u64> {
        self.read(signal, lane).to_u64()
    }

    /// Runs the combinational schedule to its fixpoint (one pass — the
    /// levelization guarantees a single level-ordered sweep settles).
    pub fn settle(&mut self) {
        eval(&self.schedule.comb_ops, &mut self.state);
    }

    /// One clock edge, every lane: settle the combinational cones, run the
    /// sequential ops against pre-edge state (writes land in shadow
    /// words), latch the shadows, settle again.
    pub fn clock(&mut self) {
        let sampled = self.tel.micro_gate();
        let mark = if sampled { self.tel.now_ns() } else { 0 };
        self.settle();
        eval(&self.schedule.seq_ops, &mut self.state);
        for &(state_word, shadow_word) in &self.schedule.latches {
            self.state[state_word as usize] = self.state[shadow_word as usize];
        }
        self.settle();
        self.cycles += 1;
        self.obs_schedule_evals.inc();
        if sampled {
            self.tel.record_phase(
                Track::Follower,
                self.cycles,
                Phase::CompiledScheduleEval,
                mark,
            );
        }
    }
}

/// Up to [`LANES`] replicated behavioral [`CycleDut`] instances stepped by
/// one clock edge: the batching fallback for DUTs that cannot be lowered
/// to word code (the stock switch wrapper). Behavioral DUTs read and write
/// integers, so each lane steps on its own input words and writes its
/// output words straight into its lane-major slice of the bank's output
/// buffer, which [`ClockedEngine::lane_outputs`] reads.
pub struct LaneBank {
    duts: Vec<Box<dyn CycleDut>>,
    in_ports: Vec<PortDecl>,
    out_ports: Vec<PortDecl>,
    cycles: u64,
    /// Every lane's output words after the latest edge, lane-major.
    outputs: Vec<u64>,
    /// Telemetry handle for the sampled pack/eval micro-phases.
    tel: Telemetry,
    /// `compiled.fallback_evals` — behavioral bank clock edges.
    fallback_evals: Counter,
}

impl fmt::Debug for LaneBank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LaneBank")
            .field("lanes", &self.duts.len())
            .field("in_ports", &self.in_ports)
            .field("out_ports", &self.out_ports)
            .field("cycles", &self.cycles)
            .finish_non_exhaustive()
    }
}

impl LaneBank {
    /// Builds a bank from one DUT instance per lane. All instances must
    /// declare identical port lists. Instances are taken as configured —
    /// they are *not* reset, matching [`crate::cycle::CycleSim::new`], so
    /// pre-installed state (routing tables, …) survives banking. Panics on
    /// an empty bank, more than [`LANES`] instances, or mismatched ports.
    #[must_use]
    pub fn new(duts: Vec<Box<dyn CycleDut>>) -> Self {
        assert!(!duts.is_empty(), "lane bank needs at least one DUT");
        assert!(duts.len() <= LANES, "at most {LANES} lanes");
        let in_ports = duts[0].input_ports();
        let out_ports = duts[0].output_ports();
        for d in &duts[1..] {
            assert!(
                d.input_ports() == in_ports && d.output_ports() == out_ports,
                "lane bank DUTs must declare identical ports"
            );
        }
        LaneBank {
            outputs: vec![0; duts.len() * out_ports.len()],
            duts,
            in_ports,
            out_ports,
            cycles: 0,
            tel: Telemetry::disabled(),
            fallback_evals: Counter::default(),
        }
    }

    /// Forks the bank: every lane's DUT is duplicated via
    /// [`CycleDut::fork_dut`] and the outputs and cycle count are copied,
    /// so the fork replays identically from this point. Returns `None`
    /// when any lane's DUT does not support forking.
    #[must_use]
    pub fn fork(&self) -> Option<Self> {
        let mut duts = Vec::with_capacity(self.duts.len());
        for d in &self.duts {
            duts.push(d.fork_dut()?);
        }
        Some(LaneBank {
            duts,
            in_ports: self.in_ports.clone(),
            out_ports: self.out_ports.clone(),
            cycles: self.cycles,
            outputs: self.outputs.clone(),
            tel: self.tel.clone(),
            fallback_evals: self.fallback_evals.clone(),
        })
    }

    /// Lane `lane`'s DUT instance.
    #[must_use]
    pub fn dut(&self, lane: usize) -> &dyn CycleDut {
        self.duts[lane].as_ref()
    }

    /// Mutable access to lane `lane`'s DUT instance.
    pub fn dut_mut(&mut self, lane: usize) -> &mut dyn CycleDut {
        self.duts[lane].as_mut()
    }
}

impl ClockedEngine for LaneBank {
    const NAME: &'static str = "compiled";

    fn lanes(&self) -> usize {
        self.duts.len()
    }

    fn input_ports(&self) -> &[PortDecl] {
        &self.in_ports
    }

    fn output_ports(&self) -> &[PortDecl] {
        &self.out_ports
    }

    /// Every lane's DUT reports idle — the bank-wide gated-clock park
    /// condition.
    fn idle(&self) -> bool {
        self.duts.iter().all(|d| d.is_idle())
    }

    fn cycles(&self) -> u64 {
        self.cycles
    }

    /// One sampling decision covers the edge's two micro-phases — pack
    /// (check every lane's input words against the ports) and the
    /// behavioral fallback evaluation, in which each lane writes its
    /// outputs straight into its lane-major slice. A rejected edge steps
    /// no lane.
    fn edge(&mut self, inputs: &[u64], t_ps: u64) -> Result<(), RtlError> {
        let sampled = self.tel.micro_gate();
        let mut mark = if sampled { self.tel.now_ns() } else { 0 };
        check_inputs(&self.in_ports, self.duts.len(), inputs)?;
        if sampled {
            mark = self
                .tel
                .record_phase(Track::Follower, t_ps, Phase::CompiledPack, mark);
        }
        let (n, m) = (self.in_ports.len(), self.out_ports.len());
        for (lane, dut) in self.duts.iter_mut().enumerate() {
            clock_dut(
                dut.as_mut(),
                &self.out_ports,
                &inputs[lane * n..][..n],
                &mut self.outputs[lane * m..][..m],
            );
        }
        self.cycles += 1;
        self.fallback_evals.inc();
        if sampled {
            self.tel
                .record_phase(Track::Follower, t_ps, Phase::CompiledFallbackEval, mark);
        }
        Ok(())
    }

    fn lane_outputs(&self, lane: usize) -> &[u64] {
        let m = self.out_ports.len();
        &self.outputs[lane * m..(lane + 1) * m]
    }

    fn fork(&self) -> Option<Self> {
        LaneBank::fork(self)
    }

    fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = tel.clone();
        self.fallback_evals = tel.counter("compiled.fallback_evals");
    }
}

/// Lowerable reference gates: small [`crate::sim::RtlProcess`]es whose
/// `run` (event-kernel) and `lower` (compiled) implementations are written
/// against the same X01 semantics, used by the differential property tests
/// and the `e11_compiled` benchmark.
pub mod gates {
    use super::{LowerCtx, Op};
    use crate::logic::Logic;
    use crate::netlist::ProcessIo;
    use crate::signal::SignalId;
    use crate::sim::{RtlCtx, RtlProcess};

    /// Combinational bitwise inverter: `y = not a` (equal widths).
    #[derive(Debug)]
    pub struct Inv {
        name: String,
        /// Input.
        pub a: SignalId,
        /// Output.
        pub y: SignalId,
    }

    impl Inv {
        /// New inverter `y = not a`.
        #[must_use]
        pub fn new(name: impl Into<String>, a: SignalId, y: SignalId) -> Self {
            Inv {
                name: name.into(),
                a,
                y,
            }
        }
    }

    impl RtlProcess for Inv {
        fn run(&mut self, ctx: &mut RtlCtx) {
            let v = ctx.read(self.a).clone();
            let bits: Vec<Logic> = v.iter().map(Logic::not).collect();
            ctx.assign(self.y, crate::vector::LogicVector::from_bits(&bits));
        }

        fn io(&self) -> Option<ProcessIo> {
            Some(
                ProcessIo::combinational(self.name.clone())
                    .reads([self.a])
                    .writes([self.y]),
            )
        }

        fn lower(&self, ctx: &mut LowerCtx) -> bool {
            for bit in 0..ctx.width(self.a) {
                let a = ctx.read(self.a, bit);
                let dst = ctx.output(self.y, bit);
                ctx.emit(Op::Not { dst, a });
            }
            true
        }
    }

    /// Registered inverter: `q <= not d` on the rising edge of `clk`.
    /// The unit stage of the `e11_compiled` benchmark pipeline.
    #[derive(Debug)]
    pub struct InvReg {
        name: String,
        /// Clock.
        pub clk: SignalId,
        /// Data input (sampled pre-edge).
        pub d: SignalId,
        /// Registered output.
        pub q: SignalId,
    }

    impl InvReg {
        /// New register `q <= not d @ posedge clk`.
        #[must_use]
        pub fn new(name: impl Into<String>, clk: SignalId, d: SignalId, q: SignalId) -> Self {
            InvReg {
                name: name.into(),
                clk,
                d,
                q,
            }
        }
    }

    impl RtlProcess for InvReg {
        fn run(&mut self, ctx: &mut RtlCtx) {
            if !ctx.rising(self.clk) {
                return;
            }
            let v = ctx.read(self.d).clone();
            let bits: Vec<Logic> = v.iter().map(Logic::not).collect();
            ctx.assign(self.q, crate::vector::LogicVector::from_bits(&bits));
        }

        fn io(&self) -> Option<ProcessIo> {
            Some(
                ProcessIo::clocked(self.name.clone(), self.clk)
                    .reads([self.clk, self.d])
                    .writes([self.q]),
            )
        }

        fn lower(&self, ctx: &mut LowerCtx) -> bool {
            for bit in 0..ctx.width(self.d) {
                let a = ctx.read(self.d, bit);
                let dst = ctx.output(self.q, bit);
                ctx.emit(Op::Not { dst, a });
            }
            true
        }
    }

    /// Combinational XOR reduction of 1-bit inputs: `y = a0 ^ a1 ^ ...`,
    /// X-propagating (any unknown input makes `y` unknown), exactly as a
    /// fold of [`Logic::xor`] behaves in the event kernel.
    #[derive(Debug)]
    pub struct XorReduce {
        name: String,
        /// 1-bit inputs.
        pub inputs: Vec<SignalId>,
        /// 1-bit output.
        pub y: SignalId,
    }

    impl XorReduce {
        /// New reduction `y = inputs[0] ^ inputs[1] ^ ...`.
        #[must_use]
        pub fn new(name: impl Into<String>, inputs: Vec<SignalId>, y: SignalId) -> Self {
            assert!(!inputs.is_empty(), "xor reduction needs inputs");
            XorReduce {
                name: name.into(),
                inputs,
                y,
            }
        }
    }

    impl RtlProcess for XorReduce {
        fn run(&mut self, ctx: &mut RtlCtx) {
            let mut acc = ctx.read_bit(self.inputs[0]);
            for &s in &self.inputs[1..] {
                acc = acc.xor(ctx.read_bit(s));
            }
            ctx.assign_bit(self.y, acc);
        }

        fn io(&self) -> Option<ProcessIo> {
            Some(
                ProcessIo::combinational(self.name.clone())
                    .reads(self.inputs.iter().copied())
                    .writes([self.y]),
            )
        }

        fn lower(&self, ctx: &mut LowerCtx) -> bool {
            let dst = ctx.output(self.y, 0);
            let mut acc = ctx.read(self.inputs[0], 0);
            for (i, &s) in self.inputs.iter().enumerate().skip(1) {
                let b = ctx.read(s, 0);
                let next = if i + 1 == self.inputs.len() {
                    dst
                } else {
                    ctx.temp()
                };
                ctx.emit(Op::Xor {
                    dst: next,
                    a: acc,
                    b,
                });
                acc = next;
            }
            if self.inputs.len() == 1 {
                ctx.emit(Op::Copy { dst, a: acc });
            }
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::gates::{Inv, InvReg, XorReduce};
    use super::*;
    use crate::cycle::CycleDut;
    use crate::logic::Logic;
    use crate::sim::Simulator;
    use castanet_netsim::time::SimTime;

    /// The packed kernels must match the scalar `Logic` operators on every
    /// X01 input pair — the X-propagation divergence class, exhaustively.
    #[test]
    fn packed_kernels_match_scalar_logic_truth_tables() {
        let domain = [Logic::Zero, Logic::One, Logic::X];
        for &a in &domain {
            let pa = PackedBit::splat(a);
            assert_eq!((!pa).lane(0), a.not(), "not {a:?}");
            assert_eq!((!pa).lane(63), a.not(), "not {a:?} lane 63");
            for &b in &domain {
                let pb = PackedBit::splat(b);
                assert_eq!(pa.and(pb).lane(7), a.and(b), "{a:?} and {b:?}");
                assert_eq!(pa.or(pb).lane(7), a.or(b), "{a:?} or {b:?}");
                assert_eq!(pa.xor(pb).lane(7), a.xor(b), "{a:?} xor {b:?}");
            }
        }
    }

    /// The full nine-value system collapses through the packed form the
    /// same way `Logic::to_x01` does.
    #[test]
    fn packing_collapses_nine_values_to_x01() {
        for &v in &Logic::ALL {
            let mut w = PackedBit::ALL_X;
            w.set_lane(13, v);
            assert_eq!(w.lane(13), v.to_x01().to_x01(), "{v:?}");
            assert_eq!(w.lane(12), Logic::X, "neighbour untouched");
        }
    }

    #[test]
    fn kernels_preserve_the_val_unk_invariant() {
        let domain = [Logic::Zero, Logic::One, Logic::X];
        let ok = |w: PackedBit| w.val & w.unk == 0;
        for &a in &domain {
            for &b in &domain {
                for &s in &domain {
                    let (pa, pb, ps) = (
                        PackedBit::splat(a),
                        PackedBit::splat(b),
                        PackedBit::splat(s),
                    );
                    assert!(ok(!pa));
                    assert!(ok(pa.and(pb)));
                    assert!(ok(pa.or(pb)));
                    assert!(ok(pa.xor(pb)));
                    assert!(ok(PackedBit::mux(ps, pa, pb)));
                }
            }
        }
    }

    #[test]
    fn mux_is_pessimistic_on_unknown_select() {
        let one = PackedBit::splat(Logic::One);
        let sel_x = PackedBit::splat(Logic::X);
        // Both inputs agree, but an unknown select still yields X.
        assert_eq!(PackedBit::mux(sel_x, one, one).lane(0), Logic::X);
        assert_eq!(
            PackedBit::mux(
                PackedBit::splat(Logic::One),
                one,
                PackedBit::splat(Logic::Zero)
            )
            .lane(0),
            Logic::One
        );
    }

    #[test]
    fn pack_unpack_round_trips_vectors() {
        let vecs: Vec<LogicVector> = (0..5)
            .map(|i| LogicVector::from_u64(0x1B * (i + 1), 9))
            .collect();
        let words = pack_vectors(&vecs);
        assert_eq!(words.len(), 9);
        let back = unpack_vectors(&words, 5);
        assert_eq!(back, vecs);
        // Lanes past the packed count are X.
        assert!(unpack_vectors(&words, 6)[5].iter().all(|b| b == Logic::X));
    }

    fn two_level_fixture() -> (Simulator, SignalId, SignalId, SignalId, SignalId) {
        // a -> inv -> m;  (m, b) -> xor -> y   — two combinational levels.
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let b = sim.add_signal("b", 1);
        let m = sim.add_signal("m", 1);
        let y = sim.add_signal("y", 1);
        sim.mark_external_input(a);
        sim.mark_external_input(b);
        sim.mark_external_output(y);
        sim.add_process(Box::new(Inv::new("inv", a, m)), &[a]);
        sim.add_process(Box::new(XorReduce::new("xor", vec![m, b], y)), &[m, b]);
        (sim, a, b, m, y)
    }

    /// The delta-race divergence class: a two-level cone where level 1
    /// reads a level-0 output. The compiled sweep must order the inverter
    /// before the xor and reach the same fixpoint the event kernel settles
    /// to through delta cycles.
    #[test]
    fn two_level_cone_matches_event_kernel_fixpoint() {
        let (mut sim, a, b, _m, y) = two_level_fixture();
        let schedule = CompiledSchedule::compile(&sim).expect("compiles");
        assert_eq!(schedule.level_count(), 2);
        let mut csim = CompiledSim::new(schedule, 4);

        let cases = [
            (Logic::Zero, Logic::Zero),
            (Logic::Zero, Logic::One),
            (Logic::One, Logic::Zero),
            (Logic::One, Logic::X),
        ];
        for (lane, &(va, vb)) in cases.iter().enumerate() {
            csim.poke(a, lane, &LogicVector::from(va)).unwrap();
            csim.poke(b, lane, &LogicVector::from(vb)).unwrap();
        }
        csim.settle();

        for (lane, &(va, vb)) in cases.iter().enumerate() {
            let t = SimTime::from_ns(10 * (lane as u64 + 1));
            sim.poke_bit(a, va, t).unwrap();
            sim.poke_bit(b, vb, t).unwrap();
            sim.run_until(SimTime::from_ns(10 * (lane as u64 + 1) + 1))
                .unwrap();
            assert_eq!(
                csim.read_bit(y, lane),
                sim.read_bit(y).to_x01(),
                "lane {lane}: a={va:?} b={vb:?}"
            );
        }
    }

    /// Sequential sync: a register chain must sample pre-edge values —
    /// after one clock, stage k+1 holds what stage k held *before* the
    /// edge, regardless of op order. X from power-on must march through.
    #[test]
    fn register_pipeline_latches_pre_edge_state() {
        let mut sim = Simulator::new();
        let clk = sim.add_signal("clk", 1);
        sim.mark_external_input(clk);
        let d = sim.add_signal("d", 1);
        sim.mark_external_input(d);
        let q1 = sim.add_signal("q1", 1);
        let q2 = sim.add_signal("q2", 1);
        sim.add_process_rising(Box::new(InvReg::new("r1", clk, d, q1)), &[clk], &[]);
        sim.add_process_rising(Box::new(InvReg::new("r2", clk, q1, q2)), &[clk], &[]);

        let schedule = CompiledSchedule::compile(&sim).expect("compiles");
        assert!(schedule.fully_lowered());
        let mut csim = CompiledSim::new(schedule, 2);

        csim.poke(d, 0, &LogicVector::from(Logic::One)).unwrap();
        csim.poke(d, 1, &LogicVector::from(Logic::Zero)).unwrap();
        // Edge 1: q1 <= not d; q2 <= not q1(old) = not X = X.
        csim.clock();
        assert_eq!(csim.read_bit(q1, 0), Logic::Zero);
        assert_eq!(csim.read_bit(q1, 1), Logic::One);
        assert_eq!(csim.read_bit(q2, 0), Logic::X, "pre-edge q1 was X");
        // Edge 2: q2 <= not q1(pre-edge).
        csim.clock();
        assert_eq!(csim.read_bit(q2, 0), Logic::One);
        assert_eq!(csim.read_bit(q2, 1), Logic::Zero);
        assert_eq!(csim.cycles(), 2);
    }

    /// Telemetry on the schedule engine: every clock edge counts one
    /// `compiled.schedule_evals`, and with enough edges the 1-in-N micro
    /// sampler records at least one `compiled.schedule_eval` phase span.
    #[test]
    fn schedule_evals_are_counted_and_phase_sampled() {
        let mut sim = Simulator::new();
        let clk = sim.add_signal("clk", 1);
        sim.mark_external_input(clk);
        let d = sim.add_signal("d", 1);
        sim.mark_external_input(d);
        let q = sim.add_signal("q", 1);
        sim.add_process_rising(Box::new(InvReg::new("r", clk, d, q)), &[clk], &[]);
        let schedule = CompiledSchedule::compile(&sim).expect("compiles");
        let mut csim = CompiledSim::new(schedule, 2);

        let tel = Telemetry::enabled();
        csim.set_telemetry(&tel);
        let edges = 4 * castanet_obs::MICRO_SAMPLE_STRIDE;
        for _ in 0..edges {
            csim.clock();
        }
        assert_eq!(
            tel.metrics_snapshot().counter("compiled.schedule_evals"),
            Some(edges)
        );
        let sampled = tel
            .events()
            .iter()
            .filter(|e| e.kind.name() == Phase::CompiledScheduleEval.name())
            .count() as u64;
        assert!(
            sampled > 0 && sampled <= edges.div_ceil(castanet_obs::MICRO_SAMPLE_STRIDE),
            "expected ~1-in-{} sampling of {edges} edges, saw {sampled}",
            castanet_obs::MICRO_SAMPLE_STRIDE
        );
    }

    #[test]
    fn unlowered_combinational_is_rejected() {
        struct Plain {
            a: SignalId,
            y: SignalId,
        }
        impl crate::sim::RtlProcess for Plain {
            fn run(&mut self, ctx: &mut crate::sim::RtlCtx) {
                let v = ctx.read_bit(self.a).not();
                ctx.assign_bit(self.y, v);
            }
            fn io(&self) -> Option<crate::netlist::ProcessIo> {
                Some(
                    crate::netlist::ProcessIo::combinational("plain")
                        .reads([self.a])
                        .writes([self.y]),
                )
            }
        }
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        sim.mark_external_input(a);
        let y = sim.add_signal("y", 1);
        sim.mark_external_output(y);
        sim.add_process(Box::new(Plain { a, y }), &[a]);
        match CompiledSchedule::compile(&sim) {
            Err(CompileError::UnloweredCombinational { process }) => {
                assert_eq!(process, "plain");
            }
            other => panic!("expected UnloweredCombinational, got {other:?}"),
        }
    }

    /// A tiny behavioral DUT for the lane-bank tests: one-cycle-delayed
    /// accumulator of a 4-bit input.
    #[derive(Debug, Default)]
    struct Accum {
        total: u64,
    }
    impl CycleDut for Accum {
        fn input_ports(&self) -> Vec<PortDecl> {
            vec![PortDecl::new("din", 4)]
        }
        fn output_ports(&self) -> Vec<PortDecl> {
            vec![PortDecl::new("sum", 16)]
        }
        fn reset(&mut self) {
            self.total = 0;
        }
        fn clock_edge(&mut self, inputs: &[u64], outputs: &mut [u64]) {
            self.total = (self.total + inputs[0]) & 0xFFFF;
            outputs[0] = self.total;
        }
        fn is_idle(&self) -> bool {
            true
        }
    }

    #[test]
    fn lane_bank_keeps_lanes_independent() {
        let duts: Vec<Box<dyn CycleDut>> =
            (0..8).map(|_| Box::new(Accum::default()) as _).collect();
        let mut bank = LaneBank::new(duts);
        assert_eq!(bank.lanes(), 8);
        assert!(bank.idle());
        let inputs: Vec<u64> = (1..=8).collect();
        for clockno in 1..=3u64 {
            bank.edge(&inputs, clockno).unwrap();
            for lane in 0..8u64 {
                assert_eq!(bank.lane_outputs(lane as usize), [clockno * (lane + 1)]);
            }
        }
        assert_eq!(bank.cycles(), 3);
    }

    #[test]
    fn both_engines_reject_input_words_that_do_not_fit() {
        use crate::cycle::CycleSim;
        fn check<E: ClockedEngine>(mut engine: E, fits: &[u64], too_wide: &[u64]) {
            assert!(
                matches!(
                    engine.edge(too_wide, 0),
                    Err(RtlError::WidthMismatch {
                        expected: 4,
                        got: 5
                    })
                ),
                "{}",
                E::NAME
            );
            let short = &fits[..fits.len() - 1];
            assert!(
                matches!(
                    engine.edge(short, 0),
                    Err(RtlError::PortCountMismatch { .. })
                ),
                "{}",
                E::NAME
            );
            // A rejected edge steps no lane.
            assert_eq!(engine.cycles(), 0, "{}", E::NAME);
            engine.edge(fits, 0).unwrap();
            assert_eq!(engine.cycles(), 1, "{}", E::NAME);
        }
        check(CycleSim::new(Box::new(Accum::default())), &[0xF], &[0x10]);
        let duts: Vec<Box<dyn CycleDut>> =
            (0..2).map(|_| Box::new(Accum::default()) as _).collect();
        check(LaneBank::new(duts), &[0xF, 0xF], &[0xF, 0x10]);
    }

    #[test]
    #[should_panic(expected = "identical ports")]
    fn lane_bank_rejects_mismatched_ports() {
        #[derive(Debug)]
        struct Other;
        impl CycleDut for Other {
            fn input_ports(&self) -> Vec<PortDecl> {
                vec![PortDecl::new("x", 2)]
            }
            fn output_ports(&self) -> Vec<PortDecl> {
                vec![PortDecl::new("y", 2)]
            }
            fn reset(&mut self) {}
            fn clock_edge(&mut self, _inputs: &[u64], outputs: &mut [u64]) {
                outputs[0] = 0;
            }
        }
        let _ = LaneBank::new(vec![Box::new(Accum::default()), Box::new(Other)]);
    }
}
