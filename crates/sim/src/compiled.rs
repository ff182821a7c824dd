//! The compiled simulation kernel: a one-time lowering of a [`Netlist`]
//! into a dense, index-addressed program.
//!
//! The interpreter in [`engine`](crate::engine) resolves `BTreeMap`-keyed
//! control words, policy fallbacks and component dispatch on every step.
//! All of that work is a pure function of the step-in-period and the
//! control history — never of the data — so the kernel does it once, at
//! compile time:
//!
//! - **Levelized instruction stream.** The topological combinational order
//!   is flattened into a flat `Vec<Instr>` of `Copy` (mux with its select
//!   resolved to a constant source net) and `Alu` instructions carrying
//!   flat operand/output net indices, the concrete [`Op`] to apply and the
//!   precomputed function-select toggle contribution.
//! - **Periodic control precomputation.** The controller word of step `t`
//!   repeats with the schedule period, and under latched control lines
//!   ([`ControlPolicy::Hold`]) the *effective* control values become
//!   periodic after one warm-up period. The compiler replays the control
//!   automaton through the reset preload and two periods, emitting a
//!   *cold* step program per step of the first period (computation 0) and
//!   a *warm* program for every later period — each with its
//!   control-toggle count folded into a single precomputed integer.
//! - **Slot indexing.** Port bindings, memory activation lists
//!   (clock-pulse and capture lists filtered by phase and load enable) and
//!   ALU history live in dense arrays indexed by component position; the
//!   step loop performs no map lookups and no heap allocation (the capture
//!   buffer is reused, and per-step profiles are derived from running
//!   totals instead of re-summing counters).
//!
//! - **Quiet-instruction pruning.** A DPM's muxes and ALUs hold their
//!   operands outside their own phase, so most steps re-issue the very
//!   instruction the previous step ran, over operands that have not
//!   changed. After lowering both periods the compiler drops every
//!   instruction that (a) equals the instruction for the same component
//!   in *each* step that can run immediately before it and (b) reads no
//!   net that may have changed since. The predecessors are cold step
//!   `t − 1` for cold step `t`; cold step `period` *and* warm step
//!   `period` for warm step 1; warm step `t − 1` for warm step `t`. Cold
//!   step 1 follows the silent reset settle and is kept whole. A net may
//!   have changed when it is an input port on the boundary step, the
//!   output of any predecessor's capture, or the output of an
//!   instruction kept earlier in the same step.
//!
//!   *Why this is exact.* Every net has one driver and the combinational
//!   order is topological, so between a predecessor's execution of the
//!   identical instruction and this step's, only boundary drives,
//!   predecessor captures and earlier instructions of this step can
//!   touch what it reads. If none did, re-executing it would write the
//!   value its net already holds and re-store identical operand history,
//!   adding zero toggles. The function-select contribution `fn_delta` is
//!   part of an instruction's identity, and an ALU whose predecessor
//!   applied the same function has `fn_delta = 0`, so a function change
//!   is never dropped. By induction over steps, the pruned program leaves
//!   every net, history slot and counter exactly where the full program
//!   would. The batched and bit-sliced kernels lower from these same
//!   programs and skip the same instructions.
//! - **Analytic clock pulses.** Pulse lists are fixed per step, so each
//!   memory element's pulse count over a run is its cold-period count
//!   plus `computations − 1` times its warm-period count, computed once
//!   instead of incremented in the step loop.
//!
//! The kernel is differentially tested to be **bit-identical** to the
//! interpreter — same activity counters, outputs, traces and per-step
//! profiles — on every built-in benchmark, random DFGs, every power
//! mode, clock count and seed (see `tests/sim_backend.rs`).

use std::collections::BTreeMap;

use mc_dfg::{FunctionSet, Op};
use mc_rtl::{ComponentKind, ControlPolicy, Netlist, PowerMode};

use crate::activity::{Activity, StepActivity};
use crate::engine::{bits_for, width_mask, BoundInputs, SimResult};

/// One lowered combinational evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Instr {
    /// A mux whose select resolved to a constant this step: copy net
    /// `src` to net `dst`.
    Copy { src: u32, dst: u32 },
    /// An ALU evaluation: apply `op` to nets `a` and `b`, write net
    /// `dst`, account operand toggles against history slot `comp` plus
    /// the precomputed function-select contribution `fn_delta`.
    Alu {
        comp: u32,
        a: u32,
        b: u32,
        dst: u32,
        op: Op,
        fn_delta: u64,
    },
    /// An ALU frozen by operand isolation: recompute `op` over the frozen
    /// operands in slot `comp` and write net `dst`. Contributes no input
    /// activity and leaves the history untouched.
    AluFrozen { comp: u32, dst: u32, op: Op },
}

impl Instr {
    /// The net this instruction writes.
    fn dst(self) -> u32 {
        match self {
            Instr::Copy { dst, .. } | Instr::Alu { dst, .. } | Instr::AluFrozen { dst, .. } => dst,
        }
    }

    /// The nets this instruction reads. A frozen ALU reads only its own
    /// operand history, which no other instruction writes.
    fn reads(self) -> impl Iterator<Item = u32> {
        let (first, second) = match self {
            Instr::Copy { src, .. } => (Some(src), None),
            Instr::Alu { a, b, .. } => (Some(a), Some(b)),
            Instr::AluFrozen { .. } => (None, None),
        };
        first.into_iter().chain(second)
    }
}

/// One precomputed memory capture: store net `input` into element `comp`
/// and forward it to net `out`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Capture {
    pub(crate) comp: u32,
    pub(crate) input: u32,
    pub(crate) out: u32,
}

/// Everything one step of the period needs, fully resolved.
#[derive(Debug, Clone, Default)]
pub(crate) struct StepProgram {
    /// Control-line toggles this step contributes (precomputed from the
    /// control replay).
    pub(crate) control_toggles: u64,
    /// The specialized combinational evaluation, quiet instructions
    /// pruned.
    pub(crate) instrs: Vec<Instr>,
    /// Memory elements receiving a clock pulse this step (component
    /// indices, id order).
    pub(crate) pulses: Vec<u32>,
    /// Memory elements capturing their data input this step (id order).
    pub(crate) captures: Vec<Capture>,
}

/// Replayed control state: the dense mirror of the interpreter's
/// `prev_sel` / `prev_fn` / `prev_load` maps (absent ⇒ 0 / false).
struct ControlReplay {
    sel: Vec<usize>,
    fnx: Vec<usize>,
    load: Vec<bool>,
}

/// A [`Netlist`] lowered for dense index-addressed execution.
///
/// Compile once with [`CompiledNetlist::compile`], then run any number of
/// stimuli through it. Selected by [`SimBackend::Compiled`]
/// (the default), with the interpreter kept as the reference
/// implementation.
///
/// [`SimBackend::Compiled`]: crate::SimBackend::Compiled
#[derive(Debug)]
pub struct CompiledNetlist<'a> {
    pub(crate) netlist: &'a Netlist,
    pub(crate) mask: u64,
    pub(crate) width: u8,
    pub(crate) period: u32,
    pub(crate) num_comps: usize,
    /// Net values at power-up (constants resolved).
    pub(crate) init_nets: Vec<u64>,
    /// Output net of each primary-input port, in [`Netlist::inputs`]
    /// order.
    pub(crate) input_nets: Vec<u32>,
    /// Silent settle evaluated during the reset preload.
    pub(crate) preload_instrs: Vec<Instr>,
    /// Memories preloaded at reset: every element the boundary word
    /// loads, with *no* phase filter (the reset loads them all at once).
    pub(crate) preload_captures: Vec<Capture>,
    /// Step programs of the first period (index `t - 1`).
    pub(crate) cold: Vec<StepProgram>,
    /// Step programs of every later period.
    pub(crate) warm: Vec<StepProgram>,
    /// Clock pulses each component receives in the cold period.
    cold_pulses: Vec<u64>,
    /// Clock pulses each component receives in one warm period.
    warm_pulses: Vec<u64>,
    /// Largest capture list across all step programs (capture-buffer
    /// capacity).
    pub(crate) max_captures: usize,
}

impl<'a> CompiledNetlist<'a> {
    /// Lowers `netlist` under `mode` into a compiled program.
    #[must_use]
    pub fn compile(netlist: &'a Netlist, mode: PowerMode) -> Self {
        let nc = netlist.num_components();
        let mask = width_mask(netlist.width());
        let period = netlist.controller().len();

        let mut init_nets = vec![0u64; netlist.num_nets()];
        for c in netlist.component_ids() {
            if let ComponentKind::Const { value } = netlist.component(c).kind() {
                init_nets[netlist.component(c).output().index()] = value & mask;
            }
        }
        let input_nets: Vec<u32> = netlist
            .inputs()
            .iter()
            .map(|(_, c)| netlist.component(*c).output().index() as u32)
            .collect();

        // Replay the control automaton exactly as the interpreter's
        // state maps evolve: reset preload, then two periods. Effective
        // controls depend only on the step and this history — never on
        // data — so the first period (cold) and the steady state (warm,
        // identical from the second period on) can be fully specialized.
        let mut replay = ControlReplay {
            sel: vec![0; nc],
            fnx: vec![0; nc],
            load: vec![false; nc],
        };
        // Reset preload: seed mux selects from the boundary word.
        for (&c, &s) in &netlist.controller().word(period).mux_sel {
            replay.sel[c.index()] = s;
        }
        // ALU function history (`AluState::prev_fn`) is control-driven
        // too; replayed alongside so frozen ops and function-select
        // deltas resolve at compile time. The silent preload settle does
        // not touch it.
        let mut fn_state = vec![0usize; nc];
        let preload_instrs = lower_silent_settle(netlist, &replay);
        let boundary_word = netlist.controller().word(period);
        let preload_captures = netlist
            .mems()
            .filter(|m| boundary_word.mem_load.contains(m))
            .map(|m| capture_of(netlist, m.comp()))
            .collect();

        let mut cold: Vec<StepProgram> = (1..=period)
            .map(|t| lower_step(netlist, mode, t, &mut replay, &mut fn_state))
            .collect();
        let mut warm: Vec<StepProgram> = (1..=period)
            .map(|t| lower_step(netlist, mode, t, &mut replay, &mut fn_state))
            .collect();
        prune_quiet(&mut cold, &mut warm, &input_nets, netlist.num_nets());
        let pulse_counts = |steps: &[StepProgram]| {
            let mut counts = vec![0u64; nc];
            for &m in steps.iter().flat_map(|p| &p.pulses) {
                counts[m as usize] += 1;
            }
            counts
        };
        let cold_pulses = pulse_counts(&cold);
        let warm_pulses = pulse_counts(&warm);
        let max_captures = cold
            .iter()
            .chain(&warm)
            .map(|p| p.captures.len())
            .max()
            .unwrap_or(0);

        CompiledNetlist {
            netlist,
            mask,
            width: netlist.width(),
            period,
            num_comps: nc,
            init_nets,
            input_nets,
            preload_instrs,
            preload_captures,
            cold,
            warm,
            cold_pulses,
            warm_pulses,
            max_captures,
        }
    }

    /// Clock pulses each component receives over `computations`
    /// computations: its cold-period count plus `computations - 1` times
    /// its warm-period count. Pulse lists are fixed at compile time, so
    /// the step loops never count them per element.
    pub(crate) fn clock_pulses(&self, computations: usize) -> Vec<u64> {
        if computations == 0 {
            return vec![0; self.num_comps];
        }
        let warm_periods = computations as u64 - 1;
        self.cold_pulses
            .iter()
            .zip(&self.warm_pulses)
            .map(|(&cold, &warm)| cold + warm * warm_periods)
            .collect()
    }

    /// How many instructions one sweep of `computations` computations
    /// executes after pruning: the silent reset preload, one cold period,
    /// and `computations - 1` warm periods. Analytic — the per-step
    /// instruction streams are fixed at compile time — so tracing can
    /// report it without touching the hot loop.
    pub(crate) fn instructions_executed(&self, computations: usize) -> u64 {
        if computations == 0 {
            return 0;
        }
        let step_sum =
            |steps: &[StepProgram]| -> u64 { steps.iter().map(|p| p.instrs.len() as u64).sum() };
        self.preload_instrs.len() as u64
            + step_sum(&self.cold)
            + step_sum(&self.warm) * (computations as u64 - 1)
    }

    /// Simulates explicit input vectors through the compiled program —
    /// the compile-once-run-many entry point. Bit-identical to the
    /// interpreter over the same vectors.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`](crate::SimError) if a vector lacks a primary
    /// input.
    pub fn simulate(
        &self,
        vectors: &[BTreeMap<String, u64>],
        collect_trace: bool,
        collect_profile: bool,
    ) -> Result<SimResult, crate::engine::SimError> {
        let bound = BoundInputs::bind(self.netlist, vectors)?;
        Ok(self.run(&bound, collect_trace, collect_profile, true))
    }

    /// Simulates `computations` random computations with the stimulus
    /// [`simulate`](crate::simulate) draws for `seed` and returns only the
    /// switching activity — no per-computation output maps, no trace, no
    /// profile. The form power estimation consumes; bit-identical to
    /// `simulate(..).activity` under the same configuration.
    #[must_use]
    pub fn run_activity(&self, computations: usize, seed: u64) -> Activity {
        let bound = BoundInputs::random(self.netlist, computations, seed);
        self.run(&bound, false, false, false).activity
    }

    /// Executes the compiled program over bound inputs. Bit-identical to
    /// the interpreter's `Engine::run`; with `collect_outputs` off the
    /// result carries no output maps.
    pub(crate) fn run(
        &self,
        bound: &BoundInputs,
        collect_trace: bool,
        collect_profile: bool,
        collect_outputs: bool,
    ) -> SimResult {
        let nl = self.netlist;
        let ni = self.input_nets.len();
        let computations = bound.computations;
        let mut outputs = Vec::with_capacity(if collect_outputs { computations } else { 0 });
        let mut trace = if collect_trace {
            Some(Vec::new())
        } else {
            None
        };

        let mut st = Runner {
            nets: self.init_nets.clone(),
            stored: vec![0; self.num_comps],
            alu_a: vec![0; self.num_comps],
            alu_b: vec![0; self.num_comps],
            activity: Activity::new(nl.num_nets(), self.num_comps),
            mask: self.mask,
            width: self.width,
            net_total: 0,
            input_total: 0,
            clock_total: 0,
            store_total: 0,
        };
        if collect_profile {
            st.activity.per_step = Some(Vec::new());
        }
        let mut capture_buf: Vec<u64> = Vec::with_capacity(self.max_captures);
        let mut prev = StepActivity::default();

        // Reset preload (silent: no activity counted).
        if computations > 0 {
            for (i, &net) in self.input_nets.iter().enumerate() {
                st.nets[net as usize] = bound.flat[i];
            }
            for instr in &self.preload_instrs {
                match *instr {
                    Instr::Copy { src, dst } => st.nets[dst as usize] = st.nets[src as usize],
                    Instr::Alu { a, b, dst, op, .. } => {
                        st.nets[dst as usize] =
                            op.apply(st.nets[a as usize], st.nets[b as usize], self.width);
                    }
                    Instr::AluFrozen { .. } => {
                        unreachable!("preload settle has no frozen ALUs")
                    }
                }
            }
            for cap in &self.preload_captures {
                let v = st.nets[cap.input as usize];
                st.stored[cap.comp as usize] = v;
                st.nets[cap.out as usize] = v;
            }
        }

        for c in 0..computations {
            let programs = if c == 0 { &self.cold } else { &self.warm };
            for t in 1..=self.period {
                let program = &programs[(t - 1) as usize];
                // 1. Drive ports at the boundary step.
                if t == self.period && c + 1 < computations {
                    let base = (c + 1) * ni;
                    for (i, &net) in self.input_nets.iter().enumerate() {
                        st.set_net(net, bound.flat[base + i]);
                    }
                }
                // 2. Effective controls: precomputed.
                st.activity.control_toggles += program.control_toggles;
                // 3. Combinational evaluation.
                for instr in &program.instrs {
                    st.exec(*instr);
                }
                // 4. Clock edges (per-element counts are analytic) and
                // captures (two-phase commit through the reusable buffer).
                st.clock_total += program.pulses.len() as u64;
                capture_buf.clear();
                capture_buf.extend(
                    program
                        .captures
                        .iter()
                        .map(|cap| st.nets[cap.input as usize]),
                );
                for (cap, &v) in program.captures.iter().zip(&capture_buf) {
                    let old = st.stored[cap.comp as usize];
                    if old != v {
                        let flips = (old ^ v).count_ones() as u64;
                        st.activity.store_toggles[cap.comp as usize] += flips;
                        st.store_total += flips;
                        st.stored[cap.comp as usize] = v;
                    }
                    st.set_net(cap.out, v);
                }
                st.activity.controller_pulses += 1;
                st.activity.steps += 1;
                if let Some(tr) = trace.as_mut() {
                    tr.push(st.nets.clone());
                }
                if let Some(per_step) = st.activity.per_step.as_mut() {
                    let now = StepActivity {
                        net_toggles: st.net_total,
                        input_toggles: st.input_total,
                        clock_pulses: st.clock_total,
                        store_toggles: st.store_total,
                        control_toggles: st.activity.control_toggles,
                    };
                    per_step.push(StepActivity {
                        net_toggles: now.net_toggles - prev.net_toggles,
                        input_toggles: now.input_toggles - prev.input_toggles,
                        clock_pulses: now.clock_pulses - prev.clock_pulses,
                        store_toggles: now.store_toggles - prev.store_toggles,
                        control_toggles: now.control_toggles - prev.control_toggles,
                    });
                    prev = now;
                }
            }
            if collect_outputs {
                let out: BTreeMap<String, u64> = nl
                    .outputs()
                    .iter()
                    .map(|(name, net)| (name.clone(), st.nets[net.index()]))
                    .collect();
                outputs.push(out);
            }
            st.activity.computations += 1;
        }
        st.activity.clock_pulses = self.clock_pulses(computations);

        if mc_trace::enabled() {
            // The instruction total is analytic (the per-step streams are
            // precomputed), so the hot loop pays nothing for it.
            mc_trace::count("sim.runs", 1);
            mc_trace::count("sim.steps", st.activity.steps);
            mc_trace::count("sim.instructions", self.instructions_executed(computations));
            mc_trace::count(
                "sim.toggles",
                st.net_total + st.input_total + st.store_total + st.activity.control_toggles,
            );
            mc_trace::count("sim.clock_pulses", st.clock_total);
        }

        SimResult {
            activity: st.activity,
            inputs: Vec::new(),
            outputs,
            trace,
        }
    }
}

/// Mutable execution state of one run.
struct Runner {
    nets: Vec<u64>,
    stored: Vec<u64>,
    /// Frozen/previous ALU operands, indexed by component.
    alu_a: Vec<u64>,
    alu_b: Vec<u64>,
    activity: Activity,
    mask: u64,
    width: u8,
    /// Running totals feeding O(1) per-step profile deltas.
    net_total: u64,
    input_total: u64,
    clock_total: u64,
    store_total: u64,
}

impl Runner {
    #[inline]
    fn set_net(&mut self, net: u32, value: u64) {
        let value = value & self.mask;
        let old = self.nets[net as usize];
        if old != value {
            let flips = (old ^ value).count_ones() as u64;
            self.activity.net_toggles[net as usize] += flips;
            self.net_total += flips;
            self.nets[net as usize] = value;
        }
    }

    #[inline]
    fn exec(&mut self, instr: Instr) {
        match instr {
            Instr::Copy { src, dst } => {
                let v = self.nets[src as usize];
                self.set_net(dst, v);
            }
            Instr::Alu {
                comp,
                a,
                b,
                dst,
                op,
                fn_delta,
            } => {
                let a_val = self.nets[a as usize];
                let b_val = self.nets[b as usize];
                let slot = comp as usize;
                let toggled = (self.alu_a[slot] ^ a_val).count_ones() as u64
                    + (self.alu_b[slot] ^ b_val).count_ones() as u64
                    + fn_delta;
                self.activity.input_toggles[slot] += toggled;
                self.input_total += toggled;
                self.alu_a[slot] = a_val;
                self.alu_b[slot] = b_val;
                let out = op.apply(a_val, b_val, self.width);
                self.set_net(dst, out);
            }
            Instr::AluFrozen { comp, dst, op } => {
                let slot = comp as usize;
                let out = op.apply(self.alu_a[slot], self.alu_b[slot], self.width);
                self.set_net(dst, out);
            }
        }
    }
}

/// The capture triple of memory element `m`.
fn capture_of(netlist: &Netlist, m: mc_rtl::CompId) -> Capture {
    let comp = netlist.component(m);
    let input = match comp.kind() {
        ComponentKind::Mem { input, .. } => *input,
        _ => unreachable!("mems() yields memories"),
    };
    Capture {
        comp: m.index() as u32,
        input: input.index() as u32,
        out: comp.output().index() as u32,
    }
}

/// The operation an ALU executes for function index `f` — the
/// interpreter's `fs.iter().nth(f)` with first-function fallback.
fn op_at(fs: FunctionSet, f: usize) -> Op {
    fs.iter()
        .nth(f)
        .unwrap_or_else(|| fs.iter().next().expect("ALUs have at least one function"))
}

/// Lowers the reset preload's silent combinational settle against the
/// preload control state (mux selects seeded from the boundary word, ALU
/// functions at their defaults).
fn lower_silent_settle(netlist: &Netlist, replay: &ControlReplay) -> Vec<Instr> {
    netlist
        .combinational_order()
        .iter()
        .map(|&c| {
            let comp = netlist.component(c);
            match comp.kind() {
                ComponentKind::Mux { inputs } => {
                    let s = replay.sel[c.index()].min(inputs.len() - 1);
                    Instr::Copy {
                        src: inputs[s].index() as u32,
                        dst: comp.output().index() as u32,
                    }
                }
                ComponentKind::Alu { fs, a, b } => Instr::Alu {
                    comp: c.index() as u32,
                    a: a.index() as u32,
                    b: b.index() as u32,
                    dst: comp.output().index() as u32,
                    op: op_at(*fs, replay.fnx[c.index()]),
                    fn_delta: 0,
                },
                _ => unreachable!("combinational order holds only muxes and ALUs"),
            }
        })
        .collect()
}

/// Drops the quiet instructions of both periods — see the module docs
/// for the rule and why it is exact. Every unpruned step program holds
/// one instruction per component in combinational order, so instruction
/// `i` of a step and of its predecessors lower the same component; all
/// decisions are therefore taken before any program shrinks.
fn prune_quiet(
    cold: &mut [StepProgram],
    warm: &mut [StepProgram],
    input_nets: &[u32],
    num_nets: usize,
) {
    // A controller has at least one step, so both periods are non-empty.
    let period = cold.len();
    let last = period - 1;
    let mut live = Vec::with_capacity(2 * period);
    live.push(vec![true; cold[0].instrs.len()]);
    for k in 1..period {
        live.push(live_instrs(
            &cold[k],
            &[&cold[k - 1]],
            k == last,
            input_nets,
            num_nets,
        ));
    }
    for k in 0..period {
        let preds = if k == 0 {
            vec![&cold[last], &warm[last]]
        } else {
            vec![&warm[k - 1]]
        };
        live.push(live_instrs(
            &warm[k],
            &preds,
            k == last,
            input_nets,
            num_nets,
        ));
    }
    for (program, keep) in cold.iter_mut().chain(warm.iter_mut()).zip(live) {
        let mut keep = keep.into_iter();
        program
            .instrs
            .retain(|_| keep.next().expect("one decision per instruction"));
    }
}

/// Which instructions of the unpruned `step` must execute, given every
/// step that can run immediately before it: an instruction is dropped
/// when each predecessor runs the identical instruction and none of the
/// nets it reads may have changed since — no boundary drive (`boundary`
/// marks the input-driving step), no predecessor capture and no
/// instruction kept earlier in this step wrote them.
fn live_instrs(
    step: &StepProgram,
    preds: &[&StepProgram],
    boundary: bool,
    input_nets: &[u32],
    num_nets: usize,
) -> Vec<bool> {
    let mut changed = vec![false; num_nets];
    if boundary {
        for &net in input_nets {
            changed[net as usize] = true;
        }
    }
    for cap in preds.iter().flat_map(|p| &p.captures) {
        changed[cap.out as usize] = true;
    }
    step.instrs
        .iter()
        .enumerate()
        .map(|(i, &instr)| {
            let live = preds.iter().any(|p| p.instrs[i] != instr)
                || instr.reads().any(|net| changed[net as usize]);
            if live {
                changed[instr.dst() as usize] = true;
            }
            live
        })
        .collect()
}

/// Advances the control replay through step `t` and lowers the step into
/// its program: effective control values resolve mux selects and ALU
/// functions to constants, control toggles fold into one integer, and the
/// phase/load filters materialize the pulse and capture lists.
fn lower_step(
    netlist: &Netlist,
    mode: PowerMode,
    t: u32,
    replay: &mut ControlReplay,
    fn_state: &mut [usize],
) -> StepProgram {
    let word = netlist.controller().word(t);
    let policy = mode.control_policy;
    let mut program = StepProgram::default();

    // Mirror of the interpreter's `effective_controls`: every component,
    // id order, toggles counted against the previous effective values.
    let nc = netlist.num_components();
    let mut active = vec![false; nc];
    for (i, comp) in netlist.components().iter().enumerate() {
        let c = mc_rtl::CompId::from_index(i);
        match comp.kind() {
            ComponentKind::Mux { inputs } => {
                let eff = match word.sel_of(c) {
                    Some(s) => s,
                    None => match policy {
                        ControlPolicy::Hold => replay.sel[i],
                        ControlPolicy::Zero => 0,
                    },
                };
                let prev = replay.sel[i];
                replay.sel[i] = eff;
                let bits = bits_for(inputs.len());
                program.control_toggles +=
                    ((prev ^ eff) as u64 & ((1u64 << bits) - 1)).count_ones() as u64;
            }
            ComponentKind::Alu { fs, .. } => {
                let explicit = word.fn_of(c);
                let eff = match explicit {
                    Some(op) => fs
                        .iter()
                        .position(|o| o == op)
                        .expect("op validated in set"),
                    None => match policy {
                        ControlPolicy::Hold => replay.fnx[i],
                        ControlPolicy::Zero => 0,
                    },
                };
                let prev = replay.fnx[i];
                replay.fnx[i] = eff;
                let bits = bits_for(fs.len());
                program.control_toggles +=
                    ((prev ^ eff) as u64 & ((1u64 << bits) - 1)).count_ones() as u64;
                active[i] = explicit.is_some();
            }
            ComponentKind::Mem { .. } => {
                let eff = word.loads(c);
                if replay.load[i] != eff {
                    program.control_toggles += 1;
                }
                replay.load[i] = eff;
            }
            ComponentKind::Const { .. } | ComponentKind::Input => {}
        }
    }

    // Specialize the combinational evaluation.
    for &c in netlist.combinational_order() {
        let i = c.index();
        let comp = netlist.component(c);
        match comp.kind() {
            ComponentKind::Mux { inputs } => {
                let s = replay.sel[i].min(inputs.len() - 1);
                program.instrs.push(Instr::Copy {
                    src: inputs[s].index() as u32,
                    dst: comp.output().index() as u32,
                });
            }
            ComponentKind::Alu { fs, a, b } => {
                if mode.operand_isolation && !active[i] {
                    // Frozen: operands and function hold, so the function
                    // index is the replayed history value.
                    program.instrs.push(Instr::AluFrozen {
                        comp: i as u32,
                        dst: comp.output().index() as u32,
                        op: op_at(*fs, fn_state[i]),
                    });
                } else {
                    let f = replay.fnx[i];
                    let fn_delta = if fn_state[i] != f {
                        u64::from(netlist.width())
                    } else {
                        0
                    };
                    fn_state[i] = f;
                    program.instrs.push(Instr::Alu {
                        comp: i as u32,
                        a: a.index() as u32,
                        b: b.index() as u32,
                        dst: comp.output().index() as u32,
                        op: op_at(*fs, f),
                        fn_delta,
                    });
                }
            }
            _ => unreachable!("combinational order holds only muxes and ALUs"),
        }
    }

    // Clock pulses and captures: phase-owned steps only; gated clocks
    // additionally require the load enable.
    for m in netlist.mems().map(mc_rtl::MemId::comp) {
        let comp = netlist.component(m);
        let phase = comp.mem_phase().expect("mems have phases");
        if !netlist.scheme().is_active(phase, t) {
            continue;
        }
        let loading = replay.load[m.index()];
        if !mode.gated_mem_clocks || loading {
            program.pulses.push(m.index() as u32);
        }
        if loading {
            program.captures.push(capture_of(netlist, m));
        }
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_alloc::{allocate, AllocOptions, Strategy};
    use mc_clocks::ClockScheme;
    use mc_dfg::benchmarks;

    /// Pins the pruning itself: every bit-identity test would still pass
    /// if a refactor silently stopped dropping quiet instructions.
    #[test]
    fn hal_multiclock_warm_period_runs_fewer_instructions_than_it_lowers() {
        let bm = benchmarks::hal();
        let opts = AllocOptions::new(Strategy::Integrated, ClockScheme::new(3).unwrap());
        let netlist = allocate(&bm.dfg, &bm.schedule, &opts).unwrap().netlist;
        let program = CompiledNetlist::compile(&netlist, PowerMode::multiclock());
        let order = netlist.combinational_order().len();
        let sum = |steps: &[StepProgram]| steps.iter().map(|s| s.instrs.len()).sum::<usize>();
        let (cold, warm) = (sum(&program.cold), sum(&program.warm));
        assert!(
            warm < order * program.period as usize,
            "warm period executes {warm} of {} lowered instructions",
            order * program.period as usize
        );
        assert_eq!(
            program.cold[0].instrs.len(),
            order,
            "cold step 1 stays whole"
        );
        assert_eq!(program.instructions_executed(0), 0);
        for computations in [1usize, 2, 9] {
            assert_eq!(
                program.instructions_executed(computations),
                (program.preload_instrs.len() + cold + warm * (computations - 1)) as u64
            );
        }
    }
}
