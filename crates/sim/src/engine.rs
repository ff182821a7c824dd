//! The phase-accurate netlist simulator.
//!
//! One simulation step corresponds to one system-clock period (one control
//! step). Within a step the simulator:
//!
//! 1. drives the primary-input ports (new values appear during the final
//!    step of each computation, so the boundary clock edge captures them);
//! 2. resolves the effective control values under the design's
//!    [`ControlPolicy`] (latched lines hold, unlatched lines fall to
//!    defaults) and counts control-line toggles;
//! 3. evaluates the combinational network in topological order, counting
//!    bit flips per net and input activity per ALU (operand isolation
//!    freezes idle ALUs);
//! 4. delivers clock edges: a memory element in partition `k` sees a pulse
//!    only when `k` owns the step (and, under gated clocks, only when its
//!    load enable is asserted), capturing its data input with a
//!    simultaneous two-phase commit.
//!
//! Latches and DFFs behave identically *functionally* — allocation
//! guarantees no READ/WRITE overlap for latches — and differ only in the
//! capacitances the power model attaches to these counters.
//!
//! Two execution backends implement these semantics (see [`SimBackend`]):
//! the original interpreter in this module, kept as the readable reference
//! implementation, and the compiled kernel in
//! [`compiled`](crate::compiled), which lowers the netlist once into a
//! dense index-addressed program and is the default everywhere.

use std::collections::BTreeMap;
use std::fmt;

use mc_prng::Xoshiro256;

use mc_dfg::Op;
use mc_rtl::{CompId, ComponentKind, ControlPolicy, Netlist, PowerMode};

use crate::activity::Activity;
use crate::compiled::CompiledNetlist;

/// The execution backend running a simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SimBackend {
    /// The dense index-addressed kernel ([`CompiledNetlist`]): a one-time
    /// lowering pays for levelization, periodic control precomputation and
    /// slot indexing, then every step runs allocation-free. Bit-identical
    /// to the interpreter; the default.
    #[default]
    Compiled,
    /// The original map-driven interpreter — the reference implementation
    /// the compiled kernel is differentially tested against.
    Interpreter,
}

impl fmt::Display for SimBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimBackend::Compiled => write!(f, "compiled"),
            SimBackend::Interpreter => write!(f, "interpreter"),
        }
    }
}

/// Errors binding a simulation to its stimulus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// An explicit input vector lacks a value for a primary input of the
    /// netlist.
    MissingInput {
        /// The primary input with no value.
        input: String,
        /// The 0-based computation whose vector is incomplete.
        computation: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingInput { input, computation } => write!(
                f,
                "input vector for computation {computation} has no value for primary input `{input}`"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The power-management mode under which the design operates.
    pub mode: PowerMode,
    /// Number of back-to-back computations to run.
    pub computations: usize,
    /// Seed for the random input stimulus.
    pub seed: u64,
    /// Record a per-step trace of all net values (memory-hungry; for
    /// debugging, VCD export and the Fig. 4 timing reproduction).
    pub collect_trace: bool,
    /// Record per-step aggregate activity counters (cheap; enables
    /// power-over-time profiles).
    pub collect_profile: bool,
    /// Keep the applied input vectors in [`SimResult::inputs`]. Off by
    /// default — table runs never read them back, and cloning every vector
    /// into the result was pure overhead. Tracing implies keeping them
    /// (a trace without its stimulus is not reproducible).
    pub keep_inputs: bool,
    /// The execution backend.
    pub backend: SimBackend,
}

impl SimConfig {
    /// A configuration with random stimulus: `computations` runs under
    /// `mode`, seeded deterministically.
    #[must_use]
    pub fn new(mode: PowerMode, computations: usize, seed: u64) -> Self {
        SimConfig {
            mode,
            computations,
            seed,
            collect_trace: false,
            collect_profile: false,
            keep_inputs: false,
            backend: SimBackend::default(),
        }
    }

    /// Enables per-step net tracing.
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.collect_trace = true;
        self
    }

    /// Enables per-step activity profiling.
    #[must_use]
    pub fn with_profile(mut self) -> Self {
        self.collect_profile = true;
        self
    }

    /// Keeps the applied input vectors in the result.
    #[must_use]
    pub fn with_inputs_kept(mut self) -> Self {
        self.keep_inputs = true;
        self
    }

    /// Selects the execution backend.
    #[must_use]
    pub fn with_backend(mut self, backend: SimBackend) -> Self {
        self.backend = backend;
        self
    }
}

/// The outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Switching activity counters.
    pub activity: Activity,
    /// The input vector applied to each computation (name → value).
    /// Populated only when the configuration keeps inputs
    /// ([`SimConfig::with_inputs_kept`]) or traces; empty otherwise.
    pub inputs: Vec<BTreeMap<String, u64>>,
    /// The output values observed at the end of each computation
    /// (name → value).
    pub outputs: Vec<BTreeMap<String, u64>>,
    /// Per-step net values when tracing was requested: `trace[s][net]`.
    pub trace: Option<Vec<Vec<u64>>>,
}

/// One population member's run through a multi-seed kernel: its
/// activity plus its outputs as dense rows rather than name-keyed maps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamRun {
    /// Switching activity counters.
    pub activity: Activity,
    /// `outputs[c * n + k]` is output port `k` — in [`Netlist::outputs`]
    /// order, `n` ports — at the end of computation `c`. Empty when the
    /// run skipped output collection.
    pub outputs: Vec<u64>,
}

impl StreamRun {
    /// The scalar-result form: one name-keyed output map per computation.
    pub(crate) fn into_sim_result(self, netlist: &Netlist) -> SimResult {
        let ports = netlist.outputs();
        let outputs = (0..self.activity.computations as usize)
            .map(|c| {
                let row = &self.outputs[c * ports.len()..(c + 1) * ports.len()];
                ports
                    .iter()
                    .zip(row)
                    .map(|((name, _), &v)| (name.clone(), v))
                    .collect()
            })
            .collect();
        SimResult {
            activity: self.activity,
            inputs: Vec::new(),
            outputs,
            trace: None,
        }
    }
}

/// Input vectors bound to dense port positions: `flat[c * n + i]` is the
/// (masked) value of the `i`-th primary input — in [`Netlist::inputs`]
/// order — for computation `c`.
pub(crate) struct BoundInputs {
    pub flat: Vec<u64>,
    pub computations: usize,
}

impl BoundInputs {
    /// Binds string-keyed vectors to port positions, masking values to the
    /// datapath width.
    pub(crate) fn bind(
        netlist: &Netlist,
        vectors: &[BTreeMap<String, u64>],
    ) -> Result<Self, SimError> {
        let mask = width_mask(netlist.width());
        let mut flat = Vec::with_capacity(vectors.len() * netlist.inputs().len());
        for (c, vec) in vectors.iter().enumerate() {
            for (name, _) in netlist.inputs() {
                let v = vec.get(name).ok_or_else(|| SimError::MissingInput {
                    input: name.clone(),
                    computation: c,
                })?;
                flat.push(v & mask);
            }
        }
        Ok(BoundInputs {
            flat,
            computations: vectors.len(),
        })
    }

    /// Draws `computations` uniform random vectors, one value per primary
    /// input, in [`Netlist::inputs`] order.
    pub(crate) fn random(netlist: &Netlist, computations: usize, seed: u64) -> Self {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mask = width_mask(netlist.width());
        let flat = (0..computations * netlist.inputs().len())
            .map(|_| rng.next_u64() & mask)
            .collect();
        BoundInputs { flat, computations }
    }

    /// Reconstructs the name-keyed vectors (for results that keep inputs).
    fn to_vectors(&self, netlist: &Netlist) -> Vec<BTreeMap<String, u64>> {
        let n = netlist.inputs().len();
        (0..self.computations)
            .map(|c| {
                netlist
                    .inputs()
                    .iter()
                    .enumerate()
                    .map(|(i, (name, _))| (name.clone(), self.flat[c * n + i]))
                    .collect()
            })
            .collect()
    }
}

/// The all-ones mask of the datapath width.
pub(crate) fn width_mask(width: u8) -> u64 {
    (1u64 << width) - 1
}

/// Runs bound inputs through the configured backend and fills the
/// kept-inputs field when requested.
fn run_bound(netlist: &Netlist, bound: &BoundInputs, config: &SimConfig) -> SimResult {
    let mut result = match config.backend {
        SimBackend::Interpreter => Engine::new(netlist, config.mode).run(
            bound,
            config.collect_trace,
            config.collect_profile,
        ),
        SimBackend::Compiled => CompiledNetlist::compile(netlist, config.mode).run(
            bound,
            config.collect_trace,
            config.collect_profile,
            true,
        ),
    };
    if config.keep_inputs || config.collect_trace {
        result.inputs = bound.to_vectors(netlist);
    }
    result
}

/// Simulates `netlist` with random input vectors.
#[must_use]
pub fn simulate(netlist: &Netlist, config: &SimConfig) -> SimResult {
    let bound = BoundInputs::random(netlist, config.computations, config.seed);
    run_bound(netlist, &bound, config)
}

/// Simulates `netlist` over explicit input vectors under full
/// configuration control (backend, tracing, profiling, kept inputs).
/// `config.computations` and `config.seed` are ignored — the vectors *are*
/// the stimulus.
///
/// # Errors
///
/// Returns [`SimError::MissingInput`] if a vector lacks a primary input.
pub fn simulate_with_config(
    netlist: &Netlist,
    vectors: &[BTreeMap<String, u64>],
    config: &SimConfig,
) -> Result<SimResult, SimError> {
    let bound = BoundInputs::bind(netlist, vectors)?;
    Ok(run_bound(netlist, &bound, config))
}

/// Simulates `netlist` over explicit input vectors, one per computation.
/// Fallible twin of [`simulate_with_inputs`].
///
/// # Errors
///
/// Returns [`SimError::MissingInput`] if a vector lacks a primary input.
pub fn try_simulate_with_inputs(
    netlist: &Netlist,
    mode: PowerMode,
    vectors: &[BTreeMap<String, u64>],
    collect_trace: bool,
) -> Result<SimResult, SimError> {
    let mut config = SimConfig::new(mode, vectors.len(), 0);
    config.collect_trace = collect_trace;
    simulate_with_config(netlist, vectors, &config)
}

/// Simulates `netlist` over explicit input vectors, one per computation.
///
/// # Panics
///
/// Panics if a vector is missing a primary input of the netlist (the
/// single [`SimError::MissingInput`] failure path; use
/// [`try_simulate_with_inputs`] to handle it as a value).
#[must_use]
pub fn simulate_with_inputs(
    netlist: &Netlist,
    mode: PowerMode,
    vectors: &[BTreeMap<String, u64>],
    collect_trace: bool,
) -> SimResult {
    try_simulate_with_inputs(netlist, mode, vectors, collect_trace)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Per-ALU bookkeeping for isolation and activity counting.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AluState {
    pub prev_a: u64,
    pub prev_b: u64,
    pub prev_fn: usize,
}

/// Effective control values of one step.
#[derive(Debug, Clone, Default)]
struct Controls {
    sel: BTreeMap<CompId, usize>,
    fnx: BTreeMap<CompId, usize>,
    load: BTreeMap<CompId, bool>,
    /// ALUs whose controller word named them explicitly this step.
    active_alus: std::collections::BTreeSet<CompId>,
}

struct Engine<'a> {
    netlist: &'a Netlist,
    mode: PowerMode,
    mask: u64,
    period: u32,
    /// Current value of every net.
    nets: Vec<u64>,
    /// Stored value of every memory element (indexed by component).
    stored: Vec<u64>,
    /// Previous effective control values: mux selects, ALU fn index, load.
    prev_sel: BTreeMap<CompId, usize>,
    prev_fn: BTreeMap<CompId, usize>,
    prev_load: BTreeMap<CompId, bool>,
    alu_state: BTreeMap<CompId, AluState>,
    activity: Activity,
}

impl<'a> Engine<'a> {
    fn new(netlist: &'a Netlist, mode: PowerMode) -> Self {
        let nc = netlist.num_components();
        let mask = width_mask(netlist.width());
        let mut nets = vec![0; netlist.num_nets()];
        // Constant drivers hold their value from power-up.
        for c in netlist.component_ids() {
            if let ComponentKind::Const { value } = netlist.component(c).kind() {
                nets[netlist.component(c).output().index()] = value & mask;
            }
        }
        Engine {
            netlist,
            mode,
            mask,
            period: netlist.controller().len(),
            nets,
            stored: vec![0; nc],
            prev_sel: BTreeMap::new(),
            prev_fn: BTreeMap::new(),
            prev_load: BTreeMap::new(),
            alu_state: BTreeMap::new(),
            activity: Activity::new(netlist.num_nets(), nc),
        }
    }

    /// Index of `op` within an ALU's function set.
    pub(crate) fn fn_index(fs: mc_dfg::FunctionSet, op: Op) -> usize {
        fs.iter()
            .position(|o| o == op)
            .expect("op validated in set")
    }

    fn set_net(&mut self, net: mc_rtl::NetId, value: u64) {
        let value = value & self.mask;
        let old = self.nets[net.index()];
        if old != value {
            self.activity.net_toggles[net.index()] += (old ^ value).count_ones() as u64;
            self.nets[net.index()] = value;
        }
    }

    fn run(mut self, bound: &BoundInputs, collect_trace: bool, collect_profile: bool) -> SimResult {
        let nl = self.netlist;
        let ni = nl.inputs().len();
        let computations = bound.computations;
        let mut outputs = Vec::with_capacity(computations);
        let mut trace = if collect_trace {
            Some(Vec::new())
        } else {
            None
        };
        if collect_profile {
            self.activity.per_step = Some(Vec::new());
        }
        let mut prev_snapshot = ProfileSnapshot::default();

        // Reset preload: computation 1's inputs sit in the input mems and
        // on the port nets as if loaded by a reset, without counting
        // toggles (steady-state behaviour is what we measure). The
        // boundary step's controls are applied silently so the mems that
        // load at the boundary capture the port values.
        if computations > 0 {
            for (i, (_, comp)) in nl.inputs().iter().enumerate() {
                self.nets[nl.component(*comp).output().index()] = bound.flat[i];
            }
            let boundary = self.period;
            self.apply_controls_silent(boundary);
            self.eval_combinational_silent();
            let word = nl.controller().word(boundary);
            let loads: Vec<CompId> = nl
                .mems()
                .filter(|m| word.mem_load.contains(m))
                .map(mc_rtl::MemId::comp)
                .collect();
            for mem in loads {
                let input = match nl.component(mem).kind() {
                    ComponentKind::Mem { input, .. } => *input,
                    _ => unreachable!("mems() yields memories"),
                };
                let v = self.nets[input.index()];
                self.stored[mem.index()] = v;
                self.nets[nl.component(mem).output().index()] = v;
            }
        }

        for c in 0..computations {
            for t in 1..=self.period {
                // 1. Drive ports: during the boundary step, present the
                // *next* computation's inputs so the boundary edge loads
                // them.
                if t == self.period && c + 1 < computations {
                    let base = (c + 1) * ni;
                    for (i, (_, comp)) in nl.inputs().iter().enumerate() {
                        self.set_net(nl.component(*comp).output(), bound.flat[base + i]);
                    }
                }
                // 2. Effective controls.
                let controls = self.effective_controls(t);
                // 3. Combinational evaluation.
                self.eval_combinational(&controls);
                let load = controls.load;
                // 4. Clock edges and capture (two-phase commit).
                let mut captures: Vec<(CompId, u64)> = Vec::new();
                for mem in nl.mems().map(mc_rtl::MemId::comp) {
                    let comp = nl.component(mem);
                    let phase = comp.mem_phase().expect("mems have phases");
                    if !nl.scheme().is_active(phase, t) {
                        continue;
                    }
                    let loading = load.get(&mem).copied().unwrap_or(false);
                    let pulsed = !self.mode.gated_mem_clocks || loading;
                    if pulsed {
                        self.activity.clock_pulses[mem.index()] += 1;
                    }
                    if loading {
                        let input = match comp.kind() {
                            ComponentKind::Mem { input, .. } => *input,
                            _ => unreachable!(),
                        };
                        captures.push((mem, self.nets[input.index()]));
                    }
                }
                for (mem, v) in captures {
                    let old = self.stored[mem.index()];
                    if old != v {
                        self.activity.store_toggles[mem.index()] += (old ^ v).count_ones() as u64;
                        self.stored[mem.index()] = v;
                    }
                    self.set_net(nl.component(mem).output(), v);
                }
                self.activity.controller_pulses += 1;
                self.activity.steps += 1;
                if let Some(tr) = trace.as_mut() {
                    tr.push(self.nets.clone());
                }
                if collect_profile {
                    let snap = ProfileSnapshot::of(&self.activity);
                    let step = snap.minus(&prev_snapshot);
                    prev_snapshot = snap;
                    self.activity
                        .per_step
                        .as_mut()
                        .expect("profiling enabled")
                        .push(step);
                }
            }
            // End of computation: read the outputs.
            let out: BTreeMap<String, u64> = nl
                .outputs()
                .iter()
                .map(|(name, net)| (name.clone(), self.nets[net.index()]))
                .collect();
            outputs.push(out);
            self.activity.computations += 1;
        }
        SimResult {
            activity: self.activity,
            inputs: Vec::new(),
            outputs,
            trace,
        }
    }

    /// Resolves control values for step `t` under the policy, counting
    /// control-line toggles against the previous step's values.
    fn effective_controls(&mut self, t: u32) -> Controls {
        let nl = self.netlist;
        let word = nl.controller().word(t);
        let policy = self.mode.control_policy;
        let mut controls = Controls::default();
        for c in nl.component_ids() {
            match nl.component(c).kind() {
                ComponentKind::Mux { inputs } => {
                    let eff = match word.sel_of(c) {
                        Some(s) => s,
                        None => match policy {
                            ControlPolicy::Hold => self.prev_sel.get(&c).copied().unwrap_or(0),
                            ControlPolicy::Zero => 0,
                        },
                    };
                    let prev = self.prev_sel.insert(c, eff).unwrap_or(0);
                    let bits = bits_for(inputs.len());
                    self.activity.control_toggles +=
                        ((prev ^ eff) as u64 & ((1u64 << bits) - 1)).count_ones() as u64;
                    controls.sel.insert(c, eff);
                }
                ComponentKind::Alu { fs, .. } => {
                    let explicit = word.fn_of(c);
                    let eff = match explicit {
                        Some(op) => Self::fn_index(*fs, op),
                        None => match policy {
                            ControlPolicy::Hold => self.prev_fn.get(&c).copied().unwrap_or(0),
                            ControlPolicy::Zero => 0,
                        },
                    };
                    let prev = self.prev_fn.insert(c, eff).unwrap_or(0);
                    let bits = bits_for(fs.len());
                    self.activity.control_toggles +=
                        ((prev ^ eff) as u64 & ((1u64 << bits) - 1)).count_ones() as u64;
                    controls.fnx.insert(c, eff);
                    if explicit.is_some() {
                        controls.active_alus.insert(c);
                    }
                }
                ComponentKind::Mem { .. } => {
                    let eff = word.loads(c);
                    let prev = self.prev_load.insert(c, eff).unwrap_or(false);
                    if prev != eff {
                        self.activity.control_toggles += 1;
                    }
                    controls.load.insert(c, eff);
                }
                ComponentKind::Const { .. } | ComponentKind::Input => {}
            }
        }
        controls
    }

    /// Evaluates muxes and ALUs in topological order with full activity
    /// accounting.
    fn eval_combinational(&mut self, controls: &Controls) {
        let nl = self.netlist;
        for &c in nl.combinational_order() {
            match nl.component(c).kind() {
                ComponentKind::Mux { inputs } => {
                    let s = controls
                        .sel
                        .get(&c)
                        .copied()
                        .unwrap_or(0)
                        .min(inputs.len() - 1);
                    let v = self.nets[inputs[s].index()];
                    self.set_net(nl.component(c).output(), v);
                }
                ComponentKind::Alu { fs, a, b } => {
                    let is_active = controls.active_alus.contains(&c);
                    let prev = self.alu_state.get(&c).copied().unwrap_or_default();
                    let (a_val, b_val, f) = if self.mode.operand_isolation && !is_active {
                        // Frozen operands and function: no input activity,
                        // stable output.
                        (prev.prev_a, prev.prev_b, prev.prev_fn)
                    } else {
                        let f = controls.fnx.get(&c).copied().unwrap_or(0);
                        (self.nets[a.index()], self.nets[b.index()], f)
                    };
                    let op = fs.iter().nth(f).unwrap_or_else(|| {
                        fs.iter().next().expect("ALUs have at least one function")
                    });
                    let toggled = (prev.prev_a ^ a_val).count_ones() as u64
                        + (prev.prev_b ^ b_val).count_ones() as u64
                        + if prev.prev_fn != f {
                            u64::from(self.netlist.width())
                        } else {
                            0
                        };
                    self.activity.input_toggles[c.index()] += toggled;
                    self.alu_state.insert(
                        c,
                        AluState {
                            prev_a: a_val,
                            prev_b: b_val,
                            prev_fn: f,
                        },
                    );
                    let out = op.apply(a_val, b_val, self.netlist.width());
                    self.set_net(nl.component(c).output(), out);
                }
                _ => unreachable!("combinational order holds only muxes and ALUs"),
            }
        }
    }

    /// Silent combinational settle used by the reset preload.
    fn eval_combinational_silent(&mut self) {
        let nl = self.netlist;
        for &c in nl.combinational_order() {
            match nl.component(c).kind() {
                ComponentKind::Mux { inputs } => {
                    let s = self
                        .prev_sel
                        .get(&c)
                        .copied()
                        .unwrap_or(0)
                        .min(inputs.len() - 1);
                    self.nets[nl.component(c).output().index()] = self.nets[inputs[s].index()];
                }
                ComponentKind::Alu { fs, a, b } => {
                    let f = self.prev_fn.get(&c).copied().unwrap_or(0);
                    let op = fs
                        .iter()
                        .nth(f)
                        .unwrap_or_else(|| fs.iter().next().expect("non-empty"));
                    self.nets[nl.component(c).output().index()] =
                        op.apply(self.nets[a.index()], self.nets[b.index()], nl.width());
                }
                _ => unreachable!(),
            }
        }
    }

    /// Applies step `t`'s explicit controls without counting toggles
    /// (reset preload only).
    fn apply_controls_silent(&mut self, t: u32) {
        let word = self.netlist.controller().word(t);
        for (&c, &s) in &word.mux_sel {
            self.prev_sel.insert(c.comp(), s);
        }
    }
}

/// Running totals used to derive per-step deltas for profiling.
#[derive(Debug, Clone, Copy, Default)]
struct ProfileSnapshot {
    net: u64,
    input: u64,
    clock: u64,
    store: u64,
    control: u64,
}

impl ProfileSnapshot {
    fn of(a: &Activity) -> Self {
        ProfileSnapshot {
            net: a.net_toggles.iter().sum(),
            input: a.input_toggles.iter().sum(),
            clock: a.clock_pulses.iter().sum(),
            store: a.store_toggles.iter().sum(),
            control: a.control_toggles,
        }
    }

    fn minus(&self, prev: &ProfileSnapshot) -> crate::activity::StepActivity {
        crate::activity::StepActivity {
            net_toggles: self.net - prev.net,
            input_toggles: self.input - prev.input,
            clock_pulses: self.clock - prev.clock,
            store_toggles: self.store - prev.store,
            control_toggles: self.control - prev.control,
        }
    }
}

/// Control bits needed to encode `k` alternatives.
pub(crate) fn bits_for(k: usize) -> u32 {
    if k <= 1 {
        0
    } else {
        (usize::BITS - (k - 1).leading_zeros()).max(1)
    }
}
