//! The structural netlist: components wired by single-driver nets, a
//! controller, and a clock scheme — the output of allocation and the input
//! to simulation, power estimation and export.

use std::collections::BTreeMap;
use std::fmt;

use mc_clocks::{ClockScheme, PhaseId};
use mc_dfg::FunctionSet;
use mc_tech::MemKind;

use crate::component::{AluId, CompId, Component, ComponentKind, MemId, MuxId, NetId};
use crate::control::Controller;
use crate::path::Path;

/// Sentinel for a memory input that has not been connected yet.
const UNCONNECTED: NetId = NetId(u32::MAX);

/// Errors detected while validating a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A memory element was never connected to a data source.
    UnconnectedMem(CompId),
    /// A component references a net that does not exist.
    DanglingNet(CompId, NetId),
    /// The combinational subgraph (muxes/ALUs) contains a cycle not broken
    /// by a memory element.
    CombinationalCycle(CompId),
    /// A controller word targets a component of the wrong kind or with an
    /// out-of-range value.
    BadControl {
        /// The 1-based control step.
        step: u32,
        /// The component targeted.
        comp: CompId,
        /// Human-readable explanation.
        reason: String,
    },
    /// A memory element's phase exceeds the clock scheme.
    PhaseOutOfRange(CompId, PhaseId),
    /// A primary output references a net that does not exist.
    BadOutput(String),
    /// A mux was declared with no inputs.
    EmptyMux(CompId),
    /// A component addressed as a memory element is not one.
    NotAMemory(CompId),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UnconnectedMem(c) => write!(f, "memory {c} has no data input"),
            NetlistError::DanglingNet(c, n) => write!(f, "component {c} references missing {n}"),
            NetlistError::CombinationalCycle(c) => {
                write!(f, "combinational cycle through component {c}")
            }
            NetlistError::BadControl { step, comp, reason } => {
                write!(f, "bad control at step {step} for {comp}: {reason}")
            }
            NetlistError::PhaseOutOfRange(c, p) => {
                write!(f, "memory {c} clocked by {p} outside the scheme")
            }
            NetlistError::BadOutput(name) => write!(f, "primary output `{name}` has no net"),
            NetlistError::EmptyMux(c) => write!(f, "mux {c} has no inputs"),
            NetlistError::NotAMemory(c) => write!(f, "component {c} is not a memory element"),
        }
    }
}

impl std::error::Error for NetlistError {}

/// Resource statistics in the shape of the paper's table columns: ALU
/// function sets, memory cells (words), and total mux data inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetlistStats {
    /// Function set of every ALU.
    pub alus: Vec<FunctionSet>,
    /// Number of memory elements (words), the "Mem. Cells" column.
    pub mem_cells: usize,
    /// Total data inputs over all muxes with ≥ 2 inputs, the "Mux In's"
    /// column.
    pub mux_inputs: usize,
    /// Number of muxes with ≥ 2 inputs.
    pub muxes: usize,
    /// Number of nets.
    pub nets: usize,
}

impl NetlistStats {
    /// Formats the ALU list the way the paper's tables do: `2(+),1(*+)`.
    #[must_use]
    pub fn alu_summary(&self) -> String {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for fs in &self.alus {
            *counts.entry(fs.to_string()).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .map(|(fs, n)| format!("{n}{fs}"))
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// A validated structural netlist.
///
/// Built with [`NetlistBuilder`]; all structural invariants (single-driver
/// nets, acyclic combinational logic, well-typed control words) hold after
/// [`NetlistBuilder::finish`].
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    name: String,
    width: u8,
    scheme: ClockScheme,
    components: Vec<Component>,
    net_names: Vec<String>,
    net_driver: Vec<CompId>,
    receivers: Receivers,
    controller: Controller,
    inputs: Vec<(String, CompId)>,
    outputs: Vec<(String, NetId)>,
    comb_order: Vec<CompId>,
    path_index: BTreeMap<Path, CompId>,
}

/// The receivers index: for every net, the distinct components reading
/// it, in id order, stored flat. Net `n`'s receivers are
/// `comps[start[n]..start[n + 1]]`.
#[derive(Debug, Clone, PartialEq)]
struct Receivers {
    start: Vec<u32>,
    comps: Vec<CompId>,
}

impl Receivers {
    /// Indexes `components` over `nets` nets. A component reading one net
    /// on several inputs (a mux selecting it twice, an ALU with `a == b`)
    /// is listed once. Every data input must be below `nets`.
    fn build(components: &[Component], nets: usize) -> Receivers {
        let distinct = |comp: &Component| {
            let mut inputs = comp.data_inputs();
            inputs.sort_unstable();
            inputs.dedup();
            inputs
        };
        let mut start = vec![0u32; nets + 1];
        for comp in components {
            for n in distinct(comp) {
                start[n.index() + 1] += 1;
            }
        }
        for i in 0..nets {
            start[i + 1] += start[i];
        }
        let mut fill: Vec<u32> = start[..nets].to_vec();
        let mut comps = vec![CompId(0); start[nets] as usize];
        for (i, comp) in components.iter().enumerate() {
            for n in distinct(comp) {
                comps[fill[n.index()] as usize] = CompId(i as u32);
                fill[n.index()] += 1;
            }
        }
        Receivers { start, comps }
    }

    fn of(&self, n: NetId) -> &[CompId] {
        &self.comps[self.start[n.index()] as usize..self.start[n.index() + 1] as usize]
    }
}

impl Netlist {
    /// The design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Datapath bit width.
    #[must_use]
    pub fn width(&self) -> u8 {
        self.width
    }

    /// The clock scheme the design runs under.
    #[must_use]
    pub fn scheme(&self) -> ClockScheme {
        self.scheme
    }

    /// Number of components.
    #[must_use]
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Number of nets.
    #[must_use]
    pub fn num_nets(&self) -> usize {
        self.net_names.len()
    }

    /// The component `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` does not belong to this netlist.
    #[must_use]
    pub fn component(&self, c: CompId) -> &Component {
        &self.components[c.index()]
    }

    /// The component `c`, or `None` when the id belongs to another
    /// netlist — the non-panicking twin of [`Netlist::component`].
    #[must_use]
    pub fn get(&self, c: CompId) -> Option<&Component> {
        self.components.get(c.index())
    }

    /// Looks a component up by its stable hierarchical path.
    #[must_use]
    pub fn find(&self, path: &Path) -> Option<CompId> {
        self.path_index.get(path).copied()
    }

    /// The typed memory reference for `c`, if `c` is a memory element of
    /// this netlist.
    #[must_use]
    pub fn as_mem(&self, c: CompId) -> Option<MemId> {
        self.get(c).filter(|k| k.is_mem()).map(|_| MemId(c))
    }

    /// The typed ALU reference for `c`, if `c` is an ALU of this netlist.
    #[must_use]
    pub fn as_alu(&self, c: CompId) -> Option<AluId> {
        self.get(c).filter(|k| k.is_alu()).map(|_| AluId(c))
    }

    /// The typed mux reference for `c`, if `c` is a mux of this netlist.
    #[must_use]
    pub fn as_mux(&self, c: CompId) -> Option<MuxId> {
        self.get(c).filter(|k| k.is_mux()).map(|_| MuxId(c))
    }

    /// Iterates over all component ids.
    pub fn component_ids(&self) -> impl Iterator<Item = CompId> {
        (0..self.components.len() as u32).map(CompId)
    }

    /// All components as a dense slice, indexed by [`CompId::index`].
    ///
    /// This is the index-addressed access path used by compiled execution
    /// (e.g. the `mc-sim` kernel lowering), which walks components by
    /// position instead of chasing ids through [`Netlist::component`].
    #[must_use]
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Iterates over all net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> {
        (0..self.net_names.len() as u32).map(NetId)
    }

    /// The name of net `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not belong to this netlist.
    #[must_use]
    pub fn net_name(&self, n: NetId) -> &str {
        &self.net_names[n.index()]
    }

    /// The component driving net `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not belong to this netlist.
    #[must_use]
    pub fn driver_of(&self, n: NetId) -> CompId {
        self.net_driver[n.index()]
    }

    /// The components reading net `n` (receivers), in id order, each
    /// listed once however many of its inputs read `n`. An O(1) lookup
    /// into the index [`NetlistBuilder::finish`] builds.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not belong to this netlist.
    #[must_use]
    pub fn receivers_of(&self, n: NetId) -> &[CompId] {
        self.receivers.of(n)
    }

    /// The controller FSM.
    #[must_use]
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Primary inputs: `(name, input component)` in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[(String, CompId)] {
        &self.inputs
    }

    /// Primary outputs: `(name, net)` in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// Combinational components (muxes, ALUs) in evaluation order: every
    /// component appears after all combinational components driving its
    /// inputs.
    #[must_use]
    pub fn combinational_order(&self) -> &[CompId] {
        &self.comb_order
    }

    /// The memory elements, in id order.
    pub fn mems(&self) -> impl Iterator<Item = MemId> + '_ {
        self.component_ids()
            .filter(|&c| self.component(c).is_mem())
            .map(MemId)
    }

    /// Resource statistics in the paper's table shape.
    #[must_use]
    pub fn stats(&self) -> NetlistStats {
        let mut alus = Vec::new();
        let mut mem_cells = 0;
        let mut mux_inputs = 0;
        let mut muxes = 0;
        for c in &self.components {
            match c.kind() {
                ComponentKind::Alu { fs, .. } => alus.push(*fs),
                ComponentKind::Mem { .. } => mem_cells += 1,
                ComponentKind::Mux { inputs } if inputs.len() >= 2 => {
                    mux_inputs += inputs.len();
                    muxes += 1;
                }
                _ => {}
            }
        }
        NetlistStats {
            alus,
            mem_cells,
            mux_inputs,
            muxes,
            nets: self.num_nets(),
        }
    }

    /// Groups components into the paper's datapath modules (Fig. 3b):
    /// memory elements by phase, each combinational component assigned to
    /// the phase of the memories it (transitively) feeds. Components
    /// feeding several phases are reported under the smallest such phase
    /// and flagged shared in the export.
    #[must_use]
    pub fn dpm_groups(&self) -> BTreeMap<PhaseId, Vec<CompId>> {
        let mut groups: BTreeMap<PhaseId, Vec<CompId>> = BTreeMap::new();
        for k in self.scheme.phases() {
            groups.insert(k, Vec::new());
        }
        // Phase of each component: mems have their own; combinational
        // components inherit the phase of the nearest downstream mem.
        let mut phase_of: Vec<Option<PhaseId>> = vec![None; self.components.len()];
        for c in self.component_ids() {
            if let Some(p) = self.component(c).mem_phase() {
                phase_of[c.index()] = Some(p);
            }
        }
        // Walk combinational components in reverse evaluation order so
        // downstream phases are known first.
        for &c in self.comb_order.iter().rev() {
            let receivers = self.receivers_of(self.component(c).output());
            let p = receivers.iter().filter_map(|&r| phase_of[r.index()]).min();
            phase_of[c.index()] = p;
        }
        for c in self.component_ids() {
            if let Some(p) = phase_of[c.index()] {
                groups.entry(p).or_default().push(c);
            }
        }
        groups
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "netlist `{}` ({} bits, {})",
            self.name, self.width, self.scheme
        )?;
        for c in self.component_ids() {
            writeln!(f, "  {c}: {}", self.component(c))?;
        }
        Ok(())
    }
}

/// Incremental builder for [`Netlist`]. Allocators use this to materialise
/// a datapath; see crate-level docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    width: u8,
    scheme: ClockScheme,
    components: Vec<Component>,
    net_names: Vec<String>,
    controller: Controller,
    inputs: Vec<(String, CompId)>,
    outputs: Vec<(String, NetId)>,
    /// Current instance scope: new components get paths below it.
    scope: Vec<String>,
    /// Paths already taken, for deterministic uniquification.
    used_paths: BTreeMap<String, u32>,
}

impl NetlistBuilder {
    /// Starts a netlist for `width`-bit data under `scheme`, with a
    /// controller of `steps` control steps.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0` (propagated from [`Controller::new`]).
    #[must_use]
    pub fn new(name: &str, width: u8, scheme: ClockScheme, steps: u32) -> Self {
        NetlistBuilder {
            name: name.to_owned(),
            width,
            scheme,
            components: Vec::new(),
            net_names: Vec::new(),
            controller: Controller::new(steps),
            inputs: Vec::new(),
            outputs: Vec::new(),
            scope: Vec::new(),
            used_paths: BTreeMap::new(),
        }
    }

    /// Opens an instance scope: components added until the matching
    /// [`NetlistBuilder::pop_scope`] get paths below `segment`. Scopes
    /// nest; `segment` is sanitized like a label.
    pub fn push_scope(&mut self, segment: &str) {
        self.scope.push(Path::sanitize(segment));
    }

    /// Closes the innermost instance scope (no-op at the root).
    pub fn pop_scope(&mut self) {
        self.scope.pop();
    }

    /// Derives the unique path for a new component labelled `label` in
    /// the current scope. Deterministic: replaying the same scopes and
    /// labels in the same order reproduces the same paths.
    fn derive_path(&mut self, label: &str) -> Path {
        let mut text = self.scope.join(".");
        if !text.is_empty() {
            text.push('.');
        }
        text.push_str(&Path::sanitize(label));
        let mut candidate = text.clone();
        loop {
            let n = self.used_paths.entry(candidate.clone()).or_insert(0);
            *n += 1;
            if *n == 1 {
                return Path::parse(&candidate).expect("derived paths are valid");
            }
            candidate = format!("{text}_{n}");
        }
    }

    fn push(&mut self, kind: ComponentKind, label: String, net_name: String) -> (CompId, NetId) {
        let path = self.derive_path(&label);
        let out = NetId(self.net_names.len() as u32);
        self.net_names.push(net_name);
        let id = CompId(self.components.len() as u32);
        self.components.push(Component {
            kind,
            out,
            path,
            label,
        });
        (id, out)
    }

    /// Adds a primary-input port named `name`; returns the port and the
    /// net it drives.
    pub fn add_input(&mut self, name: &str) -> (CompId, NetId) {
        let (id, out) = self.push(ComponentKind::Input, name.to_owned(), format!("in_{name}"));
        self.inputs.push((name.to_owned(), id));
        (id, out)
    }

    /// Adds a constant driver.
    pub fn add_const(&mut self, value: u64) -> (CompId, NetId) {
        self.push(
            ComponentKind::Const { value },
            format!("#{value}"),
            format!("const_{value}"),
        )
    }

    /// Adds an ALU implementing `fs` with operand nets `a` and `b`.
    pub fn add_alu(&mut self, fs: FunctionSet, a: NetId, b: NetId, label: &str) -> (AluId, NetId) {
        let (id, out) = self.push(
            ComponentKind::Alu { fs, a, b },
            label.to_owned(),
            format!("alu_{label}"),
        );
        (AluId(id), out)
    }

    /// Adds a memory element with its data input initially unconnected;
    /// connect it later with [`NetlistBuilder::set_mem_input`]. This
    /// two-step protocol is what allows feedback through registers.
    pub fn add_mem(&mut self, kind: MemKind, phase: PhaseId, label: &str) -> (MemId, NetId) {
        let (id, out) = self.push(
            ComponentKind::Mem {
                kind,
                phase,
                input: UNCONNECTED,
            },
            label.to_owned(),
            format!("mem_{label}"),
        );
        (MemId(id), out)
    }

    /// Connects the data input of memory `mem` to `net`. Infallible: a
    /// [`MemId`] can only name a memory element.
    pub fn set_mem_input(&mut self, mem: MemId, net: NetId) {
        self.try_set_mem_input(mem.comp(), net)
            .expect("MemId names a memory element");
    }

    /// Connects the data input of component `mem` to `net`, for callers
    /// holding an untyped id (e.g. importers resolving forward
    /// references).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NotAMemory`] if `mem` is not a memory
    /// element of this netlist.
    pub fn try_set_mem_input(&mut self, mem: CompId, net: NetId) -> Result<(), NetlistError> {
        match self.components.get_mut(mem.index()).map(|c| &mut c.kind) {
            Some(ComponentKind::Mem { input, .. }) => {
                *input = net;
                Ok(())
            }
            _ => Err(NetlistError::NotAMemory(mem)),
        }
    }

    /// Adds a multiplexer over `inputs` (in select order).
    pub fn add_mux(&mut self, inputs: Vec<NetId>, label: &str) -> (MuxId, NetId) {
        let (id, out) = self.push(
            ComponentKind::Mux { inputs },
            label.to_owned(),
            format!("mux_{label}"),
        );
        (MuxId(id), out)
    }

    /// Declares net `net` as the primary output `name`.
    pub fn mark_output(&mut self, name: &str, net: NetId) {
        self.outputs.push((name.to_owned(), net));
    }

    /// Mutable access to the controller being built.
    pub fn controller_mut(&mut self) -> &mut Controller {
        &mut self.controller
    }

    /// The output net of component `c` (valid during building).
    ///
    /// # Panics
    ///
    /// Panics if `c` has not been added.
    #[must_use]
    pub fn output_of(&self, c: CompId) -> NetId {
        self.components[c.index()].out
    }

    /// The derived hierarchical path of component `c` (valid during
    /// building). Importers use this to verify that replaying an exported
    /// netlist reproduces the recorded paths.
    ///
    /// # Panics
    ///
    /// Panics if `c` has not been added.
    #[must_use]
    pub fn path_of(&self, c: CompId) -> &Path {
        &self.components[c.index()].path
    }

    /// The generated name of net `n` (valid during building).
    ///
    /// # Panics
    ///
    /// Panics if `n` has not been created.
    #[must_use]
    pub fn net_name(&self, n: NetId) -> &str {
        &self.net_names[n.index()]
    }

    /// Number of components added so far.
    #[must_use]
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Validates and freezes the netlist.
    ///
    /// # Errors
    ///
    /// Returns a [`NetlistError`] describing the first violated invariant;
    /// see that type for the full list of checks.
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        let nn = self.net_names.len();
        let nc = self.components.len();
        // Connectivity checks.
        for (i, comp) in self.components.iter().enumerate() {
            let id = CompId(i as u32);
            if let ComponentKind::Mem { input, .. } = comp.kind {
                if input == UNCONNECTED {
                    return Err(NetlistError::UnconnectedMem(id));
                }
            }
            if let ComponentKind::Mux { inputs } = &comp.kind {
                if inputs.is_empty() {
                    return Err(NetlistError::EmptyMux(id));
                }
            }
            for n in comp.data_inputs() {
                if n.index() >= nn {
                    return Err(NetlistError::DanglingNet(id, n));
                }
            }
            if let Some(p) = comp.mem_phase() {
                if p.get() > self.scheme.num_clocks() {
                    return Err(NetlistError::PhaseOutOfRange(id, p));
                }
            }
        }
        let net_driver: Vec<CompId> = {
            let mut d = vec![CompId(u32::MAX); nn];
            for (i, comp) in self.components.iter().enumerate() {
                d[comp.out.index()] = CompId(i as u32);
            }
            debug_assert!(
                d.iter().all(|c| c.0 != u32::MAX),
                "every net is created with its driver"
            );
            d
        };
        // Controller checks. The maps are typed, but a typed id can still
        // originate from *another* netlist, so kind and range are checked
        // against this netlist's components.
        for (t, w) in self.controller.iter() {
            for (&c, &sel) in &w.mux_sel {
                match self.components.get(c.index()).map(Component::kind) {
                    Some(ComponentKind::Mux { inputs }) => {
                        if sel >= inputs.len() {
                            return Err(NetlistError::BadControl {
                                step: t,
                                comp: c.comp(),
                                reason: format!("select {sel} on a {}-input mux", inputs.len()),
                            });
                        }
                    }
                    _ => {
                        return Err(NetlistError::BadControl {
                            step: t,
                            comp: c.comp(),
                            reason: "mux select on a non-mux".into(),
                        })
                    }
                }
            }
            for (&c, &op) in &w.alu_fn {
                match self.components.get(c.index()).map(Component::kind) {
                    Some(ComponentKind::Alu { fs, .. }) => {
                        if !fs.contains(op) {
                            return Err(NetlistError::BadControl {
                                step: t,
                                comp: c.comp(),
                                reason: format!("function {op} outside {fs}"),
                            });
                        }
                    }
                    _ => {
                        return Err(NetlistError::BadControl {
                            step: t,
                            comp: c.comp(),
                            reason: "ALU function on a non-ALU".into(),
                        })
                    }
                }
            }
            for &c in &w.mem_load {
                if !self
                    .components
                    .get(c.index())
                    .map(Component::is_mem)
                    .unwrap_or(false)
                {
                    return Err(NetlistError::BadControl {
                        step: t,
                        comp: c.comp(),
                        reason: "load enable on a non-memory".into(),
                    });
                }
            }
        }
        // Combinational topological order (Kahn); mem/const/input outputs
        // are sources. In-degrees count distinct input nets, matching the
        // receivers index, which lists each reader of a net once.
        let receivers = Receivers::build(&self.components, nn);
        let is_comb = |c: CompId| self.components[c.index()].is_combinational();
        let mut indeg = vec![0usize; nc];
        for (n, &d) in net_driver.iter().enumerate() {
            if is_comb(d) {
                for &r in receivers
                    .of(NetId(n as u32))
                    .iter()
                    .filter(|&&r| is_comb(r))
                {
                    indeg[r.index()] += 1;
                }
            }
        }
        let mut queue: Vec<usize> = (0..nc)
            .filter(|&i| self.components[i].is_combinational() && indeg[i] == 0)
            .collect();
        let mut comb_order = Vec::new();
        let mut head = 0;
        while head < queue.len() {
            let i = queue[head];
            head += 1;
            comb_order.push(CompId(i as u32));
            for &r in receivers
                .of(self.components[i].out)
                .iter()
                .filter(|&&r| is_comb(r))
            {
                indeg[r.index()] -= 1;
                if indeg[r.index()] == 0 {
                    queue.push(r.index());
                }
            }
        }
        let comb_total = self
            .components
            .iter()
            .filter(|c| c.is_combinational())
            .count();
        if comb_order.len() != comb_total {
            let stuck = (0..nc)
                .find(|&i| self.components[i].is_combinational() && indeg[i] > 0)
                .expect("cycle member exists");
            return Err(NetlistError::CombinationalCycle(CompId(stuck as u32)));
        }
        // Output checks.
        for (name, n) in &self.outputs {
            if n.index() >= nn {
                return Err(NetlistError::BadOutput(name.clone()));
            }
        }
        // Path index: builder-side uniquification guarantees injectivity.
        let path_index: BTreeMap<Path, CompId> = self
            .components
            .iter()
            .enumerate()
            .map(|(i, c)| (c.path.clone(), CompId(i as u32)))
            .collect();
        debug_assert_eq!(
            path_index.len(),
            self.components.len(),
            "paths are unique by construction"
        );
        Ok(Netlist {
            name: self.name,
            width: self.width,
            scheme: self.scheme,
            components: self.components,
            net_names: self.net_names,
            net_driver,
            receivers,
            controller: self.controller,
            inputs: self.inputs,
            outputs: self.outputs,
            comb_order,
            path_index,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_dfg::Op;

    /// in_a, in_b -> mux2 -> ALU(+,-) -> latch@1 -> output; ALU.b = in_b.
    fn small() -> Netlist {
        let scheme = ClockScheme::new(2).unwrap();
        let mut nb = NetlistBuilder::new("small", 4, scheme, 2);
        let (_, a) = nb.add_input("a");
        let (_, b) = nb.add_input("b");
        let (r, rout) = nb.add_mem(MemKind::Latch, PhaseId::new(1), "r0");
        let (m, mout) = nb.add_mux(vec![a, rout], "m0");
        let fs = FunctionSet::from_ops([Op::Add, Op::Sub]);
        let (alu, aout) = nb.add_alu(fs, mout, b, "alu0");
        nb.set_mem_input(r, aout);
        nb.mark_output("y", rout);
        {
            let w = nb.controller_mut().word_mut(1);
            w.mux_sel.insert(m, 0);
            w.alu_fn.insert(alu, Op::Add);
            w.mem_load.insert(r);
        }
        nb.finish().expect("small netlist is valid")
    }

    #[test]
    fn builder_produces_connected_netlist() {
        let n = small();
        assert_eq!(n.num_components(), 5);
        assert_eq!(n.num_nets(), 5);
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.outputs().len(), 1);
    }

    #[test]
    fn drivers_and_receivers() {
        let n = small();
        let mem = n.mems().next().unwrap().comp();
        let mem_out = n.component(mem).output();
        assert_eq!(n.driver_of(mem_out), mem);
        // The mem output feeds the mux (input 1).
        let recv = n.receivers_of(mem_out);
        assert_eq!(recv.len(), 1);
        assert!(n.component(recv[0]).is_mux());
    }

    #[test]
    fn receivers_list_each_reader_once_in_id_order() {
        // A mux reading `a` on two inputs and an ALU with `a == b`: each
        // is one receiver of `a`, and a net read twice counts once in the
        // combinational order's in-degrees too.
        let scheme = ClockScheme::single();
        let mut nb = NetlistBuilder::new("dup", 4, scheme, 1);
        let (_, a) = nb.add_input("a");
        let (_, b) = nb.add_input("b");
        let (m, mout) = nb.add_mux(vec![a, b, a], "m");
        let (alu, aout) = nb.add_alu(FunctionSet::single(Op::Add), a, a, "sq");
        let (alu2, _) = nb.add_alu(FunctionSet::single(Op::Add), mout, mout, "dbl");
        let (r, rout) = nb.add_mem(MemKind::Dff, PhaseId::new(1), "r");
        nb.set_mem_input(r, aout);
        nb.mark_output("y", rout);
        let n = nb.finish().unwrap();
        let scan = |net: NetId| -> Vec<CompId> {
            n.component_ids()
                .filter(|&c| n.component(c).data_inputs().contains(&net))
                .collect()
        };
        for net in n.net_ids() {
            assert_eq!(n.receivers_of(net), scan(net).as_slice(), "{net}");
        }
        assert_eq!(n.receivers_of(a), &[m.comp(), alu.comp()]);
        assert_eq!(n.receivers_of(b), &[m.comp()]);
        assert_eq!(n.receivers_of(mout), &[alu2.comp()]);
        assert_eq!(n.receivers_of(aout), &[r.comp()]);
        assert!(n.receivers_of(rout).is_empty());
        assert_eq!(
            n.combinational_order(),
            &[m.comp(), alu.comp(), alu2.comp()]
        );
    }

    #[test]
    fn combinational_order_respects_dependences() {
        let n = small();
        let order = n.combinational_order();
        assert_eq!(order.len(), 2); // mux then ALU
        assert!(n.component(order[0]).is_mux());
        assert!(n.component(order[1]).is_alu());
    }

    #[test]
    fn stats_match_structure() {
        let n = small();
        let s = n.stats();
        assert_eq!(s.alus.len(), 1);
        assert_eq!(s.mem_cells, 1);
        assert_eq!(s.mux_inputs, 2);
        assert_eq!(s.muxes, 1);
        assert_eq!(s.alu_summary(), "1(+-)");
    }

    #[test]
    fn unconnected_mem_rejected() {
        let scheme = ClockScheme::single();
        let mut nb = NetlistBuilder::new("bad", 4, scheme, 1);
        let (_m, _) = nb.add_mem(MemKind::Dff, PhaseId::new(1), "r");
        let err = nb.finish().unwrap_err();
        assert!(matches!(err, NetlistError::UnconnectedMem(_)));
    }

    #[test]
    fn empty_mux_rejected() {
        let scheme = ClockScheme::single();
        let mut nb = NetlistBuilder::new("bad", 4, scheme, 1);
        nb.add_mux(vec![], "m");
        assert!(matches!(
            nb.finish().unwrap_err(),
            NetlistError::EmptyMux(_)
        ));
    }

    #[test]
    fn phase_out_of_range_rejected() {
        let scheme = ClockScheme::single();
        let mut nb = NetlistBuilder::new("bad", 4, scheme, 1);
        let (_, a) = nb.add_input("a");
        let (m, _) = nb.add_mem(MemKind::Latch, PhaseId::new(2), "r");
        nb.set_mem_input(m, a);
        assert!(matches!(
            nb.finish().unwrap_err(),
            NetlistError::PhaseOutOfRange(..)
        ));
    }

    #[test]
    fn bad_mux_select_rejected() {
        let scheme = ClockScheme::single();
        let mut nb = NetlistBuilder::new("bad", 4, scheme, 1);
        let (_, a) = nb.add_input("a");
        let (m, _) = nb.add_mux(vec![a], "m");
        nb.controller_mut().word_mut(1).mux_sel.insert(m, 1);
        assert!(matches!(
            nb.finish().unwrap_err(),
            NetlistError::BadControl { .. }
        ));
    }

    #[test]
    fn alu_function_outside_set_rejected() {
        let scheme = ClockScheme::single();
        let mut nb = NetlistBuilder::new("bad", 4, scheme, 1);
        let (_, a) = nb.add_input("a");
        let (alu, _) = nb.add_alu(FunctionSet::single(Op::Add), a, a, "alu");
        nb.controller_mut().word_mut(1).alu_fn.insert(alu, Op::Mul);
        assert!(matches!(
            nb.finish().unwrap_err(),
            NetlistError::BadControl { .. }
        ));
    }

    #[test]
    fn load_on_non_mem_rejected() {
        let scheme = ClockScheme::single();
        let mut nb = NetlistBuilder::new("bad", 4, scheme, 1);
        let (inp, _) = nb.add_input("a");
        nb.controller_mut().word_mut(1).mem_load.insert(MemId(inp));
        assert!(matches!(
            nb.finish().unwrap_err(),
            NetlistError::BadControl { .. }
        ));
    }

    #[test]
    fn try_set_mem_input_rejects_non_memories() {
        let scheme = ClockScheme::single();
        let mut nb = NetlistBuilder::new("bad", 4, scheme, 1);
        let (inp, a) = nb.add_input("a");
        let err = nb.try_set_mem_input(inp, a).unwrap_err();
        assert_eq!(err, NetlistError::NotAMemory(inp));
        assert!(err.to_string().contains("not a memory element"));
    }

    #[test]
    fn paths_follow_scopes_and_are_unique() {
        let scheme = ClockScheme::single();
        let mut nb = NetlistBuilder::new("p", 4, scheme, 1);
        nb.push_scope("io");
        let (a_id, a) = nb.add_input("a");
        nb.pop_scope();
        nb.push_scope("regs");
        let (r1, _) = nb.add_mem(MemKind::Dff, PhaseId::new(1), "x/y");
        let (r2, _) = nb.add_mem(MemKind::Dff, PhaseId::new(1), "x/y");
        nb.pop_scope();
        nb.set_mem_input(r1, a);
        nb.set_mem_input(r2, a);
        nb.mark_output("y", nb.output_of(r1.comp()));
        {
            let w = nb.controller_mut().word_mut(1);
            w.mem_load.insert(r1);
            w.mem_load.insert(r2);
        }
        let n = nb.finish().unwrap();
        assert_eq!(n.component(a_id).path().to_string(), "io.a");
        assert_eq!(n.component(r1.comp()).path().to_string(), "regs.x_y");
        assert_eq!(n.component(r2.comp()).path().to_string(), "regs.x_y_2");
        let p = Path::parse("regs.x_y_2").unwrap();
        assert_eq!(n.find(&p), Some(r2.comp()));
        assert_eq!(n.find(&Path::parse("regs.missing").unwrap()), None);
    }

    #[test]
    fn typed_lookups_check_kinds() {
        let n = small();
        let mem = n.mems().next().unwrap();
        assert_eq!(n.as_mem(mem.comp()), Some(mem));
        assert_eq!(n.as_alu(mem.comp()), None);
        assert_eq!(n.as_mux(mem.comp()), None);
        assert!(n.get(CompId(999)).is_none());
        assert!(n.as_mem(CompId(999)).is_none());
    }

    #[test]
    fn combinational_cycle_rejected() {
        let scheme = ClockScheme::single();
        let mut nb = NetlistBuilder::new("bad", 4, scheme, 1);
        let (_, a) = nb.add_input("a");
        // mux1 reads mux2's output and vice versa: a combinational loop.
        // Nets: in_a = w0, m1 out = w1, m2 out = w2.
        let (_m1, o1) = nb.add_mux(vec![a, NetId(2)], "m1"); // forward ref to m2's output
        let (_m2, _o2) = nb.add_mux(vec![o1], "m2");
        let err = nb.finish().unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalCycle(_)));
    }

    #[test]
    fn dpm_groups_split_by_phase() {
        let scheme = ClockScheme::new(2).unwrap();
        let mut nb = NetlistBuilder::new("dpm", 4, scheme, 2);
        let (_, a) = nb.add_input("a");
        let (r1, _) = nb.add_mem(MemKind::Latch, PhaseId::new(1), "r1");
        let (r2, _) = nb.add_mem(MemKind::Latch, PhaseId::new(2), "r2");
        let (_alu, aout) = nb.add_alu(FunctionSet::single(Op::Add), a, a, "alu");
        nb.set_mem_input(r1, aout);
        nb.set_mem_input(r2, a);
        let n = nb.finish().unwrap();
        let groups = n.dpm_groups();
        // ALU feeds r1 (phase 1), so it lands in phase 1's DPM.
        assert_eq!(groups[&PhaseId::new(1)].len(), 2);
        assert_eq!(groups[&PhaseId::new(2)].len(), 1);
    }

    #[test]
    fn display_lists_components() {
        let n = small();
        let s = n.to_string();
        assert!(s.contains("netlist `small`"));
        assert!(s.contains("ALU(+-)"));
        assert!(s.contains("LATCH@CLK1"));
    }
}
