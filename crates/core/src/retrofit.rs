//! The single-clock → multi-phase retrofit flow (§4 applied to *existing*
//! RTL): take a conventional single-clock datapath — imported from
//! structural VHDL, the `mcnl` interchange format, or an in-memory
//! [`Netlist`] — and re-emit it as a latch-based multi-clock design under
//! the paper's non-overlapping `n`-phase scheme, without rescheduling.
//!
//! Where the allocator (`mc-alloc`) *builds* a multi-clock datapath from a
//! behaviour, the retrofit *converts* one that already exists:
//!
//! 1. **Import** — parse the source into the flat netlist and lift it into
//!    the hierarchical [`Circuit`] model ([`retrofit_source`]).
//! 2. **Lifetime inference** — derive each register's write steps and
//!    per-step read cones from the controller, and cross-check them
//!    against observed activity from a compiled-kernel probe simulation
//!    ([`infer_lifetimes`]).
//! 3. **Phase partition** — assign every register a phase `1..=n` so that
//!    within each original step, every register is captured strictly
//!    before the registers it reads (the non-overlapping clocking rule
//!    that makes transparent latches safe). Constraint chains deeper than
//!    `n` and read/write cycles are broken with *shadow latches*: a
//!    phase-1 latch that samples the old value at the start of every step
//!    group, so readers see pre-step state regardless of capture order.
//! 4. **Emit** — stretch the controller by `n` (each original step becomes
//!    `n` sub-steps holding the same selects and functions), schedule each
//!    register's load on its own phase's sub-step, convert every DFF to a
//!    latch, and flatten back to a [`Netlist`].
//! 5. **Verify** — compile original and converted designs once each into
//!    the multi-seed kernel, sweep every seed's stimulus (drawn once,
//!    bound to both designs by port name) through both a lane chunk at a
//!    time, require bit-identical outputs per computation, then price
//!    both from the same sweep's activities with the Monte-Carlo power
//!    estimator ([`verify_retrofit`]).
//!
//! The converted design computes at `f/n` per phase — throughput per
//! computation drops by the reported latency factor `n` — but every latch
//! is clocked at `f/n` with the cheaper latch clock load, which is the
//! paper's power trade.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use mc_clocks::{ClockError, ClockScheme, PhaseId};
use mc_power::{evaluate_design_monte_carlo, DesignReport};
use mc_rtl::discipline::check_latch_discipline;
use mc_rtl::hier::{Cell, Circuit, CircuitWord, HierError};
use mc_rtl::import::{from_mcnl, from_vhdl, ImportError};
use mc_rtl::{Netlist, Path, PowerMode};
use mc_sim::{simulate, BatchBackend, SimConfig, SimError};
use mc_tech::{MemKind, TechLibrary};

use crate::replay::{replay, Failure, Plan};

/// Errors from the retrofit flow.
#[derive(Debug)]
pub enum RetrofitError {
    /// The source text failed to parse.
    Import(ImportError),
    /// The input design is not single-clock (retrofit converts
    /// conventional designs; multi-clock inputs are already converted).
    NotSingleClock(u32),
    /// The target clock count is not a valid multi-phase scheme.
    Clock(ClockError),
    /// Retrofitting needs at least two phases.
    TooFewClocks(u32),
    /// The rewritten circuit failed to flatten (an internal bug).
    Hier(HierError),
    /// The converted netlist violates the latch discipline (an internal
    /// bug in the phase partition).
    Discipline(String),
    /// Simulation of either design failed.
    Sim(SimError),
    /// The converted design diverged from the original.
    Diverged(Box<RetrofitMismatch>),
}

/// The first observed output divergence between original and converted
/// designs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetrofitMismatch {
    /// The stimulus seed under which the divergence occurred.
    pub seed: u64,
    /// The 0-based computation index.
    pub computation: usize,
    /// The diverging output port.
    pub port: String,
    /// The original design's output value.
    pub original: u64,
    /// The converted design's output value.
    pub converted: u64,
}

impl fmt::Display for RetrofitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetrofitError::Import(e) => write!(f, "import: {e}"),
            RetrofitError::NotSingleClock(n) => {
                write!(
                    f,
                    "input design runs {n} clocks; retrofit expects a single clock"
                )
            }
            RetrofitError::Clock(e) => write!(f, "clock scheme: {e}"),
            RetrofitError::TooFewClocks(n) => {
                write!(f, "retrofit needs at least 2 phases, got {n}")
            }
            RetrofitError::Hier(e) => write!(f, "circuit rewrite: {e}"),
            RetrofitError::Discipline(s) => {
                write!(f, "converted design violates the latch discipline: {s}")
            }
            RetrofitError::Sim(e) => write!(f, "simulation: {e}"),
            RetrofitError::Diverged(m) => write!(
                f,
                "seed {} computation {}: output `{}` diverged ({} vs {})",
                m.seed, m.computation, m.port, m.original, m.converted
            ),
        }
    }
}

impl std::error::Error for RetrofitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RetrofitError::Import(e) => Some(e),
            RetrofitError::Clock(e) => Some(e),
            RetrofitError::Hier(e) => Some(e),
            RetrofitError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ImportError> for RetrofitError {
    fn from(e: ImportError) -> Self {
        RetrofitError::Import(e)
    }
}

impl From<HierError> for RetrofitError {
    fn from(e: HierError) -> Self {
        RetrofitError::Hier(e)
    }
}

impl From<SimError> for RetrofitError {
    fn from(e: SimError) -> Self {
        RetrofitError::Sim(e)
    }
}

/// Register lifetimes of a single-clock design: per-register write steps
/// and read cones derived from the controller, cross-checked against a
/// compiled-kernel probe simulation.
#[derive(Debug, Clone)]
pub struct Lifetimes {
    /// 1-based steps where the controller asserts each register's load.
    pub writes: BTreeMap<Path, BTreeSet<u32>>,
    /// 1-based steps where each register is read — combinationally by a
    /// capturing register, or by a primary output at the period boundary.
    pub reads: BTreeMap<Path, BTreeSet<u32>>,
    /// Per step (index 0 = step 1): each loading register mapped to the
    /// source registers its data-input cone reads under that step's
    /// control word.
    pub cones: Vec<BTreeMap<Path, BTreeSet<Path>>>,
    /// Stored-bit flips per register observed by the probe simulation;
    /// a register absent from `writes` must show zero toggles here.
    pub observed_store_toggles: BTreeMap<Path, u64>,
}

/// The combinational source registers of `start`'s value under `word`:
/// every `Cell::Mem` whose output reaches `start` through ALUs and the
/// selected mux paths (unselected muxes are traversed conservatively, as
/// in the flat discipline check).
fn cone_sources(circuit: &Circuit, start: &Path, word: &CircuitWord) -> BTreeSet<Path> {
    let mut out = BTreeSet::new();
    let mut stack = vec![start.clone()];
    let mut seen = BTreeSet::new();
    while let Some(p) = stack.pop() {
        if !seen.insert(p.clone()) {
            continue;
        }
        match &circuit.cells[&p] {
            Cell::Input { .. } | Cell::Const { .. } => {}
            Cell::Mem { .. } => {
                out.insert(p);
            }
            Cell::Alu { a, b, .. } => {
                stack.push(a.clone());
                stack.push(b.clone());
            }
            Cell::Mux { inputs } => match word.mux_sel.get(&p) {
                Some(&s) if s < inputs.len() => stack.push(inputs[s].clone()),
                _ => stack.extend(inputs.iter().cloned()),
            },
        }
    }
    out
}

/// Infers register lifetimes for a single-clock design: write steps and
/// read cones from the controller schedule, plus observed store activity
/// from a `probe_computations`-long compiled-kernel run seeded with
/// `probe_seed`.
#[must_use]
pub fn infer_lifetimes(
    netlist: &Netlist,
    circuit: &Circuit,
    probe_computations: usize,
    probe_seed: u64,
) -> Lifetimes {
    let _span = mc_trace::span("retrofit.lifetimes");
    let period = circuit.words.len() as u32;
    let mut writes: BTreeMap<Path, BTreeSet<u32>> = BTreeMap::new();
    let mut reads: BTreeMap<Path, BTreeSet<u32>> = BTreeMap::new();
    let mut cones = Vec::with_capacity(circuit.words.len());
    for (i, word) in circuit.words.iter().enumerate() {
        let t = i as u32 + 1;
        let mut step_cones = BTreeMap::new();
        for loader in &word.mem_load {
            writes.entry(loader.clone()).or_default().insert(t);
            let Cell::Mem { input, .. } = &circuit.cells[loader] else {
                continue; // flatten rejects loads on non-mems later
            };
            let srcs = cone_sources(circuit, input, word);
            for src in &srcs {
                reads.entry(src.clone()).or_default().insert(t);
            }
            step_cones.insert(loader.clone(), srcs);
        }
        cones.push(step_cones);
    }
    // Primary outputs read their driving registers at the boundary step.
    for (_, p) in &circuit.outputs {
        if matches!(circuit.cells.get(p), Some(Cell::Mem { .. })) {
            reads.entry(p.clone()).or_default().insert(period);
        }
    }
    // Probe run: the compiled kernel's store counters bound which
    // registers actually change — a register the controller never loads
    // must be inert in silicon too.
    let probe = simulate(
        netlist,
        &SimConfig::new(PowerMode::non_gated(), probe_computations, probe_seed),
    );
    let observed_store_toggles = netlist
        .mems()
        .map(|m| {
            let c = m.comp();
            (
                netlist.component(c).path().clone(),
                probe.activity.store_toggles[c.index()],
            )
        })
        .collect();
    Lifetimes {
        writes,
        reads,
        cones,
        observed_store_toggles,
    }
}

/// Assigns each register a phase in `1..=n` and selects the registers
/// that need shadow latches.
///
/// Constraint: for every original step `t` and every pair of registers
/// `(reader, source)` both written at `t` where `reader`'s input cone
/// reads `source`, `phase(reader) < phase(source)` — the reader captures
/// the old value before the source's latch opens. Registers written at
/// the boundary step, and registers driving primary outputs, are pinned
/// to phase `n` (the boundary sub-step), preserving the reset-preload and
/// output-observation semantics. Conflicts — cycles, chains deeper than
/// `n`, edges into pinned registers — are resolved by shadowing the
/// lexicographically smallest offender and re-solving to a fixpoint.
fn partition_phases(
    circuit: &Circuit,
    life: &Lifetimes,
    n: u32,
) -> (BTreeMap<Path, u32>, BTreeSet<Path>) {
    let _span = mc_trace::span("retrofit.partition");
    let period = circuit.words.len() as u32;
    let mems: Vec<&Path> = circuit
        .cells
        .iter()
        .filter(|(_, c)| matches!(c, Cell::Mem { .. }))
        .map(|(p, _)| p)
        .collect();
    let mut pinned: BTreeSet<&Path> = mems
        .iter()
        .filter(|p| life.writes.get(**p).is_some_and(|w| w.contains(&period)))
        .copied()
        .collect();
    for (_, p) in &circuit.outputs {
        if let Some((key, Cell::Mem { .. })) = circuit.cells.get_key_value(p) {
            pinned.insert(key);
        }
    }

    let mut shadowed: BTreeSet<Path> = BTreeSet::new();
    loop {
        // Constraint edges reader → source among same-step writers whose
        // source is not (yet) shadowed.
        let mut preds: BTreeMap<&Path, BTreeSet<&Path>> = BTreeMap::new();
        let mut reads_shadow: BTreeSet<&Path> = BTreeSet::new();
        for (i, step_cones) in life.cones.iter().enumerate() {
            let t = i as u32 + 1;
            for (reader, srcs) in step_cones {
                let reader = circuit
                    .cells
                    .get_key_value(reader)
                    .expect("cone keys exist")
                    .0;
                for src in srcs {
                    if shadowed.contains(src) {
                        reads_shadow.insert(reader);
                    } else if src != reader && life.writes.get(src).is_some_and(|w| w.contains(&t))
                    {
                        let src = circuit.cells.get_key_value(src).expect("cone srcs exist").0;
                        preds.entry(src).or_default().insert(reader);
                    }
                }
            }
        }
        let base = |p: &Path| -> u32 {
            if pinned.contains(p) {
                n
            } else if shadowed.contains(p) || reads_shadow.contains(p) {
                2
            } else {
                1
            }
        };
        // Longest-chain levels over the constraint DAG (Kahn, determinate
        // ready order by path).
        let mut indeg: BTreeMap<&Path, usize> = mems.iter().map(|&p| (p, 0)).collect();
        let mut succs: BTreeMap<&Path, Vec<&Path>> = BTreeMap::new();
        for (&src, readers) in &preds {
            *indeg.get_mut(src).expect("src is a mem") += readers.len();
            for &r in readers {
                succs.entry(r).or_default().push(src);
            }
        }
        let mut lvl: BTreeMap<&Path, u32> = BTreeMap::new();
        let mut ready: BTreeSet<&Path> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&p, _)| p)
            .collect();
        while let Some(&p) = ready.iter().next() {
            ready.remove(p);
            let chain = preds
                .get(p)
                .into_iter()
                .flatten()
                .map(|r| lvl[r] + 1)
                .max()
                .unwrap_or(0);
            lvl.insert(p, base(p).max(chain));
            for &s in succs.get(p).into_iter().flatten() {
                let d = indeg.get_mut(s).expect("succ is a mem");
                *d -= 1;
                if *d == 0 {
                    ready.insert(s);
                }
            }
        }
        if lvl.len() < mems.len() {
            // A read/write cycle among same-step writers: shadow the
            // smallest unlevelled register and re-solve.
            let stuck = mems
                .iter()
                .find(|p| !lvl.contains_key(**p))
                .expect("unlevelled register exists");
            shadowed.insert((*stuck).clone());
            continue;
        }
        if let Some((&p, _)) = lvl.iter().find(|(_, &l)| l > n) {
            shadowed.insert(p.clone());
            continue;
        }
        let phases = mems
            .iter()
            .map(|&p| (p.clone(), if pinned.contains(p) { n } else { lvl[p] }))
            .collect();
        return (phases, shadowed);
    }
}

/// Chooses a fresh path for `p`'s shadow latch (the path with `_shadow`
/// appended to the leaf, uniquified against existing cells and previously
/// chosen shadows).
fn shadow_path(p: &Path, taken: &BTreeMap<Path, Cell>, chosen: &BTreeMap<Path, Path>) -> Path {
    let mut candidate = Path::parse(&format!("{p}_shadow")).expect("valid shadow path");
    let mut k = 2u32;
    while taken.contains_key(&candidate) || chosen.values().any(|c| c == &candidate) {
        candidate = Path::parse(&format!("{p}_shadow{k}")).expect("valid shadow path");
        k += 1;
    }
    candidate
}

/// Rewrites `circuit` into the `n`-phase latch form: controller stretched
/// by `n`, loads scheduled on each register's phase sub-step, every
/// memory element converted to a latch, shadow latches inserted and their
/// readers redirected.
fn emit_multiphase(
    circuit: &Circuit,
    scheme: ClockScheme,
    phases: &BTreeMap<Path, u32>,
    shadowed: &BTreeSet<Path>,
) -> Circuit {
    let _span = mc_trace::span("retrofit.emit");
    let n = scheme.num_clocks();
    let period = circuit.words.len() as u32;
    let mut shadow_of: BTreeMap<Path, Path> = BTreeMap::new();
    for p in shadowed {
        let sp = shadow_path(p, &circuit.cells, &shadow_of);
        shadow_of.insert(p.clone(), sp);
    }
    let redirect = |p: &Path| shadow_of.get(p).cloned().unwrap_or_else(|| p.clone());

    let mut out = Circuit::new(
        &format!("{}_retro{}clk", circuit.name, n),
        circuit.width,
        scheme,
        period * n,
    );
    for (p, cell) in &circuit.cells {
        let rewritten = match cell {
            Cell::Input { port } => Cell::Input { port: port.clone() },
            Cell::Const { value } => Cell::Const { value: *value },
            Cell::Alu { fs, a, b } => Cell::Alu {
                fs: *fs,
                a: redirect(a),
                b: redirect(b),
            },
            Cell::Mux { inputs } => Cell::Mux {
                inputs: inputs.iter().map(&redirect).collect(),
            },
            Cell::Mem { input, .. } => Cell::Mem {
                kind: MemKind::Latch,
                phase: PhaseId::new(phases[p]),
                input: redirect(input),
            },
        };
        out.cells.insert(p.clone(), rewritten);
    }
    // Shadow latches: phase 1, fed by the shadowed register directly (not
    // through the redirect — the shadow is the one legitimate old-value
    // reader).
    for (orig, sp) in &shadow_of {
        out.cells.insert(
            sp.clone(),
            Cell::Mem {
                kind: MemKind::Latch,
                phase: PhaseId::new(1),
                input: orig.clone(),
            },
        );
    }
    for t in 1..=period {
        let word = &circuit.words[(t - 1) as usize];
        for k in 1..=n {
            let sub = &mut out.words[((t - 1) * n + k - 1) as usize];
            sub.mux_sel = word.mux_sel.clone();
            sub.alu_fn = word.alu_fn.clone();
        }
        for m in &word.mem_load {
            let k = phases[m];
            out.words[((t - 1) * n + k - 1) as usize]
                .mem_load
                .insert(m.clone());
        }
        // Every shadow samples its register's pre-step value on phase 1 of
        // every step group.
        for sp in shadow_of.values() {
            out.words[((t - 1) * n) as usize]
                .mem_load
                .insert(sp.clone());
        }
    }
    // Outputs keep reading the original registers: shadows lag by one
    // step group, but output registers hold their final values.
    out.outputs = circuit.outputs.clone();
    out
}

/// A retrofitted design: the original single-clock netlist, the rewritten
/// multi-phase circuit, and its flattened form.
#[derive(Debug, Clone)]
pub struct Retrofit {
    /// The single-clock input design.
    pub original: Netlist,
    /// The rewritten hierarchical circuit (latch-based, `clocks` phases).
    pub circuit: Circuit,
    /// The flattened multi-phase netlist.
    pub converted: Netlist,
    /// The number of phase clocks.
    pub clocks: u32,
    /// Phase assigned to each original register.
    pub phases: BTreeMap<Path, PhaseId>,
    /// Registers that received a shadow latch.
    pub shadowed: BTreeSet<Path>,
    /// The inferred lifetimes the partition was computed from.
    pub lifetimes: Lifetimes,
}

impl Retrofit {
    /// Registers per phase, indexed `[phase 1, …, phase n]` (shadow
    /// latches included in phase 1).
    #[must_use]
    pub fn phase_histogram(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.clocks as usize];
        for &p in self.phases.values() {
            counts[p.index()] += 1;
        }
        counts[0] += self.shadowed.len();
        counts
    }
}

/// Retrofits a single-clock netlist onto `clocks` non-overlapping phases.
///
/// # Errors
///
/// Returns [`RetrofitError::NotSingleClock`] for multi-clock inputs,
/// [`RetrofitError::TooFewClocks`]/[`RetrofitError::Clock`] for bad
/// targets, and internal-bug variants if the rewritten circuit fails to
/// flatten or violates the latch discipline.
pub fn retrofit_netlist(original: Netlist, clocks: u32) -> Result<Retrofit, RetrofitError> {
    let _span = mc_trace::span("retrofit");
    let source_clocks = original.scheme().num_clocks();
    if source_clocks != 1 {
        return Err(RetrofitError::NotSingleClock(source_clocks));
    }
    if clocks < 2 {
        return Err(RetrofitError::TooFewClocks(clocks));
    }
    let scheme = ClockScheme::new(clocks).map_err(RetrofitError::Clock)?;
    let circuit = Circuit::from_netlist(&original);
    let lifetimes = infer_lifetimes(&original, &circuit, 64, 0xC0FF_EE00);
    let (phases, shadowed) = partition_phases(&circuit, &lifetimes, clocks);
    let multi = emit_multiphase(&circuit, scheme, &phases, &shadowed);
    let converted = {
        let _span = mc_trace::span("retrofit.flatten");
        multi.flatten()?
    };
    let hazards = check_latch_discipline(&converted, false);
    if !hazards.is_empty() {
        let listing: Vec<String> = hazards.iter().take(3).map(ToString::to_string).collect();
        return Err(RetrofitError::Discipline(format!(
            "{} hazard(s): {}",
            hazards.len(),
            listing.join("; ")
        )));
    }
    Ok(Retrofit {
        original,
        circuit: multi,
        converted,
        clocks,
        phases: phases
            .into_iter()
            .map(|(p, k)| (p, PhaseId::new(k)))
            .collect(),
        shadowed,
        lifetimes,
    })
}

/// Imports a structural design from text — `mc-rtl`'s exported VHDL when
/// the text contains an `entity`, the `mcnl` interchange format otherwise
/// — and retrofits it onto `clocks` phases.
///
/// # Errors
///
/// [`RetrofitError::Import`] for parse failures, plus everything
/// [`retrofit_netlist`] returns.
pub fn retrofit_source(text: &str, clocks: u32) -> Result<Retrofit, RetrofitError> {
    let netlist = {
        let _span = mc_trace::span("retrofit.import");
        if text.contains("entity ") {
            from_vhdl(text)?
        } else {
            from_mcnl(text)?
        }
    };
    retrofit_netlist(netlist, clocks)
}

/// Configuration for [`verify_retrofit`].
#[derive(Debug, Clone)]
pub struct RetrofitOptions {
    /// Computations simulated per stimulus seed.
    pub computations: usize,
    /// Stimulus seeds (one Monte-Carlo sample each).
    pub seeds: Vec<u64>,
    /// Accepted for compatibility and ignored: verification compiles
    /// each design once and sweeps the seeds through the multi-seed
    /// kernel on the calling thread. The report is bit-identical either
    /// way.
    pub parallel: bool,
    /// The multi-seed kernel both designs compile into, once each:
    /// [`BatchBackend::Batched`] sweeps [`Flow::DEFAULT_BATCH`] seeds per
    /// pass, [`BatchBackend::Bitsliced`] 64. Per-seed activities and
    /// outputs are bit-identical either way, so the report never encodes
    /// the backend.
    ///
    /// [`Flow::DEFAULT_BATCH`]: crate::Flow::DEFAULT_BATCH
    pub backend: BatchBackend,
    /// The technology library pricing both designs.
    pub tech: TechLibrary,
}

impl Default for RetrofitOptions {
    fn default() -> Self {
        RetrofitOptions {
            computations: 200,
            seeds: mc_power::derive_seeds(42, 5),
            parallel: false,
            backend: BatchBackend::default(),
            tech: TechLibrary::vsc450(),
        }
    }
}

/// The verified comparison of a retrofit: equivalence plus Monte-Carlo
/// power/area of both designs.
#[derive(Debug, Clone)]
pub struct RetrofitReport {
    /// Evaluation of the single-clock original (non-gated clocks).
    pub original: DesignReport,
    /// Evaluation of the converted multi-phase design.
    pub converted: DesignReport,
    /// Power reduction of the converted design vs the original, percent.
    pub power_reduction_pct: f64,
    /// Steps per computation grow by this factor (`n`): the paper's
    /// latency cost of running each phase at `f/n` without rescheduling.
    pub latency_factor: u32,
    /// Shadow latches inserted.
    pub shadows: usize,
    /// Registers per phase (shadows counted in phase 1).
    pub phase_histogram: Vec<usize>,
    /// Computations checked per seed.
    pub computations: usize,
    /// Stimulus seeds checked.
    pub seeds: usize,
}

/// Verifies a retrofit — bit-identical outputs over every seed — and
/// prices both designs with the Monte-Carlo estimator.
///
/// Deterministic: every backend and `parallel` setting produces the
/// bit-identical report (per-seed work is independent; results are
/// reduced in seed order), and the first divergence is reported in
/// seed, computation, then port-name order.
///
/// # Errors
///
/// [`RetrofitError::Diverged`] on the first output mismatch,
/// [`RetrofitError::Sim`] if a simulation rejects its stimulus.
pub fn verify_retrofit(
    r: &Retrofit,
    opts: &RetrofitOptions,
) -> Result<RetrofitReport, RetrofitError> {
    let _span = mc_trace::span("retrofit.verify");
    assert!(
        !opts.seeds.is_empty(),
        "verification needs at least one seed"
    );
    let plan = Plan {
        computations: opts.computations,
        seeds: &opts.seeds,
        backend: opts.backend,
    };
    let replayed = replay(
        (&r.original, PowerMode::non_gated()),
        (&r.converted, PowerMode::multiclock()),
        &plan,
    )
    .map_err(|f| match f {
        Failure::Sim(e) => RetrofitError::Sim(e),
        Failure::Diverged {
            seed,
            computation,
            port,
            reference,
            candidate,
        } => RetrofitError::Diverged(Box::new(RetrofitMismatch {
            seed,
            computation,
            port,
            original: reference,
            converted: candidate,
        })),
    })?;
    let original = evaluate_design_monte_carlo(
        &r.original,
        PowerMode::non_gated(),
        &opts.tech,
        &replayed.reference,
    );
    let converted = evaluate_design_monte_carlo(
        &r.converted,
        PowerMode::multiclock(),
        &opts.tech,
        &replayed.candidate,
    );
    let power_reduction_pct = 100.0 * converted.power.reduction_vs(&original.power);
    Ok(RetrofitReport {
        power_reduction_pct,
        latency_factor: r.clocks,
        shadows: r.shadowed.len(),
        phase_histogram: r.phase_histogram(),
        computations: opts.computations,
        seeds: opts.seeds.len(),
        original,
        converted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DesignStyle, Synthesizer};
    use mc_dfg::benchmarks;
    use mc_rtl::export::to_vhdl;

    fn conventional(bm: &benchmarks::Benchmark) -> Netlist {
        Synthesizer::for_benchmark(bm)
            .synthesize(DesignStyle::ConventionalNonGated)
            .expect("paper benchmarks synthesise conventionally")
            .datapath
            .netlist
    }

    #[test]
    fn retrofit_converts_all_paper_benchmarks() {
        for bm in benchmarks::paper_benchmarks() {
            for n in [2u32, 3] {
                let nl = conventional(&bm);
                let r =
                    retrofit_netlist(nl, n).unwrap_or_else(|e| panic!("{} n={n}: {e}", bm.name()));
                assert_eq!(r.converted.scheme().num_clocks(), n);
                // Latch-based: every memory element converted.
                for m in r.converted.mems() {
                    let comp = r.converted.component(m.comp());
                    assert!(matches!(
                        comp.kind(),
                        mc_rtl::ComponentKind::Mem {
                            kind: MemKind::Latch,
                            ..
                        }
                    ));
                }
                assert_eq!(
                    r.converted.controller().len(),
                    r.original.controller().len() * n,
                    "controller stretched by the latency factor"
                );
                // Lint-clean: no dead logic, no off-phase loads.
                let warnings = mc_rtl::lint::warnings(&r.converted);
                assert!(warnings.is_empty(), "{} n={n}: {warnings:?}", bm.name());
            }
        }
    }

    #[test]
    fn retrofit_round_trips_through_vhdl_export() {
        let bm = benchmarks::hal();
        let nl = conventional(&bm);
        let text = to_vhdl(&nl);
        let r = retrofit_source(&text, 3).expect("imported design retrofits");
        assert_eq!(r.original.name(), nl.name());
        assert_eq!(r.converted.scheme().num_clocks(), 3);
    }

    #[test]
    fn verified_equivalence_and_power_reduction() {
        for bm in benchmarks::paper_benchmarks() {
            let nl = conventional(&bm);
            let r = retrofit_netlist(nl, 2).expect("retrofits");
            let opts = RetrofitOptions {
                computations: 60,
                seeds: mc_power::derive_seeds(7, 3),
                ..RetrofitOptions::default()
            };
            let report =
                verify_retrofit(&r, &opts).unwrap_or_else(|e| panic!("{}: {e}", bm.name()));
            assert!(
                report.power_reduction_pct > 0.0,
                "{}: {:.2} mW vs {:.2} mW",
                bm.name(),
                report.converted.power.total_mw,
                report.original.power.total_mw
            );
            assert_eq!(report.latency_factor, 2);
        }
    }

    #[test]
    fn parallel_verification_is_bit_identical_to_sequential() {
        let nl = conventional(&benchmarks::facet());
        let r = retrofit_netlist(nl, 3).expect("retrofits");
        let seq = RetrofitOptions {
            computations: 40,
            seeds: mc_power::derive_seeds(11, 4),
            parallel: false,
            ..RetrofitOptions::default()
        };
        let par = RetrofitOptions {
            parallel: true,
            ..seq.clone()
        };
        let a = verify_retrofit(&r, &seq).unwrap();
        let b = verify_retrofit(&r, &par).unwrap();
        assert_eq!(
            a.original.power.total_mw.to_bits(),
            b.original.power.total_mw.to_bits()
        );
        assert_eq!(
            a.converted.power.total_mw.to_bits(),
            b.converted.power.total_mw.to_bits()
        );
        assert_eq!(
            a.power_reduction_pct.to_bits(),
            b.power_reduction_pct.to_bits()
        );
        assert_eq!(a.phase_histogram, b.phase_histogram);
    }

    #[test]
    fn bitsliced_verification_is_bit_identical_to_batched() {
        let nl = conventional(&benchmarks::biquad());
        let r = retrofit_netlist(nl, 2).expect("retrofits");
        let batched = RetrofitOptions {
            computations: 40,
            seeds: mc_power::derive_seeds(11, 5),
            backend: BatchBackend::Batched,
            ..RetrofitOptions::default()
        };
        let sliced = RetrofitOptions {
            backend: BatchBackend::Bitsliced,
            ..batched.clone()
        };
        let a = verify_retrofit(&r, &batched).unwrap();
        let b = verify_retrofit(&r, &sliced).unwrap();
        assert_eq!(
            a.original.power.total_mw.to_bits(),
            b.original.power.total_mw.to_bits()
        );
        assert_eq!(
            a.converted.power.total_mw.to_bits(),
            b.converted.power.total_mw.to_bits()
        );
        assert_eq!(
            a.power_reduction_pct.to_bits(),
            b.power_reduction_pct.to_bits()
        );
        assert_eq!(a.phase_histogram, b.phase_histogram);
    }

    #[test]
    fn multiclock_inputs_are_rejected() {
        let d = Synthesizer::for_benchmark(&benchmarks::hal())
            .synthesize(DesignStyle::MultiClock(2))
            .unwrap();
        assert!(matches!(
            retrofit_netlist(d.datapath.netlist, 2),
            Err(RetrofitError::NotSingleClock(2))
        ));
    }

    #[test]
    fn too_few_clocks_is_rejected() {
        let nl = conventional(&benchmarks::hal());
        assert!(matches!(
            retrofit_netlist(nl, 1),
            Err(RetrofitError::TooFewClocks(1))
        ));
    }

    #[test]
    fn lifetimes_match_controller_schedule() {
        let nl = conventional(&benchmarks::hal());
        let circuit = Circuit::from_netlist(&nl);
        let life = infer_lifetimes(&nl, &circuit, 32, 1);
        // Every register the probe saw toggling is one the controller
        // loads somewhere.
        for (p, &toggles) in &life.observed_store_toggles {
            if toggles > 0 {
                assert!(
                    life.writes.get(p).is_some_and(|w| !w.is_empty()),
                    "{p} toggles without a scheduled load"
                );
            }
        }
        // Boundary-step loads exist (the input registers).
        let period = circuit.words.len() as u32;
        assert!(life.writes.values().any(|w| w.contains(&period)));
    }
}
