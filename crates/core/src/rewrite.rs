//! Equivalence-checked datapath rewriting — the explorer's first
//! *generated* design-space axis.
//!
//! The paper fixes the datapath and optimises clocking and allocation
//! around it; rewriting the behaviour itself (operator strength
//! reduction, operand commutation, schedule re-balancing) reaches
//! power/area points no clocking knob can. Each [`RewriteChoice`] is a
//! deterministic, infallible transformation of a scheduled behaviour:
//! when its rule set finds nothing to change, the behaviour comes back
//! unchanged, so the explorer can fold the point onto its baseline twin
//! and serve it from structural dedup.
//!
//! Soundness is never assumed: [`verify_rewrite`] replays the rewritten
//! behaviour against the original through the multi-seed simulation
//! kernel on a Monte-Carlo seed schedule and demands bit-identical outputs per
//! seed × computation, reporting the first divergence as a typed
//! [`RewriteError::Diverged`] — the same contract as the retrofit
//! verifier. The explorer refuses to score any rewritten point whose
//! choice has not passed this check.
//!
//! The rule set is deliberately small and schedule-preserving:
//!
//! * **Strength** — single-node operator demotions: `x * 2^k` becomes a
//!   shift (`x << k`), `x * 0` an AND-mask, and `x * 1` / `x + 0` /
//!   `x - 0` wire-through ORs. Multi-node shift/add chain expansion is
//!   out of scope: the schedule contract forbids same-step chaining, so
//!   a chain would stretch the schedule rather than win power.
//! * **Balance** — moves nodes out of over-full control steps into
//!   emptier feasible steps (respecting strict dependence), levelling
//!   per-step parallelism so allocation needs fewer functional units.
//!   The DFG is untouched; only the schedule changes.
//! * **Commute** — canonicalises operand order of commutative
//!   operations: constants to the right, variable pairs in variable-id
//!   order. Same graph semantics, different mux wiring and binding.

use std::fmt;

use mc_dfg::benchmarks::Benchmark;
use mc_dfg::{Dfg, DfgBuilder, NodeId, Op, Operand, Schedule};
use mc_rtl::PowerMode;
use mc_sim::{BatchBackend, SimError};

use crate::passes::Behavior;
use crate::replay::{replay, Failure, Plan};
use crate::style::DesignStyle;
use crate::synthesizer::{SynthesisError, Synthesizer};

/// One point on the explorer's rewrite axis: which rewrite rule family
/// is applied to the behaviour before scheduling-style and clocking
/// choices are made. `Baseline` leaves the behaviour untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RewriteChoice {
    /// No rewriting; the bundled behaviour and reference schedule.
    Baseline,
    /// Operator strength reduction (power-of-two multiplies to shifts,
    /// `x*0` / `x*1` / `x+0` / `x-0` folds).
    Strength,
    /// Schedule re-balancing: level per-step parallelism by moving nodes
    /// into emptier feasible steps.
    Balance,
    /// Commutation: canonical operand order for commutative operations.
    Commute,
}

impl RewriteChoice {
    /// Every choice, `Baseline` first (the explorer's anchor rows always
    /// enumerate under `Baseline`).
    pub const ALL: [RewriteChoice; 4] = [
        RewriteChoice::Baseline,
        RewriteChoice::Strength,
        RewriteChoice::Balance,
        RewriteChoice::Commute,
    ];

    /// The first `n` choices (clamped to `1..=ALL.len()`), mirroring
    /// `GatingVariant::first_n`: `--rewrites 1` is baseline-only,
    /// `--rewrites 4` spans the whole rule set.
    #[must_use]
    pub fn first_n(n: usize) -> Vec<RewriteChoice> {
        Self::ALL[..n.clamp(1, Self::ALL.len())].to_vec()
    }

    /// Stable label used in point canonical text, JSON and CLI output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RewriteChoice::Baseline => "baseline",
            RewriteChoice::Strength => "strength",
            RewriteChoice::Balance => "balance",
            RewriteChoice::Commute => "commute",
        }
    }

    /// Applies the choice to a scheduled behaviour. Infallible and
    /// deterministic: when no rule of the family fires, the result is
    /// structurally equal to the input (`dfg` and `schedule` compare
    /// equal), which the explorer uses to fold no-op points onto their
    /// baseline twins.
    #[must_use]
    pub fn apply(self, base: &Behavior) -> Behavior {
        match self {
            RewriteChoice::Baseline => base.clone(),
            RewriteChoice::Strength => Behavior::new(
                rewrite_nodes(&base.dfg, strength_reduce_node),
                base.schedule.clone(),
            ),
            RewriteChoice::Balance => Behavior::new(
                base.dfg.clone(),
                balance_schedule(&base.dfg, &base.schedule),
            ),
            RewriteChoice::Commute => Behavior::new(
                rewrite_nodes(&base.dfg, commute_node),
                base.schedule.clone(),
            ),
        }
    }

    /// Applies the choice to a bundled benchmark's behaviour.
    #[must_use]
    pub fn apply_to_benchmark(self, bm: &Benchmark) -> Behavior {
        self.apply(&Behavior::for_benchmark(bm))
    }
}

impl fmt::Display for RewriteChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One rewritten node: the (possibly unchanged) operation and operands.
/// Destination variables are never renamed and node order never changes,
/// so the reference schedule stays valid verbatim.
type NodeRewrite = (Op, Operand, Operand);

/// Rebuilds `dfg` with `rule` applied to every node. Variable ids, node
/// ids, names and output markings are preserved exactly; only ops and
/// operands may change. Rules must not introduce reads of new variables
/// (they may only drop or keep existing reads), which keeps every
/// schedule of the original graph valid for the rewritten one.
fn rewrite_nodes(dfg: &Dfg, rule: fn(&Dfg, NodeId) -> NodeRewrite) -> Dfg {
    let mut b = DfgBuilder::new(dfg.name(), dfg.width());
    // A DfgBuilder creates each node's destination variable at insertion,
    // so replaying variables in id order — inputs directly, internals via
    // their writer node — reproduces both id spaces exactly.
    for v in dfg.var_ids() {
        let var = dfg.var(v);
        if var.is_input() {
            b.input(var.name());
        } else {
            let n = dfg.writer_of(v).expect("internal variables have writers");
            let (op, lhs, rhs) = rule(dfg, n);
            b.op_named(var.name(), op, lhs, rhs);
        }
    }
    for v in dfg.outputs() {
        b.mark_output(v);
    }
    b.finish()
        .expect("rewrite rules preserve graph well-formedness")
}

/// Strength reduction for one node. All identities are exact under the
/// modular `width`-bit semantics of [`Op::apply`] (constants are masked
/// to the datapath width before classification).
fn strength_reduce_node(dfg: &Dfg, n: NodeId) -> NodeRewrite {
    let node = dfg.node(n);
    let mask = (1u64 << dfg.width()) - 1;
    let width = u64::from(dfg.width());
    // A single constant operand (either side of a commutative op, the
    // right side of subtraction) paired with the other operand `x`.
    let const_and_other = |allow_lhs: bool| -> Option<(u64, Operand)> {
        match (node.lhs(), node.rhs()) {
            (x, Operand::Const(c)) => Some((c & mask, x)),
            (Operand::Const(c), x) if allow_lhs => Some((c & mask, x)),
            _ => None,
        }
    };
    match node.op() {
        Op::Mul => {
            if let Some((c, x)) = const_and_other(true) {
                if c == 0 {
                    // x * 0 == 0 == x & 0: the AND costs a linear cell
                    // instead of a multiplier array.
                    return (Op::And, x, Operand::Const(0));
                }
                if c == 1 {
                    // x * 1 == x == x | 0.
                    return (Op::Or, x, Operand::Const(0));
                }
                if c.is_power_of_two() {
                    let k = u64::from(c.trailing_zeros());
                    if k < width {
                        // x * 2^k == x << k in modular arithmetic.
                        return (Op::Shl, x, Operand::Const(k));
                    }
                }
            }
        }
        Op::Add => {
            if let Some((0, x)) = const_and_other(true) {
                return (Op::Or, x, Operand::Const(0));
            }
        }
        Op::Sub => {
            // Only x - 0 folds; 0 - x negates.
            if let (x, Operand::Const(c)) = (node.lhs(), node.rhs()) {
                if c & mask == 0 {
                    return (Op::Or, x, Operand::Const(0));
                }
            }
        }
        _ => {}
    }
    (node.op(), node.lhs(), node.rhs())
}

/// Commutation canonicalisation for one node: for commutative operations,
/// constants move to the right operand and variable pairs are ordered by
/// variable id. Non-commutative operations pass through untouched.
fn commute_node(dfg: &Dfg, n: NodeId) -> NodeRewrite {
    let node = dfg.node(n);
    if !node.op().is_commutative() {
        return (node.op(), node.lhs(), node.rhs());
    }
    let (lhs, rhs) = match (node.lhs(), node.rhs()) {
        (Operand::Const(c), x @ Operand::Var(_)) => (x, Operand::Const(c)),
        (Operand::Var(a), Operand::Var(b)) if a > b => (Operand::Var(b), Operand::Var(a)),
        (lhs, rhs) => (lhs, rhs),
    };
    (node.op(), lhs, rhs)
}

/// Levels per-step parallelism: repeatedly moves a node from a fuller
/// step into a strictly emptier feasible step (strict dependence and the
/// schedule length are preserved), until no move improves. Each applied
/// move strictly lowers the sum of squared step occupancies, so the loop
/// terminates. Multi-cycle schedules are returned unchanged — their
/// feasibility windows interact with latencies, and every bundled
/// reference schedule is unit-latency.
fn balance_schedule(dfg: &Dfg, schedule: &Schedule) -> Schedule {
    if schedule.has_multicycle_ops() {
        return schedule.clone();
    }
    let length = schedule.length();
    let mut steps: Vec<u32> = schedule.steps().to_vec();
    let mut occupancy = vec![0usize; length as usize + 1];
    for &t in &steps {
        occupancy[t as usize] += 1;
    }
    loop {
        let mut moved = false;
        for n in dfg.node_ids() {
            let t = steps[n.index()];
            let lo = dfg
                .preds(n)
                .map(|p| steps[p.index()] + 1)
                .max()
                .unwrap_or(1);
            let hi = dfg
                .succs(n)
                .iter()
                .map(|s| steps[s.index()] - 1)
                .min()
                .unwrap_or(length);
            let Some(target) = (lo..=hi.min(length)).min_by_key(|&c| (occupancy[c as usize], c))
            else {
                continue;
            };
            if occupancy[target as usize] + 1 < occupancy[t as usize] {
                occupancy[t as usize] -= 1;
                occupancy[target as usize] += 1;
                steps[n.index()] = target;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    Schedule::new(dfg, steps, length).expect("balancing preserves dependence and range")
}

/// The first observed output divergence between the original and the
/// rewritten behaviour's synthesised designs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteMismatch {
    /// The stimulus seed under which the divergence occurred.
    pub seed: u64,
    /// The 0-based computation index.
    pub computation: usize,
    /// The diverging output port.
    pub port: String,
    /// The original design's output value.
    pub original: u64,
    /// The rewritten design's output value.
    pub rewritten: u64,
}

/// Errors from rewrite verification.
#[derive(Debug)]
pub enum RewriteError {
    /// Either behaviour failed to synthesise.
    Synthesis(SynthesisError),
    /// Simulation of either design failed.
    Sim(SimError),
    /// The rewritten design diverged from the original.
    Diverged(Box<RewriteMismatch>),
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::Synthesis(e) => write!(f, "synthesis: {e}"),
            RewriteError::Sim(e) => write!(f, "simulation: {e}"),
            RewriteError::Diverged(m) => write!(
                f,
                "seed {} computation {}: output `{}` diverged ({} vs {})",
                m.seed, m.computation, m.port, m.original, m.rewritten
            ),
        }
    }
}

impl std::error::Error for RewriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RewriteError::Synthesis(e) => Some(e),
            RewriteError::Sim(e) => Some(e),
            RewriteError::Diverged(_) => None,
        }
    }
}

impl From<SynthesisError> for RewriteError {
    fn from(e: SynthesisError) -> Self {
        RewriteError::Synthesis(e)
    }
}

impl From<SimError> for RewriteError {
    fn from(e: SimError) -> Self {
        RewriteError::Sim(e)
    }
}

/// Verification depth: stimulus seeds and computations per seed.
#[derive(Debug, Clone)]
pub struct RewriteOptions {
    /// Computations simulated per stimulus seed.
    pub computations: usize,
    /// Stimulus seeds (one Monte-Carlo sample each).
    pub seeds: Vec<u64>,
}

impl Default for RewriteOptions {
    fn default() -> Self {
        RewriteOptions {
            computations: 200,
            seeds: mc_power::derive_seeds(42, 5),
        }
    }
}

/// Verifies a rewrite by replaying both behaviours through the default
/// multi-seed kernel: both are synthesised as conventional non-gated
/// designs, compiled once each, driven with *identical* per-seed
/// stimulus (drawn from the original design and bound to each design's
/// inputs by port name), and required to produce bit-identical outputs
/// for every seed × computation.
///
/// # Errors
///
/// [`RewriteError::Diverged`] on the first output mismatch (reported in
/// seed-schedule order, so the error is deterministic),
/// [`RewriteError::Synthesis`] / [`RewriteError::Sim`] when either
/// design fails to build or simulate.
pub fn verify_rewrite(
    original: &Behavior,
    rewritten: &Behavior,
    opts: &RewriteOptions,
) -> Result<(), RewriteError> {
    let _span = mc_trace::span("rewrite.verify");
    assert!(
        !opts.seeds.is_empty(),
        "verification needs at least one seed"
    );
    let synth = |b: &Behavior| -> Result<_, RewriteError> {
        let design = Synthesizer::new(b.dfg.clone(), b.schedule.clone())
            .synthesize(DesignStyle::ConventionalNonGated)?;
        Ok(design.datapath.netlist)
    };
    let orig_nl = synth(original)?;
    let rewr_nl = synth(rewritten)?;
    let plan = Plan {
        computations: opts.computations,
        seeds: &opts.seeds,
        backend: BatchBackend::default(),
    };
    replay(
        (&orig_nl, PowerMode::non_gated()),
        (&rewr_nl, PowerMode::non_gated()),
        &plan,
    )
    .map_err(|f| match f {
        Failure::Sim(e) => RewriteError::Sim(e),
        Failure::Diverged {
            seed,
            computation,
            port,
            reference,
            candidate,
        } => RewriteError::Diverged(Box::new(RewriteMismatch {
            seed,
            computation,
            port,
            original: reference,
            rewritten: candidate,
        })),
    })?;
    if mc_trace::enabled() {
        mc_trace::count("rewrite.verified", 1);
        mc_trace::count(
            "rewrite.verify.computations",
            (opts.computations * opts.seeds.len()) as u64,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_dfg::benchmarks;
    use mc_dfg::scheduler;

    fn verify_quick(original: &Behavior, rewritten: &Behavior) {
        let opts = RewriteOptions {
            computations: 40,
            seeds: mc_power::derive_seeds(7, 3),
        };
        verify_rewrite(original, rewritten, &opts).expect("rewrite must be equivalent");
    }

    /// A behaviour exercising every strength-reduction identity.
    fn strength_rich() -> Behavior {
        let mut b = DfgBuilder::new("strengthy", 8);
        let x = b.input("x");
        let y = b.input("y");
        let m8 = b.op_named("m8", Op::Mul, x, 8u64); // -> x << 3
        let mz = b.op_named("mz", Op::Mul, 0u64, y); // -> y & 0
        let m1 = b.op_named("m1", Op::Mul, y, 1u64); // -> y | 0
        let a0 = b.op_named("a0", Op::Add, x, 0u64); // -> x | 0
        let s0 = b.op_named("s0", Op::Sub, y, 0u64); // -> y | 0
        let t = b.op_named("t", Op::Add, m8, mz);
        let u = b.op_named("u", Op::Add, m1, a0);
        let out = b.op_named("out", Op::Add, t, u);
        let out2 = b.op_named("out2", Op::Add, s0, out);
        b.mark_output(out2);
        let dfg = b.finish().expect("well-formed");
        let schedule = scheduler::asap(&dfg);
        Behavior::new(dfg, schedule)
    }

    #[test]
    fn labels_and_first_n_behave_like_the_gating_axis() {
        assert_eq!(RewriteChoice::ALL[0], RewriteChoice::Baseline);
        let labels: Vec<_> = RewriteChoice::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, ["baseline", "strength", "balance", "commute"]);
        assert_eq!(RewriteChoice::first_n(0), vec![RewriteChoice::Baseline]);
        assert_eq!(RewriteChoice::first_n(1), vec![RewriteChoice::Baseline]);
        assert_eq!(RewriteChoice::first_n(2).len(), 2);
        assert_eq!(RewriteChoice::first_n(99).len(), RewriteChoice::ALL.len());
        assert_eq!(RewriteChoice::Balance.to_string(), "balance");
    }

    #[test]
    fn baseline_is_the_identity() {
        for bm in benchmarks::all_benchmarks() {
            let base = Behavior::for_benchmark(&bm);
            let same = RewriteChoice::Baseline.apply(&base);
            assert_eq!(same.dfg, base.dfg, "{}", bm.name());
            assert_eq!(same.schedule, base.schedule, "{}", bm.name());
        }
    }

    #[test]
    fn strength_demotes_every_identity_and_stays_equivalent() {
        let base = strength_rich();
        let rewritten = RewriteChoice::Strength.apply(&base);
        assert_eq!(rewritten.schedule, base.schedule, "schedule reused");
        let h = rewritten.dfg.op_histogram();
        assert!(!h.contains_key(&Op::Mul), "all multiplies demoted: {h:?}");
        assert_eq!(h[&Op::Shl], 1, "x*8 became a shift");
        assert_eq!(h[&Op::And], 1, "x*0 became a mask");
        assert_eq!(h[&Op::Or], 3, "x*1, x+0, x-0 became wire-through ORs");
        // Ids, names and outputs are preserved.
        assert_eq!(rewritten.dfg.num_vars(), base.dfg.num_vars());
        assert_eq!(rewritten.dfg.num_nodes(), base.dfg.num_nodes());
        verify_quick(&base, &rewritten);
    }

    #[test]
    fn strength_ignores_non_power_constants_and_negation() {
        // hal's only constants are 3 (not a power of two): nothing fires.
        let base = Behavior::for_benchmark(&benchmarks::hal());
        let rewritten = RewriteChoice::Strength.apply(&base);
        assert_eq!(rewritten.dfg, base.dfg);
        // 0 - x must not fold to x.
        let mut b = DfgBuilder::new("neg", 8);
        let x = b.input("x");
        let n = b.op_named("n", Op::Sub, 0u64, x);
        b.mark_output(n);
        let dfg = b.finish().unwrap();
        let schedule = scheduler::asap(&dfg);
        let base = Behavior::new(dfg, schedule);
        let rewritten = RewriteChoice::Strength.apply(&base);
        assert_eq!(rewritten.dfg, base.dfg, "negation left alone");
    }

    #[test]
    fn commute_moves_constants_right_and_orders_variables() {
        let base = Behavior::for_benchmark(&benchmarks::hal());
        let rewritten = RewriteChoice::Commute.apply(&base);
        assert_eq!(rewritten.schedule, base.schedule);
        assert_ne!(rewritten.dfg, base.dfg, "hal's 3*x constants move right");
        for n in rewritten.dfg.node_ids() {
            let node = rewritten.dfg.node(n);
            if node.op().is_commutative() {
                assert!(
                    !matches!(
                        (node.lhs(), node.rhs()),
                        (Operand::Const(_), Operand::Var(_))
                    ),
                    "constants sit on the right after commutation"
                );
                if let (Operand::Var(a), Operand::Var(b)) = (node.lhs(), node.rhs()) {
                    assert!(a <= b, "variable pairs are id-ordered");
                }
            }
        }
        verify_quick(&base, &rewritten);
    }

    #[test]
    fn balance_levels_hal_parallelism_and_stays_equivalent() {
        let base = Behavior::for_benchmark(&benchmarks::hal());
        assert_eq!(base.schedule.max_parallelism(), 4);
        let rewritten = RewriteChoice::Balance.apply(&base);
        assert_eq!(rewritten.dfg, base.dfg, "balance never touches the DFG");
        assert_eq!(rewritten.schedule.length(), base.schedule.length());
        assert!(
            rewritten.schedule.max_parallelism() < base.schedule.max_parallelism(),
            "hal's 4-wide step T3 must level down, got {}",
            rewritten.schedule.max_parallelism()
        );
        verify_quick(&base, &rewritten);
    }

    #[test]
    fn every_choice_is_equivalent_on_every_paper_benchmark() {
        for bm in benchmarks::paper_benchmarks() {
            let base = Behavior::for_benchmark(&bm);
            for choice in RewriteChoice::ALL {
                let rewritten = choice.apply(&base);
                let opts = RewriteOptions {
                    computations: 30,
                    seeds: mc_power::derive_seeds(5, 2),
                };
                verify_rewrite(&base, &rewritten, &opts)
                    .unwrap_or_else(|e| panic!("{} under {}: {e}", bm.name(), choice));
            }
        }
    }

    #[test]
    fn an_unsound_rewrite_is_reported_as_a_typed_divergence() {
        let base = Behavior::for_benchmark(&benchmarks::facet());
        // Forge a wrong "rewrite": flip the output node's op.
        let broken = rewrite_nodes(&base.dfg, |dfg, n| {
            let node = dfg.node(n);
            if dfg.var(node.dest()).name() == "r1" {
                (Op::Add, node.lhs(), node.rhs())
            } else {
                (node.op(), node.lhs(), node.rhs())
            }
        });
        let rewritten = Behavior::new(broken, base.schedule.clone());
        let opts = RewriteOptions {
            computations: 40,
            seeds: mc_power::derive_seeds(7, 3),
        };
        match verify_rewrite(&base, &rewritten, &opts) {
            Err(RewriteError::Diverged(m)) => {
                assert_eq!(m.seed, opts.seeds[0], "first seed reports first");
                assert_eq!(m.port, "r1");
                let text = RewriteError::Diverged(m).to_string();
                assert!(text.contains("diverged"), "{text}");
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn rewrites_are_deterministic() {
        for choice in RewriteChoice::ALL {
            let a = choice.apply_to_benchmark(&benchmarks::bandpass());
            let b = choice.apply_to_benchmark(&benchmarks::bandpass());
            assert_eq!(a.dfg, b.dfg, "{choice}");
            assert_eq!(a.schedule, b.schedule, "{choice}");
        }
    }
}
