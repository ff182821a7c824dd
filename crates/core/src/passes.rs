//! The concrete passes of the synthesis flow and their typed artifacts.
//!
//! The DAC'96 scheme is a staged pipeline:
//!
//! ```text
//! Behavior ──PartitionPass──▶ PartitionedSchedule ──AllocatePass──▶ Datapath
//!     │                                                               │
//!     └────────────VerifyPass (equivalence oracle)◀───────────────────┤
//!                                                                     │
//!                         SimulatePass ──▶ SimTrace ──PowerPass──▶ DesignReport
//! ```
//!
//! Each pass implements [`Pass`]: a typed
//! input-artifact → output-artifact transformation that runs inside a
//! [`FlowContext`], which times it, records
//! artifact statistics, and collects its diagnostics. The
//! [`Flow`] driver chains the passes and caches
//! shareable artifacts content-keyed (see `flow.rs`).

use mc_alloc::{allocate, AllocOptions, Datapath};
use mc_clocks::ClockScheme;
use mc_dfg::benchmarks::Benchmark;
use mc_dfg::{Dfg, Schedule};
use mc_power::{evaluate_design_with_activity, DesignReport};
use mc_rtl::PowerMode;
use mc_sim::{Activity, SimBackend, SimConfig};

use crate::flow::{Artifact, Evaluated, Flow, FlowContext, Pass};
use crate::style::DesignStyle;
use crate::synthesizer::SynthesisError;

/// The flow's root artifact: a behaviour and its schedule.
#[derive(Debug, Clone)]
pub struct Behavior {
    /// The behavioural data-flow graph.
    pub dfg: Dfg,
    /// The control-step schedule.
    pub schedule: Schedule,
}

impl Behavior {
    /// Wraps a behaviour and schedule.
    #[must_use]
    pub fn new(dfg: Dfg, schedule: Schedule) -> Self {
        Behavior { dfg, schedule }
    }

    /// The behaviour of a bundled benchmark (cloned).
    #[must_use]
    pub fn for_benchmark(bm: &Benchmark) -> Self {
        Behavior::new(bm.dfg.clone(), bm.schedule.clone())
    }
}

impl Artifact for Behavior {
    fn label(&self) -> String {
        format!(
            "Behavior{{{}: {} ops, {} steps}}",
            self.dfg.name(),
            self.dfg.num_nodes(),
            self.schedule.length()
        )
    }

    fn size(&self) -> usize {
        self.dfg.num_nodes()
    }
}

/// The schedule partitioned over the phase clocks of a style: which
/// partition owns each control step, and how the operations distribute.
#[derive(Debug, Clone)]
pub struct PartitionedSchedule {
    /// The non-overlapping clock scheme.
    pub scheme: ClockScheme,
    /// The style this partitioning serves.
    pub style: DesignStyle,
    /// Operations per partition (index 0 = phase 1).
    pub ops_per_partition: Vec<usize>,
    /// Control steps owned per partition (index 0 = phase 1).
    pub steps_per_partition: Vec<u32>,
}

impl Artifact for PartitionedSchedule {
    fn label(&self) -> String {
        format!(
            "PartitionedSchedule{{{} clocks, ops {:?}}}",
            self.scheme.num_clocks(),
            self.ops_per_partition
        )
    }

    fn size(&self) -> usize {
        self.ops_per_partition.iter().sum()
    }
}

/// §3: build the clock scheme and partition the scheduled behaviour —
/// `Behavior → PartitionedSchedule`.
#[derive(Debug, Clone, Copy)]
pub struct PartitionPass {
    /// The design style whose clock count drives the partitioning.
    pub style: DesignStyle,
}

impl Pass for PartitionPass {
    type Input<'a> = &'a Behavior;
    type Output = PartitionedSchedule;

    fn name(&self) -> &'static str {
        "partition"
    }

    fn run(
        &self,
        behavior: Self::Input<'_>,
        ctx: &mut FlowContext,
    ) -> Result<Self::Output, SynthesisError> {
        let scheme = ClockScheme::new(self.style.clocks())?;
        let n = scheme.num_clocks() as usize;
        let mut ops = vec![0usize; n];
        let mut steps = vec![0u32; n];
        for t in 1..=behavior.schedule.length() {
            let phase = scheme.phase_of_step(t)?.get() as usize - 1;
            steps[phase] += 1;
            ops[phase] += behavior.schedule.nodes_at_step(t).len();
        }
        if n > 1 {
            if let Some(idle) = ops.iter().position(|&o| o == 0) {
                ctx.warn(
                    self.name(),
                    format!(
                        "partition {} owns no operations: its phase clock gates nothing",
                        idle + 1
                    ),
                );
            }
        }
        ctx.info(
            self.name(),
            format!(
                "{} control steps over {n} partition(s), ops {ops:?}",
                behavior.schedule.length()
            ),
        );
        Ok(PartitionedSchedule {
            scheme,
            style: self.style,
            ops_per_partition: ops,
            steps_per_partition: steps,
        })
    }
}

impl Artifact for Datapath {
    fn label(&self) -> String {
        let stats = self.netlist.stats();
        format!(
            "Datapath{{{}: {} ALUs, {} mems, {} nets}}",
            self.netlist.name(),
            stats.alus.len(),
            stats.mem_cells,
            stats.nets
        )
    }

    fn size(&self) -> usize {
        self.netlist.num_components()
    }
}

/// §4: allocate the partitioned behaviour into a structural datapath
/// (split / integrated / conventional) — `PartitionedSchedule → Datapath`.
/// The composed netlist rides inside the datapath artifact.
#[derive(Debug, Clone, Copy)]
pub struct AllocatePass;

impl Pass for AllocatePass {
    type Input<'a> = (&'a Behavior, &'a PartitionedSchedule);
    type Output = Datapath;

    fn name(&self) -> &'static str {
        "allocate"
    }

    fn run(
        &self,
        (behavior, partitioned): Self::Input<'_>,
        ctx: &mut FlowContext,
    ) -> Result<Self::Output, SynthesisError> {
        let style = partitioned.style;
        let opts = AllocOptions::new(style.strategy(), partitioned.scheme)
            .with_mem_kind(style.mem_kind())
            .with_transfers(style.transfers())
            .with_tech(ctx.tech().clone());
        let datapath = allocate(&behavior.dfg, &behavior.schedule, &opts)?;
        let transfers = datapath.problem.transfers;
        if transfers > 0 {
            ctx.info(
                self.name(),
                format!("inserted {transfers} transfer variable(s) (§4.2 step 1)"),
            );
        }
        Ok(datapath)
    }
}

/// Outcome of the equivalence oracle: how many random computations the
/// netlist matched the behaviour on.
#[derive(Debug, Clone, Copy)]
pub struct Verification {
    /// Number of random computations checked.
    pub computations: usize,
}

impl Artifact for Verification {
    fn label(&self) -> String {
        format!("Verification{{{} computations}}", self.computations)
    }

    fn size(&self) -> usize {
        self.computations
    }
}

/// The correctness oracle: simulate the netlist against direct DFG
/// evaluation over random vectors — `(Behavior, Datapath) → Verification`.
#[derive(Debug, Clone, Copy)]
pub struct VerifyPass {
    /// The power mode under which the netlist is exercised.
    pub mode: PowerMode,
}

impl Pass for VerifyPass {
    type Input<'a> = (&'a Behavior, &'a Datapath);
    type Output = Verification;

    fn name(&self) -> &'static str {
        "verify"
    }

    fn run(
        &self,
        (behavior, datapath): Self::Input<'_>,
        ctx: &mut FlowContext,
    ) -> Result<Self::Output, SynthesisError> {
        let computations = ctx.computations().min(64);
        mc_sim::verify_equivalence(
            &behavior.dfg,
            &datapath.netlist,
            self.mode,
            computations,
            ctx.seed(),
        )
        .map_err(SynthesisError::Equivalence)?;
        Ok(Verification { computations })
    }
}

/// Switching activity of one simulated run — the `SimTrace` artifact the
/// power model prices.
#[derive(Debug, Clone)]
pub struct SimTrace {
    /// Aggregated switching-activity counters.
    pub activity: Activity,
    /// The power mode the design ran under.
    pub mode: PowerMode,
    /// Computations simulated.
    pub computations: usize,
    /// The execution backend that produced the trace.
    pub backend: SimBackend,
    /// Simulation throughput in control steps per second (compile time
    /// included for the compiled backend; aggregated across seeds for
    /// Monte-Carlo runs).
    pub steps_per_sec: f64,
    /// Per-seed activities of a Monte-Carlo run (empty for the
    /// historical single-seed path; `seed_activities[0]` is the flow
    /// seed and equals [`SimTrace::activity`]).
    pub seed_activities: Vec<Activity>,
}

impl Artifact for SimTrace {
    fn label(&self) -> String {
        format!(
            "SimTrace{{{} steps, {} net toggles, {:.2e} steps/s}}",
            self.activity.steps,
            self.activity.total_net_toggles(),
            self.steps_per_sec
        )
    }

    fn size(&self) -> usize {
        self.activity.steps as usize
    }
}

/// §5.1: run the phase-accurate simulator over random stimulus and count
/// every priced event — `Datapath → SimTrace`.
#[derive(Debug, Clone, Copy)]
pub struct SimulatePass {
    /// The power mode under which the design operates.
    pub mode: PowerMode,
}

impl Pass for SimulatePass {
    type Input<'a> = &'a Datapath;
    type Output = SimTrace;

    fn name(&self) -> &'static str {
        "simulate"
    }

    fn run(
        &self,
        datapath: Self::Input<'_>,
        ctx: &mut FlowContext,
    ) -> Result<Self::Output, SynthesisError> {
        let cfg = SimConfig::new(self.mode, ctx.computations(), ctx.seed());
        if ctx.power_seeds() > 1 {
            return self.run_monte_carlo(datapath, ctx, cfg.backend);
        }
        // Power needs only the activity counters: skip the per-computation
        // output maps `simulate` would build.
        let started = std::time::Instant::now();
        let activity = mc_sim::CompiledNetlist::compile(&datapath.netlist, self.mode)
            .run_activity(cfg.computations, cfg.seed);
        let elapsed = started.elapsed().as_secs_f64();
        let steps_per_sec = if elapsed > 0.0 {
            activity.steps as f64 / elapsed
        } else {
            f64::INFINITY
        };
        ctx.info(
            self.name(),
            format!(
                "{} backend: {} steps in {:.2} ms ({:.3e} steps/s)",
                cfg.backend,
                activity.steps,
                elapsed * 1e3,
                steps_per_sec
            ),
        );
        Ok(SimTrace {
            activity,
            mode: self.mode,
            computations: ctx.computations(),
            backend: cfg.backend,
            steps_per_sec,
            seed_activities: Vec::new(),
        })
    }
}

impl SimulatePass {
    /// Monte-Carlo path: the selected multi-seed kernel
    /// ([`FlowContext::backend`]) sweeps [`FlowContext::power_seeds`]
    /// derived seeds, [`FlowContext::batch`] lanes at a time (the
    /// bit-sliced kernel always runs 64-seed populations). Lane 0
    /// carries the flow seed, so [`SimTrace::activity`] is bit-identical
    /// to the single-seed run.
    fn run_monte_carlo(
        &self,
        datapath: &Datapath,
        ctx: &mut FlowContext,
        backend: SimBackend,
    ) -> Result<SimTrace, SynthesisError> {
        let seeds = mc_power::derive_seeds(ctx.seed(), ctx.power_seeds());
        let started = std::time::Instant::now();
        let kernel =
            mc_sim::SeedKernel::compile(&datapath.netlist, self.mode, ctx.backend(), ctx.batch());
        let seed_activities: Vec<Activity> =
            kernel.run_seeds_activity(ctx.computations(), &seeds, /* collect_profile */ false);
        let elapsed = started.elapsed().as_secs_f64();
        let total_steps: u64 = seed_activities.iter().map(|a| a.steps).sum();
        let steps_per_sec = if elapsed > 0.0 {
            total_steps as f64 / elapsed
        } else {
            f64::INFINITY
        };
        ctx.info(
            self.name(),
            format!(
                "{} backend: {} seeds x {} lanes, {} steps in {:.2} ms ({:.3e} steps/s)",
                kernel.backend(),
                seeds.len(),
                kernel.lanes(),
                total_steps,
                elapsed * 1e3,
                steps_per_sec
            ),
        );
        let activity = seed_activities[0].clone();
        Ok(SimTrace {
            activity,
            mode: self.mode,
            computations: ctx.computations(),
            backend,
            steps_per_sec,
            seed_activities,
        })
    }
}

/// The artifact of a [`SweepPass`]: every point's full instrumented
/// evaluation, in input order.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One instrumented evaluation per swept style, in input order.
    pub evaluated: Vec<Evaluated>,
}

impl SweepOutcome {
    /// How many of the sweep's pass executions were served from the
    /// artifact cache instead of running.
    #[must_use]
    pub fn cache_served(&self) -> usize {
        self.evaluated
            .iter()
            .flat_map(|e| &e.metrics)
            .filter(|m| m.cache_hit)
            .count()
    }
}

impl Artifact for SweepOutcome {
    fn label(&self) -> String {
        format!(
            "Sweep{{{} points, {} cache-served passes}}",
            self.evaluated.len(),
            self.cache_served()
        )
    }

    fn size(&self) -> usize {
        self.evaluated.len()
    }
}

/// A multi-point evaluation as one instrumented pass: every style runs
/// through the full pipeline of the shared [`Flow`] (so allocations
/// common to several points are synthesised once and served from the
/// artifact cache), and the sweep reports per-point timings and cache
/// diagnostics into the surrounding [`FlowContext`] — the explorer and
/// the `mcpm sweep` timing tables read them from there.
#[derive(Debug, Clone, Copy)]
pub struct SweepPass;

impl Pass for SweepPass {
    type Input<'a> = (&'a Flow, &'a [DesignStyle]);
    type Output = SweepOutcome;

    fn name(&self) -> &'static str {
        "sweep"
    }

    fn run(
        &self,
        (flow, styles): Self::Input<'_>,
        ctx: &mut FlowContext,
    ) -> Result<Self::Output, SynthesisError> {
        let mut evaluated = Vec::with_capacity(styles.len());
        for &style in styles {
            let e = flow.evaluate_instrumented(style)?;
            let served = e.metrics.iter().filter(|m| m.cache_hit).count();
            ctx.info(
                self.name(),
                format!(
                    "{}: {:.1?} across {} pass(es), {} cache-served",
                    style.label(),
                    e.total_duration(),
                    e.metrics.len(),
                    served
                ),
            );
            evaluated.push(e);
        }
        Ok(SweepOutcome { evaluated })
    }
}

impl Artifact for DesignReport {
    fn label(&self) -> String {
        format!(
            "DesignReport{{{}: {:.2} mW, {:.0} λ²}}",
            self.name, self.power.total_mw, self.area.total_lambda2
        )
    }

    fn size(&self) -> usize {
        self.stats.mem_cells + self.stats.mux_inputs + self.stats.alus.len()
    }
}

/// §5: price the counted transitions with the technology library —
/// `(Datapath, SimTrace) → DesignReport`.
#[derive(Debug, Clone, Copy)]
pub struct PowerPass;

impl Pass for PowerPass {
    type Input<'a> = (&'a Datapath, &'a SimTrace);
    type Output = DesignReport;

    fn name(&self) -> &'static str {
        "power"
    }

    fn run(
        &self,
        (datapath, trace): Self::Input<'_>,
        ctx: &mut FlowContext,
    ) -> Result<Self::Output, SynthesisError> {
        if trace.seed_activities.len() > 1 {
            return Ok(mc_power::evaluate_design_monte_carlo(
                &datapath.netlist,
                trace.mode,
                ctx.tech(),
                &trace.seed_activities,
            ));
        }
        Ok(evaluate_design_with_activity(
            &datapath.netlist,
            trace.mode,
            ctx.tech(),
            &trace.activity,
        ))
    }
}
