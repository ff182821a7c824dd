//! The power and area models: pricing simulated switching activity with
//! the technology library's capacitances (`P = f·C_L·V²`, the paper's
//! §5.1 procedure) and summing cell areas in λ².

use std::fmt;

use mc_rtl::{ComponentKind, Netlist, NetlistStats, PowerMode};
use mc_sim::Activity;
use mc_tech::{MemKind, TechLibrary};

/// Power estimate of one design under one activity profile, in mW at the
/// library's clock frequency, split by mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerReport {
    /// Total power (mW).
    pub total_mw: f64,
    /// Clock distribution into memory elements and the controller.
    pub clock_mw: f64,
    /// Stored-bit switching in memory elements.
    pub storage_mw: f64,
    /// ALU internal switching (input-activity driven).
    pub alu_mw: f64,
    /// Mux internal switching.
    pub mux_mw: f64,
    /// Net (wire + receiver input) switching.
    pub wire_mw: f64,
    /// Control-line switching.
    pub control_mw: f64,
    /// Static (leakage) power, proportional to layout area. Tiny at
    /// 0.8 µm; reported so the area/power trade-off is complete.
    pub static_mw: f64,
}

impl PowerReport {
    /// Power reduction of `self` relative to `baseline`, as a fraction in
    /// `0..=1` (negative if `self` consumes more).
    #[must_use]
    pub fn reduction_vs(&self, baseline: &PowerReport) -> f64 {
        if baseline.total_mw == 0.0 {
            0.0
        } else {
            1.0 - self.total_mw / baseline.total_mw
        }
    }
}

impl fmt::Display for PowerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} mW (clk {:.2}, store {:.2}, alu {:.2}, mux {:.2}, wire {:.2}, ctrl {:.2}, \
             leak {:.3})",
            self.total_mw,
            self.clock_mw,
            self.storage_mw,
            self.alu_mw,
            self.mux_mw,
            self.wire_mw,
            self.control_mw,
            self.static_mw
        )
    }
}

/// Area estimate of one design in λ² (after layout overhead), split by
/// component class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaReport {
    /// Total layout area (λ²).
    pub total_lambda2: f64,
    /// ALU cell area (λ², pre-overhead).
    pub alu_lambda2: f64,
    /// Memory-element cell area (λ², pre-overhead).
    pub mem_lambda2: f64,
    /// Mux cell area (λ², pre-overhead).
    pub mux_lambda2: f64,
    /// Controller area (λ², pre-overhead).
    pub ctrl_lambda2: f64,
    /// Power-management overhead: clock-gating cells and operand-isolation
    /// latches (λ², pre-overhead).
    pub pm_lambda2: f64,
}

impl AreaReport {
    /// Area increase of `self` relative to `baseline`, as a fraction
    /// (negative when `self` is smaller).
    #[must_use]
    pub fn increase_vs(&self, baseline: &AreaReport) -> f64 {
        if baseline.total_lambda2 == 0.0 {
            0.0
        } else {
            self.total_lambda2 / baseline.total_lambda2 - 1.0
        }
    }
}

impl fmt::Display for AreaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0} λ² (alu {:.0}, mem {:.0}, mux {:.0}, ctrl {:.0}, pm {:.0})",
            self.total_lambda2,
            self.alu_lambda2,
            self.mem_lambda2,
            self.mux_lambda2,
            self.ctrl_lambda2,
            self.pm_lambda2
        )
    }
}

/// Prices a simulation's switching activity into average power (mW).
///
/// Every counter in [`Activity`] maps to one capacitance query: net bit
/// flips load wire plus receiver input capacitance, ALU input activity
/// scales the ALU's internal capacitance, memory elements pay per clock
/// pulse and per stored-bit flip, and control lines pay per toggle.
#[must_use]
pub fn estimate_power(netlist: &Netlist, activity: &Activity, lib: &TechLibrary) -> PowerReport {
    let width = netlist.width();
    let w = f64::from(width);
    let steps = activity.steps.max(1) as f64;

    let mut clock_pj = 0.0;
    let mut storage_pj = 0.0;
    let mut alu_pj = 0.0;
    let mut mux_pj = 0.0;
    let mut wire_pj = 0.0;

    // Receiver input capacitance per bit of each net.
    let mut receiver_cap = vec![0.0f64; netlist.num_nets()];
    for c in netlist.component_ids() {
        let comp = netlist.component(c);
        let per_bit = match comp.kind() {
            ComponentKind::Alu { .. } => lib.alu_port_cap_per_bit(),
            ComponentKind::Mux { .. } => lib.mux_input_cap_per_bit(),
            ComponentKind::Mem { .. } => lib.mem_input_cap_per_bit(),
            ComponentKind::Const { .. } | ComponentKind::Input => 0.0,
        };
        for n in comp.data_inputs() {
            receiver_cap[n.index()] += per_bit;
        }
    }
    for n in netlist.net_ids() {
        let fanout = netlist.receivers_of(n).len();
        let cap_bit = lib.wire_cap_per_bit(fanout) + receiver_cap[n.index()];
        wire_pj += activity.net_toggles[n.index()] as f64 * lib.toggle_energy(cap_bit);
    }

    for c in netlist.component_ids() {
        let comp = netlist.component(c);
        match comp.kind() {
            ComponentKind::Alu { fs, .. } => {
                // When all 2·w input bits toggle, the full internal
                // capacitance switches once.
                let frac = activity.input_toggles[c.index()] as f64 / (2.0 * w);
                alu_pj += frac * lib.full_swing_energy(lib.alu_internal_cap(*fs, width));
            }
            ComponentKind::Mux { inputs } => {
                mux_pj += activity.net_toggles[comp.output().index()] as f64
                    * lib.toggle_energy(lib.mux_internal_cap_per_bit(inputs.len()));
            }
            ComponentKind::Mem { kind, .. } => {
                clock_pj += activity.clock_pulses[c.index()] as f64
                    * lib.full_swing_energy(lib.mem_clock_cap(*kind, width));
                storage_pj += activity.store_toggles[c.index()] as f64
                    * lib.toggle_energy(lib.mem_store_cap_per_bit(*kind));
            }
            ComponentKind::Const { .. } | ComponentKind::Input => {}
        }
    }

    let control_pj = activity.control_toggles as f64
        * lib.toggle_energy(lib.controller_cap_per_toggle())
        + activity.controller_pulses as f64 * lib.full_swing_energy(lib.controller_clock_cap());

    let to_mw = |pj: f64| lib.power_mw(pj / steps);
    let clock_mw = to_mw(clock_pj);
    let storage_mw = to_mw(storage_pj);
    let alu_mw = to_mw(alu_pj);
    let mux_mw = to_mw(mux_pj);
    let wire_mw = to_mw(wire_pj);
    let control_mw = to_mw(control_pj);
    // Leakage over the base layout area (power-management overhead cells
    // are excluded here; their leakage is second-order of second-order).
    let base_area = estimate_area(netlist, PowerMode::non_gated(), lib).total_lambda2;
    let static_mw = lib.static_power_mw(base_area);
    PowerReport {
        total_mw: clock_mw + storage_mw + alu_mw + mux_mw + wire_mw + control_mw + static_mw,
        clock_mw,
        storage_mw,
        alu_mw,
        mux_mw,
        wire_mw,
        control_mw,
        static_mw,
    }
}

/// Estimates layout area of the design, including the power-management
/// overhead implied by `mode` (clock-gating cells per memory element,
/// operand-isolation latches per ALU input bit).
#[must_use]
pub fn estimate_area(netlist: &Netlist, mode: PowerMode, lib: &TechLibrary) -> AreaReport {
    let width = netlist.width();
    let mut alu = 0.0;
    let mut mem = 0.0;
    let mut mux = 0.0;
    let mut pm = 0.0;
    let mut alu_count = 0usize;
    let mut mem_count = 0usize;
    for c in netlist.component_ids() {
        match netlist.component(c).kind() {
            ComponentKind::Alu { fs, .. } => {
                alu += lib.alu_area(*fs, width);
                alu_count += 1;
            }
            ComponentKind::Mem { kind, .. } => {
                mem += lib.mem_area(*kind, width);
                mem_count += 1;
            }
            ComponentKind::Mux { inputs } => mux += lib.mux_area(inputs.len(), width),
            ComponentKind::Const { .. } | ComponentKind::Input => {}
        }
    }
    if mode.gated_mem_clocks {
        // One gating cell (latch + AND) per memory element.
        pm += mem_count as f64 * lib.mem_area(MemKind::Latch, 1) * 1.5;
    }
    if mode.operand_isolation {
        // One isolation latch bank per ALU operand port.
        pm += alu_count as f64 * 2.0 * lib.mem_area(MemKind::Latch, width) * 0.6;
    }
    let ctrl = lib.controller_area(
        netlist.controller().len(),
        netlist.controller().control_points(),
    );
    let total = lib.layout_area(alu + mem + mux + ctrl + pm);
    AreaReport {
        total_lambda2: total,
        alu_lambda2: alu,
        mem_lambda2: mem,
        mux_lambda2: mux,
        ctrl_lambda2: ctrl,
        pm_lambda2: pm,
    }
}

/// The cost of generating the `n` non-overlapping phase clocks on-chip:
/// `(area λ², power mW)` of a ring-counter phase generator switching every
/// system-clock period.
///
/// The paper's flow — like [`estimate_power`]/[`estimate_area`] — treats
/// the clocks as chip inputs and does not charge this; call this function
/// to quantify the overhead explicitly (for a 4-bit datapath it is a
/// visible fraction; for realistic widths it amortises away).
#[must_use]
pub fn clock_generator_overhead(netlist: &Netlist, lib: &TechLibrary) -> (f64, f64) {
    let n = netlist.scheme().num_clocks();
    let area = lib.layout_area(lib.clock_generator_area(n));
    let power = lib.power_mw(lib.full_swing_energy(lib.clock_generator_cap_per_step(n)));
    (area, power)
}

/// Power attributed to one component (its internal switching plus the net
/// it drives).
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentPower {
    /// The component.
    pub comp: mc_rtl::CompId,
    /// Its report label.
    pub label: String,
    /// Attributed power (mW).
    pub mw: f64,
}

/// Ranks components by attributed power, highest first: each component is
/// charged its internal switching (ALU activity, mux tree, memory clock
/// and storage) plus the loading of the net it drives. Useful to find the
/// hot spots of a design.
#[must_use]
pub fn per_component_power(
    netlist: &Netlist,
    activity: &Activity,
    lib: &TechLibrary,
) -> Vec<ComponentPower> {
    let width = netlist.width();
    let w = f64::from(width);
    let steps = activity.steps.max(1) as f64;
    let mut out = Vec::new();
    for c in netlist.component_ids() {
        let comp = netlist.component(c);
        let mut pj = 0.0;
        match comp.kind() {
            ComponentKind::Alu { fs, .. } => {
                let frac = activity.input_toggles[c.index()] as f64 / (2.0 * w);
                pj += frac * lib.full_swing_energy(lib.alu_internal_cap(*fs, width));
            }
            ComponentKind::Mux { inputs } => {
                pj += activity.net_toggles[comp.output().index()] as f64
                    * lib.toggle_energy(lib.mux_internal_cap_per_bit(inputs.len()));
            }
            ComponentKind::Mem { kind, .. } => {
                pj += activity.clock_pulses[c.index()] as f64
                    * lib.full_swing_energy(lib.mem_clock_cap(*kind, width));
                pj += activity.store_toggles[c.index()] as f64
                    * lib.toggle_energy(lib.mem_store_cap_per_bit(*kind));
            }
            ComponentKind::Const { .. } | ComponentKind::Input => {}
        }
        // Charge the driven net's wire load to the driver.
        let net = comp.output();
        let fanout = netlist.receivers_of(net).len();
        pj += activity.net_toggles[net.index()] as f64
            * lib.toggle_energy(lib.wire_cap_per_bit(fanout));
        out.push(ComponentPower {
            comp: c,
            label: comp.label().to_owned(),
            mw: lib.power_mw(pj / steps),
        });
    }
    out.sort_by(|a, b| b.mw.partial_cmp(&a.mw).expect("power is finite"));
    out
}

/// Power attributed to each datapath module (Fig. 3b): the per-phase
/// breakdown that shows how consumption distributes across the
/// partitions. Components shared across phases follow
/// [`Netlist::dpm_groups`]'s assignment; controller and receiver-input
/// overheads are not attributed (same convention as
/// [`per_component_power`]).
#[must_use]
pub fn per_dpm_power(
    netlist: &Netlist,
    activity: &Activity,
    lib: &TechLibrary,
) -> Vec<(mc_clocks::PhaseId, f64)> {
    let by_comp = per_component_power(netlist, activity, lib);
    let groups = netlist.dpm_groups();
    groups
        .into_iter()
        .map(|(phase, comps)| {
            let mw = by_comp
                .iter()
                .filter(|cp| comps.contains(&cp.comp))
                .map(|cp| cp.mw)
                .sum();
            (phase, mw)
        })
        .collect()
}

/// Monte-Carlo confidence bounds on a design's total power, from
/// evaluating several independent stimulus seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerCi {
    /// Mean total power over the seeds (mW); equals
    /// [`PowerReport::total_mw`] of the containing report.
    pub mean_mw: f64,
    /// Sample standard deviation of the per-seed totals (mW).
    pub std_mw: f64,
    /// Half-width of the 95 % confidence interval (mW): the true mean
    /// lies in `mean_mw ± ci95_mw` with 95 % confidence under the normal
    /// approximation.
    pub ci95_mw: f64,
    /// Number of seeds evaluated.
    pub seeds: usize,
}

impl fmt::Display for PowerCi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3} ± {:.3} mW (95 % CI, {} seeds)",
            self.mean_mw, self.ci95_mw, self.seeds
        )
    }
}

/// A complete design evaluation: the paper's table row for one design.
#[derive(Debug, Clone)]
pub struct DesignReport {
    /// Design name (from the netlist).
    pub name: String,
    /// Average power.
    pub power: PowerReport,
    /// Layout area.
    pub area: AreaReport,
    /// Resource statistics (ALUs, memory cells, mux inputs).
    pub stats: NetlistStats,
    /// Static timing summary (critical path / fmax).
    pub timing: crate::timing::TimingReport,
    /// Monte-Carlo confidence bounds when the report averaged several
    /// stimulus seeds ([`evaluate_design_monte_carlo`]); `None` for
    /// single-seed evaluations, whose numbers are unchanged point
    /// samples.
    pub power_ci: Option<PowerCi>,
}

impl fmt::Display for DesignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.2} mW, {:.0} λ², ALUs {}, mem {}, muxin {}",
            self.name,
            self.power.total_mw,
            self.area.total_lambda2,
            self.stats.alu_summary(),
            self.stats.mem_cells,
            self.stats.mux_inputs
        )
    }
}

/// Simulates `netlist` under `mode` with random vectors and produces the
/// full report (power, area, resource stats).
#[must_use]
pub fn evaluate_design(
    netlist: &Netlist,
    mode: PowerMode,
    lib: &TechLibrary,
    computations: usize,
    seed: u64,
) -> DesignReport {
    let activity = mc_sim::CompiledNetlist::compile(netlist, mode).run_activity(computations, seed);
    evaluate_design_with_activity(netlist, mode, lib, &activity)
}

/// Prices an already-simulated design: builds the full report from a
/// precomputed switching-activity profile instead of re-simulating.
///
/// [`evaluate_design`] is this plus the simulation; flows that keep the
/// simulation trace as an explicit artifact (see `mc-core`'s pass
/// pipeline) call this directly.
#[must_use]
pub fn evaluate_design_with_activity(
    netlist: &Netlist,
    mode: PowerMode,
    lib: &TechLibrary,
    activity: &mc_sim::Activity,
) -> DesignReport {
    DesignReport {
        name: netlist.name().to_owned(),
        power: estimate_power(netlist, activity, lib),
        area: estimate_area(netlist, mode, lib),
        stats: netlist.stats(),
        timing: crate::timing::analyze_timing(netlist, lib),
        power_ci: None,
    }
}

/// Prices one precomputed activity profile per stimulus seed and folds
/// them into a Monte-Carlo report: every power mechanism is averaged
/// over the seeds (pricing is linear in the counters, so this equals
/// pricing the mean activity), and [`DesignReport::power_ci`] carries
/// the mean, sample standard deviation and 95 % CI half-width of the
/// per-seed totals. Area, resource stats and timing are seed-independent
/// and evaluated once.
///
/// With a single activity this degenerates to
/// [`evaluate_design_with_activity`] plus a zero-width interval.
///
/// # Panics
///
/// Panics if `activities` is empty.
#[must_use]
pub fn evaluate_design_monte_carlo(
    netlist: &Netlist,
    mode: PowerMode,
    lib: &TechLibrary,
    activities: &[mc_sim::Activity],
) -> DesignReport {
    assert!(
        !activities.is_empty(),
        "Monte-Carlo evaluation needs at least one seed's activity"
    );
    let reports: Vec<PowerReport> = activities
        .iter()
        .map(|a| estimate_power(netlist, a, lib))
        .collect();
    let n = reports.len() as f64;
    let avg = |f: fn(&PowerReport) -> f64| reports.iter().map(f).sum::<f64>() / n;
    let power = PowerReport {
        total_mw: avg(|r| r.total_mw),
        clock_mw: avg(|r| r.clock_mw),
        storage_mw: avg(|r| r.storage_mw),
        alu_mw: avg(|r| r.alu_mw),
        mux_mw: avg(|r| r.mux_mw),
        wire_mw: avg(|r| r.wire_mw),
        control_mw: avg(|r| r.control_mw),
        static_mw: avg(|r| r.static_mw),
    };
    let totals: Vec<f64> = reports.iter().map(|r| r.total_mw).collect();
    let stats = crate::analysis::monte_carlo_stats(&totals);
    DesignReport {
        name: netlist.name().to_owned(),
        power,
        area: estimate_area(netlist, mode, lib),
        stats: netlist.stats(),
        timing: crate::timing::analyze_timing(netlist, lib),
        power_ci: Some(PowerCi {
            mean_mw: stats.mean,
            std_mw: stats.std_dev,
            ci95_mw: stats.ci95_half_width,
            seeds: stats.samples,
        }),
    }
}

/// Configuration of an adaptive Monte-Carlo power evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloConfig {
    /// Random computations per seed.
    pub computations: usize,
    /// First stimulus seed; seed `k` derives deterministically from it
    /// (see [`derive_seeds`]), so identical configurations yield
    /// bit-identical reports.
    pub base_seed: u64,
    /// Hard ceiling on the number of seeds.
    pub max_seeds: usize,
    /// Lane width of the batched kernel — also the sequential batch
    /// granularity of the early-stopping check.
    pub lanes: usize,
    /// The multi-seed kernel to simulate through. Backends are
    /// bit-identical per seed; only the early-stopping granularity
    /// (one kernel sweep) depends on the choice.
    pub backend: mc_sim::BatchBackend,
    /// Early-stopping threshold: stop once the 95 % CI half-width is at
    /// most this fraction of the mean (checked after each completed
    /// batch; `None` always runs `max_seeds`).
    pub rel_ci: Option<f64>,
}

/// Deterministic seed schedule for Monte-Carlo runs: seed `0` is `base`
/// itself (so lane 0 reproduces the single-seed run exactly) and later
/// seeds stride by the 64-bit golden ratio.
#[must_use]
pub fn derive_seeds(base: u64, n: usize) -> Vec<u64> {
    (0..n)
        .map(|k| base.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect()
}

/// Adaptive Monte-Carlo evaluation: simulates seeds through the selected
/// multi-seed kernel one sweep at a time, prices each lane, and stops
/// early once the 95 % CI half-width of the total power falls under
/// `cfg.rel_ci` of the mean (sequential-batch early stopping). Runs at
/// most `cfg.max_seeds` seeds.
///
/// # Panics
///
/// Panics if `cfg.max_seeds` is zero.
#[must_use]
pub fn evaluate_design_monte_carlo_adaptive(
    netlist: &Netlist,
    mode: PowerMode,
    lib: &TechLibrary,
    cfg: &MonteCarloConfig,
) -> DesignReport {
    assert!(cfg.max_seeds > 0, "max_seeds must be positive");
    let seeds = derive_seeds(cfg.base_seed, cfg.max_seeds);
    let program = mc_sim::SeedKernel::compile(netlist, mode, cfg.backend, cfg.lanes);
    let mut activities: Vec<mc_sim::Activity> = Vec::with_capacity(cfg.max_seeds);
    let mut totals: Vec<f64> = Vec::with_capacity(cfg.max_seeds);
    for chunk in seeds.chunks(program.lanes().max(1)) {
        for activity in program.run_seeds_activity(cfg.computations, chunk, false) {
            totals.push(estimate_power(netlist, &activity, lib).total_mw);
            activities.push(activity);
        }
        if let Some(rel) = cfg.rel_ci {
            let stats = crate::analysis::monte_carlo_stats(&totals);
            if crate::analysis::ci_converged(&stats, rel) {
                break;
            }
        }
    }
    evaluate_design_monte_carlo(netlist, mode, lib, &activities)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_alloc::{allocate, AllocOptions, Strategy};
    use mc_clocks::ClockScheme;
    use mc_dfg::benchmarks;

    fn hal(n: u32, strategy: Strategy) -> Netlist {
        let bm = benchmarks::hal();
        let opts = AllocOptions::new(strategy, ClockScheme::new(n).unwrap());
        allocate(&bm.dfg, &bm.schedule, &opts).unwrap().netlist
    }

    #[test]
    fn power_is_positive_and_decomposes() {
        let nl = hal(1, Strategy::Conventional);
        let lib = TechLibrary::vsc450();
        let rep = evaluate_design(&nl, PowerMode::non_gated(), &lib, 100, 7);
        let p = rep.power;
        assert!(p.total_mw > 0.0);
        let sum = p.clock_mw
            + p.storage_mw
            + p.alu_mw
            + p.mux_mw
            + p.wire_mw
            + p.control_mw
            + p.static_mw;
        assert!((p.total_mw - sum).abs() < 1e-9);
        // Leakage is a tiny fraction at 0.8 µm.
        assert!(p.static_mw < 0.02 * p.total_mw, "leakage {}", p.static_mw);
    }

    #[test]
    fn zero_activity_costs_only_leakage() {
        let nl = hal(1, Strategy::Conventional);
        let lib = TechLibrary::vsc450();
        let activity = mc_sim::Activity::new(nl.num_nets(), nl.num_components());
        let p = estimate_power(&nl, &activity, &lib);
        assert_eq!(p.clock_mw, 0.0);
        assert_eq!(p.alu_mw, 0.0);
        assert_eq!(p.wire_mw, 0.0);
        assert!(p.static_mw > 0.0, "area always leaks");
        assert!((p.total_mw - p.static_mw).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_with_one_seed_is_total_and_finite() {
        // Regression: a single-seed Monte-Carlo run must degenerate to the
        // plain evaluation plus a zero-width interval — no NaN std/CI from
        // the n−1 variance denominator, no panic.
        let nl = hal(1, Strategy::Conventional);
        let lib = TechLibrary::vsc450();
        let mode = PowerMode::non_gated();
        let cfg = mc_sim::SimConfig::new(mode, 50, 7);
        let activity = mc_sim::simulate(&nl, &cfg).activity;
        let rep = evaluate_design_monte_carlo(&nl, mode, &lib, std::slice::from_ref(&activity));
        let ci = rep.power_ci.expect("Monte-Carlo reports carry an interval");
        assert_eq!(ci.seeds, 1);
        assert!(ci.mean_mw.is_finite() && ci.mean_mw > 0.0);
        assert_eq!(ci.std_mw, 0.0, "one seed has no spread, not NaN");
        assert_eq!(ci.ci95_mw, 0.0, "one seed has no interval, not NaN");
        let single = evaluate_design_with_activity(&nl, mode, &lib, &activity);
        assert!((rep.power.total_mw - single.power.total_mw).abs() < 1e-12);
    }

    #[test]
    fn gated_mode_beats_non_gated_on_power() {
        let nl = hal(1, Strategy::Conventional);
        let lib = TechLibrary::vsc450();
        let ng = evaluate_design(&nl, PowerMode::non_gated(), &lib, 300, 7);
        let g = evaluate_design(&nl, PowerMode::gated(), &lib, 300, 7);
        assert!(
            g.power.total_mw < ng.power.total_mw,
            "gated {} vs non-gated {}",
            g.power.total_mw,
            ng.power.total_mw
        );
        assert!(g.power.reduction_vs(&ng.power) > 0.0);
    }

    #[test]
    fn gating_adds_area() {
        let nl = hal(1, Strategy::Conventional);
        let lib = TechLibrary::vsc450();
        let ng = estimate_area(&nl, PowerMode::non_gated(), &lib);
        let g = estimate_area(&nl, PowerMode::gated(), &lib);
        assert!(g.total_lambda2 > ng.total_lambda2);
        assert!(g.increase_vs(&ng) > 0.0);
        assert!(g.pm_lambda2 > 0.0);
        assert_eq!(ng.pm_lambda2, 0.0);
    }

    #[test]
    fn area_lands_in_the_papers_magnitude() {
        // The paper's benchmarks run 2.4–5.6 Mλ²; ours should land within
        // the same order of magnitude (0.5–20 Mλ²).
        for n in [1u32, 2, 3] {
            let nl = hal(n, Strategy::Integrated);
            let lib = TechLibrary::vsc450();
            let a = estimate_area(&nl, PowerMode::multiclock(), &lib);
            assert!(
                (5e5..2e7).contains(&a.total_lambda2),
                "n={n}: {} λ²",
                a.total_lambda2
            );
        }
    }

    #[test]
    fn power_lands_in_the_papers_magnitude() {
        // Paper rows run 3.5–18.7 mW; accept 0.5–60 mW.
        let nl = hal(1, Strategy::Conventional);
        let lib = TechLibrary::vsc450();
        let rep = evaluate_design(&nl, PowerMode::non_gated(), &lib, 300, 7);
        assert!(
            (0.5..60.0).contains(&rep.power.total_mw),
            "{} mW",
            rep.power.total_mw
        );
    }

    #[test]
    fn multiclock_reduces_clock_power_share() {
        let lib = TechLibrary::vsc450();
        let one = evaluate_design(
            &hal(1, Strategy::Integrated),
            PowerMode::multiclock(),
            &lib,
            300,
            7,
        );
        let three = evaluate_design(
            &hal(3, Strategy::Integrated),
            PowerMode::multiclock(),
            &lib,
            300,
            7,
        );
        // Phase clocks cut pulses by n even though the 3-clock design has
        // more memory elements and pays for the phase generator (which is
        // included in clock power, so the per-mem ratio lands near 1/n
        // plus that overhead rather than exactly 1/3).
        let one_per_mem = one.power.clock_mw / one.stats.mem_cells as f64;
        let three_per_mem = three.power.clock_mw / three.stats.mem_cells as f64;
        assert!(
            three_per_mem < 0.75 * one_per_mem,
            "per-mem clock power {three_per_mem} vs {one_per_mem}"
        );
    }

    #[test]
    fn clock_generator_overhead_scales_with_n() {
        let lib = TechLibrary::vsc450();
        let (a1, p1) = clock_generator_overhead(&hal(1, Strategy::Integrated), &lib);
        assert_eq!((a1, p1), (0.0, 0.0), "single clock needs no generator");
        let (a2, p2) = clock_generator_overhead(&hal(2, Strategy::Integrated), &lib);
        let (a3, p3) = clock_generator_overhead(&hal(3, Strategy::Integrated), &lib);
        assert!(a3 > a2 && a2 > 0.0);
        assert!(p3 > p2 && p2 > 0.0);
        // The overhead stays a modest fraction of a datapath's power.
        assert!(p3 < 1.0, "generator power {p3} mW is implausible");
    }

    #[test]
    fn per_component_ranking_is_sorted_and_complete() {
        let nl = hal(2, Strategy::Integrated);
        let lib = TechLibrary::vsc450();
        let res = mc_sim::simulate(
            &nl,
            &mc_sim::SimConfig::new(PowerMode::multiclock(), 100, 7),
        );
        let ranked = per_component_power(&nl, &res.activity, &lib);
        assert_eq!(ranked.len(), nl.num_components());
        for pair in ranked.windows(2) {
            assert!(pair[0].mw >= pair[1].mw);
        }
        // A multiplier should appear near the top on HAL.
        let top5: Vec<&str> = ranked[..5].iter().map(|c| c.label.as_str()).collect();
        assert!(
            top5.iter().any(|l| l.starts_with("alu")),
            "no ALU in the top consumers: {top5:?}"
        );
    }

    #[test]
    fn dpm_power_splits_across_phases() {
        let nl = hal(2, Strategy::Integrated);
        let lib = TechLibrary::vsc450();
        let res = mc_sim::simulate(
            &nl,
            &mc_sim::SimConfig::new(PowerMode::multiclock(), 100, 7),
        );
        let dpms = per_dpm_power(&nl, &res.activity, &lib);
        assert_eq!(dpms.len(), 2);
        for (phase, mw) in &dpms {
            assert!(*mw > 0.0, "{phase} draws nothing");
        }
        // The split must account for (most of) the attributable power.
        let total: f64 = per_component_power(&nl, &res.activity, &lib)
            .iter()
            .map(|c| c.mw)
            .sum();
        let dpm_sum: f64 = dpms.iter().map(|(_, mw)| mw).sum();
        assert!(dpm_sum <= total + 1e-9);
        assert!(dpm_sum > 0.8 * total, "dpm {dpm_sum} vs comps {total}");
    }

    #[test]
    fn reports_render() {
        let nl = hal(2, Strategy::Integrated);
        let lib = TechLibrary::vsc450();
        let rep = evaluate_design(&nl, PowerMode::multiclock(), &lib, 50, 7);
        let s = rep.to_string();
        assert!(s.contains("mW"));
        assert!(rep.power.to_string().contains("clk"));
        assert!(rep.area.to_string().contains("alu"));
        assert!(rep.power_ci.is_none(), "single-seed runs carry no CI");
    }

    #[test]
    fn monte_carlo_report_averages_the_seeds() {
        let nl = hal(2, Strategy::Integrated);
        let lib = TechLibrary::vsc450();
        let mode = PowerMode::multiclock();
        let seeds = derive_seeds(7, 4);
        let activities =
            mc_sim::BatchedProgram::compile(&nl, mode, 4).run_seeds_activity(60, &seeds, false);
        let mc = evaluate_design_monte_carlo(&nl, mode, &lib, &activities);
        let ci = mc.power_ci.expect("multi-seed report carries a CI");
        assert_eq!(ci.seeds, 4);
        assert!((ci.mean_mw - mc.power.total_mw).abs() < 1e-12);
        assert!(ci.ci95_mw > 0.0, "independent seeds have spread");
        assert!(ci.to_string().contains("95 % CI"));
        // The mean equals the hand-averaged per-seed totals.
        let mean: f64 = activities
            .iter()
            .map(|a| estimate_power(&nl, a, &lib).total_mw)
            .sum::<f64>()
            / 4.0;
        assert!((mc.power.total_mw - mean).abs() < 1e-12);
        // Seed 0 is the base seed, so lane 0 reprices the scalar run.
        let single = evaluate_design(&nl, mode, &lib, 60, 7);
        let first = estimate_power(&nl, &activities[0], &lib);
        assert_eq!(first, single.power);
    }

    #[test]
    fn adaptive_evaluation_stops_early_when_converged() {
        let nl = hal(2, Strategy::Integrated);
        let lib = TechLibrary::vsc450();
        let mode = PowerMode::multiclock();
        // A generous threshold stops at the first CI check (one batch).
        let loose = evaluate_design_monte_carlo_adaptive(
            &nl,
            mode,
            &lib,
            &MonteCarloConfig {
                computations: 40,
                base_seed: 7,
                max_seeds: 32,
                lanes: 4,
                backend: mc_sim::BatchBackend::Batched,
                rel_ci: Some(0.5),
            },
        );
        assert_eq!(loose.power_ci.unwrap().seeds, 4);
        // An unreachable threshold runs the full budget.
        let tight = evaluate_design_monte_carlo_adaptive(
            &nl,
            mode,
            &lib,
            &MonteCarloConfig {
                computations: 40,
                base_seed: 7,
                max_seeds: 8,
                lanes: 4,
                backend: mc_sim::BatchBackend::Batched,
                rel_ci: Some(0.0),
            },
        );
        assert_eq!(tight.power_ci.unwrap().seeds, 8);
        // Determinism: identical configurations, identical reports.
        let again = evaluate_design_monte_carlo_adaptive(
            &nl,
            mode,
            &lib,
            &MonteCarloConfig {
                computations: 40,
                base_seed: 7,
                max_seeds: 8,
                lanes: 4,
                backend: mc_sim::BatchBackend::Batched,
                rel_ci: Some(0.0),
            },
        );
        assert_eq!(tight.power, again.power);
        assert_eq!(tight.power_ci, again.power_ci);
    }

    #[test]
    fn derived_seeds_start_at_the_base() {
        let seeds = derive_seeds(42, 3);
        assert_eq!(seeds[0], 42);
        assert_eq!(seeds.len(), 3);
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "seeds must be distinct");
    }
}
