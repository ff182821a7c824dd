//! Differential tests for the batched multi-lane kernel: every lane of a
//! batched run must be bit-identical to an interpreter run with the same
//! seed — activity counters, per-step profiles and outputs — across
//! every built-in benchmark and a random DFG, power mode, clock count and
//! lane width, including partial final batches and the activity-only
//! fast path.
//!
//! This is the lane determinism contract that lets Monte-Carlo power
//! estimation sweep seeds through the batched kernel while single-seed
//! consumers keep their exact pre-existing numbers.

use mc_alloc::{allocate, AllocOptions, Strategy};
use mc_clocks::ClockScheme;
use mc_dfg::benchmarks;
use mc_power::analysis::monte_carlo_stats;
use mc_power::{derive_seeds, estimate_power};
use mc_prng::Xoshiro256;
use mc_rtl::{Netlist, PowerMode};
use mc_sim::{simulate, BatchedProgram, SimBackend, SimConfig, SimResult};
use mc_tech::TechLibrary;

/// The allocation strategies that apply to `n` clocks.
fn strategies(n: u32) -> &'static [Strategy] {
    if n == 1 {
        &[Strategy::Conventional]
    } else {
        &[Strategy::Split, Strategy::Integrated]
    }
}

fn modes() -> [PowerMode; 3] {
    [
        PowerMode::non_gated(),
        PowerMode::gated(),
        PowerMode::multiclock(),
    ]
}

/// Interpreter reference run with profiling, the baseline every lane is
/// held to. The compiled backend is itself a one-lane batch, so it
/// cannot serve as the independent reference.
fn scalar_reference(
    netlist: &Netlist,
    mode: PowerMode,
    computations: usize,
    seed: u64,
) -> SimResult {
    let cfg = SimConfig::new(mode, computations, seed)
        .with_profile()
        .with_backend(SimBackend::Interpreter);
    simulate(netlist, &cfg)
}

/// Asserts a batched run over `seeds` at `lanes` lanes reproduces the
/// scalar references lane by lane (activity incl. per-step profile,
/// outputs) and that the activity-only path agrees with the full path.
fn assert_lanes_match(
    netlist: &Netlist,
    mode: PowerMode,
    computations: usize,
    seeds: &[u64],
    lanes: usize,
    scalars: &[SimResult],
) {
    let program = BatchedProgram::compile(netlist, mode, lanes);
    let batched = program.run_seeds(computations, seeds, true);
    let activities = program.run_seeds_activity(computations, seeds, true);
    assert_eq!(batched.len(), seeds.len());
    assert_eq!(activities.len(), seeds.len());
    for (k, (seed, scalar)) in seeds.iter().zip(scalars).enumerate() {
        let ctx = format!(
            "netlist `{}` mode [{mode}] computations {computations} seed {seed} lanes {lanes}",
            netlist.name()
        );
        assert_eq!(
            batched[k].activity, scalar.activity,
            "lane activity diverged: {ctx}"
        );
        assert_eq!(
            batched[k].outputs, scalar.outputs,
            "lane outputs diverged: {ctx}"
        );
        assert_eq!(
            activities[k], scalar.activity,
            "activity-only path diverged: {ctx}"
        );
    }
}

/// Five paper-table design points: the multi-clock style of Tables 1–4
/// plus one conventional gated-clock reference.
fn paper_table_points() -> Vec<(Netlist, PowerMode)> {
    use Strategy::{Conventional, Integrated, Split};
    let multiclock = PowerMode::multiclock();
    [
        (benchmarks::facet(), Integrated, 3, multiclock),
        (benchmarks::hal(), Integrated, 3, multiclock),
        (benchmarks::biquad(), Integrated, 2, multiclock),
        (benchmarks::bandpass(), Split, 3, multiclock),
        (benchmarks::hal(), Conventional, 1, PowerMode::gated()),
    ]
    .into_iter()
    .map(|(bm, strategy, n, mode)| {
        let opts = AllocOptions::new(strategy, ClockScheme::new(n).unwrap());
        let dp = allocate(&bm.dfg, &bm.schedule, &opts).unwrap();
        (dp.netlist, mode)
    })
    .collect()
}

#[test]
fn batched_lanes_match_scalar_on_all_benchmarks_modes_clocks_widths() {
    let seeds = [3u64, 17, 2026];
    let random = benchmarks::parse_name("random:24:2").expect("valid random benchmark spec");
    for bm in benchmarks::all_benchmarks().into_iter().chain([random]) {
        for n in 1u32..=4 {
            for &strategy in strategies(n) {
                let opts = AllocOptions::new(strategy, ClockScheme::new(n).unwrap());
                let dp = allocate(&bm.dfg, &bm.schedule, &opts).unwrap_or_else(|e| {
                    panic!("{} {strategy} n={n}: allocation failed: {e}", bm.name())
                });
                for mode in modes() {
                    let scalars: Vec<SimResult> = seeds
                        .iter()
                        .map(|&s| scalar_reference(&dp.netlist, mode, 4, s))
                        .collect();
                    for lanes in [1usize, 8, 16, 32] {
                        assert_lanes_match(&dp.netlist, mode, 4, &seeds, lanes, &scalars);
                    }
                }
            }
        }
    }
    let seeds = derive_seeds(42, 16);
    for (netlist, mode) in paper_table_points() {
        let scalars: Vec<SimResult> = seeds
            .iter()
            .map(|&s| scalar_reference(&netlist, mode, 16, s))
            .collect();
        assert_lanes_match(&netlist, mode, 16, &seeds, 16, &scalars);
    }
}

#[test]
fn partial_final_batch_matches_scalar() {
    let bm = benchmarks::hal();
    let opts = AllocOptions::new(Strategy::Integrated, ClockScheme::new(3).unwrap());
    let dp = allocate(&bm.dfg, &bm.schedule, &opts).unwrap();
    let mode = PowerMode::multiclock();
    // 7 seeds at 16 lanes: one partial batch, padded internally to the
    // next power of two and truncated back.
    let seeds = derive_seeds(99, 7);
    let scalars: Vec<SimResult> = seeds
        .iter()
        .map(|&s| scalar_reference(&dp.netlist, mode, 8, s))
        .collect();
    assert_lanes_match(&dp.netlist, mode, 8, &seeds, 16, &scalars);
    // 7 seeds at 4 lanes: one full batch plus a partial 3-seed batch.
    assert_lanes_match(&dp.netlist, mode, 8, &seeds, 4, &scalars);
}

#[test]
fn zero_and_single_computation_batches_match_scalar() {
    let bm = benchmarks::hal();
    let opts = AllocOptions::new(Strategy::Integrated, ClockScheme::new(2).unwrap());
    let dp = allocate(&bm.dfg, &bm.schedule, &opts).unwrap();
    let mode = PowerMode::gated();
    let seeds = [5u64, 6, 7];
    for computations in [0usize, 1] {
        let scalars: Vec<SimResult> = seeds
            .iter()
            .map(|&s| scalar_reference(&dp.netlist, mode, computations, s))
            .collect();
        assert_lanes_match(&dp.netlist, mode, computations, &seeds, 8, &scalars);
    }
}

/// Monte-Carlo property: the 95 % confidence interval of the per-seed
/// power totals shrinks roughly like `1/√N`. Quadrupling the seed count
/// should about halve the half-width; the assertion leaves generous
/// slack because the sample standard deviation itself fluctuates.
#[test]
fn confidence_interval_shrinks_with_seed_count() {
    let bm = benchmarks::hal();
    let opts = AllocOptions::new(Strategy::Integrated, ClockScheme::new(3).unwrap());
    let dp = allocate(&bm.dfg, &bm.schedule, &opts).unwrap();
    let mode = PowerMode::multiclock();
    let lib = TechLibrary::vsc450();
    let program = BatchedProgram::compile(&dp.netlist, mode, 16);

    // A couple of independent base seeds drawn from the repo PRNG, so
    // the property is not an artifact of one lucky seed schedule.
    let mut rng = Xoshiro256::seed_from_u64(2026);
    for _ in 0..2 {
        let base = rng.next_u64();
        let seeds = derive_seeds(base, 64);
        let totals: Vec<f64> = program
            .run_seeds_activity(24, &seeds, false)
            .iter()
            .map(|a| estimate_power(&dp.netlist, a, &lib).total_mw)
            .collect();
        let small = monte_carlo_stats(&totals[..16]);
        let large = monte_carlo_stats(&totals);
        assert!(small.ci95_half_width > 0.0, "base {base}: degenerate CI");
        let ratio = large.ci95_half_width / small.ci95_half_width;
        // Exact 1/√4 = 0.5; allow wide slack for variance noise.
        assert!(
            (0.2..0.9).contains(&ratio),
            "base {base}: CI half-width ratio {ratio:.3} not ~0.5 \
             (16 seeds: {:.4}, 64 seeds: {:.4})",
            small.ci95_half_width,
            large.ci95_half_width
        );
        // And the two estimates agree within their joint uncertainty.
        assert!(
            (small.mean - large.mean).abs() <= small.ci95_half_width + large.ci95_half_width,
            "base {base}: means diverged: {} vs {}",
            small.mean,
            large.mean
        );
    }
}
