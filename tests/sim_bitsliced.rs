//! Differential tests for the bit-sliced (bit-plane) kernel: every seed
//! of a bit-sliced population must be bit-identical to a scalar compiled
//! run with the same seed — activity counters, per-step profiles and
//! outputs — across every built-in benchmark and a random DFG, power
//! mode, clock count and allocation strategy, including partial
//! populations handled by the tail mask and populations spanning several
//! 64-seed sweeps.
//!
//! This is the determinism contract that lets the Monte-Carlo estimator,
//! the explorer and the retrofit verifier switch backends freely: the
//! backend changes throughput, never a single bit of any result.

use mc_alloc::{allocate, AllocOptions, Strategy};
use mc_clocks::ClockScheme;
use mc_dfg::benchmarks;
use mc_power::analysis::monte_carlo_stats;
use mc_power::{derive_seeds, estimate_power};
use mc_rtl::{Netlist, PowerMode};
use mc_sim::{
    simulate, BatchBackend, BatchedProgram, BitslicedProgram, SeedKernel, SimBackend, SimConfig,
    SimResult,
};
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

/// Scalar compiled reference run with profiling, the baseline every seed
/// is held to.
fn scalar_reference(
    netlist: &Netlist,
    mode: PowerMode,
    computations: usize,
    seed: u64,
) -> SimResult {
    let cfg = SimConfig::new(mode, computations, seed)
        .with_profile()
        .with_backend(SimBackend::Compiled);
    simulate(netlist, &cfg)
}

/// Asserts a bit-sliced run over `seeds` reproduces the scalar references
/// seed by seed (activity incl. per-step profile, outputs) and that the
/// activity-only path agrees with the full path.
fn assert_seeds_match(
    netlist: &Netlist,
    mode: PowerMode,
    computations: usize,
    seeds: &[u64],
    scalars: &[SimResult],
) {
    let program = BitslicedProgram::compile(netlist, mode);
    let sliced = program.run_seeds(computations, seeds, true);
    let activities = program.run_seeds_activity(computations, seeds, true);
    assert_eq!(sliced.len(), seeds.len());
    assert_eq!(activities.len(), seeds.len());
    for (k, (seed, scalar)) in seeds.iter().zip(scalars).enumerate() {
        let ctx = format!(
            "netlist `{}` mode [{mode}] computations {computations} seed {seed} \
             population {}",
            netlist.name(),
            seeds.len()
        );
        assert_eq!(
            sliced[k].activity, scalar.activity,
            "seed activity diverged: {ctx}"
        );
        assert_eq!(
            sliced[k].outputs, scalar.outputs,
            "seed outputs diverged: {ctx}"
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
fn bitsliced_seeds_match_scalar_on_all_benchmarks_modes_clocks() {
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
                    assert_seeds_match(&dp.netlist, mode, 4, &seeds, &scalars);
                }
            }
        }
    }
    let seeds = derive_seeds(42, 64);
    for (netlist, mode) in paper_table_points() {
        let scalars: Vec<SimResult> = seeds
            .iter()
            .map(|&s| scalar_reference(&netlist, mode, 16, s))
            .collect();
        assert_seeds_match(&netlist, mode, 16, &seeds, &scalars);
    }
}

/// Population sizes around the 64-seed sweep width: a single seed (63
/// dead lanes under the tail mask), one short of a full sweep, exactly
/// one sweep, one seed into a second sweep, and two full sweeps. The 128
/// scalar references are computed once and every smaller population is a
/// prefix of the same schedule.
#[test]
fn partial_and_multi_sweep_populations_match_scalar() {
    let bm = benchmarks::hal();
    let opts = AllocOptions::new(Strategy::Integrated, ClockScheme::new(3).unwrap());
    let dp = allocate(&bm.dfg, &bm.schedule, &opts).unwrap();
    let mode = PowerMode::multiclock();
    let seeds = derive_seeds(99, 128);
    let scalars: Vec<SimResult> = seeds
        .iter()
        .map(|&s| scalar_reference(&dp.netlist, mode, 4, s))
        .collect();
    for population in [1usize, 63, 64, 65, 128] {
        assert_seeds_match(
            &dp.netlist,
            mode,
            4,
            &seeds[..population],
            &scalars[..population],
        );
    }
}

#[test]
fn zero_and_single_computation_populations_match_scalar() {
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
        assert_seeds_match(&dp.netlist, mode, computations, &seeds, &scalars);
    }
}

/// The wide-datapath fallback path (Mul/Div through transpose-execute-
/// transpose, ripple carries over 32 planes) is held to the same
/// bit-identity bar as the 4-bit paper benchmarks.
#[test]
fn wide_datapath_population_matches_scalar() {
    let bm = benchmarks::hal_w(32);
    let opts = AllocOptions::new(Strategy::Integrated, ClockScheme::new(2).unwrap());
    let dp = allocate(&bm.dfg, &bm.schedule, &opts).unwrap();
    let mode = PowerMode::multiclock();
    let seeds = derive_seeds(7, 9);
    let scalars: Vec<SimResult> = seeds
        .iter()
        .map(|&s| scalar_reference(&dp.netlist, mode, 6, s))
        .collect();
    assert_seeds_match(&dp.netlist, mode, 6, &seeds, &scalars);
}

/// Monte-Carlo property: the three backends — scalar compiled, batched
/// lane-major, and bit-sliced — agree on the per-seed power totals and
/// therefore on the Monte-Carlo mean/std/CI *to the bit*, for every
/// paper benchmark.
#[test]
fn three_backends_agree_on_monte_carlo_statistics_to_the_bit() {
    let lib = TechLibrary::vsc450();
    let mode = PowerMode::multiclock();
    let seeds = derive_seeds(42, 24);
    for bm in benchmarks::paper_benchmarks() {
        let opts = AllocOptions::new(Strategy::Integrated, ClockScheme::new(2).unwrap());
        let dp = allocate(&bm.dfg, &bm.schedule, &opts).unwrap();
        let totals = |activities: Vec<mc_sim::Activity>| -> Vec<f64> {
            activities
                .iter()
                .map(|a| estimate_power(&dp.netlist, a, &lib).total_mw)
                .collect()
        };
        let scalar: Vec<f64> = seeds
            .iter()
            .map(|&s| {
                let cfg = SimConfig::new(mode, 16, s).with_backend(SimBackend::Compiled);
                estimate_power(&dp.netlist, &simulate(&dp.netlist, &cfg).activity, &lib).total_mw
            })
            .collect();
        let batched = totals(
            BatchedProgram::compile(&dp.netlist, mode, 16).run_seeds_activity(16, &seeds, false),
        );
        let sliced = totals(
            BitslicedProgram::compile(&dp.netlist, mode).run_seeds_activity(16, &seeds, false),
        );
        let s0 = monte_carlo_stats(&scalar);
        let s1 = monte_carlo_stats(&batched);
        let s2 = monte_carlo_stats(&sliced);
        for (name, s) in [("batched", &s1), ("bitsliced", &s2)] {
            assert_eq!(
                s.mean.to_bits(),
                s0.mean.to_bits(),
                "{}: {name} mean diverged from scalar",
                bm.name()
            );
            assert_eq!(
                s.std_dev.to_bits(),
                s0.std_dev.to_bits(),
                "{}: {name} std diverged from scalar",
                bm.name()
            );
            assert_eq!(
                s.ci95_half_width.to_bits(),
                s0.ci95_half_width.to_bits(),
                "{}: {name} CI diverged from scalar",
                bm.name()
            );
        }
    }
}

/// The [`SeedKernel`] dispatcher is exactly its two backends: both
/// variants run the same seeds to the same bits, and report their
/// configured backend and sweep width.
#[test]
fn seed_kernel_dispatch_matches_direct_backend_calls() {
    let bm = benchmarks::facet();
    let opts = AllocOptions::new(Strategy::Split, ClockScheme::new(2).unwrap());
    let dp = allocate(&bm.dfg, &bm.schedule, &opts).unwrap();
    let mode = PowerMode::multiclock();
    let seeds = derive_seeds(5, 6);
    let batched = SeedKernel::compile(&dp.netlist, mode, BatchBackend::Batched, 8);
    let sliced = SeedKernel::compile(&dp.netlist, mode, BatchBackend::Bitsliced, 8);
    assert_eq!(batched.backend(), BatchBackend::Batched);
    assert_eq!(sliced.backend(), BatchBackend::Bitsliced);
    assert_eq!(batched.lanes(), 8);
    assert_eq!(sliced.lanes(), mc_sim::BITSLICE_LANES);
    let a = batched.run_seeds(10, &seeds, false);
    let b = sliced.run_seeds(10, &seeds, false);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.activity, y.activity);
        assert_eq!(x.outputs, y.outputs);
    }
    assert_eq!(
        batched.run_seeds_activity(10, &seeds, true),
        sliced.run_seeds_activity(10, &seeds, true)
    );
}
