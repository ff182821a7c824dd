//! Phase-accurate RTL netlist simulation with transition counting — the
//! stand-in for the paper's COMPASS simulator "power option" (§5.1).
//!
//! The simulator executes a synthesised [`Netlist`](mc_rtl::Netlist) over
//! random (or explicit) input vectors, running computations back-to-back,
//! and counts every event the power model prices: bit flips per net, input
//! activity per ALU, clock pulses and stored-bit flips per memory element,
//! and control-line toggles. All randomness is seeded; identical
//! configurations produce identical results.
//!
//! # Example: simulate an allocated benchmark
//!
//! ```
//! use mc_alloc::{allocate, AllocOptions, Strategy};
//! use mc_clocks::ClockScheme;
//! use mc_dfg::benchmarks;
//! use mc_rtl::PowerMode;
//! use mc_sim::{simulate, verify_equivalence, SimConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bm = benchmarks::hal();
//! let opts = AllocOptions::new(Strategy::Integrated, ClockScheme::new(2)?);
//! let dp = allocate(&bm.dfg, &bm.schedule, &opts)?;
//!
//! // The netlist computes exactly what the behaviour computes…
//! verify_equivalence(&bm.dfg, &dp.netlist, PowerMode::multiclock(), 50, 7)?;
//!
//! // …and a longer run yields the switching activity for power analysis.
//! let result = simulate(&dp.netlist, &SimConfig::new(PowerMode::multiclock(), 200, 7));
//! assert!(result.activity.total_net_toggles() > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod activity;
mod batched;
mod bitsliced;
mod compiled;
mod engine;
mod equivalence;
pub mod stimulus;
pub mod vcd;

pub use activity::{Activity, StepActivity};
pub use batched::{BatchedProgram, MAX_LANES};
pub use bitsliced::{BatchBackend, BitslicedProgram, SeedKernel, BITSLICE_LANES};
pub use compiled::CompiledNetlist;
pub use engine::{
    simulate, simulate_with_config, simulate_with_inputs, try_simulate_with_inputs, SimBackend,
    SimConfig, SimError, SimResult, StreamRun,
};
pub use equivalence::{verify_equivalence, Mismatch};
pub use stimulus::{FlatStimulus, Stimulus};

#[cfg(test)]
mod tests {
    use super::*;
    use mc_alloc::{allocate, AllocOptions, Strategy};
    use mc_clocks::ClockScheme;
    use mc_dfg::benchmarks;
    use mc_rtl::PowerMode;

    fn datapath(n: u32, strategy: Strategy) -> (mc_dfg::Dfg, mc_rtl::Netlist) {
        let bm = benchmarks::hal();
        let scheme = ClockScheme::new(n).unwrap();
        let opts = AllocOptions::new(strategy, scheme);
        let dp = allocate(&bm.dfg, &bm.schedule, &opts).unwrap();
        (bm.dfg, dp.netlist)
    }

    #[test]
    fn hal_integrated_is_functionally_correct_for_all_clock_counts() {
        for n in [1u32, 2, 3] {
            let (dfg, nl) = datapath(n, Strategy::Integrated);
            verify_equivalence(&dfg, &nl, PowerMode::multiclock(), 30, 11)
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn hal_split_is_functionally_correct() {
        for n in [2u32, 3] {
            let (dfg, nl) = datapath(n, Strategy::Split);
            verify_equivalence(&dfg, &nl, PowerMode::multiclock(), 30, 13)
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn conventional_is_correct_under_every_power_mode() {
        let bm = benchmarks::hal();
        let opts = AllocOptions::new(Strategy::Conventional, ClockScheme::single());
        let dp = allocate(&bm.dfg, &bm.schedule, &opts).unwrap();
        for mode in [
            PowerMode::non_gated(),
            PowerMode::gated(),
            PowerMode::multiclock(),
        ] {
            verify_equivalence(&bm.dfg, &dp.netlist, mode, 30, 17)
                .unwrap_or_else(|e| panic!("{mode}: {e}"));
        }
    }

    #[test]
    fn every_benchmark_and_strategy_is_equivalent() {
        for bm in benchmarks::all_benchmarks() {
            let conv = AllocOptions::new(Strategy::Conventional, ClockScheme::single());
            let dp = allocate(&bm.dfg, &bm.schedule, &conv).unwrap();
            verify_equivalence(&bm.dfg, &dp.netlist, PowerMode::gated(), 10, 3)
                .unwrap_or_else(|e| panic!("{} conventional: {e}", bm.name()));
            for n in [2u32, 3] {
                for strategy in [Strategy::Split, Strategy::Integrated] {
                    let opts = AllocOptions::new(strategy, ClockScheme::new(n).unwrap());
                    let dp = allocate(&bm.dfg, &bm.schedule, &opts).unwrap();
                    verify_equivalence(&bm.dfg, &dp.netlist, PowerMode::multiclock(), 10, 3)
                        .unwrap_or_else(|e| panic!("{} {strategy} n={n}: {e}", bm.name()));
                }
            }
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let (_, nl) = datapath(2, Strategy::Integrated);
        let cfg = SimConfig::new(PowerMode::multiclock(), 50, 99);
        let a = simulate(&nl, &cfg);
        let b = simulate(&nl, &cfg);
        assert_eq!(a.activity, b.activity);
        assert_eq!(a.outputs, b.outputs);
    }

    #[test]
    fn gating_reduces_clock_pulses() {
        let (_, nl) = datapath(1, Strategy::Conventional);
        let ungated = simulate(&nl, &SimConfig::new(PowerMode::non_gated(), 100, 5));
        let gated = simulate(&nl, &SimConfig::new(PowerMode::gated(), 100, 5));
        assert!(
            gated.activity.total_clock_pulses() < ungated.activity.total_clock_pulses(),
            "gated {} vs ungated {}",
            gated.activity.total_clock_pulses(),
            ungated.activity.total_clock_pulses()
        );
        // Function is unaffected by gating.
        assert_eq!(gated.outputs, ungated.outputs);
    }

    #[test]
    fn phase_clocks_divide_pulses_by_n() {
        // Under the multiclock scheme (no gating), a mem in partition k
        // sees exactly steps-owned-by-k pulses.
        let (_, nl) = datapath(2, Strategy::Integrated);
        let res = simulate(&nl, &SimConfig::new(PowerMode::multiclock(), 40, 5));
        let steps = res.activity.steps;
        for mem in nl.mems() {
            let pulses = res.activity.clock_pulses[mem.index()];
            assert_eq!(
                pulses,
                steps / 2,
                "mem {mem} saw {pulses} pulses over {steps} steps"
            );
        }
    }

    #[test]
    fn single_clock_non_gated_pulses_every_step() {
        let (_, nl) = datapath(1, Strategy::Conventional);
        let res = simulate(&nl, &SimConfig::new(PowerMode::non_gated(), 25, 5));
        for mem in nl.mems() {
            assert_eq!(res.activity.clock_pulses[mem.index()], res.activity.steps);
        }
    }

    #[test]
    fn operand_isolation_reduces_alu_activity() {
        let (_, nl) = datapath(1, Strategy::Conventional);
        let without = simulate(&nl, &SimConfig::new(PowerMode::non_gated(), 150, 5));
        let with = simulate(&nl, &SimConfig::new(PowerMode::gated(), 150, 5));
        let sum = |a: &Activity| a.input_toggles.iter().sum::<u64>();
        assert!(
            sum(&with.activity) <= sum(&without.activity),
            "isolation must not increase ALU input activity"
        );
        assert_eq!(with.outputs, without.outputs, "isolation is transparent");
    }

    #[test]
    fn gating_composes_with_phase_clocks() {
        // Gating a multiclock design (not a paper configuration, but legal)
        // reduces pulses below the phase-only count and keeps function.
        let (dfg, nl) = datapath(2, Strategy::Integrated);
        let phase_only = simulate(&nl, &SimConfig::new(PowerMode::multiclock(), 60, 5));
        let both = {
            let mode = mc_rtl::PowerMode {
                gated_mem_clocks: true,
                operand_isolation: false,
                control_policy: mc_rtl::ControlPolicy::Hold,
            };
            verify_equivalence(&dfg, &nl, mode, 20, 5).expect("still correct");
            simulate(&nl, &SimConfig::new(mode, 60, 5))
        };
        assert!(both.activity.total_clock_pulses() < phase_only.activity.total_clock_pulses());
        assert_eq!(both.outputs, phase_only.outputs);
    }

    #[test]
    fn wide_datapath_simulation_masks_correctly() {
        let bm = benchmarks::hal_w(32);
        let opts = AllocOptions::new(Strategy::Integrated, ClockScheme::new(2).unwrap());
        let dp = allocate(&bm.dfg, &bm.schedule, &opts).unwrap();
        let res = simulate(&dp.netlist, &SimConfig::new(PowerMode::multiclock(), 20, 9));
        let mask = (1u64 << 32) - 1;
        for out in &res.outputs {
            for v in out.values() {
                assert!(*v <= mask);
            }
        }
        verify_equivalence(&bm.dfg, &dp.netlist, PowerMode::multiclock(), 10, 9).unwrap();
    }

    #[test]
    fn profile_and_trace_can_be_collected_together() {
        let (_, nl) = datapath(2, Strategy::Integrated);
        let cfg = SimConfig::new(PowerMode::multiclock(), 5, 1)
            .with_trace()
            .with_profile();
        let res = simulate(&nl, &cfg);
        let trace = res.trace.expect("trace");
        let steps = res.activity.per_step.as_ref().expect("profile");
        assert_eq!(trace.len(), steps.len());
        // Per-step net toggles must sum to the aggregate counter.
        let total: u64 = steps.iter().map(|s| s.net_toggles).sum();
        assert_eq!(total, res.activity.total_net_toggles());
    }

    #[test]
    fn explicit_vectors_override_randomness() {
        let (_, nl) = datapath(1, Strategy::Conventional);
        let vec: std::collections::BTreeMap<String, u64> =
            nl.inputs().iter().map(|(n, _)| (n.clone(), 1u64)).collect();
        let a = simulate_with_inputs(&nl, PowerMode::gated(), std::slice::from_ref(&vec), false);
        let b = simulate_with_inputs(&nl, PowerMode::gated(), std::slice::from_ref(&vec), false);
        assert_eq!(a.outputs, b.outputs);
        // Untraced runs do not clone their input vectors into the result.
        assert!(a.inputs.is_empty());
    }

    #[test]
    fn missing_input_is_a_typed_error() {
        let (_, nl) = datapath(1, Strategy::Conventional);
        let empty = std::collections::BTreeMap::new();
        let err = try_simulate_with_inputs(&nl, PowerMode::gated(), &[empty], false)
            .expect_err("vector lacks every input");
        let SimError::MissingInput { computation, .. } = &err;
        assert_eq!(*computation, 0);
        assert!(err.to_string().contains("no value for primary input"));
    }

    #[test]
    fn trace_has_one_row_per_step() {
        let (_, nl) = datapath(2, Strategy::Integrated);
        let cfg = SimConfig::new(PowerMode::multiclock(), 3, 1).with_trace();
        let res = simulate(&nl, &cfg);
        let tr = res.trace.expect("trace requested");
        assert_eq!(tr.len() as u64, res.activity.steps);
        assert_eq!(tr[0].len(), nl.num_nets());
    }

    #[test]
    fn constant_inputs_yield_periodic_behaviour() {
        // Feeding the same vector every computation: outputs repeat, and
        // the per-computation toggle rate settles to a constant (shared
        // registers still legitimately toggle between the variables they
        // host within each period).
        let (_, nl) = datapath(2, Strategy::Integrated);
        let vec: std::collections::BTreeMap<String, u64> =
            nl.inputs().iter().map(|(n, _)| (n.clone(), 9u64)).collect();
        let res = simulate_with_inputs(&nl, PowerMode::multiclock(), &vec![vec.clone(); 12], false);
        for out in &res.outputs[1..] {
            assert_eq!(*out, res.outputs[0]);
        }
        let long = {
            let vecs = vec![vec; 24];
            simulate_with_inputs(&nl, PowerMode::multiclock(), &vecs, false)
        };
        // Steady-state rate: doubling the run roughly doubles the toggles
        // (within the one-time startup transient).
        let short_t = res.activity.total_net_toggles() as f64;
        let long_t = long.activity.total_net_toggles() as f64;
        assert!(
            long_t <= 2.0 * short_t + 1e-9,
            "long {long_t} vs short {short_t}"
        );
        assert!(long_t >= 1.5 * short_t, "long {long_t} vs short {short_t}");
    }
}
