//! **multiclock** — multi-clock power management for RTL datapaths.
//!
//! A production-quality Rust reproduction of *"An Effective Power
//! Management Scheme for RTL Design Based on Multiple Clocks"* (DAC 1996):
//! partition a scheduled behaviour across `n` non-overlapping phase clocks
//! of frequency `f/n` so each latch-based datapath module is active only
//! in its own phase — same throughput, substantially less power.
//!
//! This crate re-exports the whole stack through [`mc_core`]; see the
//! README for the architecture and `DESIGN.md` for the paper mapping.
//!
//! ```
//! use multiclock::{DesignStyle, Synthesizer};
//! use multiclock::dfg::benchmarks;
//!
//! # fn main() -> Result<(), multiclock::SynthesisError> {
//! let synth = Synthesizer::for_benchmark(&benchmarks::facet()).with_computations(60);
//! let gated = synth.evaluate(DesignStyle::ConventionalGated)?;
//! let multi = synth.evaluate(DesignStyle::MultiClock(3))?;
//! println!(
//!     "gated {:.2} mW → 3 clocks {:.2} mW ({:.0} % less)",
//!     gated.power.total_mw,
//!     multi.power.total_mw,
//!     100.0 * multi.power.reduction_vs(&gated.power)
//! );
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use mc_core::{
    experiment, flow, passes, retrofit, rewrite, CacheStats, Design, DesignStyle, Diagnostic,
    Evaluated, Flow, PassMetrics, RewriteChoice, Severity, SynthesisError, Synthesizer,
};

pub use mc_core::{alloc, clocks, dfg, power, rtl, sim, tech};

/// The in-tree deterministic PRNGs (SplitMix64, xoshiro256**).
pub use mc_prng as prng;

/// The paper-regeneration support code: run configuration, the paper's
/// published table rows, and the dependency-free JSON emitter.
pub use mc_bench as bench;

/// Design-space exploration: lattice enumeration, deterministic parallel
/// evaluation, Pareto frontiers.
pub use mc_explore as explore;

/// Zero-cost-when-disabled structured tracing: spans, counters, Chrome
/// `trace_event` export (`mcpm --trace` / `mcpm trace-summary`).
pub use mc_trace as trace;

/// The persistent synthesis/exploration service (`mcpm serve`): HTTP
/// endpoints, sharded on-disk result cache, request coalescing.
pub use mc_serve as serve;
