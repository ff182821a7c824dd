//! Multi-clock low-power RTL synthesis — a full reproduction of
//! *"An Effective Power Management Scheme for RTL Design Based on Multiple
//! Clocks"* (DAC 1996).
//!
//! The scheme divides a single clock of frequency `f` into `n`
//! non-overlapping phase clocks of `f/n`, partitions the scheduled
//! behaviour so each partition is active only in its own phase, and
//! allocates each partition into its own latch-based datapath module.
//! Effective throughput stays `f`; clock, storage and combinational power
//! fall. This crate is the facade over the full stack:
//!
//! * [`mc_dfg`] — behaviours, schedules, schedulers, benchmarks;
//! * [`mc_clocks`] — the non-overlapping clock scheme;
//! * [`mc_alloc`] — conventional / split / integrated allocation;
//! * [`mc_rtl`] — structural netlists and controllers;
//! * [`mc_sim`] — phase-accurate simulation with transition counting;
//! * [`mc_power`] — COMPASS-style power/area estimation;
//! * [`mc_tech`] — the calibrated 0.8 µm-style cell library.
//!
//! # Quick start
//!
//! ```
//! use mc_core::{DesignStyle, Synthesizer};
//! use mc_dfg::benchmarks;
//!
//! # fn main() -> Result<(), mc_core::SynthesisError> {
//! // Synthesise the HAL differential-equation benchmark five ways and
//! // compare — the paper's Table 2 in a few lines.
//! let synth = Synthesizer::for_benchmark(&benchmarks::hal()).with_computations(100);
//! let gated = synth.evaluate(DesignStyle::ConventionalGated)?;
//! let three = synth.evaluate(DesignStyle::MultiClock(3))?;
//! assert!(three.power.total_mw < gated.power.total_mw);
//! # Ok(())
//! # }
//! ```
//!
//! The [`experiment`] module regenerates every paper table
//! ([`experiment::paper_table`], or [`experiment::paper_table_parallel`]
//! on scoped threads) and the ablations; the `mc-bench` crate wraps them
//! in runnable binaries.
//!
//! # The pass pipeline
//!
//! Everything above runs through the [`flow`] layer: an explicit pass
//! pipeline (`Behavior → PartitionedSchedule → Datapath → SimTrace →
//! DesignReport`, see [`passes`]) with per-pass wall-clock and artifact
//! instrumentation, pass diagnostics, and a content-keyed artifact cache
//! so shared pipeline prefixes run once. [`Flow`] is the driver;
//! [`Synthesizer`] is the thin facade over it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod experiment;
pub mod flow;
pub mod passes;
mod replay;
pub mod retrofit;
pub mod rewrite;
mod style;
mod synthesizer;

pub use flow::{CacheStats, Diagnostic, Evaluated, Flow, PassMetrics, Severity};
pub use retrofit::{
    retrofit_netlist, retrofit_source, verify_retrofit, Retrofit, RetrofitError, RetrofitOptions,
    RetrofitReport,
};
pub use rewrite::{verify_rewrite, RewriteChoice, RewriteError, RewriteMismatch, RewriteOptions};
pub use style::DesignStyle;
pub use synthesizer::{Design, SynthesisError, Synthesizer};

// Re-export the stack so downstream users need a single dependency.
pub use mc_alloc as alloc;
pub use mc_clocks as clocks;
pub use mc_dfg as dfg;
pub use mc_power as power;
pub use mc_rtl as rtl;
pub use mc_sim as sim;
pub use mc_tech as tech;
