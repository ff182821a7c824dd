//! Power and area estimation for synthesised datapaths — the COMPASS-style
//! `P = f·C_L·V²` transition-counting method of the paper's §5.1, plus the
//! closed-form §2 analysis.
//!
//! # Example: evaluate a design the way the paper's tables do
//!
//! ```
//! use mc_alloc::{allocate, AllocOptions, Strategy};
//! use mc_clocks::ClockScheme;
//! use mc_dfg::benchmarks;
//! use mc_power::evaluate_design;
//! use mc_rtl::PowerMode;
//! use mc_tech::TechLibrary;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bm = benchmarks::facet();
//! let opts = AllocOptions::new(Strategy::Integrated, ClockScheme::new(2)?);
//! let dp = allocate(&bm.dfg, &bm.schedule, &opts)?;
//! let lib = TechLibrary::vsc450();
//! let report = evaluate_design(&dp.netlist, PowerMode::multiclock(), &lib, 500, 42);
//! println!(
//!     "{}: {:.2} mW, {:.0} λ², ALUs {}",
//!     report.name,
//!     report.power.total_mw,
//!     report.area.total_lambda2,
//!     report.stats.alu_summary()
//! );
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
mod model;
pub mod profile;
pub mod timing;

pub use model::{
    clock_generator_overhead, derive_seeds, estimate_area, estimate_power, evaluate_design,
    evaluate_design_monte_carlo, evaluate_design_with_activity, per_component_power, per_dpm_power,
    AreaReport, ComponentPower, DesignReport, PowerCi, PowerReport, PriceSheet,
};
