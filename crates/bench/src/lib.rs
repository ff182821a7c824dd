//! The paper's published Tables 1–4 ([`PAPER_TABLE_1`] to
//! [`PAPER_TABLE_4`]), which `mcpm paper` prints beside the measured
//! rows, and the workspace's dependency-free JSON emitter ([`harness`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod harness;

/// One row of the paper's published tables: label, power (mW), area (λ²),
/// memory cells, mux inputs.
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    /// Design-style label.
    pub label: &'static str,
    /// Published power in mW.
    pub power_mw: f64,
    /// Published layout area in λ².
    pub area_lambda2: f64,
    /// Published memory-cell count.
    pub mem_cells: u32,
    /// Published mux-input count.
    pub mux_inputs: u32,
}

const fn row(
    label: &'static str,
    power_mw: f64,
    area_lambda2: f64,
    mem_cells: u32,
    mux_inputs: u32,
) -> PaperRow {
    PaperRow {
        label,
        power_mw,
        area_lambda2,
        mem_cells,
        mux_inputs,
    }
}

/// Table 1 (FACET) as published.
pub const PAPER_TABLE_1: [PaperRow; 5] = [
    row("Conven. Alloc. (Non-Gated Clock)", 9.85, 2_680_425.0, 8, 10),
    row("Conven. Alloc. (Gated Clock)", 6.92, 2_383_553.0, 8, 10),
    row("1 Clock", 7.39, 2_668_365.0, 10, 12),
    row("2 Clocks", 6.41, 2_552_425.0, 10, 12),
    row("3 Clocks", 3.52, 2_484_873.0, 14, 4),
];

/// Table 2 (HAL) as published.
pub const PAPER_TABLE_2: [PaperRow; 5] = [
    row(
        "Conven. Alloc. (Non-Gated Clock)",
        12.48,
        3_080_133.0,
        8,
        10,
    ),
    row("Conven. Alloc. (Gated Clock)", 8.12, 2_819_025.0, 8, 10),
    row("1 Clock", 5.61, 2_627_484.0, 12, 20),
    row("2 Clocks", 4.98, 2_901_501.0, 14, 20),
    row("3 Clocks", 3.73, 2_954_465.0, 17, 8),
];

/// Table 3 (Biquad filter) as published.
pub const PAPER_TABLE_3: [PaperRow; 5] = [
    row(
        "Conven. Alloc. (Non-Gated Clock)",
        18.65,
        5_118_795.0,
        18,
        35,
    ),
    row("Conven. Alloc. (Gated Clock)", 11.49, 4_826_283.0, 18, 35),
    row("1 Clock", 11.31, 5_126_718.0, 20, 47),
    row("2 Clocks", 9.24, 5_194_451.0, 20, 56),
    row("3 Clocks", 7.19, 5_327_823.0, 26, 45),
];

/// Table 4 (Band-pass filter) as published.
pub const PAPER_TABLE_4: [PaperRow; 5] = [
    row(
        "Conven. Alloc. (Non-Gated Clock)",
        18.01,
        5_588_975.0,
        23,
        39,
    ),
    row("Conven. Alloc. (Gated Clock)", 8.87, 4_181_238.0, 23, 39),
    row("1 Clock", 7.39, 3_049_956.0, 15, 50),
    row("2 Clocks", 6.15, 3_729_654.0, 19, 57),
    row("3 Clocks", 5.78, 4_728_731.0, 25, 66),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_reductions_match_paper_claims() {
        // The paper quotes 49 %, 54 %, 37 %, 35 % for Tables 1–4.
        for (rows, expect) in [
            (&PAPER_TABLE_1, 0.49),
            (&PAPER_TABLE_2, 0.54),
            (&PAPER_TABLE_3, 0.37),
            (&PAPER_TABLE_4, 0.35),
        ] {
            let best = rows[2..]
                .iter()
                .map(|r| r.power_mw)
                .fold(f64::INFINITY, f64::min);
            let red = 1.0 - best / rows[1].power_mw;
            assert!((red - expect).abs() < 0.02, "reduction {red} vs {expect}");
        }
    }
}
