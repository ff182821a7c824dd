//! Shared code for the table/figure regeneration binaries: CLI
//! configuration, the paper's published numbers for side-by-side
//! comparison, and the workspace's JSON emitter ([`harness`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod harness;

use mc_dfg::benchmarks::{self, Benchmark};

/// Run configuration shared by every binary: number of random
/// computations per design and the stimulus seed. Parsed from
/// `--computations N` / `--seed S` command-line arguments.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Random computations per evaluated design.
    pub computations: usize,
    /// Stimulus seed.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            computations: 400,
            seed: 42,
        }
    }
}

impl RunConfig {
    /// Parses `--computations N` and `--seed S` from the process
    /// arguments, falling back to the defaults (400 computations, seed
    /// 42). Unknown arguments are ignored.
    #[must_use]
    pub fn from_args() -> Self {
        let mut cfg = RunConfig::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--computations" if i + 1 < args.len() => {
                    if let Ok(n) = args[i + 1].parse() {
                        cfg.computations = n;
                    }
                    i += 1;
                }
                "--seed" if i + 1 < args.len() => {
                    if let Ok(s) = args[i + 1].parse() {
                        cfg.seed = s;
                    }
                    i += 1;
                }
                _ => {}
            }
            i += 1;
        }
        cfg
    }
}

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

/// The benchmark and published rows for paper table `i` (1–4).
///
/// # Panics
///
/// Panics for table numbers outside 1–4.
#[must_use]
pub fn table_spec(i: usize) -> (Benchmark, &'static [PaperRow; 5]) {
    match i {
        1 => (benchmarks::facet(), &PAPER_TABLE_1),
        2 => (benchmarks::hal(), &PAPER_TABLE_2),
        3 => (benchmarks::biquad(), &PAPER_TABLE_3),
        4 => (benchmarks::bandpass(), &PAPER_TABLE_4),
        _ => panic!("the paper has tables 1-4, asked for {i}"),
    }
}

/// Runs paper table `i` and prints measured-vs-published rows plus the
/// headline reduction comparison. Returns the rendered text (also
/// printed).
///
/// # Panics
///
/// Panics if synthesis fails (indicates an internal bug) or `i` is out of
/// range.
#[must_use]
pub fn run_paper_table(i: usize, cfg: RunConfig) -> String {
    use std::fmt::Write as _;
    let (bm, paper) = table_spec(i);
    // Rows run concurrently through the instrumented pass pipeline;
    // results are bit-identical to the sequential path.
    let table = mc_core::experiment::paper_table_parallel(&bm, cfg.computations, cfg.seed)
        .expect("paper table synthesis succeeds");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table {i}: {} — measured (this reproduction) vs published (DAC'96)",
        bm.name()
    );
    let _ = writeln!(
        out,
        "{:<34} {:>8} {:>8} | {:>9} {:>9} | {:>5} {:>5} | {:>5} {:>5}",
        "", "mW", "mW*", "λ²", "λ²*", "Mem", "Mem*", "MuxI", "MuxI*"
    );
    for (rowm, rowp) in table.rows.iter().zip(paper.iter()) {
        let _ = writeln!(
            out,
            "{:<34} {:>8.2} {:>8.2} | {:>9.0} {:>9.0} | {:>5} {:>5} | {:>5} {:>5}",
            rowm.label,
            rowm.report.power.total_mw,
            rowp.power_mw,
            rowm.report.area.total_lambda2,
            rowp.area_lambda2,
            rowm.report.stats.mem_cells,
            rowp.mem_cells,
            rowm.report.stats.mux_inputs,
            rowp.mux_inputs
        );
    }
    let measured = table
        .gated_to_best_multiclock_reduction()
        .expect("table has gated and multiclock rows");
    let paper_red = 1.0
        - paper[2..]
            .iter()
            .map(|r| r.power_mw)
            .fold(f64::INFINITY, f64::min)
            / paper[1].power_mw;
    let _ = writeln!(
        out,
        "gated → best multiclock power reduction: measured {:.1} %, published {:.1} %",
        measured * 100.0,
        paper_red * 100.0
    );
    let _ = writeln!(
        out,
        "(* = published; absolute calibration differs, shape is the claim)"
    );
    let _ = writeln!(out);
    let _ = write!(out, "{}", table.render_timings());
    print!("{out}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_specs_cover_1_to_4() {
        for i in 1..=4 {
            let (bm, rows) = table_spec(i);
            assert!(!bm.name().is_empty());
            assert_eq!(rows.len(), 5);
        }
    }

    #[test]
    #[should_panic(expected = "tables 1-4")]
    fn table_5_panics() {
        let _ = table_spec(5);
    }

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

    #[test]
    fn default_config() {
        let cfg = RunConfig::default();
        assert_eq!(cfg.computations, 400);
        assert_eq!(cfg.seed, 42);
    }

    #[test]
    fn run_small_table_renders_comparison() {
        let cfg = RunConfig {
            computations: 30,
            seed: 1,
        };
        let out = run_paper_table(1, cfg);
        assert!(out.contains("Table 1"));
        assert!(out.contains("published"));
        assert!(out.contains("3 Clocks"));
    }
}
