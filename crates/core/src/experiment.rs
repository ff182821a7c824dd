//! The experiment pipeline: regenerates the paper's tables and the
//! ablation studies discussed in §3.2 and §5.2.
//!
//! Every experiment runs through the instrumented pass pipeline
//! ([`crate::flow::Flow`]): table rows carry their per-pass timings, the
//! table carries the passes' diagnostics, and the `_parallel` variants
//! evaluate rows on scoped threads with bit-identical results.

use std::fmt::Write as _;

use mc_alloc::Strategy;
use mc_dfg::benchmarks::Benchmark;
use mc_power::DesignReport;
use mc_rtl::{ControlPolicy, PowerMode};
use mc_tech::MemKind;

use crate::flow::{Diagnostic, Evaluated, Flow, PassMetrics};
use crate::style::DesignStyle;
use crate::synthesizer::SynthesisError;

/// One evaluated row of an experiment table.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Row label (the design style).
    pub label: String,
    /// The design style this row evaluated.
    pub style: DesignStyle,
    /// The full evaluation.
    pub report: DesignReport,
    /// Per-pass instrumentation for this row, in execution order.
    pub metrics: Vec<PassMetrics>,
}

/// A rendered experiment: one benchmark, several design styles.
#[derive(Debug, Clone)]
pub struct Table {
    /// The benchmark name.
    pub benchmark: String,
    /// Rows in presentation order.
    pub rows: Vec<TableRow>,
    /// Diagnostics the passes reported across all rows.
    pub diagnostics: Vec<Diagnostic>,
}

impl Table {
    fn from_evaluated(benchmark: String, evaluated: Vec<Evaluated>) -> Self {
        let mut rows = Vec::with_capacity(evaluated.len());
        let mut diagnostics = Vec::new();
        for e in evaluated {
            diagnostics.extend(e.diagnostics);
            rows.push(TableRow {
                label: e.style.label(),
                style: e.style,
                report: (*e.report).clone(),
                metrics: e.metrics,
            });
        }
        Table {
            benchmark,
            rows,
            diagnostics,
        }
    }

    /// Renders the table in the paper's column layout: power, area, ALUs,
    /// memory cells, mux inputs.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.benchmark);
        let _ = writeln!(
            s,
            "{:<34} {:>9} {:>10}  {:<28} {:>5} {:>6}",
            "", "Power", "Area", "ALUs", "Mem.", "Mux"
        );
        let _ = writeln!(
            s,
            "{:<34} {:>9} {:>10}  {:<28} {:>5} {:>6}",
            "", "[mW]", "[λ²]", "", "Cells", "In's"
        );
        for row in &self.rows {
            let _ = writeln!(
                s,
                "{:<34} {:>9.2} {:>10.0}  {:<28} {:>5} {:>6}",
                row.label,
                row.report.power.total_mw,
                row.report.area.total_lambda2,
                row.report.stats.alu_summary(),
                row.report.stats.mem_cells,
                row.report.stats.mux_inputs
            );
        }
        s
    }

    /// Renders the per-pass timing breakdown of every row — the flow's
    /// instrumentation view of the same table.
    #[must_use]
    pub fn render_timings(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{} — per-pass timings", self.benchmark);
        for row in &self.rows {
            let total: std::time::Duration = row.metrics.iter().map(|m| m.duration).sum();
            let _ = writeln!(s, "{:<34} {:>9.1?}", row.label, total);
            for m in &row.metrics {
                let _ = writeln!(
                    s,
                    "    {:<10} {:>9.1?}{}{}",
                    m.pass,
                    m.duration,
                    if m.cache_hit { "  (cached)" } else { "" },
                    // Simulation dominates row wall time; its artifact
                    // label carries the measured throughput.
                    if m.pass == "simulate" {
                        format!("  {}", m.artifact)
                    } else {
                        String::new()
                    }
                );
            }
        }
        s
    }

    /// The row with exactly this label, if any.
    #[must_use]
    pub fn row(&self, label: &str) -> Option<&TableRow> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// The row evaluating exactly this style, if any.
    #[must_use]
    pub fn row_for_style(&self, style: DesignStyle) -> Option<&TableRow> {
        self.rows.iter().find(|r| r.style == style)
    }

    /// Power reduction (fraction) from the gated-clock baseline row to the
    /// lowest-power genuinely multi-clock row (n ≥ 2) — the paper's
    /// headline metric. Selection is by [`TableRow::style`], so the
    /// single-clock `MultiClock(1)` baseline row can never be mistaken
    /// for a partitioned design.
    #[must_use]
    pub fn gated_to_best_multiclock_reduction(&self) -> Option<f64> {
        let gated = self.row_for_style(DesignStyle::ConventionalGated)?;
        let best = self
            .rows
            .iter()
            .filter(|r| matches!(r.style, DesignStyle::MultiClock(n) if n >= 2))
            .map(|r| r.report.power.total_mw)
            .fold(f64::INFINITY, f64::min);
        if best.is_finite() {
            Some(1.0 - best / gated.report.power.total_mw)
        } else {
            None
        }
    }
}

fn flow_for(bm: &Benchmark, computations: usize, seed: u64) -> Flow {
    Flow::for_benchmark(bm)
        .with_computations(computations)
        .with_seed(seed)
}

/// Regenerates one of the paper's Tables 1–4 for a benchmark: the five
/// design styles, evaluated with random stimulus through the pass
/// pipeline (rows sequentially).
///
/// # Errors
///
/// Propagates [`SynthesisError`] from any row.
pub fn paper_table(
    bm: &Benchmark,
    computations: usize,
    seed: u64,
) -> Result<Table, SynthesisError> {
    paper_table_in(&flow_for(bm, computations, seed), bm.name())
}

/// [`paper_table`] against a caller-owned [`Flow`], so a long-lived
/// consumer (the serve layer) can keep the flow's artifact cache warm
/// across tables. The rows run sequentially on the calling thread.
/// Bit-identical to the one-shot variant: cached artifacts are
/// content-keyed and proven equal to recomputation.
///
/// # Errors
///
/// Propagates [`SynthesisError`] from any row.
pub fn paper_table_in(flow: &Flow, benchmark: &str) -> Result<Table, SynthesisError> {
    let evaluated = flow.evaluate_styles(&DesignStyle::paper_rows())?;
    Ok(Table::from_evaluated(benchmark.to_owned(), evaluated))
}

/// [`paper_table`] with the rows evaluated concurrently on scoped
/// threads, one per row. The result is bit-identical to the sequential
/// table — each row is independently seeded — but the wall-clock is
/// roughly the slowest row instead of the sum. For one-shot callers
/// that own the machine (the CLI); a server already runs one request
/// per worker.
///
/// # Errors
///
/// Propagates [`SynthesisError`] from any row.
pub fn paper_table_parallel(
    bm: &Benchmark,
    computations: usize,
    seed: u64,
) -> Result<Table, SynthesisError> {
    let flow = flow_for(bm, computations, seed);
    let evaluated = flow.evaluate_styles_parallel(&DesignStyle::paper_rows())?;
    Ok(Table::from_evaluated(bm.name().to_owned(), evaluated))
}

/// Evaluates an arbitrary style set as one instrumented
/// [`SweepPass`](crate::passes::SweepPass) execution and renders it as a
/// [`Table`]: rows share the flow's artifact cache, and the sweep's
/// per-point timing / cache-hit findings land in the table diagnostics.
/// This is the entry point behind `mcpm sweep` and the explorer's
/// sequential reference path.
///
/// # Errors
///
/// Propagates [`SynthesisError`] from any point.
pub fn style_sweep(
    bm: &Benchmark,
    styles: &[DesignStyle],
    computations: usize,
    seed: u64,
) -> Result<Table, SynthesisError> {
    use crate::flow::FlowContext;
    use crate::passes::SweepPass;
    let flow = flow_for(bm, computations, seed);
    let mut ctx = FlowContext::new(flow.tech().clone(), computations, seed);
    let outcome = ctx.run(&SweepPass, (&flow, styles))?;
    let mut table = Table::from_evaluated(bm.name().to_owned(), outcome.evaluated);
    table.diagnostics.extend(ctx.diagnostics().iter().cloned());
    Ok(table)
}

/// Ablation: sweep the clock count from 1 to `max_clocks`, showing the
/// paper's diminishing-returns effect ("you can not keep adding clocks and
/// expect power reduction").
///
/// # Errors
///
/// Propagates [`SynthesisError`] from any configuration.
pub fn clock_sweep(
    bm: &Benchmark,
    max_clocks: u32,
    computations: usize,
    seed: u64,
) -> Result<Vec<(u32, DesignReport)>, SynthesisError> {
    clock_sweep_in(&flow_for(bm, computations, seed), max_clocks)
}

/// [`clock_sweep`] against a caller-owned [`Flow`] (see
/// [`paper_table_in`] for why); the points run sequentially on the
/// calling thread.
///
/// # Errors
///
/// Propagates [`SynthesisError`] from any configuration.
pub fn clock_sweep_in(
    flow: &Flow,
    max_clocks: u32,
) -> Result<Vec<(u32, DesignReport)>, SynthesisError> {
    (1..=max_clocks)
        .map(|n| Ok((n, flow.evaluate(DesignStyle::MultiClock(n))?)))
        .collect()
}

/// [`clock_sweep`] with the sweep points evaluated concurrently on
/// scoped threads, one per point; bit-identical results. For one-shot
/// callers, like [`paper_table_parallel`].
///
/// # Errors
///
/// Propagates [`SynthesisError`] from any configuration.
pub fn clock_sweep_parallel(
    bm: &Benchmark,
    max_clocks: u32,
    computations: usize,
    seed: u64,
) -> Result<Vec<(u32, DesignReport)>, SynthesisError> {
    let flow = flow_for(bm, computations, seed);
    let styles: Vec<DesignStyle> = (1..=max_clocks).map(DesignStyle::MultiClock).collect();
    let evaluated = flow.evaluate_styles_parallel(&styles)?;
    Ok(evaluated
        .into_iter()
        .zip(1..)
        .map(|(e, n)| (n, (*e.report).clone()))
        .collect())
}

/// Ablation: latch vs. DFF memory elements for the same multi-clock
/// allocation (the paper's "possible to use latches instead of registers,
/// which has significant impact").
///
/// # Errors
///
/// Propagates [`SynthesisError`].
pub fn latch_vs_dff(
    bm: &Benchmark,
    clocks: u32,
    computations: usize,
    seed: u64,
) -> Result<(DesignReport, DesignReport), SynthesisError> {
    let flow = flow_for(bm, computations, seed);
    let style = |mem_kind| DesignStyle::Custom {
        strategy: Strategy::Integrated,
        clocks,
        mem_kind,
        transfers: true,
        mode: PowerMode::multiclock(),
    };
    Ok((
        flow.evaluate(style(MemKind::Latch))?,
        flow.evaluate(style(MemKind::Dff))?,
    ))
}

/// Ablation: latched vs. unlatched control lines (§3.2 suggestion 2) on a
/// multi-clock design.
///
/// # Errors
///
/// Propagates [`SynthesisError`].
pub fn control_latching(
    bm: &Benchmark,
    clocks: u32,
    computations: usize,
    seed: u64,
) -> Result<(DesignReport, DesignReport), SynthesisError> {
    let flow = flow_for(bm, computations, seed);
    let style = |policy| DesignStyle::Custom {
        strategy: Strategy::Integrated,
        clocks,
        mem_kind: MemKind::Latch,
        transfers: true,
        mode: PowerMode {
            gated_mem_clocks: false,
            operand_isolation: false,
            control_policy: policy,
        },
    };
    Ok((
        flow.evaluate(style(ControlPolicy::Hold))?,
        flow.evaluate(style(ControlPolicy::Zero))?,
    ))
}

/// Ablation: split vs. integrated allocation under the same clock scheme
/// (§4.1 vs §4.2).
///
/// # Errors
///
/// Propagates [`SynthesisError`].
pub fn split_vs_integrated(
    bm: &Benchmark,
    clocks: u32,
    computations: usize,
    seed: u64,
) -> Result<(DesignReport, DesignReport), SynthesisError> {
    let flow = flow_for(bm, computations, seed);
    let style = |strategy| DesignStyle::Custom {
        strategy,
        clocks,
        mem_kind: MemKind::Latch,
        transfers: strategy == Strategy::Integrated,
        mode: PowerMode::multiclock(),
    };
    Ok((
        flow.evaluate(style(Strategy::Split))?,
        flow.evaluate(style(Strategy::Integrated))?,
    ))
}

/// Ablation: transfer-variable insertion on vs. off (§4.2 step 1).
///
/// # Errors
///
/// Propagates [`SynthesisError`].
pub fn transfers_on_off(
    bm: &Benchmark,
    clocks: u32,
    computations: usize,
    seed: u64,
) -> Result<(DesignReport, DesignReport), SynthesisError> {
    let flow = flow_for(bm, computations, seed);
    let style = |transfers| DesignStyle::Custom {
        strategy: Strategy::Integrated,
        clocks,
        mem_kind: MemKind::Latch,
        transfers,
        mode: PowerMode::multiclock(),
    };
    Ok((flow.evaluate(style(true))?, flow.evaluate(style(false))?))
}

/// Power of one design style under different input-stimulus models:
/// `(uniform random, random walk ±1, constant)` in mW. The paper
/// evaluates with uniform random inputs; correlated (walk) and idle
/// (constant) streams switch less, and the comparison shows how much of
/// the reported power is data-dependent.
///
/// # Errors
///
/// Propagates [`SynthesisError`].
pub fn stimulus_sensitivity(
    bm: &Benchmark,
    style: DesignStyle,
    computations: usize,
    seed: u64,
) -> Result<(f64, f64, f64), SynthesisError> {
    use mc_sim::{simulate_with_inputs, Stimulus};
    let flow = flow_for(bm, computations, seed);
    let design = flow.synthesize(style)?;
    let nl = &design.datapath.netlist;
    let sheet = mc_power::PriceSheet::new(nl, flow.tech());
    let run = |stim: Stimulus| -> f64 {
        let vectors = stim.vectors(nl, computations, seed);
        let res = simulate_with_inputs(nl, design.mode, &vectors, false);
        sheet.price(&res.activity).total_mw
    };
    Ok((
        run(Stimulus::UniformRandom),
        run(Stimulus::RandomWalk { delta: 1 }),
        run(Stimulus::Constant),
    ))
}

/// One point of a supply-voltage sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltagePoint {
    /// Supply voltage (V).
    pub volts: f64,
    /// Total power at this supply (mW).
    pub power_mw: f64,
    /// Derated maximum frequency (MHz).
    pub fmax_mhz: f64,
    /// Whether the design still meets the 50 MHz reporting frequency.
    pub meets_target: bool,
}

/// Supply-voltage sweep for one design style — the §1 comparison the
/// paper motivates with: "reducing V_DD … comes at a cost on the delay".
/// Power falls as `V²`; the derated critical path shows where the design
/// stops meeting the target frequency. The multi-clock scheme's savings
/// are orthogonal and combine multiplicatively with whatever voltage
/// headroom remains.
///
/// # Errors
///
/// Propagates [`SynthesisError`].
pub fn voltage_scaling(
    bm: &Benchmark,
    style: DesignStyle,
    voltages: &[f64],
    computations: usize,
    seed: u64,
) -> Result<Vec<VoltagePoint>, SynthesisError> {
    let mut out = Vec::with_capacity(voltages.len());
    for &v in voltages {
        let lib = mc_tech::TechLibrary::vsc450().at_voltage(v);
        let flow = flow_for(bm, computations, seed).with_tech(lib);
        let report = flow.evaluate(style)?;
        out.push(VoltagePoint {
            volts: v,
            power_mw: report.power.total_mw,
            fmax_mhz: report.timing.fmax_mhz,
            meets_target: report.timing.meets_target,
        });
    }
    Ok(out)
}

/// Power statistics over several independent stimulus seeds: mean,
/// sample standard deviation, and extremes. Used to show that reported
/// numbers are stable against the random vectors (EXPERIMENTS.md quotes
/// single-seed values).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerStats {
    /// Mean total power (mW).
    pub mean_mw: f64,
    /// Sample standard deviation (mW); 0 for a single seed.
    pub std_mw: f64,
    /// Minimum across seeds (mW).
    pub min_mw: f64,
    /// Maximum across seeds (mW).
    pub max_mw: f64,
    /// Number of seeds evaluated.
    pub seeds: usize,
}

/// Evaluates a style over `seeds` different stimulus seeds and summarises
/// the power spread.
///
/// # Errors
///
/// Propagates [`SynthesisError`].
///
/// # Panics
///
/// Panics if `seeds == 0`.
pub fn power_stats(
    bm: &Benchmark,
    style: DesignStyle,
    computations: usize,
    seeds: usize,
) -> Result<PowerStats, SynthesisError> {
    assert!(seeds >= 1, "need at least one seed");
    let mut values = Vec::with_capacity(seeds);
    for s in 0..seeds {
        let flow = flow_for(bm, computations, 1000 + s as u64 * 7919);
        values.push(flow.evaluate(style)?.power.total_mw);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = if values.len() > 1 {
        values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64
    } else {
        0.0
    };
    Ok(PowerStats {
        mean_mw: mean,
        std_mw: var.sqrt(),
        min_mw: values.iter().copied().fold(f64::INFINITY, f64::min),
        max_mw: values.iter().copied().fold(0.0, f64::max),
        seeds,
    })
}

/// Extension ablation: the reference schedule vs. the phase-affine
/// schedule (see [`mc_dfg::scheduler::phase_affine`]) under the same
/// multi-clock style. Returns `(reference, affine)` reports; the affine
/// schedule trades latency (`stretch` extra steps allowed) for power.
///
/// # Errors
///
/// Propagates [`SynthesisError`].
pub fn phase_affine_vs_reference(
    bm: &Benchmark,
    clocks: u32,
    stretch: u32,
    computations: usize,
    seed: u64,
) -> Result<(DesignReport, DesignReport), SynthesisError> {
    let style = DesignStyle::MultiClock(clocks);
    let reference = flow_for(bm, computations, seed).evaluate(style)?;
    let affine_schedule = mc_dfg::scheduler::phase_affine(&bm.dfg, clocks, stretch);
    let affine = Flow::new(bm.dfg.clone(), affine_schedule)
        .with_computations(computations)
        .with_seed(seed)
        .evaluate(style)?;
    Ok((reference, affine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_dfg::benchmarks;

    const N: usize = 60;

    #[test]
    fn paper_table_has_five_rows_and_renders() {
        let t = paper_table(&benchmarks::facet(), N, 42).unwrap();
        assert_eq!(t.rows.len(), 5);
        let s = t.render();
        assert!(s.contains("Non-Gated"));
        assert!(s.contains("3 Clocks"));
        assert!(s.contains("mW") || s.contains("Power"));
    }

    #[test]
    fn paper_table_rows_carry_styles_and_metrics() {
        let t = paper_table(&benchmarks::facet(), N, 42).unwrap();
        let styles: Vec<_> = t.rows.iter().map(|r| r.style).collect();
        assert_eq!(styles, DesignStyle::paper_rows());
        for row in &t.rows {
            assert!(!row.metrics.is_empty(), "{}: no pass metrics", row.label);
            assert!(row.metrics.iter().any(|m| m.pass == "simulate"));
        }
        // Rows 1–2 share the conventional allocation: exactly one of the
        // two runs "allocate" cold.
        let alloc_cold = t.rows[..2]
            .iter()
            .flat_map(|r| &r.metrics)
            .filter(|m| m.pass == "allocate" && !m.cache_hit)
            .count();
        assert_eq!(alloc_cold, 1, "conventional allocation should run once");
        assert!(t.render_timings().contains("partition"));
    }

    #[test]
    fn parallel_paper_table_matches_sequential() {
        let seq = paper_table(&benchmarks::hal(), N, 42).unwrap();
        let par = paper_table_parallel(&benchmarks::hal(), N, 42).unwrap();
        assert_eq!(seq.rows.len(), par.rows.len());
        for (s, p) in seq.rows.iter().zip(&par.rows) {
            assert_eq!(s.style, p.style);
            assert_eq!(s.report.power.total_mw, p.report.power.total_mw);
            assert_eq!(s.report.area.total_lambda2, p.report.area.total_lambda2);
            assert_eq!(s.report.stats.mux_inputs, p.report.stats.mux_inputs);
        }
    }

    #[test]
    fn facet_reproduces_paper_ordering() {
        let t = paper_table(&benchmarks::facet(), 200, 42).unwrap();
        let p = |style: DesignStyle| t.row_for_style(style).unwrap().report.power.total_mw;
        assert!(p(DesignStyle::ConventionalNonGated) > p(DesignStyle::ConventionalGated));
        assert!(p(DesignStyle::MultiClock(2)) < p(DesignStyle::ConventionalGated));
        assert!(p(DesignStyle::MultiClock(3)) < p(DesignStyle::MultiClock(2)));
        let red = t.gated_to_best_multiclock_reduction().unwrap();
        assert!(red > 0.25, "gated→multiclock reduction {red}");
    }

    #[test]
    fn reduction_ignores_the_single_clock_baseline_row() {
        // A table whose only "multi-clock" rows are the 1-clock baseline
        // must yield no reduction — the old label-suffix selection
        // ("…Clock"/"…Clocks") wrongly matched "1 Clock".
        let mut t = paper_table(&benchmarks::facet(), N, 42).unwrap();
        t.rows.retain(|r| {
            matches!(
                r.style,
                DesignStyle::ConventionalGated | DesignStyle::MultiClock(1)
            )
        });
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.gated_to_best_multiclock_reduction(), None);
    }

    #[test]
    fn style_sweep_instruments_points_and_shares_the_cache() {
        let styles = [
            DesignStyle::ConventionalNonGated,
            DesignStyle::ConventionalGated,
            DesignStyle::MultiClock(2),
        ];
        let t = style_sweep(&benchmarks::hal(), &styles, N, 42).unwrap();
        assert_eq!(t.rows.len(), 3);
        // The sweep narrates one finding per point...
        let sweep_lines: Vec<_> = t.diagnostics.iter().filter(|d| d.pass == "sweep").collect();
        assert_eq!(sweep_lines.len(), 3);
        // ...and the two conventional rows share one allocation, which the
        // gated row's narration reports as cache-served.
        assert!(
            sweep_lines[1].message.contains("1 cache-served"),
            "{}",
            sweep_lines[1].message
        );
        // Numbers are bit-identical to the plain table path.
        let plain = paper_table(&benchmarks::hal(), N, 42).unwrap();
        for row in &t.rows {
            let same = plain.row_for_style(row.style).unwrap();
            assert_eq!(row.report.power.total_mw, same.report.power.total_mw);
        }
    }

    #[test]
    fn clock_sweep_produces_monotone_clock_power() {
        let sweep = clock_sweep(&benchmarks::hal(), 4, N, 42).unwrap();
        assert_eq!(sweep.len(), 4);
        // Clock power per memory element must fall with n.
        for win in sweep.windows(2) {
            let (_, a) = &win[0];
            let (_, b) = &win[1];
            let pa = a.power.clock_mw / a.stats.mem_cells as f64;
            let pb = b.power.clock_mw / b.stats.mem_cells as f64;
            assert!(pb < pa * 1.05, "per-mem clock power rose: {pa} -> {pb}");
        }
    }

    #[test]
    fn parallel_clock_sweep_matches_sequential() {
        let seq = clock_sweep(&benchmarks::hal(), 4, N, 42).unwrap();
        let par = clock_sweep_parallel(&benchmarks::hal(), 4, N, 42).unwrap();
        assert_eq!(seq.len(), par.len());
        for ((an, a), (bn, b)) in seq.iter().zip(&par) {
            assert_eq!(an, bn);
            assert_eq!(a.power.total_mw, b.power.total_mw);
        }
    }

    #[test]
    fn latches_beat_dffs() {
        let (latch, dff) = latch_vs_dff(&benchmarks::biquad(), 2, N, 42).unwrap();
        assert!(latch.power.total_mw < dff.power.total_mw);
        assert!(latch.area.total_lambda2 < dff.area.total_lambda2);
    }

    #[test]
    fn control_latching_does_not_hurt() {
        let (hold, zero) = control_latching(&benchmarks::facet(), 2, N, 42).unwrap();
        assert!(hold.power.total_mw <= zero.power.total_mw * 1.02);
    }

    #[test]
    fn split_needs_at_least_integrated_resources() {
        let (split, integ) = split_vs_integrated(&benchmarks::hal(), 2, N, 42).unwrap();
        assert!(split.stats.mem_cells >= integ.stats.mem_cells);
    }

    #[test]
    fn transfers_ablation_runs() {
        let (on, off) = transfers_on_off(&benchmarks::bandpass(), 2, N, 42).unwrap();
        assert!(on.power.total_mw > 0.0 && off.power.total_mw > 0.0);
    }

    #[test]
    fn stimulus_sensitivity_orders_as_expected() {
        let (random, walk, constant) =
            stimulus_sensitivity(&benchmarks::biquad(), DesignStyle::MultiClock(2), 150, 42)
                .unwrap();
        assert!(random > walk, "random {random} vs walk {walk}");
        assert!(walk > constant, "walk {walk} vs constant {constant}");
        // Even an idle datapath pays clock power.
        assert!(constant > 0.1 * random, "constant {constant}");
    }

    #[test]
    fn voltage_sweep_trades_power_for_speed() {
        let points = voltage_scaling(
            &benchmarks::facet(),
            DesignStyle::MultiClock(2),
            &[5.0, 4.65, 3.3],
            N,
            42,
        )
        .unwrap();
        assert_eq!(points.len(), 3);
        // Power falls monotonically with voltage…
        assert!(points[0].power_mw > points[1].power_mw);
        assert!(points[1].power_mw > points[2].power_mw);
        // …and fmax falls with it.
        assert!(points[0].fmax_mhz > points[2].fmax_mhz);
        // The V² law holds exactly (same activity, same caps).
        let ratio = points[2].power_mw / points[0].power_mw;
        assert!((ratio - (3.3f64 / 5.0).powi(2)).abs() < 1e-6, "{ratio}");
    }

    #[test]
    fn power_stats_are_tight_across_seeds() {
        let stats =
            power_stats(&benchmarks::facet(), DesignStyle::ConventionalGated, 150, 5).unwrap();
        assert_eq!(stats.seeds, 5);
        assert!(stats.min_mw <= stats.mean_mw && stats.mean_mw <= stats.max_mw);
        // Random-vector noise should stay within a few percent of the mean.
        assert!(
            stats.std_mw < 0.1 * stats.mean_mw,
            "noisy estimate: {stats:?}"
        );
    }

    #[test]
    fn phase_affine_scheduling_saves_power() {
        let (reference, affine) =
            phase_affine_vs_reference(&benchmarks::facet(), 2, 4, 150, 42).unwrap();
        assert!(
            affine.power.total_mw < reference.power.total_mw,
            "affine {} vs reference {}",
            affine.power.total_mw,
            reference.power.total_mw
        );
    }
}
