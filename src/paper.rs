//! The reproduction record: every table, figure, §2 analysis and ablation
//! of the paper as one JSON line each, at one setting ([`COMPUTATIONS`]
//! random computations per design, stimulus seed [`SEED`]).
//!
//! `mcpm paper` prints it, `tests/golden/paper.jsonl` pins it byte for
//! byte, and EXPERIMENTS.md is a checked view of it. Figure lines carry
//! the numbers and property checks of each figure; the netlists, VHDL and
//! waveforms behind them are rendered by `mcpm synth --export`.

use std::collections::BTreeMap;

use mc_alloc::{allocate, allocate_registers, AllocOptions, LifetimeView, Problem, Strategy};
use mc_bench::harness::{json_array, json_string, JsonObj};
use mc_bench::{PaperRow, PAPER_TABLE_1, PAPER_TABLE_2, PAPER_TABLE_3, PAPER_TABLE_4};
use mc_clocks::ClockScheme;
use mc_core::{experiment, DesignStyle, SynthesisError, Synthesizer};
use mc_dfg::benchmarks::{self, Benchmark};
use mc_dfg::{DfgBuilder, Op, Schedule};
use mc_power::{analysis, clock_generator_overhead, DesignReport};
use mc_rtl::{Netlist, PowerMode};
use mc_tech::{MemKind, TechLibrary};

/// Random computations per evaluated design.
pub const COMPUTATIONS: usize = 400;

/// Stimulus seed.
pub const SEED: u64 = 42;

type Line = Result<String, SynthesisError>;

/// Builds the record, one JSON object per line: Tables 1–4, Figs. 1–7,
/// the §2 analysis, then the nine ablations, each line keyed by
/// `"section"`. The output is identical on every run and in every build
/// profile.
///
/// # Errors
///
/// Propagates a [`SynthesisError`] from any design the record evaluates;
/// every one of them is bundled, so an error is a bug.
pub fn record() -> Result<String, SynthesisError> {
    let paper = benchmarks::paper_benchmarks();
    let published = [PAPER_TABLE_1, PAPER_TABLE_2, PAPER_TABLE_3, PAPER_TABLE_4];
    let mut lines = Vec::new();
    for (i, (bm, rows)) in paper.iter().zip(&published).enumerate() {
        lines.push(table(i + 1, bm, rows)?);
    }
    let figures: [fn() -> Line; 7] = [fig1, fig2, fig3, fig4, fig5, fig6, fig7];
    for figure in figures {
        lines.push(figure()?);
    }
    lines.push(sec2_analysis());
    ablations(&paper, &mut lines)?;
    Ok(lines.into_iter().map(|line| line + "\n").collect())
}

fn section(name: &str) -> JsonObj {
    JsonObj::new().str("section", name)
}

/// The service's `/eval` document for the measured rows, beside the
/// published rows.
fn table(n: usize, bm: &Benchmark, published: &[PaperRow; 5]) -> Line {
    let measured = experiment::paper_table_parallel(bm, COMPUTATIONS, SEED)?;
    let measured = mc_serve::api::table_json(&measured, SEED, COMPUTATIONS);
    let rows = json_array(published.iter().map(|r| {
        let obj = JsonObj::new().str("style", r.label);
        let obj = obj.num("power_mw", r.power_mw);
        let obj = obj.num("area_lambda2", r.area_lambda2);
        let obj = obj.num("mem_cells", r.mem_cells);
        obj.num("mux_inputs", r.mux_inputs).finish()
    }));
    let best = published[2..].iter().map(|r| r.power_mw);
    let best = best.fold(f64::INFINITY, f64::min);
    let reduction = 1.0 - best / published[1].power_mw;
    let published = JsonObj::new().raw("rows", &rows);
    let published = published.num("gated_to_best_multiclock_reduction", reduction);
    let line = section(&format!("table{n}")).raw("measured", &measured);
    Ok(line.raw("published", &published.finish()).finish())
}

/// Components per datapath module (one DPM per phase clock).
fn dpms(nl: &Netlist) -> String {
    json_array(nl.dpm_groups().into_iter().map(|(phase, comps)| {
        let obj = JsonObj::new().str("phase", &phase.to_string());
        obj.num("components", comps.len()).finish()
    }))
}

fn stats(nl: &Netlist) -> JsonObj {
    let stats = nl.stats();
    let obj = JsonObj::new().str("alus", &stats.alu_summary());
    let obj = obj.num("mem_cells", stats.mem_cells);
    obj.num("mux_inputs", stats.mux_inputs)
}

fn two_clock_design(bm: &Benchmark) -> Result<Netlist, SynthesisError> {
    let design = Synthesizer::for_benchmark(bm).synthesize(DesignStyle::MultiClock(2))?;
    Ok(design.datapath.netlist)
}

/// Fig. 1 / §2: Circuit 1 (minimal resources, one clock) against
/// Circuit 2 (two partitions on two clocks) on the motivating example.
fn fig1() -> Line {
    let bm = benchmarks::motivating();
    let synth = Synthesizer::for_benchmark(&bm).with_computations(COMPUTATIONS);
    let synth = synth.with_seed(SEED);
    let nongated = synth.evaluate(DesignStyle::ConventionalNonGated)?.power;
    let gated = synth.evaluate(DesignStyle::ConventionalGated)?.power;
    let two = synth.evaluate(DesignStyle::MultiClock(2))?.power;
    let line = section("fig1").str("benchmark", bm.name());
    let line = line.num("circuit1_nongated_mw", nongated.total_mw);
    let line = line.num("circuit1_gated_mw", gated.total_mw);
    let line = line.num("circuit2_mw", two.total_mw);
    let line = line.num("reduction_vs_nongated", two.reduction_vs(&nongated));
    let line = line.num("reduction_vs_gated", two.reduction_vs(&gated));
    let dpms = dpms(&two_clock_design(&bm)?);
    Ok(line.raw("circuit2_dpms", &dpms).finish())
}

/// Fig. 2: the phase clocks never overlap, checked over 64 steps.
fn fig2() -> Line {
    let mut schemes = Vec::new();
    for n in [2u32, 3] {
        let checked = ClockScheme::new(n)?.verify_non_overlapping(64);
        let obj = JsonObj::new().num("clocks", n);
        schemes.push(obj.bool("non_overlapping_64_steps", checked).finish());
    }
    let schemes = json_array(schemes);
    Ok(section("fig2").raw("schemes", &schemes).finish())
}

/// Fig. 3: the FB/DPM structure of HAL under two clocks.
fn fig3() -> Line {
    let bm = benchmarks::hal();
    let nl = two_clock_design(&bm)?;
    let line = section("fig3").str("benchmark", bm.name()).num("clocks", 2);
    let line = line.raw("dpms", &dpms(&nl));
    Ok(line.raw("stats", &stats(&nl).finish()).finish())
}

/// Fig. 4: over a traced run of three computations, every memory output
/// changes only at a step its own phase owns.
fn fig4() -> Line {
    let bm = benchmarks::motivating();
    let nl = two_clock_design(&bm)?;
    let mask = (1u64 << nl.width()) - 1;
    let vector = |c: u64| -> BTreeMap<String, u64> {
        let inputs = nl.inputs().iter().enumerate();
        inputs
            .map(|(i, (name, _))| (name.clone(), (3 * c + 2 * i as u64 + 1) & mask))
            .collect()
    };
    let vectors: Vec<_> = (0..3).map(vector).collect();
    let traced = mc_sim::simulate_with_inputs(&nl, PowerMode::multiclock(), &vectors, true);
    let trace = traced.trace.expect("a traced run records its trace");
    let period = nl.controller().len() as usize;
    let (mut memories, mut transitions, mut off_phase) = (0, 0, 0);
    for mem in nl.mems() {
        let comp = nl.component(mem.comp());
        let phase = comp.mem_phase().expect("memory elements have a phase");
        let net = comp.output().index();
        memories += 1;
        // Trace row `s` holds the values after step `s % period + 1`.
        for (s, pair) in trace.windows(2).enumerate() {
            if pair[0][net] != pair[1][net] {
                transitions += 1;
                let step = ((s + 1) % period + 1) as u32;
                off_phase += usize::from(!nl.scheme().is_active(phase, step));
            }
        }
    }
    let line = section("fig4").str("benchmark", bm.name()).num("clocks", 2);
    let line = line.num("memories", memories).num("steps", trace.len());
    let line = line.num("transitions", transitions);
    Ok(line.num("off_phase_transitions", off_phase).finish())
}

/// Fig. 5: the split allocation of the motivating example, its partitions
/// and result, beside the integrated allocation of the same behaviour.
fn fig5() -> Line {
    let bm = benchmarks::motivating();
    let scheme = ClockScheme::new(2)?;
    let partitions = json_array(scheme.phases().map(|k| {
        let steps = (1..=bm.schedule.length()).filter(|&t| scheme.is_active(k, t));
        json_array(steps.map(|t| t.to_string()))
    }));
    let line = section("fig5").str("benchmark", bm.name());
    let mut line = line.raw("partition_steps", &partitions);
    for strategy in [Strategy::Split, Strategy::Integrated] {
        let dp = allocate(&bm.dfg, &bm.schedule, &AllocOptions::new(strategy, scheme))?;
        let result = stats(&dp.netlist).num("cross_partition_reads", dp.cross_partition_reads());
        line = line.raw(&strategy.to_string(), &result.finish());
    }
    Ok(line.finish())
}

fn joined(problem: &Problem, vars: &[usize]) -> String {
    let names = vars.iter().map(|&v| problem.vars[v].name.as_str());
    json_string(&names.collect::<Vec<_>>().join("/"))
}

/// Lifetimes and the left-edge latch merge of one allocation problem.
fn lifetimes(problem: &Problem) -> String {
    let vars = json_array(problem.vars.iter().map(|v| {
        let obj = JsonObj::new().str("name", &v.name);
        let obj = obj.num("write", v.write_step).num("death", v.death);
        obj.str("phase", &v.phase.to_string()).finish()
    }));
    let regs = allocate_registers(problem, MemKind::Latch, LifetimeView::Global);
    let latches = json_array(regs.iter().map(|g| joined(problem, &g.pvars)));
    let obj = JsonObj::new().raw("vars", &vars).raw("latches", &latches);
    let reads = problem.cross_partition_reads();
    obj.num("cross_partition_reads", reads).finish()
}

/// Fig. 6: x is written in partition 1 and read two steps later in
/// partition 2, so a transfer variable captures it in between.
fn fig6() -> Line {
    let mut b = DfgBuilder::new("fig6", 4);
    let a = b.input("a");
    let x = b.op_named("x", Op::Add, a, a);
    let e = b.op_named("e", Op::Sub, a, x);
    let y = b.op_named("y", Op::Mul, x, e);
    let u = b.op_named("u", Op::Add, y, a);
    b.mark_output(u);
    let dfg = b.finish().expect("the Fig. 6 example is well-formed");
    let schedule = Schedule::new(&dfg, vec![1, 2, 4, 5], 5).expect("the schedule is legal");
    let scheme = ClockScheme::new(2)?;
    let before = Problem::build(&dfg, &schedule, scheme, false);
    let after = Problem::build(&dfg, &schedule, scheme, true);
    let line = section("fig6").num("transfers", after.transfers);
    let line = line.raw("without_transfers", &lifetimes(&before));
    Ok(line.raw("with_transfers", &lifetimes(&after)).finish())
}

/// Fig. 7: the register and ALU binding of the integrated allocation.
fn fig7() -> Line {
    let bm = benchmarks::motivating();
    let options = AllocOptions::new(Strategy::Integrated, ClockScheme::new(2)?);
    let dp = allocate(&bm.dfg, &bm.schedule, &options)?;
    let registers = json_array(dp.regs.iter().map(|g| {
        let obj = JsonObj::new().str("phase", &g.phase.to_string());
        obj.raw("vars", &joined(&dp.problem, &g.pvars)).finish()
    }));
    let alus = json_array(dp.alus.iter().map(|g| {
        let ops = g.ops.iter().map(|&o| &dp.problem.ops[o]);
        let ops = json_array(ops.map(|op| json_string(&format!("{}@T{}", op.op, op.step))));
        let obj = JsonObj::new().str("function_set", &g.fs.to_string());
        let obj = obj.str("phase", &g.phase.to_string());
        obj.raw("ops", &ops).finish()
    }));
    let line = section("fig7").str("benchmark", bm.name());
    let line = line.raw("registers", &registers).raw("alus", &alus);
    Ok(line.raw("stats", &stats(&dp.netlist).finish()).finish())
}

/// §2.1/§2.2: busy fractions of the motivating example under overlapped
/// computations and the capacitance conditions for the scheme to win.
fn sec2_analysis() -> String {
    let busy1 = analysis::busy_fraction(3, 5, 1);
    let busy2 = analysis::busy_fraction(2, 5, 1);
    let wins = |ratios: [f64; 3], win: &dyn Fn(&[f64]) -> bool| {
        json_array(ratios.map(|r| {
            let wins = win(&[r / 2.0, r / 2.0]);
            let obj = JsonObj::new().num("cap_ratio", r);
            obj.bool("multiclock_wins", wins).finish()
        }))
    };
    let vs_none = |c: &[f64]| analysis::wins_without_power_management(c, 1.0);
    let vs_none = wins([1.6, 2.0, 2.4], &vs_none);
    let vs_gated = |c: &[f64]| analysis::wins_against_gated_clocks(c, 1.0, busy1, busy2);
    let vs_gated = wins([1.2, 1.5, 1.8], &vs_gated);
    let headroom = analysis::capacitance_headroom(busy1, busy2);
    let register = analysis::crude_register_advantage_mw(0.32, 4.65, 50.0);
    let line = section("analysis").num("circuit1_busy", busy1);
    let line = line.num("circuit2_busy", busy2);
    let line = line.num("gated_headroom", headroom);
    let line = line.num("register_advantage_mw", register);
    let line = line.raw("vs_no_management", &vs_none);
    line.raw("vs_gated_clocks", &vs_gated).finish()
}

fn report(obj: JsonObj, r: &DesignReport) -> JsonObj {
    let obj = obj.num("power_mw", r.power.total_mw);
    let obj = obj.num("area_lambda2", r.area.total_lambda2);
    obj.num("mem_cells", r.stats.mem_cells)
}

/// One `results` entry per benchmark, each opening with its name.
fn per_benchmark(
    name: &str,
    benches: &[Benchmark],
    fields: impl Fn(&Benchmark, JsonObj) -> Result<JsonObj, SynthesisError>,
) -> Line {
    let mut results = Vec::new();
    for bm in benches {
        results.push(fields(bm, JsonObj::new().str("benchmark", bm.name()))?.finish());
    }
    Ok(section(name).raw("results", &json_array(results)).finish())
}

/// Two variants per benchmark; `saving` is the first one's power saving
/// over the second.
fn pair(
    name: &str,
    labels: [&str; 2],
    benches: &[Benchmark],
    run: impl Fn(&Benchmark) -> Result<(DesignReport, DesignReport), SynthesisError>,
) -> Line {
    per_benchmark(name, benches, |bm, obj| {
        let (a, b) = run(bm)?;
        let obj = obj.raw(labels[0], &report(JsonObj::new(), &a).finish());
        let obj = obj.raw(labels[1], &report(JsonObj::new(), &b).finish());
        Ok(obj.num("saving", 1.0 - a.power.total_mw / b.power.total_mw))
    })
}

/// The ablations of §3.2 and §5.2, and the extensions beside them.
fn ablations(paper: &[Benchmark], lines: &mut Vec<String>) -> Result<(), SynthesisError> {
    let (n, seed) = (COMPUTATIONS, SEED);
    lines.push(per_benchmark("clock_sweep", paper, |bm, obj| {
        let sweep = experiment::clock_sweep(bm, 6, n, seed)?;
        let point = |(k, r): &(u32, DesignReport)| report(JsonObj::new().num("clocks", k), r);
        let points = json_array(sweep.iter().map(|p| point(p).finish()));
        Ok(obj.raw("points", &points))
    })?);
    let run = |bm: &Benchmark| experiment::latch_vs_dff(bm, 2, n, seed);
    lines.push(pair("latch_vs_dff", ["latch", "dff"], paper, run)?);
    let run = |bm: &Benchmark| experiment::control_latching(bm, 2, n, seed);
    lines.push(pair(
        "control_latching",
        ["latched", "unlatched"],
        paper,
        run,
    )?);
    let run = |bm: &Benchmark| experiment::split_vs_integrated(bm, 2, n, seed);
    lines.push(pair(
        "split_vs_integrated",
        ["split", "integrated"],
        paper,
        run,
    )?);
    let run = |bm: &Benchmark| experiment::transfers_on_off(bm, 2, n, seed);
    lines.push(pair(
        "transfers",
        ["with", "without"],
        &benchmarks::all_benchmarks(),
        run,
    )?);
    let run = |bm: &Benchmark| experiment::phase_affine_vs_reference(bm, 2, 4, n, seed);
    let run = |bm: &Benchmark| run(bm).map(|(reference, affine)| (affine, reference));
    lines.push(pair("phase_affine", ["affine", "reference"], paper, run)?);

    // The phase clocks are chip inputs in the paper and in the tables;
    // this prices generating them on chip.
    let (hal, lib) = (benchmarks::hal(), TechLibrary::vsc450());
    let mut generators = Vec::new();
    for k in 2..=4u32 {
        let options = AllocOptions::new(Strategy::Integrated, ClockScheme::new(k)?);
        let netlist = allocate(&hal.dfg, &hal.schedule, &options)?.netlist;
        let (area, power) = clock_generator_overhead(&netlist, &lib);
        let obj = JsonObj::new().num("clocks", k).num("power_mw", power);
        generators.push(obj.num("area_lambda2", area).finish());
    }
    let line = section("phase_generator").str("benchmark", hal.name());
    lines.push(line.raw("results", &json_array(generators)).finish());

    lines.push(per_benchmark("stimulus", paper, |bm, obj| {
        let two = DesignStyle::MultiClock(2);
        let (uniform, walk, constant) = experiment::stimulus_sensitivity(bm, two, n, seed)?;
        let obj = obj.num("uniform_mw", uniform).num("walk_mw", walk);
        let obj = obj.num("constant_mw", constant);
        let obj = obj.num("walk_saving", 1.0 - walk / uniform);
        Ok(obj.num("constant_share", constant / uniform))
    })?);

    let mut voltages = Vec::new();
    for style in [DesignStyle::ConventionalGated, DesignStyle::MultiClock(3)] {
        let points = experiment::voltage_scaling(&hal, style, &[5.0, 4.65, 3.3], n, seed)?;
        let points = json_array(points.iter().map(|p| {
            let obj = JsonObj::new().num("volts", p.volts);
            let obj = obj.num("power_mw", p.power_mw).num("fmax_mhz", p.fmax_mhz);
            obj.bool("meets_target", p.meets_target).finish()
        }));
        let obj = JsonObj::new().str("style", &style.label());
        voltages.push(obj.raw("points", &points).finish());
    }
    let line = section("voltage_scaling").str("benchmark", hal.name());
    lines.push(line.raw("results", &json_array(voltages)).finish());
    Ok(())
}
