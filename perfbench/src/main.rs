//! The multiclock benchmark: one command that runs a named workload
//! in-process against the crates' public APIs, checks every output, and
//! prints one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_eval --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload's fixed pass untraced and again with mc-trace recording, then
//! probes every layer, and prints the per-layer metrics (see README.md).

mod catalog;
mod fixture;
mod layers;
mod paths;
mod seed;
mod stats;
mod stream;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use catalog::{result_line, Checks, END_TO_END, PER_LAYER};
use fixture::Fixture;
use layers::Values;
use paths::Paths;
use stats::{median, MIN_SAMPLES};

/// The named workloads. Every untraced run measures all three paths —
/// the result line carries every metric — and the workload decides which
/// path gets most of the measured time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sequential five-style paper tables.
    PaperEval,
    /// Single-clock → three-phase conversion plus verification.
    RetrofitMc,
    /// Served `POST /eval`, cold and warm.
    ServeEval,
}

impl Workload {
    /// Every workload, in the order a cycle runs their paths.
    pub const ALL: [Workload; 3] = [
        Workload::PaperEval,
        Workload::RetrofitMc,
        Workload::ServeEval,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperEval => "paper_eval",
            Workload::RetrofitMc => "retrofit_mc",
            Workload::ServeEval => "serve_eval",
        }
    }
}

/// Set-ups per run; `setup_s` is their median. A single set-up takes
/// 15–27 ms here and lands in either of two clusters, so the median
/// needs many.
const SETUP_REPEATS: usize = 21;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper_eval|retrofit_mc|serve_eval> \
     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(bad)?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(if s > 0.0 { s } else { return Err(bad()) });
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The run's scratch directory inside the working directory, removed on
/// drop (panics included).
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = Path::new(".perfbench_work").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave the parent only if another run still uses it.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

/// Builds the fixture [`SETUP_REPEATS`] times, keeping the last, and
/// returns it with the median set-up time in seconds.
fn setup(seed: u64, work: &WorkDir) -> Result<(Fixture, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept: Option<Fixture> = None;
    for i in 0..SETUP_REPEATS {
        let t = Instant::now();
        let fx = Fixture::new(seed, &work.0.join(format!("fixture-{i}")))?;
        times.push(t.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(fx) {
            let dir = old.dir.clone();
            drop(old);
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    Ok((kept.expect("at least one set-up"), median(&times)))
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Seconds a cycle spends on the table or retrofit path when it is the
/// workload's own, and when it is not.
const FOCUS_SLICE_S: f64 = 0.55;
/// See [`FOCUS_SLICE_S`].
const OTHER_SLICE_S: f64 = 0.15;
/// Serve blocks per cycle when serve_eval is the workload, and when not
/// (about 0.55 s and 0.15 s here). Serve work is counted rather than
/// timed: every cold request leaves a flow in the server's pool, so a
/// fixed count keeps peak memory steady.
const FOCUS_SERVE_BLOCKS: usize = 12;
/// See [`FOCUS_SERVE_BLOCKS`].
const OTHER_SERVE_BLOCKS: usize = 3;

/// An untraced run, end-to-end metrics. The table, retrofit and serve
/// paths interleave in one cycle (about 0.85 s) per second of
/// `--seconds`, so every path samples the whole run; the workload's own
/// path gets most of each cycle. Tables and retrofits fill time slices,
/// serve runs a fixed number of blocks. Cycles continue past that number
/// only until every latency class holds [`MIN_SAMPLES`] samples.
fn untraced(args: &Args, work: &WorkDir) -> Result<String, String> {
    let (fx, setup_s) = setup(args.seed, work)?;
    let mut p = Paths::new(&fx, 0);
    let focus = |w| args.workload == w;
    let slice = |w| {
        if focus(w) {
            FOCUS_SLICE_S
        } else {
            OTHER_SLICE_S
        }
    };
    let blocks = if focus(Workload::ServeEval) {
        FOCUS_SERVE_BLOCKS
    } else {
        OTHER_SERVE_BLOCKS
    };
    let cycles = args.seconds.round().max(1.0) as usize;
    let mut cycle = 0;
    while cycle < cycles || Workload::ALL.iter().any(|&w| p.samples(w) < MIN_SAMPLES) {
        for w in [Workload::PaperEval, Workload::RetrofitMc] {
            let t = Instant::now();
            p.unit(w);
            while t.elapsed().as_secs_f64() < slice(w) {
                p.unit(w);
            }
        }
        for _ in 0..blocks {
            p.unit(Workload::ServeEval);
        }
        cycle += 1;
    }
    let mut m = Values::new();
    p.metrics(&mut m);
    let checks = p.checks();
    m.insert("setup_s", setup_s);
    m.insert("paper_power_mape_pct", fx.paper_power_mape_pct());
    m.insert(
        "ok_frac",
        1.0 - checks.failed as f64 / checks.attempted.max(1) as f64,
    );
    drop(fx);
    m.insert("peak_rss_mb", peak_rss_mb()?);
    // A path whose every operation failed has no samples: report 0 and
    // let the check tally reject the run.
    for (name, _) in END_TO_END {
        m.entry(name).or_insert(0.0);
    }
    Ok(result_line(END_TO_END, &m, checks))
}

/// The fixed work the traced run times twice: about a second of the
/// workload's own path.
fn fixed_pass(fx: &Fixture, w: Workload, salt: u64) -> Checks {
    let units = match w {
        Workload::PaperEval => 64,
        Workload::RetrofitMc => 12,
        Workload::ServeEval => 16,
    };
    let mut p = Paths::new(fx, salt);
    for _ in 0..units {
        p.unit(w);
    }
    p.checks()
}

/// Untraced/traced pairs of the fixed pass behind `trace.overhead_pct`.
const OVERHEAD_PAIRS: usize = 3;

/// A traced run: the workload's fixed pass untraced and with mc-trace
/// recording (the difference is the tracing overhead, and the recording
/// holds the exact counters), then every layer probe.
fn traced(args: &Args, work: &WorkDir) -> Result<String, String> {
    let (fx, _) = setup(args.seed, work)?;
    let mut m = Values::new();
    let mut checks = Checks::default();

    // One untimed warm-up pass, then alternating untraced/traced pairs
    // (each pass with its own serve pairs); the record keeps the first
    // traced pass's counters.
    checks.absorb(fixed_pass(&fx, args.workload, 0));
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut trace = None;
    let mut salt = 0;
    for pair in 0..OVERHEAD_PAIRS {
        for traced in [pair % 2 == 1, pair % 2 == 0] {
            salt += 1;
            if traced {
                drop(mc_trace::take());
                mc_trace::enable();
            }
            let t = Instant::now();
            checks.absorb(fixed_pass(&fx, args.workload, salt));
            let s = t.elapsed().as_secs_f64();
            if traced {
                mc_trace::disable();
                let recorded = mc_trace::take();
                trace.get_or_insert(recorded);
                traced_s.push(s);
            } else {
                untraced_s.push(s);
            }
        }
    }
    let trace = trace.expect("at least one traced pass");
    let (untraced_s, traced_s) = (median(&untraced_s), median(&traced_s));
    m.insert(
        "trace.overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
    );

    let mape = fx.paper_power_mape_pct();
    m.insert("exact.paper_power_mape_pct", mape);
    for name in ["sim.steps", "sim.instructions", "sim.toggles"] {
        let count = trace.counters.get(name).copied().unwrap_or(0);
        m.insert(name, count as f64);
    }
    // The full exact-count record: deterministic mc-trace counters of the
    // traced pass plus the power error. Two traced runs of one workload
    // and seed print identical records.
    let mut record = mc_bench::harness::JsonObj::new()
        .str("workload", args.workload.name())
        .num("seed", args.seed)
        .num("paper_power_mape_pct", mape);
    for (name, count) in &trace.counters {
        record = record.num(name, count);
    }
    println!("exact-counts {}", record.finish());

    layers::probe(&fx, &mut m, &mut checks);
    drop(fx);
    Ok(result_line(PER_LAYER, &m, checks))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = WorkDir::create().and_then(|work| {
        if args.trace {
            traced(&args, &work)
        } else {
            untraced(&args, &work)
        }
    });
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
