//! `mcpm` — multi-clock power management command-line tool.
//!
//! Synthesise, evaluate, profile and export the bundled benchmark
//! behaviours from the command line:
//!
//! ```text
//! mcpm list
//! mcpm paper
//! mcpm eval    --benchmark hal [--computations 400] [--seed 42]
//! mcpm synth   --benchmark hal --clocks 3 [--strategy integrated]
//!              [--mem latch] [--export vhdl|dot|vcd] [--out FILE]
//! mcpm sweep   --benchmark biquad --max-clocks 6
//! mcpm profile --benchmark hal --clocks 2
//! mcpm top     --benchmark bandpass --clocks 2 [--count 10]
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::process::ExitCode;

use multiclock::alloc::Strategy;
use multiclock::dfg::benchmarks::{self, Benchmark};
use multiclock::explore::{ExploreSpace, Explorer, GatingVariant, RewriteChoice};
use multiclock::power::{per_component_power, profile::power_profile};
use multiclock::rtl::{export, PowerMode};
use multiclock::serve::api;
use multiclock::sim::{simulate, vcd, BatchBackend, SimConfig};
use multiclock::tech::MemKind;
use multiclock::trace::summary::TraceSummary;
use multiclock::{DesignStyle, Synthesizer};

/// Typed command-line failures. Every variant exits non-zero with a
/// message naming the offending token, so a misspelled or degenerate flag
/// can never silently run with defaults.
#[derive(Debug)]
enum CliError {
    /// The first token is not a known subcommand.
    UnknownCommand(String),
    /// A `--flag` the subcommand does not accept.
    UnknownFlag {
        command: String,
        flag: String,
        suggestion: Option<&'static str>,
        valid: &'static [&'static str],
    },
    /// A bare token where only `--flag [value]` pairs are allowed.
    UnexpectedArgument { command: String, token: String },
    /// A flag value that does not parse or is out of range.
    InvalidValue {
        flag: String,
        value: String,
        reason: String,
    },
    /// Any other failure (I/O, synthesis, signoff, ...).
    Other(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownCommand(cmd) => {
                write!(f, "unknown command `{cmd}`\n\n{}", usage())
            }
            CliError::UnknownFlag {
                command,
                flag,
                suggestion,
                valid,
            } => {
                write!(f, "unknown flag `--{flag}` for `{command}`")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean `--{s}`?)")?;
                }
                if valid.is_empty() {
                    write!(f, "; `{command}` takes no flags")
                } else {
                    let list: Vec<String> = valid.iter().map(|v| format!("--{v}")).collect();
                    write!(f, "; valid flags: {}", list.join(", "))
                }
            }
            CliError::UnexpectedArgument { command, token } => {
                write!(f, "unexpected argument `{token}`: ")?;
                if valid_flags(command).is_some_and(<[_]>::is_empty) {
                    write!(f, "`{command}` takes no arguments")
                } else {
                    write!(f, "`{command}` takes only `--flag [value]` pairs")
                }
            }
            CliError::InvalidValue {
                flag,
                value,
                reason,
            } => {
                write!(f, "invalid value `{value}` for --{flag}: {reason}")
            }
            CliError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Other(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> CliError {
        CliError::Other(msg.to_owned())
    }
}

/// The flags [`Args::parse_bool`] reads, whichever subcommand accepts
/// them. A boolean flag may stand bare, so it takes the next bare token
/// as its value only when that token is `true` or `false`, or when the
/// token cannot be the subcommand's positional argument (then `--json
/// no` is still reported as an invalid value).
const BOOLEAN_FLAGS: [&str; 7] = [
    "counters", "get", "json", "parallel", "resume", "scale", "timings",
];

/// The flags each subcommand accepts. `None` → unknown subcommand.
fn valid_flags(command: &str) -> Option<&'static [&'static str]> {
    #[rustfmt::skip]
    let flags: &'static [&'static str] = match command {
        "list" | "paper" | "help" | "--help" | "-h" => &[],
        "eval" => &["benchmark", "file", "computations", "seed", "json", "out", "trace"],
        "synth" => &["benchmark", "file", "computations", "seed", "clocks", "strategy",
                     "mem", "export", "out"],
        "sweep" => &["benchmark", "file", "computations", "seed", "max-clocks", "json",
                     "out", "trace"],
        "explore" => &["benchmark", "file", "computations", "seed", "max-clocks", "budget",
                       "voltages", "stretch", "gating", "rewrites", "scenarios", "scale", "threads",
                       "parallel", "timings", "seeds", "batch", "backend", "cache-dir",
                       "checkpoint", "resume", "deadline-ms", "spill", "json", "out", "trace"],
        "profile" | "signoff" => &["benchmark", "file", "computations", "seed", "clocks",
                                   "strategy", "mem"],
        "retrofit" => &["benchmark", "file", "computations", "seed", "clocks", "seeds",
                        "parallel", "backend", "export", "json", "out", "trace"],
        "top" => &["benchmark", "file", "computations", "seed", "clocks", "strategy",
                   "mem", "count"],
        "serve" => &["addr", "cache-dir", "threads", "trace"],
        "request" => &["addr", "path", "body", "get", "out"],
        "stats" => &["benchmark", "file", "computations", "seed", "clocks", "strategy",
                     "mem", "seeds"],
        "trace-summary" => &["counters"],
        _ => return None,
    };
    Some(flags)
}

/// Levenshtein edit distance, for did-you-mean hints on misspelled flags.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let subst = prev[j] + usize::from(ca != cb);
            cur[j + 1] = subst.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The closest valid flag within edit distance 2, if any.
fn did_you_mean(flag: &str, valid: &'static [&'static str]) -> Option<&'static str> {
    valid
        .iter()
        .map(|v| (edit_distance(flag, v), *v))
        .filter(|&(d, _)| d <= 2)
        .min_by_key(|&(d, _)| d)
        .map(|(_, v)| v)
}

/// Parsed command-line options (flag → value).
struct Args {
    command: String,
    flags: BTreeMap<String, String>,
    /// Bare (non-`--flag`) tokens; only `trace-summary` accepts one.
    positional: Vec<String>,
}

impl Args {
    /// Parses the process arguments. `Ok(None)` means no command was
    /// given (print usage). Unknown commands, unknown flags and stray
    /// tokens are hard errors — never silently ignored.
    fn parse() -> Result<Option<Args>, CliError> {
        Self::parse_from(std::env::args().skip(1).collect())
    }

    fn parse_from(tokens: Vec<String>) -> Result<Option<Args>, CliError> {
        let mut it = tokens.into_iter();
        let Some(command) = it.next() else {
            return Ok(None);
        };
        let valid =
            valid_flags(&command).ok_or_else(|| CliError::UnknownCommand(command.clone()))?;
        let mut flags = BTreeMap::new();
        let mut positional = Vec::new();
        let rest: Vec<String> = it.collect();
        let takes_positional =
            |positional: &[String]| command == "trace-summary" && positional.is_empty();
        let mut i = 0;
        while i < rest.len() {
            let Some(key) = rest[i].strip_prefix("--") else {
                if takes_positional(&positional) {
                    positional.push(rest[i].clone());
                    i += 1;
                    continue;
                }
                return Err(CliError::UnexpectedArgument {
                    command,
                    token: rest[i].clone(),
                });
            };
            if !valid.contains(&key) {
                return Err(CliError::UnknownFlag {
                    command,
                    flag: key.to_owned(),
                    suggestion: did_you_mean(key, valid),
                    valid,
                });
            }
            // `--flag value`, or a bare boolean `--flag` (next token is
            // another flag, the end of the line, or a positional).
            let boolean = BOOLEAN_FLAGS.contains(&key);
            match rest.get(i + 1) {
                Some(v)
                    if !v.starts_with("--")
                        && (!boolean
                            || v == "true"
                            || v == "false"
                            || !takes_positional(&positional)) =>
                {
                    flags.insert(key.to_owned(), v.clone());
                    i += 2;
                }
                _ => {
                    flags.insert(key.to_owned(), "true".to_owned());
                    i += 1;
                }
            }
        }
        Ok(Some(Args {
            command,
            flags,
            positional,
        }))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Boolean flag: a bare `--flag` or `--flag true` is true, `--flag
    /// false` is false, and an absent flag is `default`. Any other value
    /// is rejected rather than read as either.
    fn parse_bool(&self, key: &str, default: bool) -> Result<bool, CliError> {
        debug_assert!(
            BOOLEAN_FLAGS.contains(&key),
            "--{key} is read as a boolean, so the parser must know it as one"
        );
        match self.get(key) {
            None => Ok(default),
            Some("true") => Ok(true),
            Some("false") => Ok(false),
            Some(v) => Err(CliError::InvalidValue {
                flag: key.to_owned(),
                value: v.to_owned(),
                reason: "expected `true` or `false`, or the bare flag".to_owned(),
            }),
        }
    }

    /// Comma-separated list flag, e.g. `--voltages 4.65,3.3`.
    fn parse_list<T>(&self, key: &str, default: &[T]) -> Result<Vec<T>, CliError>
    where
        T: std::str::FromStr + Clone,
    {
        match self.get(key) {
            None => Ok(default.to_vec()),
            Some(raw) => raw
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.trim().parse().map_err(|_| CliError::InvalidValue {
                        flag: key.to_owned(),
                        value: s.to_owned(),
                        reason: "not a valid list element".to_owned(),
                    })
                })
                .collect(),
        }
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| CliError::InvalidValue {
                flag: key.to_owned(),
                value: v.to_owned(),
                reason: "not a number".to_owned(),
            }),
        }
    }

    /// Numeric flag with a lower bound, rejected at parse time so
    /// degenerate values (`--computations 0`, `--seeds 0`, `--batch 0`)
    /// never reach the simulator or the Monte-Carlo divisions.
    fn parse_num_at_least<T>(&self, key: &str, default: T, min: T) -> Result<T, CliError>
    where
        T: std::str::FromStr + PartialOrd + fmt::Display + Copy,
    {
        let v = self.parse_num(key, default)?;
        if v < min {
            return Err(CliError::InvalidValue {
                flag: key.to_owned(),
                value: v.to_string(),
                reason: format!("must be at least {min}"),
            });
        }
        Ok(v)
    }

    /// `--backend batched|bitsliced` (default batched). The backend
    /// never changes results, only throughput.
    fn parse_backend(&self) -> Result<BatchBackend, CliError> {
        match self.get("backend") {
            None => Ok(BatchBackend::default()),
            Some(name) => BatchBackend::from_name(name).ok_or_else(|| CliError::InvalidValue {
                flag: "backend".to_owned(),
                value: name.to_owned(),
                reason: "expected `batched` or `bitsliced`".to_owned(),
            }),
        }
    }
}

fn usage() -> &'static str {
    "mcpm — multi-clock power management for RTL datapaths\n\
     \n\
     commands:\n\
     \x20 list                                   list bundled benchmarks\n\
     \x20 paper                                  the paper's tables, figures and ablations as\n\
     \x20         JSON lines, at 400 computations and seed 42 (tests/golden/paper.jsonl)\n\
     \x20 eval    --benchmark NAME | --file F    evaluate the five paper design styles\n\
     \x20 synth   --benchmark NAME | --file F    synthesise one design (--clocks N)\n\
     \x20         [--strategy conventional|split|integrated] [--mem latch|dff]\n\
     \x20         [--export vhdl|mcnl|dot|vcd] [--out FILE]\n\
     \x20 sweep   --benchmark NAME [--max-clocks N]   clock-count sweep\n\
     \x20 explore --benchmark NAME | --file F    Pareto design-space exploration\n\
     \x20         [--max-clocks N] [--budget K] [--voltages V1,V2] [--stretch S1,S2]\n\
     \x20         [--gating N] [--rewrites N] [--scenarios N] [--scale] (--scale: the\n\
     \x20         full 10^5+ point lattice; --gating/--scenarios add gating variants and\n\
     \x20         stimulus seeds; --rewrites adds equivalence-checked datapath rewrites)\n\
     \x20         [--cache-dir DIR] (persistent cross-run result cache: a warm re-run\n\
     \x20         performs zero flow evaluations)\n\
     \x20         [--checkpoint FILE] [--resume] [--deadline-ms MS] [--spill FILE]\n\
     \x20         (interrupt-safe: checkpoint + resume is byte-identical to a straight\n\
     \x20         run; --spill streams dominated points to FILE as they are pruned)\n\
     \x20         [--threads T] [--parallel false] [--timings] [--out FILE]\n\
     \x20         [--seeds N] (Monte-Carlo power: mean ± 95 % CI per point)\n\
     \x20         [--batch L] (lanes of the batched kernel, default 16)\n\
     \x20         [--backend batched|bitsliced] (multi-seed kernel; results identical)\n\
     \x20 retrofit --benchmark NAME | --file F   convert a single-clock design to a\n\
     \x20         latch-based multi-phase one [--clocks N] [--seeds K] [--parallel false]\n\
     \x20         [--backend batched|bitsliced] [--export vhdl|mcnl] [--json] [--out FILE]\n\
     \x20         (--file reads exported VHDL or the mcnl format; --benchmark\n\
     \x20         round-trips through VHDL first)\n\
     \x20 serve   [--addr HOST:PORT]             run as a persistent HTTP service\n\
     \x20         [--cache-dir DIR] [--threads T]  (POST /eval /sweep /explore /retrofit,\n\
     \x20         GET /healthz /stats, POST /shutdown; responses byte-identical to the\n\
     \x20         one-shot --json output, cached on disk, identical in-flight requests\n\
     \x20         coalesced)\n\
     \x20 request [--addr HOST:PORT] --path /eval [--body JSON | --get]   tiny HTTP\n\
     \x20         client for the service (for scripts without curl)\n\
     \x20 profile --benchmark NAME --clocks N    power-over-time (folded by period)\n\
     \x20 top     --benchmark NAME --clocks N [--count K]   hottest components\n\
     \x20 stats   --benchmark NAME --clocks N [--seeds K]   power spread across seeds\n\
     \x20 signoff --benchmark NAME | --file F    equivalence + lint + discipline + timing\n\
     \x20 trace-summary FILE [--counters]        summarise a --trace file (spans,\n\
     \x20         counters, coverage); --counters emits the deterministic JSON only\n\
     \n\
     common flags: --computations N (default 400), --seed S (default 42),\n\
     \x20             --json (eval/sweep/explore emit machine-readable JSON),\n\
     \x20             --trace FILE (eval/sweep/explore write a Chrome trace_event\n\
     \x20             profile loadable in Perfetto / chrome://tracing)"
}

fn find_benchmark(name: &str) -> Result<Benchmark, CliError> {
    // The typed resolver reports *why* a name failed — unknown name,
    // malformed `random:` spec, or a degenerate node count — instead of a
    // generic miss.
    benchmarks::parse_name(name).map_err(|e| CliError::Other(e.to_string()))
}

/// Loads the behaviour: either `--benchmark NAME` (bundled, with its
/// reference schedule) or `--file PATH` (the behavioural DSL, scheduled
/// ASAP).
fn load_behavior(args: &Args) -> Result<Benchmark, CliError> {
    match (args.get("benchmark"), args.get("file")) {
        (Some(name), None) => find_benchmark(name),
        (None, Some(path)) => {
            let source =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            let stem = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("user_design");
            let dfg = multiclock::dfg::parse::parse_dfg(stem, &source)
                .map_err(|e| format!("{path}: {e}"))?;
            let schedule = multiclock::dfg::scheduler::asap(&dfg);
            Ok(Benchmark {
                dfg,
                schedule,
                description: "user behaviour from file",
            })
        }
        (Some(_), Some(_)) => Err("pass either --benchmark or --file, not both".into()),
        (None, None) => Err("missing --benchmark NAME or --file PATH".into()),
    }
}

fn style_from(args: &Args) -> Result<DesignStyle, CliError> {
    let clocks: u32 = args.parse_num_at_least("clocks", 2, 1)?;
    let strategy = match args.get("strategy").unwrap_or("integrated") {
        "conventional" => Strategy::Conventional,
        "split" => Strategy::Split,
        "integrated" => Strategy::Integrated,
        other => return Err(format!("unknown strategy `{other}`").into()),
    };
    let mem_kind = match args.get("mem").unwrap_or("latch") {
        "latch" => MemKind::Latch,
        "dff" => MemKind::Dff,
        other => return Err(format!("unknown memory kind `{other}`").into()),
    };
    if strategy == Strategy::Conventional {
        return if clocks == 1 {
            Ok(DesignStyle::ConventionalGated)
        } else {
            Err("conventional strategy requires --clocks 1".into())
        };
    }
    Ok(DesignStyle::Custom {
        strategy,
        clocks,
        mem_kind,
        transfers: true,
        mode: PowerMode::multiclock(),
    })
}

/// The design reference the service API wants, from `--benchmark` /
/// `--file` (the file is read eagerly so the request is self-contained).
fn design_ref(args: &Args) -> Result<api::DesignRef, CliError> {
    match (args.get("benchmark"), args.get("file")) {
        (Some(name), None) => Ok(api::DesignRef::Benchmark(name.to_owned())),
        (None, Some(path)) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            let name = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("user_design")
                .to_owned();
            Ok(api::DesignRef::Source { name, text })
        }
        (Some(_), Some(_)) => Err("pass either --benchmark or --file, not both".into()),
        (None, None) => Err("missing --benchmark NAME or --file PATH".into()),
    }
}

/// Parses `--gating N` — how many of the data-dependent gating variants
/// (arXiv 1806.02271) each lattice design is replicated under.
fn parse_gating_count(args: &Args) -> Result<u32, CliError> {
    let n = args.parse_num_at_least("gating", 1u32, 1)?;
    if n > GatingVariant::ALL.len() as u32 {
        return Err(format!("--gating out of range (1..={})", GatingVariant::ALL.len()).into());
    }
    Ok(n)
}

/// Parses `--rewrites N` — how many of the equivalence-checked datapath
/// rewrites each lattice design is replicated under.
fn parse_rewrites_count(args: &Args) -> Result<u32, CliError> {
    let n = args.parse_num_at_least("rewrites", 1u32, 1)?;
    if n > RewriteChoice::ALL.len() as u32 {
        return Err(format!("--rewrites out of range (1..={})", RewriteChoice::ALL.len()).into());
    }
    Ok(n)
}

/// Builds the exploration lattice from the CLI flags: `--scale` selects
/// the million-point preset, then each dimension flag that is present
/// overrides that dimension only.
fn explore_space(args: &Args) -> Result<ExploreSpace, CliError> {
    let mut space = if args.parse_bool("scale", false)? {
        ExploreSpace::scale()
    } else {
        ExploreSpace::default()
    };
    if args.get("max-clocks").is_some() {
        space.n_max = args.parse_num_at_least("max-clocks", 4, 1)?;
    }
    if args.get("voltages").is_some() {
        space.voltages = args.parse_list("voltages", &[])?;
    }
    if args.get("stretch").is_some() {
        space.stretches = args.parse_list("stretch", &[])?;
    }
    if args.get("gating").is_some() {
        space.gating = GatingVariant::first_n(parse_gating_count(args)? as usize);
    }
    if args.get("rewrites").is_some() {
        space.rewrites = RewriteChoice::first_n(parse_rewrites_count(args)? as usize);
    }
    if args.get("scenarios").is_some() {
        space.scenarios = args.parse_num_at_least("scenarios", 1, 1)?;
    }
    Ok(space)
}

/// Runs one service-API request in-process and emits its JSON document —
/// the single code path shared with `mcpm serve`, which is what makes
/// server responses byte-identical to the CLI `--json` output.
fn emit_api_json(args: &Args, request: &api::ApiRequest) -> Result<(), CliError> {
    let json = request
        .run_json(&api::FlowPool::new())
        .map_err(CliError::Other)?;
    emit(args, &json)
}

fn emit(args: &Args, text: &str) -> Result<(), CliError> {
    match args.get("out") {
        Some(path) => std::fs::write(path, text)
            .map_err(|e| CliError::Other(format!("cannot write `{path}`: {e}")))
            .map(|()| println!("wrote {path} ({} bytes)", text.len())),
        None => {
            println!("{text}");
            Ok(())
        }
    }
}

fn run() -> Result<(), CliError> {
    let Some(args) = Args::parse()? else {
        println!("{}", usage());
        return Ok(());
    };
    // `--trace FILE`: record the whole command under a root span and
    // write a Chrome trace_event profile on success.
    let trace_out = args.get("trace").map(str::to_owned);
    if trace_out.is_some() {
        multiclock::trace::enable();
    }
    let result = {
        let _root = multiclock::trace::span(format!("mcpm.{}", args.command));
        dispatch(&args)
    };
    if let Some(path) = trace_out {
        let trace = multiclock::trace::take();
        multiclock::trace::disable();
        if result.is_ok() {
            std::fs::write(&path, trace.to_chrome_json())
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!("trace written to {path} (load in Perfetto / chrome://tracing)");
        }
    }
    result
}

fn dispatch(args: &Args) -> Result<(), CliError> {
    let computations: usize = args.parse_num_at_least("computations", 400, 1)?;
    let seed: u64 = args.parse_num("seed", 42)?;

    match args.command.as_str() {
        "list" => {
            for bm in benchmarks::all_benchmarks() {
                println!(
                    "{:<11} {:>3} ops, {:>2} steps — {}",
                    bm.name(),
                    bm.dfg.num_nodes(),
                    bm.schedule.length(),
                    bm.description
                );
            }
            Ok(())
        }
        "paper" => {
            let record = multiclock::paper::record().map_err(|e| e.to_string())?;
            print!("{record}");
            Ok(())
        }
        "eval" => {
            if args.parse_bool("json", false)? {
                return emit_api_json(
                    args,
                    &api::ApiRequest::Eval(api::EvalRequest {
                        design: design_ref(args)?,
                        computations,
                        seed,
                    }),
                );
            }
            let bm = load_behavior(args)?;
            // Rows run concurrently through the pass pipeline; results
            // are bit-identical to the sequential path.
            let table = multiclock::experiment::paper_table_parallel(&bm, computations, seed)
                .map_err(|e| e.to_string())?;
            println!("{}", table.render());
            if let Some(red) = table.gated_to_best_multiclock_reduction() {
                println!("gated → best multiclock reduction: {:.1} %", red * 100.0);
            }
            println!();
            print!("{}", table.render_timings());
            for d in table
                .diagnostics
                .iter()
                .filter(|d| d.severity == multiclock::Severity::Warning)
            {
                eprintln!("{d}");
            }
            Ok(())
        }
        "synth" => {
            let bm = load_behavior(args)?;
            let style = style_from(args)?;
            let synth = Synthesizer::for_benchmark(&bm)
                .with_computations(computations)
                .with_seed(seed);
            let design = synth
                .synthesize_verified(style)
                .map_err(|e| e.to_string())?;
            let nl = &design.datapath.netlist;
            match args.get("export") {
                None => emit(args, &nl.to_string())?,
                Some("vhdl") => emit(args, &export::to_vhdl(nl))?,
                Some("mcnl") => emit(args, &export::to_mcnl(nl))?,
                Some("dot") => emit(args, &export::to_dot(nl))?,
                Some("vcd") => {
                    let cfg = SimConfig::new(design.mode, computations.min(20), seed).with_trace();
                    let res = simulate(nl, &cfg);
                    let dump = vcd::to_vcd(nl, &res).map_err(|e| e.to_string())?;
                    emit(args, &dump)?;
                }
                Some(other) => return Err(format!("unknown export format `{other}`").into()),
            }
            let stats = nl.stats();
            eprintln!(
                "verified OK — ALUs {}, mem cells {}, mux inputs {}",
                stats.alu_summary(),
                stats.mem_cells,
                stats.mux_inputs
            );
            Ok(())
        }
        "sweep" => {
            let max: u32 = args.parse_num_at_least("max-clocks", 6, 1)?;
            if args.parse_bool("json", false)? {
                return emit_api_json(
                    args,
                    &api::ApiRequest::Sweep(api::SweepRequest {
                        design: design_ref(args)?,
                        max_clocks: max,
                        computations,
                        seed,
                    }),
                );
            }
            let bm = load_behavior(args)?;
            let sweep = multiclock::experiment::clock_sweep_parallel(&bm, max, computations, seed)
                .map_err(|e| e.to_string())?;
            println!(
                "{:>3} {:>9} {:>12} {:>6} {:>6}",
                "n", "mW", "λ²", "mem", "muxin"
            );
            for (n, rep) in sweep {
                println!(
                    "{n:>3} {:>9.2} {:>12.0} {:>6} {:>6}",
                    rep.power.total_mw,
                    rep.area.total_lambda2,
                    rep.stats.mem_cells,
                    rep.stats.mux_inputs
                );
            }
            Ok(())
        }
        "explore" => {
            // Persistence and preset flags (cache, checkpoint/resume,
            // deadline, spill, the --scale preset) run locally; plain
            // `--json` runs go through the service API whose response
            // cache is a byte-identity contract with the local engine.
            let json = args.parse_bool("json", false)?;
            let timings = args.parse_bool("timings", false)?;
            let local_only = args.parse_bool("scale", false)?
                || args.parse_bool("resume", false)?
                || ["cache-dir", "checkpoint", "deadline-ms", "spill"]
                    .iter()
                    .any(|f| args.get(f).is_some());
            if json && !timings && !local_only {
                let budget = match args.get("budget") {
                    Some(_) => Some(args.parse_num_at_least("budget", 1, 1)?),
                    None => None,
                };
                let threads = match args.get("threads") {
                    Some(_) => Some(args.parse_num_at_least("threads", 1, 1)?),
                    None => None,
                };
                return emit_api_json(
                    args,
                    &api::ApiRequest::Explore(api::ExploreRequest {
                        design: design_ref(args)?,
                        max_clocks: args.parse_num_at_least("max-clocks", 4, 1)?,
                        voltages: args
                            .parse_list("voltages", &[multiclock::explore::NOMINAL_VOLTS, 3.3])?,
                        stretches: args.parse_list("stretch", &[2u32])?,
                        gating: parse_gating_count(args)?,
                        rewrites: parse_rewrites_count(args)?,
                        scenarios: args.parse_num_at_least("scenarios", 1, 1)?,
                        budget,
                        power_seeds: args.parse_num_at_least("seeds", 1, 1)?,
                        batch: args.parse_num_at_least(
                            "batch",
                            multiclock::Flow::DEFAULT_BATCH,
                            1,
                        )?,
                        computations,
                        seed,
                        parallel: args.parse_bool("parallel", true)?,
                        threads,
                        backend: args.parse_backend()?,
                    }),
                );
            }
            let bm = load_behavior(args)?;
            let mut explorer = Explorer::new()
                .with_space(explore_space(args)?)
                .with_computations(computations)
                .with_seed(seed)
                .with_power_seeds(args.parse_num_at_least("seeds", 1, 1)?)
                .with_batch(args.parse_num_at_least("batch", multiclock::Flow::DEFAULT_BATCH, 1)?)
                .with_batch_backend(args.parse_backend()?)
                .with_parallel(args.parse_bool("parallel", true)?);
            if args.get("budget").is_some() {
                explorer = explorer.with_budget(args.parse_num_at_least("budget", 1, 1)?);
            }
            if args.get("threads").is_some() {
                explorer = explorer.with_threads(args.parse_num_at_least("threads", 1, 1)?);
            }
            if let Some(dir) = args.get("cache-dir") {
                explorer = explorer.with_cache_dir(dir);
            }
            if let Some(path) = args.get("checkpoint") {
                explorer = explorer.with_checkpoint(path);
            }
            if args.parse_bool("resume", false)? {
                if args.get("checkpoint").is_none() {
                    return Err("--resume requires --checkpoint FILE".into());
                }
                explorer = explorer.with_resume(true);
            }
            if args.get("deadline-ms").is_some() {
                explorer = explorer.with_deadline_ms(args.parse_num("deadline-ms", 0u64)?);
            }
            if let Some(path) = args.get("spill") {
                explorer = explorer.with_spill(path);
            }
            let report = explorer.run(&bm).map_err(|e| e.to_string())?;
            if json {
                // The local deterministic document is byte-identical to
                // the service's; `--timings` adds the wall-clock and
                // cache fields the byte-identity contract leaves out.
                return if timings {
                    emit(args, &report.to_json_with_timings())
                } else {
                    emit(args, &report.to_json())
                };
            }
            let mut text = report.render_ranked();
            if timings {
                text.push('\n');
                text.push_str(&report.render_timings());
            }
            emit(args, &text)
        }
        "retrofit" => {
            use std::fmt::Write as _;
            let clocks: u32 = args.parse_num_at_least("clocks", 3, 2)?;
            let nseeds: usize = args.parse_num_at_least("seeds", 5, 1)?;
            let parallel = args.parse_bool("parallel", true)?;
            if args.parse_bool("json", false)? && args.get("export").is_none() {
                return emit_api_json(
                    args,
                    &api::ApiRequest::Retrofit(api::RetrofitRequest {
                        design: design_ref(args)?,
                        clocks,
                        seeds: nseeds,
                        computations,
                        seed,
                        parallel,
                        backend: args.parse_backend()?,
                    }),
                );
            }
            let r = match (args.get("benchmark"), args.get("file")) {
                (Some(name), None) => {
                    // Round-trip through the VHDL exporter so the bundled
                    // benchmarks exercise the same importer a real design
                    // file would.
                    let bm = find_benchmark(name)?;
                    let nl = Synthesizer::for_benchmark(&bm)
                        .synthesize(DesignStyle::ConventionalNonGated)
                        .map_err(|e| e.to_string())?
                        .datapath
                        .netlist;
                    multiclock::retrofit::retrofit_source(&export::to_vhdl(&nl), clocks)
                }
                (None, Some(path)) => {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read `{path}`: {e}"))?;
                    multiclock::retrofit::retrofit_source(&text, clocks)
                }
                (Some(_), Some(_)) => {
                    return Err("pass either --benchmark or --file, not both".into())
                }
                (None, None) => return Err("missing --benchmark NAME or --file PATH".into()),
            }
            .map_err(|e| e.to_string())?;
            let opts = multiclock::retrofit::RetrofitOptions {
                computations,
                seeds: multiclock::power::derive_seeds(seed, nseeds),
                parallel,
                backend: args.parse_backend()?,
                ..Default::default()
            };
            let report =
                multiclock::retrofit::verify_retrofit(&r, &opts).map_err(|e| e.to_string())?;
            if let Some(format) = args.get("export") {
                let text = match format {
                    "vhdl" => export::to_vhdl(&r.converted),
                    "mcnl" => export::to_mcnl(&r.converted),
                    other => return Err(format!("unknown export format `{other}`").into()),
                };
                emit(args, &text)?;
                eprintln!(
                    "retrofit verified — `{}` → {clocks} phases, {:.1} % power reduction",
                    r.original.name(),
                    report.power_reduction_pct
                );
                return Ok(());
            }
            let mut text = String::new();
            let _ = writeln!(
                text,
                "retrofit of `{}`: 1 clock → {clocks} non-overlapping phases",
                r.original.name()
            );
            let regs: Vec<String> = report
                .phase_histogram
                .iter()
                .enumerate()
                .map(|(i, c)| format!("CLK{} ×{c}", i + 1))
                .collect();
            let _ = writeln!(
                text,
                "  registers per phase: {}  ({} shadow latch{} added)",
                regs.join(", "),
                report.shadows,
                if report.shadows == 1 { "" } else { "es" }
            );
            let _ = writeln!(
                text,
                "  latency: {}× control steps per computation (each phase runs at f/{clocks})",
                report.latency_factor
            );
            let _ = writeln!(
                text,
                "  power: {:.3} mW → {:.3} mW  ({:.1} % reduction)",
                report.original.power.total_mw,
                report.converted.power.total_mw,
                report.power_reduction_pct
            );
            let _ = writeln!(
                text,
                "  equivalence: bit-identical outputs over {} seed{} × {} computations",
                report.seeds,
                if report.seeds == 1 { "" } else { "s" },
                report.computations
            );
            emit(args, text.trim_end())
        }
        "profile" => {
            let bm = load_behavior(args)?;
            let style = style_from(args)?;
            let synth = Synthesizer::for_benchmark(&bm).with_seed(seed);
            let design = synth.synthesize(style).map_err(|e| e.to_string())?;
            let cfg = SimConfig::new(design.mode, computations, seed).with_profile();
            let res = simulate(&design.datapath.netlist, &cfg);
            let prof = power_profile(&design.datapath.netlist, &res.activity, synth.tech())
                .map_err(|e| e.to_string())?;
            println!(
                "power profile of `{}` (avg {:.2} mW, peak {:.2} mW):",
                design.datapath.netlist.name(),
                prof.average_mw(),
                prof.peak_mw()
            );
            print!("{}", prof.render_folded());
            Ok(())
        }
        "top" => {
            let bm = load_behavior(args)?;
            let style = style_from(args)?;
            let count: usize = args.parse_num_at_least("count", 10, 1)?;
            let synth = Synthesizer::for_benchmark(&bm).with_seed(seed);
            let design = synth.synthesize(style).map_err(|e| e.to_string())?;
            let cfg = SimConfig::new(design.mode, computations, seed);
            let res = simulate(&design.datapath.netlist, &cfg);
            let ranked = per_component_power(&design.datapath.netlist, &res.activity, synth.tech());
            println!(
                "top {count} power consumers of `{}`:",
                design.datapath.netlist.name()
            );
            for cp in ranked.into_iter().take(count) {
                println!("  {:<28} {:>8.3} mW", cp.label, cp.mw);
            }
            Ok(())
        }
        "signoff" => {
            let bm = load_behavior(args)?;
            let style = style_from(args)?;
            let synth = Synthesizer::for_benchmark(&bm)
                .with_computations(computations)
                .with_seed(seed);
            let design = synth
                .synthesize_verified(style)
                .map_err(|e| e.to_string())?;
            let nl = &design.datapath.netlist;
            println!("signoff report for `{}`", nl.name());

            println!("\n[1/4] functional equivalence: PASS ({computations} random vectors)");

            let warnings = multiclock::rtl::lint::warnings(nl);
            println!("\n[2/4] lint: {} warning(s)", warnings.len());
            for w in &warnings {
                println!("      {w}");
            }

            let hazards = multiclock::rtl::discipline::check_latch_discipline(nl, false);
            println!(
                "\n[3/4] latch discipline (non-overlapping READ/WRITE): {}",
                if hazards.is_empty() { "PASS" } else { "FAIL" }
            );
            for h in &hazards {
                println!("      {h}");
            }

            let timing = multiclock::power::timing::analyze_timing(nl, synth.tech());
            println!(
                "\n[4/4] timing: critical path {:.2} ns, fmax {:.0} MHz, target {:.0} MHz — {}",
                timing.critical_path_ns,
                timing.fmax_mhz,
                synth.tech().clock_mhz(),
                if timing.meets_target {
                    "MET"
                } else {
                    "VIOLATED"
                }
            );

            // Per-DPM power split.
            let cfg = SimConfig::new(design.mode, computations, seed);
            let res = simulate(nl, &cfg);
            println!("\nper-partition power (attributable):");
            for (phase, mw) in multiclock::power::per_dpm_power(nl, &res.activity, synth.tech()) {
                println!("  DPM({phase}): {mw:.3} mW");
            }
            if !warnings.is_empty() || !hazards.is_empty() || !timing.meets_target {
                return Err("signoff found issues (see above)".into());
            }
            println!("\nsignoff CLEAN");
            Ok(())
        }
        "stats" => {
            let bm = load_behavior(args)?;
            let style = style_from(args)?;
            let seeds: usize = args.parse_num_at_least("seeds", 5, 1)?;
            let stats = multiclock::experiment::power_stats(&bm, style, computations, seeds)
                .map_err(|e| e.to_string())?;
            println!(
                "{} over {} seeds × {computations} computations:",
                style.label(),
                stats.seeds
            );
            println!(
                "  power {:.3} ± {:.3} mW  (min {:.3}, max {:.3})",
                stats.mean_mw, stats.std_mw, stats.min_mw, stats.max_mw
            );
            Ok(())
        }
        "serve" => {
            use std::io::Write as _;
            let defaults = multiclock::serve::ServeConfig::default();
            let config = multiclock::serve::ServeConfig {
                addr: args.get("addr").map_or(defaults.addr, str::to_owned),
                cache_dir: args.get("cache-dir").map_or(defaults.cache_dir, Into::into),
                threads: args.parse_num_at_least("threads", defaults.threads, 1)?,
            };
            let server = multiclock::serve::Server::bind(&config).map_err(|e| e.to_string())?;
            let addr = server.local_addr().map_err(|e| e.to_string())?;
            println!(
                "mcpm serve listening on http://{addr} (cache: {}, {} worker{})",
                config.cache_dir.display(),
                config.threads,
                if config.threads == 1 { "" } else { "s" }
            );
            // Piped stdout is block-buffered; scripts parse the line
            // above to learn an ephemeral port, so push it out before
            // blocking in accept.
            let _ = std::io::stdout().flush();
            server.run().map_err(|e| e.to_string())?;
            // The supervisor may have closed our stdout by now (it only
            // needed the banner); a farewell line is not worth a panic.
            let _ = writeln!(
                std::io::stdout(),
                "mcpm serve: drained in-flight work, stopped"
            );
            Ok(())
        }
        "request" => {
            let defaults = multiclock::serve::ServeConfig::default();
            let addr = args.get("addr").unwrap_or(&defaults.addr);
            let path = args
                .get("path")
                .ok_or("missing --path (e.g. --path /healthz)")?;
            let (method, body) = if args.parse_bool("get", false)? {
                ("GET", "")
            } else {
                ("POST", args.get("body").unwrap_or(""))
            };
            let (status, body) = multiclock::serve::http::http_request(addr, method, path, body)
                .map_err(|e| format!("request to `{addr}` failed: {e}"))?;
            if status >= 400 {
                return Err(format!("server answered HTTP {status}: {}", body.trim_end()).into());
            }
            match args.get("out") {
                // Verbatim: the body already carries the CLI's trailing
                // newline, keeping `--out` files diffable against
                // redirected one-shot `--json` output.
                Some(out) => {
                    std::fs::write(out, &body).map_err(|e| format!("cannot write `{out}`: {e}"))?
                }
                None => print!("{body}"),
            }
            Ok(())
        }
        "trace-summary" => {
            let path = args
                .positional
                .first()
                .ok_or("usage: mcpm trace-summary FILE [--counters]")?;
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            let summary = TraceSummary::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
            if args.parse_bool("counters", false)? {
                print!("{}", summary.deterministic_json());
            } else {
                print!("{}", summary.render());
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        // `Args::parse` rejects unknown commands before dispatch.
        other => Err(CliError::UnknownCommand(other.to_owned())),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
