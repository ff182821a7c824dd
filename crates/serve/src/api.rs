//! Typed requests for the four service endpoints, shared by the `mcpm`
//! CLI and the HTTP server.
//!
//! The byte-identity contract — a server response must equal the one-shot
//! CLI `--json` output — is guaranteed *by construction*: the CLI `--json`
//! paths and the server handlers both call [`ApiRequest::run_json`], so
//! there is exactly one place that renders each document.
//!
//! Cache keys are content-addressed: [`ApiRequest::cache_key`] hashes a
//! canonical rendering of the request *plus the design content* (DSL +
//! schedule for bundled benchmarks, raw text for user sources) with the
//! stable FNV-1a hash from [`mc_core::cache`]. Knobs that provably never
//! change the response bytes — `parallel`, `threads`, `batch`, `backend`
//! (the workspace's bit-identity invariants) — are deliberately excluded,
//! so e.g. a bitsliced-backend request warms the cache for a batched one.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use mc_bench::harness::{json_array, JsonObj};
use mc_core::cache::fnv1a;
use mc_core::dfg::benchmarks::{self, Benchmark};
use mc_core::rtl::export;
use mc_core::sim::BatchBackend;
use mc_core::{experiment, retrofit, DesignStyle, Flow, Synthesizer};
use mc_explore::{ExploreSpace, Explorer, GatingVariant, RewriteChoice, NOMINAL_VOLTS};
use mc_trace::json::Value;

/// The behaviour a request evaluates: a bundled benchmark by name, or an
/// inline source text (behavioural DSL for eval/sweep/explore, VHDL or
/// mcnl for retrofit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignRef {
    /// One of the bundled paper benchmarks, by name.
    Benchmark(String),
    /// An inline design source shipped with the request.
    Source {
        /// Design name (what `--file`'s stem provides on the CLI).
        name: String,
        /// The source text.
        text: String,
    },
}

impl DesignRef {
    /// Loads the behaviour, mirroring the CLI's `--benchmark`/`--file`
    /// semantics (file sources parse as the behavioural DSL and schedule
    /// ASAP).
    ///
    /// # Errors
    ///
    /// Unknown benchmark names and parse failures, as messages.
    pub fn load(&self) -> Result<Benchmark, String> {
        match self {
            DesignRef::Benchmark(name) => find_benchmark(name),
            DesignRef::Source { name, text } => {
                let dfg = mc_core::dfg::parse::parse_dfg(name, text)
                    .map_err(|e| format!("{name}: {e}"))?;
                let schedule = mc_core::dfg::scheduler::asap(&dfg);
                Ok(Benchmark {
                    dfg,
                    schedule,
                    description: "user behaviour from file",
                })
            }
        }
    }

    /// The canonical design content the cache key hashes: DSL + schedule
    /// for benchmarks (so a changed benchmark definition changes the
    /// key), the raw text for sources.
    ///
    /// # Errors
    ///
    /// Fails for unknown benchmark names.
    pub fn content(&self) -> Result<String, String> {
        match self {
            DesignRef::Benchmark(name) => Ok(behavior_content(&find_benchmark(name)?)),
            DesignRef::Source { name, text } => Ok(format!("source {name}\n{text}")),
        }
    }
}

fn find_benchmark(name: &str) -> Result<Benchmark, String> {
    // The typed resolver distinguishes unknown names from malformed or
    // out-of-range `random:<nodes>:<seed>` specs; surface its message.
    benchmarks::parse_name(name).map_err(|e| e.to_string())
}

fn behavior_content(bm: &Benchmark) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "name {}", bm.dfg.name());
    s.push_str(&mc_core::dfg::parse::to_dsl(&bm.dfg));
    let _ = writeln!(s, "schedule length={}", bm.schedule.length());
    for t in 1..=bm.schedule.length() {
        let _ = writeln!(s, "step {t}: {:?}", bm.schedule.nodes_at_step(t));
    }
    s
}

/// `POST /eval` — the paper's five-style table.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRequest {
    /// What to evaluate.
    pub design: DesignRef,
    /// Random computations per simulation (default 400).
    pub computations: usize,
    /// Stimulus seed (default 42).
    pub seed: u64,
}

/// `POST /sweep` — the clock-count ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// What to evaluate.
    pub design: DesignRef,
    /// Sweep 1..=`max_clocks` (default 6).
    pub max_clocks: u32,
    /// Random computations per simulation (default 400).
    pub computations: usize,
    /// Stimulus seed (default 42).
    pub seed: u64,
}

/// `POST /explore` — Pareto design-space exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreRequest {
    /// What to explore.
    pub design: DesignRef,
    /// Largest clock count in the lattice (default 4).
    pub max_clocks: u32,
    /// Supply voltages in the lattice (default `[4.65, 3.3]`).
    pub voltages: Vec<f64>,
    /// Schedule stretch factors in the lattice (default `[2]`).
    pub stretches: Vec<u32>,
    /// Data-dependent gating variants: the first `gating` entries of
    /// [`mc_explore::GatingVariant::ALL`] (default 1 = baseline only).
    pub gating: u32,
    /// Equivalence-checked datapath rewrites: the first `rewrites`
    /// entries of [`mc_explore::RewriteChoice::ALL`] (default 1 =
    /// baseline only).
    pub rewrites: u32,
    /// Stimulus-distribution scenarios per configuration (default 1).
    pub scenarios: u32,
    /// Evaluation budget (points), unlimited when `None`.
    pub budget: Option<usize>,
    /// Monte-Carlo stimulus seeds per point (default 1).
    pub power_seeds: usize,
    /// Batched-kernel lanes (default 16; never changes results).
    pub batch: usize,
    /// Random computations per simulation (default 400).
    pub computations: usize,
    /// Stimulus seed (default 42).
    pub seed: u64,
    /// Evaluate points on the worker pool (default true; results are
    /// bit-identical either way).
    pub parallel: bool,
    /// Worker-pool width override (`None` → auto).
    pub threads: Option<usize>,
    /// Multi-seed simulation kernel (never changes results).
    pub backend: BatchBackend,
}

/// `POST /retrofit` — single-clock → multi-phase latch conversion.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrofitRequest {
    /// The design to convert; sources may be exported VHDL or mcnl.
    pub design: DesignRef,
    /// Number of non-overlapping phases (default 3, minimum 2).
    pub clocks: u32,
    /// Equivalence-check seeds (default 5).
    pub seeds: usize,
    /// Random computations per equivalence seed (default 400).
    pub computations: usize,
    /// Base stimulus seed (default 42).
    pub seed: u64,
    /// Accepted for compatibility; verification ignores it
    /// (bit-identical either way).
    pub parallel: bool,
    /// Multi-seed simulation kernel (never changes results).
    pub backend: BatchBackend,
}

/// A parsed request for any of the four compute endpoints.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiRequest {
    /// `POST /eval`
    Eval(EvalRequest),
    /// `POST /sweep`
    Sweep(SweepRequest),
    /// `POST /explore`
    Explore(ExploreRequest),
    /// `POST /retrofit`
    Retrofit(RetrofitRequest),
}

impl ApiRequest {
    /// The endpoint name (`eval`/`sweep`/`explore`/`retrofit`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ApiRequest::Eval(_) => "eval",
            ApiRequest::Sweep(_) => "sweep",
            ApiRequest::Explore(_) => "explore",
            ApiRequest::Retrofit(_) => "retrofit",
        }
    }

    /// The canonical string the cache key hashes. Every field that can
    /// change the response bytes appears here; fields that provably
    /// cannot (`parallel`, `threads`, `batch`, `backend`) do not.
    ///
    /// # Errors
    ///
    /// Fails for unknown benchmark names.
    pub fn canonical(&self) -> Result<String, String> {
        let mut s = format!("mcpm-serve request v3\nkind={}\n", self.kind());
        match self {
            ApiRequest::Eval(r) => {
                let _ = writeln!(s, "computations={}", r.computations);
                let _ = writeln!(s, "seed={}", r.seed);
                let _ = writeln!(s, "design:\n{}", r.design.content()?);
            }
            ApiRequest::Sweep(r) => {
                let _ = writeln!(s, "max_clocks={}", r.max_clocks);
                let _ = writeln!(s, "computations={}", r.computations);
                let _ = writeln!(s, "seed={}", r.seed);
                let _ = writeln!(s, "design:\n{}", r.design.content()?);
            }
            ApiRequest::Explore(r) => {
                let _ = writeln!(s, "max_clocks={}", r.max_clocks);
                let volts: Vec<String> = r.voltages.iter().map(f64::to_string).collect();
                let _ = writeln!(s, "voltages={}", volts.join(","));
                let stretches: Vec<String> = r.stretches.iter().map(u32::to_string).collect();
                let _ = writeln!(s, "stretches={}", stretches.join(","));
                let _ = writeln!(s, "gating={}", r.gating);
                let _ = writeln!(s, "rewrites={}", r.rewrites);
                let _ = writeln!(s, "scenarios={}", r.scenarios);
                match r.budget {
                    Some(b) => {
                        let _ = writeln!(s, "budget={b}");
                    }
                    None => {
                        let _ = writeln!(s, "budget=none");
                    }
                }
                let _ = writeln!(s, "power_seeds={}", r.power_seeds);
                let _ = writeln!(s, "computations={}", r.computations);
                let _ = writeln!(s, "seed={}", r.seed);
                let _ = writeln!(s, "design:\n{}", r.design.content()?);
            }
            ApiRequest::Retrofit(r) => {
                let _ = writeln!(s, "clocks={}", r.clocks);
                let _ = writeln!(s, "seeds={}", r.seeds);
                let _ = writeln!(s, "computations={}", r.computations);
                let _ = writeln!(s, "seed={}", r.seed);
                let _ = writeln!(s, "design:\n{}", r.design.content()?);
            }
        }
        Ok(s)
    }

    /// The content-addressed cache key: FNV-1a of [`Self::canonical`].
    ///
    /// # Errors
    ///
    /// Fails for unknown benchmark names.
    pub fn cache_key(&self) -> Result<u64, String> {
        Ok(fnv1a(self.canonical()?.as_bytes()))
    }

    /// Runs the request and renders the JSON document — the single code
    /// path behind both the CLI `--json` output and the server responses.
    /// The document has no trailing newline (the CLI's stdout `println!`
    /// and the server's `+ "\n"` add the same one).
    ///
    /// # Errors
    ///
    /// Synthesis/verification failures, as messages.
    pub fn run_json(&self, flows: &FlowPool) -> Result<String, String> {
        match self {
            ApiRequest::Eval(r) => {
                let bm = r.design.load()?;
                let flow = flows.flow_for(&bm, r.computations, r.seed);
                let table = experiment::paper_table_parallel_in(&flow, bm.name())
                    .map_err(|e| e.to_string())?;
                Ok(table_json(&table, r.seed, r.computations))
            }
            ApiRequest::Sweep(r) => {
                let bm = r.design.load()?;
                let flow = flows.flow_for(&bm, r.computations, r.seed);
                let sweep = experiment::clock_sweep_parallel_in(&flow, r.max_clocks)
                    .map_err(|e| e.to_string())?;
                let rows = json_array(sweep.iter().map(|(n, rep)| {
                    JsonObj::new()
                        .num("clocks", n)
                        .num("power_mw", rep.power.total_mw)
                        .num("area_lambda2", rep.area.total_lambda2)
                        .num("mem_cells", rep.stats.mem_cells)
                        .num("mux_inputs", rep.stats.mux_inputs)
                        .finish()
                }));
                Ok(JsonObj::new()
                    .str("benchmark", bm.name())
                    .num("seed", r.seed)
                    .num("computations", r.computations)
                    .raw("rows", &rows)
                    .finish())
            }
            ApiRequest::Explore(r) => {
                let bm = r.design.load()?;
                let mut explorer = Explorer::new()
                    .with_space(ExploreSpace {
                        n_max: r.max_clocks,
                        voltages: r.voltages.clone(),
                        stretches: r.stretches.clone(),
                        gating: GatingVariant::first_n(r.gating as usize),
                        rewrites: RewriteChoice::first_n(r.rewrites as usize),
                        scenarios: r.scenarios,
                    })
                    .with_computations(r.computations)
                    .with_seed(r.seed)
                    .with_power_seeds(r.power_seeds)
                    .with_batch(r.batch)
                    .with_batch_backend(r.backend)
                    .with_parallel(r.parallel);
                if let Some(budget) = r.budget {
                    explorer = explorer.with_budget(budget);
                }
                if let Some(threads) = r.threads {
                    explorer = explorer.with_threads(threads);
                }
                let report = explorer.run(&bm).map_err(|e| e.to_string())?;
                Ok(report.to_json())
            }
            ApiRequest::Retrofit(r) => {
                let converted = match &r.design {
                    DesignRef::Benchmark(name) => {
                        // Round-trip through the VHDL exporter so bundled
                        // benchmarks exercise the same importer a real
                        // design file would (mirrors the CLI).
                        let bm = find_benchmark(name)?;
                        let nl = Synthesizer::for_benchmark(&bm)
                            .synthesize(DesignStyle::ConventionalNonGated)
                            .map_err(|e| e.to_string())?
                            .datapath
                            .netlist;
                        retrofit::retrofit_source(&export::to_vhdl(&nl), r.clocks)
                    }
                    DesignRef::Source { text, .. } => retrofit::retrofit_source(text, r.clocks),
                }
                .map_err(|e| e.to_string())?;
                let opts = retrofit::RetrofitOptions {
                    computations: r.computations,
                    seeds: mc_core::power::derive_seeds(r.seed, r.seeds),
                    parallel: r.parallel,
                    backend: r.backend,
                    ..Default::default()
                };
                let report =
                    retrofit::verify_retrofit(&converted, &opts).map_err(|e| e.to_string())?;
                let hist = json_array(report.phase_histogram.iter().map(|c| c.to_string()));
                Ok(JsonObj::new()
                    .str("design", converted.original.name())
                    .num("clocks", r.clocks)
                    .num("seeds", report.seeds)
                    .num("computations", report.computations)
                    .num("original_power_mw", report.original.power.total_mw)
                    .num("converted_power_mw", report.converted.power.total_mw)
                    .num("power_reduction_pct", report.power_reduction_pct)
                    .num("latency_factor", report.latency_factor)
                    .num("shadows", report.shadows)
                    .raw("registers_per_phase", &hist)
                    .finish())
            }
        }
    }
}

/// Serialises an experiment table with the workspace JSON conventions
/// (`f64` via `Display`: shortest round-trip, deterministic). This is the
/// `mcpm eval --json` document.
#[must_use]
pub fn table_json(table: &experiment::Table, seed: u64, computations: usize) -> String {
    let rows = json_array(table.rows.iter().map(|row| {
        JsonObj::new()
            .str("style", &row.label)
            .num("power_mw", row.report.power.total_mw)
            .num("area_lambda2", row.report.area.total_lambda2)
            .str("alus", &row.report.stats.alu_summary())
            .num("mem_cells", row.report.stats.mem_cells)
            .num("mux_inputs", row.report.stats.mux_inputs)
            .finish()
    }));
    let mut doc = JsonObj::new()
        .str("benchmark", &table.benchmark)
        .num("seed", seed)
        .num("computations", computations)
        .raw("rows", &rows);
    if let Some(red) = table.gated_to_best_multiclock_reduction() {
        doc = doc.num("gated_to_best_multiclock_reduction", red);
    }
    doc.finish()
}

/// Most flows a [`FlowPool`] holds: the bound the explorer applies to
/// its flow groups.
pub const MAX_POOLED_FLOWS: usize = 32;

/// A pool of [`Flow`]s keyed by content fingerprint + computations +
/// seed, so repeated requests against the same behaviour reuse a warm
/// in-memory artifact cache. Safe for byte-identity: cached artifacts are
/// content-keyed and bit-identical to recomputation (the workspace's
/// standing invariant, exercised by the tier-1 tests).
///
/// The pool holds at most [`MAX_POOLED_FLOWS`] flows and evicts the one
/// handed out least recently, so clients varying the seed cannot grow
/// server memory without limit. An evicted triple simply recomputes,
/// bit-identically.
#[derive(Debug, Default)]
pub struct FlowPool {
    state: Mutex<PoolState>,
}

/// The pooled flows, each with the tick it was last handed out at.
#[derive(Debug, Default)]
struct PoolState {
    flows: HashMap<u64, (Arc<Flow>, u64)>,
    tick: u64,
}

impl FlowPool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> FlowPool {
        FlowPool::default()
    }

    /// The flow for this (behaviour, computations, seed) triple, created
    /// on first use. Creating one beyond [`MAX_POOLED_FLOWS`] evicts the
    /// least recently handed-out flow.
    #[must_use]
    pub fn flow_for(&self, bm: &Benchmark, computations: usize, seed: u64) -> Arc<Flow> {
        let candidate = Flow::for_benchmark(bm)
            .with_computations(computations)
            .with_seed(seed);
        let key =
            fnv1a(format!("{:016x}/{computations}/{seed}", candidate.fingerprint()).as_bytes());
        let mut state = self.state.lock().expect("flow pool lock");
        state.tick += 1;
        let tick = state.tick;
        let entry = state
            .flows
            .entry(key)
            .or_insert_with(|| (Arc::new(candidate), tick));
        entry.1 = tick;
        let flow = Arc::clone(&entry.0);
        let evicted = if state.flows.len() > MAX_POOLED_FLOWS {
            let oldest = state
                .flows
                .iter()
                .min_by_key(|(_, (_, handed_out))| *handed_out)
                .map(|(&k, _)| k)
                .expect("an over-full pool is non-empty");
            state.flows.remove(&oldest)
        } else {
            None
        };
        // A flow's artifact cache can be large: free it outside the lock.
        drop(state);
        drop(evicted);
        flow
    }

    /// Number of distinct flows held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().expect("flow pool lock").flows.len()
    }

    /// Whether the pool holds no flows yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Parses a request body for endpoint `kind`, with CLI-equivalent
/// defaults, bound checks, and hard rejection of unknown fields (a typo
/// must never silently run with defaults — same rule as the CLI's
/// unknown-flag errors).
///
/// # Errors
///
/// A message describing the first problem found.
pub fn parse_request(kind: &str, body: &str) -> Result<ApiRequest, String> {
    let allowed: &[&str] = match kind {
        "eval" => &["benchmark", "source", "computations", "seed"],
        "sweep" => &["benchmark", "source", "computations", "seed", "max_clocks"],
        "explore" => &[
            "benchmark",
            "source",
            "computations",
            "seed",
            "max_clocks",
            "voltages",
            "stretch",
            "gating",
            "rewrites",
            "scenarios",
            "budget",
            "seeds",
            "batch",
            "backend",
            "threads",
            "parallel",
        ],
        "retrofit" => &[
            "benchmark",
            "source",
            "computations",
            "seed",
            "clocks",
            "seeds",
            "parallel",
            "backend",
        ],
        other => return Err(format!("unknown endpoint kind `{other}`")),
    };
    let body = if body.trim().is_empty() { "{}" } else { body };
    let doc = mc_trace::json::parse(body).map_err(|e| e.to_string())?;
    let members = doc
        .as_object()
        .ok_or("request body must be a JSON object")?;
    for (key, _) in members {
        if !allowed.contains(&key.as_str()) {
            let list: Vec<String> = allowed.iter().map(|f| format!("\"{f}\"")).collect();
            return Err(format!(
                "unknown field \"{key}\" for /{kind}; valid fields: {}",
                list.join(", ")
            ));
        }
    }
    let design = design_field(&doc)?;
    let computations = int_field(&doc, "computations", 400, 1)? as usize;
    let seed = int_field(&doc, "seed", 42, 0)?;
    Ok(match kind {
        "eval" => ApiRequest::Eval(EvalRequest {
            design,
            computations,
            seed,
        }),
        "sweep" => ApiRequest::Sweep(SweepRequest {
            design,
            max_clocks: u32::try_from(int_field(&doc, "max_clocks", 6, 1)?)
                .map_err(|_| "`max_clocks` out of range".to_owned())?,
            computations,
            seed,
        }),
        "explore" => ApiRequest::Explore(ExploreRequest {
            design,
            max_clocks: u32::try_from(int_field(&doc, "max_clocks", 4, 1)?)
                .map_err(|_| "`max_clocks` out of range".to_owned())?,
            voltages: f64_list_field(&doc, "voltages", &[NOMINAL_VOLTS, 3.3])?,
            stretches: u32_list_field(&doc, "stretch", &[2])?,
            gating: {
                let g = int_field(&doc, "gating", 1, 1)?;
                if g > GatingVariant::ALL.len() as u64 {
                    return Err(format!(
                        "`gating` out of range (1..={})",
                        GatingVariant::ALL.len()
                    ));
                }
                g as u32
            },
            rewrites: {
                let r = int_field(&doc, "rewrites", 1, 1)?;
                if r > RewriteChoice::ALL.len() as u64 {
                    return Err(format!(
                        "`rewrites` out of range (1..={})",
                        RewriteChoice::ALL.len()
                    ));
                }
                r as u32
            },
            scenarios: u32::try_from(int_field(&doc, "scenarios", 1, 1)?)
                .map_err(|_| "`scenarios` out of range".to_owned())?,
            budget: opt_int_field(&doc, "budget", 1)?.map(|b| b as usize),
            power_seeds: int_field(&doc, "seeds", 1, 1)? as usize,
            batch: int_field(&doc, "batch", Flow::DEFAULT_BATCH as u64, 1)? as usize,
            computations,
            seed,
            parallel: bool_field(&doc, "parallel", true)?,
            threads: opt_int_field(&doc, "threads", 1)?.map(|t| t as usize),
            backend: backend_field(&doc)?,
        }),
        "retrofit" => ApiRequest::Retrofit(RetrofitRequest {
            design,
            clocks: u32::try_from(int_field(&doc, "clocks", 3, 2)?)
                .map_err(|_| "`clocks` out of range".to_owned())?,
            seeds: int_field(&doc, "seeds", 5, 1)? as usize,
            computations,
            seed,
            parallel: bool_field(&doc, "parallel", true)?,
            backend: backend_field(&doc)?,
        }),
        _ => unreachable!("kind validated above"),
    })
}

fn design_field(doc: &Value) -> Result<DesignRef, String> {
    match (doc.get("benchmark"), doc.get("source")) {
        (Some(b), None) => Ok(DesignRef::Benchmark(
            b.as_str().ok_or("`benchmark` must be a string")?.to_owned(),
        )),
        (None, Some(s)) => {
            let name = s
                .get("name")
                .and_then(Value::as_str)
                .ok_or("`source.name` must be a string")?;
            let text = s
                .get("text")
                .and_then(Value::as_str)
                .ok_or("`source.text` must be a string")?;
            Ok(DesignRef::Source {
                name: name.to_owned(),
                text: text.to_owned(),
            })
        }
        (Some(_), Some(_)) => Err("pass either \"benchmark\" or \"source\", not both".to_owned()),
        (None, None) => Err(
            "missing design: pass \"benchmark\": NAME or \"source\": {\"name\", \"text\"}"
                .to_owned(),
        ),
    }
}

/// Integer field with a default and a lower bound. JSON numbers are f64,
/// so integers are exact up to 2^53 — far beyond any knob here.
fn int_field(doc: &Value, key: &str, default: u64, min: u64) -> Result<u64, String> {
    match opt_int_field(doc, key, min)? {
        Some(v) => Ok(v),
        None => Ok(default),
    }
}

fn opt_int_field(doc: &Value, key: &str, min: u64) -> Result<Option<u64>, String> {
    let Some(v) = doc.get(key) else {
        return Ok(None);
    };
    let n = v
        .as_f64()
        .ok_or_else(|| format!("`{key}` must be a number"))?;
    if n.fract() != 0.0 || n < 0.0 || n > 2f64.powi(53) {
        return Err(format!("`{key}` must be a non-negative integer"));
    }
    let n = n as u64;
    if n < min {
        return Err(format!("`{key}` must be at least {min}"));
    }
    Ok(Some(n))
}

fn bool_field(doc: &Value, key: &str, default: bool) -> Result<bool, String> {
    match doc.get(key) {
        None => Ok(default),
        Some(Value::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("`{key}` must be true or false")),
    }
}

fn f64_list_field(doc: &Value, key: &str, default: &[f64]) -> Result<Vec<f64>, String> {
    let Some(v) = doc.get(key) else {
        return Ok(default.to_vec());
    };
    let items = v
        .as_array()
        .ok_or_else(|| format!("`{key}` must be an array of numbers"))?;
    items
        .iter()
        .map(|item| {
            item.as_f64()
                .ok_or_else(|| format!("`{key}` must contain only numbers"))
        })
        .collect()
}

fn u32_list_field(doc: &Value, key: &str, default: &[u32]) -> Result<Vec<u32>, String> {
    let values = f64_list_field(
        doc,
        key,
        &default.iter().map(|&v| f64::from(v)).collect::<Vec<_>>(),
    )?;
    values
        .into_iter()
        .map(|v| {
            if v.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(&v) {
                Ok(v as u32)
            } else {
                Err(format!("`{key}` must contain only non-negative integers"))
            }
        })
        .collect()
}

fn backend_field(doc: &Value) -> Result<BatchBackend, String> {
    match doc.get("backend") {
        None => Ok(BatchBackend::default()),
        Some(v) => {
            let name = v.as_str().ok_or("`backend` must be a string")?;
            BatchBackend::from_name(name).ok_or_else(|| {
                format!("invalid backend `{name}`: expected `batched` or `bitsliced`")
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_fills_cli_defaults() {
        let req = parse_request("eval", r#"{"benchmark":"hal"}"#).unwrap();
        let ApiRequest::Eval(r) = &req else {
            panic!("wrong kind");
        };
        assert_eq!(r.computations, 400);
        assert_eq!(r.seed, 42);
        let req = parse_request("explore", r#"{"benchmark":"hal"}"#).unwrap();
        let ApiRequest::Explore(r) = &req else {
            panic!("wrong kind");
        };
        assert_eq!(r.max_clocks, 4);
        assert_eq!(r.voltages, vec![NOMINAL_VOLTS, 3.3]);
        assert_eq!(r.stretches, vec![2]);
        assert_eq!(r.gating, 1);
        assert_eq!(r.rewrites, 1);
        assert_eq!(r.scenarios, 1);
        assert_eq!(r.budget, None);
        assert_eq!(r.power_seeds, 1);
        assert_eq!(r.batch, Flow::DEFAULT_BATCH);
        assert!(r.parallel);
        let req = parse_request("retrofit", r#"{"benchmark":"facet","clocks":4}"#).unwrap();
        let ApiRequest::Retrofit(r) = &req else {
            panic!("wrong kind");
        };
        assert_eq!(r.clocks, 4);
        assert_eq!(r.seeds, 5);
    }

    #[test]
    fn parse_rejects_unknown_fields_and_bad_values() {
        assert!(parse_request("eval", r#"{"benchmark":"hal","clocks":3}"#)
            .unwrap_err()
            .contains("unknown field \"clocks\""));
        assert!(
            parse_request("eval", r#"{"benchmark":"hal","computations":0}"#)
                .unwrap_err()
                .contains("at least 1")
        );
        assert!(
            parse_request("retrofit", r#"{"benchmark":"hal","clocks":1}"#)
                .unwrap_err()
                .contains("at least 2")
        );
        assert!(parse_request("eval", r#"{"benchmark":"hal","seed":1.5}"#)
            .unwrap_err()
            .contains("integer"));
        assert!(parse_request("eval", "[1,2]")
            .unwrap_err()
            .contains("object"));
        assert!(parse_request("eval", "{nope").is_err());
        assert!(parse_request("eval", "{}")
            .unwrap_err()
            .contains("missing design"));
        assert!(
            parse_request("explore", r#"{"benchmark":"hal","backend":"quantum"}"#)
                .unwrap_err()
                .contains("invalid backend")
        );
        assert!(
            parse_request("explore", r#"{"benchmark":"hal","gating":6}"#)
                .unwrap_err()
                .contains("`gating` out of range")
        );
        assert!(
            parse_request("explore", r#"{"benchmark":"hal","rewrites":9}"#)
                .unwrap_err()
                .contains("`rewrites` out of range")
        );
        assert!(parse_request("eval", r#"{"benchmark":"random:9999:1"}"#)
            .unwrap()
            .cache_key()
            .unwrap_err()
            .contains("node count 9999"),);
        assert!(parse_request("eval", r#"{"benchmark":"random:abc"}"#)
            .unwrap()
            .cache_key()
            .unwrap_err()
            .contains("random benchmark spec"),);
    }

    #[test]
    fn cache_key_is_stable_and_content_sensitive() {
        let a = parse_request("eval", r#"{"benchmark":"hal","computations":50}"#).unwrap();
        let b = parse_request("eval", r#"{"computations":50,"benchmark":"hal"}"#).unwrap();
        assert_eq!(
            a.cache_key().unwrap(),
            b.cache_key().unwrap(),
            "field order must not matter"
        );
        let c = parse_request("eval", r#"{"benchmark":"hal","computations":51}"#).unwrap();
        assert_ne!(a.cache_key().unwrap(), c.cache_key().unwrap());
        let d = parse_request("eval", r#"{"benchmark":"facet","computations":50}"#).unwrap();
        assert_ne!(a.cache_key().unwrap(), d.cache_key().unwrap());
        let e = parse_request("sweep", r#"{"benchmark":"hal","computations":50}"#).unwrap();
        assert_ne!(
            a.cache_key().unwrap(),
            e.cache_key().unwrap(),
            "kind must partition the key space"
        );
    }

    #[test]
    fn result_irrelevant_knobs_stay_out_of_the_key() {
        let a = parse_request("explore", r#"{"benchmark":"hal"}"#).unwrap();
        let b = parse_request(
            "explore",
            r#"{"benchmark":"hal","backend":"bitsliced","parallel":false,"threads":2,"batch":4}"#,
        )
        .unwrap();
        assert_eq!(a.cache_key().unwrap(), b.cache_key().unwrap());
        // ...but result-relevant ones change it.
        let c = parse_request("explore", r#"{"benchmark":"hal","seeds":3}"#).unwrap();
        assert_ne!(a.cache_key().unwrap(), c.cache_key().unwrap());
        let d = parse_request("explore", r#"{"benchmark":"hal","scenarios":2}"#).unwrap();
        assert_ne!(a.cache_key().unwrap(), d.cache_key().unwrap());
        let e = parse_request("explore", r#"{"benchmark":"hal","gating":3}"#).unwrap();
        assert_ne!(a.cache_key().unwrap(), e.cache_key().unwrap());
        let f = parse_request("explore", r#"{"benchmark":"hal","rewrites":4}"#).unwrap();
        assert_ne!(a.cache_key().unwrap(), f.cache_key().unwrap());
    }

    #[test]
    fn unknown_benchmark_fails_key_and_run() {
        let req = parse_request("eval", r#"{"benchmark":"nonesuch"}"#).unwrap();
        let err = req.cache_key().unwrap_err();
        assert!(err.contains("unknown benchmark `nonesuch`"), "{err}");
        assert!(err.contains("available:"), "{err}");
    }

    #[test]
    fn flow_pool_reuses_by_content() {
        let pool = FlowPool::new();
        let bm = benchmarks::hal();
        let a = pool.flow_for(&bm, 50, 42);
        let b = pool.flow_for(&bm, 50, 42);
        assert!(Arc::ptr_eq(&a, &b), "same triple → same flow");
        let c = pool.flow_for(&bm, 50, 43);
        assert!(!Arc::ptr_eq(&a, &c), "seed is part of the identity");
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn flow_pool_is_bounded_and_evicted_flows_recompute_identically() {
        let pool = FlowPool::new();
        let bm = benchmarks::hal();
        let request = |seed: u64| {
            parse_request(
                "eval",
                &format!(r#"{{"benchmark":"hal","computations":8,"seed":{seed}}}"#),
            )
            .unwrap()
        };
        let first = request(0).run_json(&pool).unwrap();
        let oldest = pool.flow_for(&bm, 8, 0);
        let mut resident = None;
        for seed in 1..100 {
            resident = Some(pool.flow_for(&bm, 8, seed));
            assert!(
                pool.len() <= MAX_POOLED_FLOWS,
                "pool grew to {}",
                pool.len()
            );
        }
        let resident = resident.unwrap();
        assert!(Arc::ptr_eq(&resident, &pool.flow_for(&bm, 8, 99)));
        assert!(
            !Arc::ptr_eq(&oldest, &pool.flow_for(&bm, 8, 0)),
            "seed 0's flow was evicted"
        );
        assert_eq!(request(0).run_json(&pool).unwrap(), first);
    }

    #[test]
    fn eval_run_json_matches_the_experiment_path() {
        // The document must equal what the one-shot experiment + renderer
        // produce — the CLI calls this same code, closing the loop.
        let req = parse_request("eval", r#"{"benchmark":"facet","computations":40}"#).unwrap();
        let direct = experiment::paper_table_parallel(&benchmarks::facet(), 40, 42).unwrap();
        assert_eq!(
            req.run_json(&FlowPool::new()).unwrap(),
            table_json(&direct, 42, 40)
        );
    }

    #[test]
    fn source_designs_run_and_key_on_text() {
        let dsl = mc_core::dfg::parse::to_dsl(&benchmarks::hal().dfg);
        let body = format!(
            r#"{{"source":{{"name":"mine","text":{}}},"computations":30}}"#,
            mc_trace::json::escape_string(&dsl)
        );
        let req = parse_request("sweep", &body).unwrap();
        let json = req.run_json(&FlowPool::new()).unwrap();
        assert!(json.contains("\"benchmark\":\"mine\""), "{json}");
        // Different text → different key.
        let other = format!(
            r#"{{"source":{{"name":"mine","text":{}}},"computations":30}}"#,
            mc_trace::json::escape_string(&format!("{dsl}\n"))
        );
        assert_ne!(
            req.cache_key().unwrap(),
            parse_request("sweep", &other).unwrap().cache_key().unwrap()
        );
    }
}
