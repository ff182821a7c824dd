//! The traced run's per-layer probes. Each probe calls one layer's public
//! function directly and wraps the call in a span of the benchmark's own
//! ([`Spans`]); nothing inside the program is instrumented. Inputs are
//! the run's seeded set-up, so a probe measures the layer on the same
//! designs and seeds the workloads use.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use mc_alloc::{allocate, AllocOptions};
use mc_clocks::ClockScheme;
use mc_core::cache::{fnv1a, DiskCache};
use mc_core::{retrofit, DesignStyle, Flow};
use mc_dfg::benchmarks::{self, Benchmark};
use mc_explore::{ExploreSpace, PointRecord, StreamingFrontier};
use mc_power::{evaluate_design_monte_carlo, evaluate_design_with_activity};
use mc_rtl::PowerMode;
use mc_serve::api::{self, FlowPool};
use mc_serve::http::http_request;
use mc_sim::{BatchBackend, CompiledNetlist, SeedKernel, Stimulus};
use mc_tech::TechLibrary;

use crate::catalog::Checks;
use crate::fixture::{
    Design, Fixture, EXPLORE_BUDGET, EXPLORE_COMPUTATIONS, RETROFIT_CLOCKS, RETROFIT_COMPUTATIONS,
    TABLE_COMPUTATIONS,
};
use crate::paths::{eval_body, explore_pair, explorer, remove_dir, retrofit_options, Paths};
use crate::seed::derive;
use crate::stats::{median, tail, MIN_SAMPLES};
use crate::Workload;

/// Metric values by catalog name.
pub type Values = BTreeMap<&'static str, f64>;

/// Repetitions of the table- and retrofit-level probes.
const REPEATS: usize = 3;
/// Cache entries replayed into a fresh directory for the put/miss probes.
const REPLAY: usize = 2_000;
/// Requests of each serve probe, per design.
const SERVE_PROBES: u64 = 4;

/// The benchmark's own span recorder: durations per span name.
#[derive(Debug, Default)]
pub struct Spans(BTreeMap<&'static str, Vec<f64>>);

impl Spans {
    /// Runs `f` inside span `name`, recording its duration in µs.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.0
            .entry(name)
            .or_default()
            .push(t.elapsed().as_secs_f64() * 1e6);
        r
    }

    /// All durations (µs) recorded under `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median duration (µs) of `name`.
    #[must_use]
    pub fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }

    /// Total duration (µs) of `name`.
    #[must_use]
    pub fn total(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }
}

/// Runs every probe and fills the per-layer metrics (all but the
/// mc-trace counters and the tracing overhead, which the caller adds).
pub fn probe(fx: &Fixture, m: &mut Values, checks: &mut Checks) {
    let mut spans = Spans::default();
    dfg_and_flow(fx, &mut spans, m, checks);
    seed_population(fx, &mut spans, m, checks);
    explore_and_cache(fx, &mut spans, m, checks);
    serve(fx, &mut spans, m, checks);
}

/// `dfg`, `core.flow`, `alloc`, single-seed `sim` and `power`: the
/// paper_eval pipeline taken apart, layer by layer, for every design and
/// paper style.
fn dfg_and_flow(fx: &Fixture, spans: &mut Spans, m: &mut Values, checks: &mut Checks) {
    let tech = TechLibrary::vsc450();
    let flow = |d: &Design| {
        Flow::for_benchmark(&d.bm)
            .with_computations(TABLE_COMPUTATIONS)
            .with_seed(d.stim_seed)
    };
    let (mut hits, mut lookups, mut components, mut steps) = (0, 0, 0, 0);
    for repeat in 0..REPEATS {
        for d in &fx.designs {
            for _ in 0..8 {
                black_box(spans.time("dfg.load", || benchmarks::by_name(d.name)));
            }
            let table_flow = flow(d);
            let evaluated = table_flow.evaluate_styles(&DesignStyle::paper_rows());
            checks.record(evaluated.is_ok(), || format!("{}: flow failed", d.name));
            let stats = table_flow.cache_stats();
            hits += stats.hits;
            lookups += stats.hits + stats.misses;
            for (row, style) in d.table.rows.iter().zip(DesignStyle::paper_rows()) {
                let cold = flow(d);
                let e = spans.time("flow.evaluate", || cold.evaluate_instrumented(style));
                checks.record(
                    e.is_ok_and(|e| {
                        e.report.power.total_mw.to_bits() == row.report.power.total_mw.to_bits()
                    }),
                    || format!("{} {}: flow report differs from set-up", d.name, row.label),
                );
                let Some(dp) = allocate_style(&d.bm, style, &tech, spans) else {
                    checks.record(false, || format!("{} {}: allocation", d.name, row.label));
                    continue;
                };
                if repeat == 0 {
                    components += dp.netlist.num_components();
                }
                let mode = style.power_mode();
                let vectors =
                    Stimulus::UniformRandom.vectors(&dp.netlist, TABLE_COMPUTATIONS, d.stim_seed);
                let program = spans.time("sim.compile", || {
                    CompiledNetlist::compile(&dp.netlist, mode)
                });
                let Ok(result) = spans.time("sim.run", || program.simulate(&vectors, false, false))
                else {
                    checks.record(false, || format!("{} {}: simulation", d.name, row.label));
                    continue;
                };
                steps += result.activity.steps;
                let report = spans.time("power.eval", || {
                    evaluate_design_with_activity(&dp.netlist, mode, &tech, &result.activity)
                });
                checks.record(report.power.total_mw > 0.0, || {
                    format!("{} {}: no power", d.name, row.label)
                });
            }
        }
    }
    m.insert("dfg.load_us", spans.median("dfg.load"));
    m.insert("flow.evaluate_us", spans.median("flow.evaluate"));
    m.insert("flow.cache_hit_ratio", hits as f64 / lookups as f64);
    m.insert("alloc.allocate_us", spans.median("alloc.allocate"));
    m.insert("alloc.components", components as f64);
    m.insert("sim.compile_us", spans.median("sim.compile"));
    m.insert("sim.run_us", spans.median("sim.run"));
    m.insert(
        "sim.steps_per_s",
        steps as f64 / (spans.total("sim.run") * 1e-6),
    );
    m.insert("power.eval_us", spans.median("power.eval"));
}

/// Allocates one paper style exactly as the flow's allocate pass does.
fn allocate_style(
    bm: &Benchmark,
    style: DesignStyle,
    tech: &TechLibrary,
    spans: &mut Spans,
) -> Option<mc_alloc::Datapath> {
    let scheme = ClockScheme::new(style.clocks()).ok()?;
    let opts = AllocOptions::new(style.strategy(), scheme)
        .with_mem_kind(style.mem_kind())
        .with_transfers(style.transfers())
        .with_tech(tech.clone());
    spans
        .time("alloc.allocate", || allocate(&bm.dfg, &bm.schedule, &opts))
        .ok()
}

/// `rtl`, `core.retrofit`, the multi-seed `sim` kernels and Monte-Carlo
/// `power`: the retrofit_mc operation taken apart, on its 16-seed
/// population.
fn seed_population(fx: &Fixture, spans: &mut Spans, m: &mut Values, checks: &mut Checks) {
    let tech = TechLibrary::vsc450();
    let mode = PowerMode::multiclock();
    let mut kernel_steps = [0u64; 2];
    for _ in 0..REPEATS {
        for d in &fx.designs {
            let text = spans.time("rtl.to_vhdl", || mc_rtl::export::to_vhdl(&d.single_clock));
            let imported = spans.time("rtl.from_vhdl", || mc_rtl::import::from_vhdl(&text));
            checks.record(imported.is_ok(), || format!("{}: VHDL import", d.name));
            let r = match spans.time("retrofit.convert", || {
                retrofit::retrofit_source(&text, RETROFIT_CLOCKS)
            }) {
                Ok(r) => r,
                Err(e) => {
                    checks.record(false, || format!("{}: retrofit {e}", d.name));
                    continue;
                }
            };
            let report = spans.time("retrofit.verify", || {
                retrofit::verify_retrofit(&r, &retrofit_options(d))
            });
            checks.record(report.is_ok_and(|r| r.power_reduction_pct > 0.0), || {
                format!("{}: retrofit verification", d.name)
            });
            let seeds = &d.retrofit_seeds;
            let activities = spans.time("sim.seed_kernel", || {
                SeedKernel::compile(
                    &r.converted,
                    mode,
                    BatchBackend::default(),
                    Flow::DEFAULT_BATCH,
                )
                .run_seeds_activity(RETROFIT_COMPUTATIONS, seeds, false)
            });
            for (k, (backend, name)) in [
                (BatchBackend::Batched, "sim.seed.batched"),
                (BatchBackend::Bitsliced, "sim.seed.bitsliced"),
            ]
            .into_iter()
            .enumerate()
            {
                let acts = spans.time(name, || {
                    SeedKernel::compile(&r.converted, mode, backend, Flow::DEFAULT_BATCH)
                        .run_seeds_activity(RETROFIT_COMPUTATIONS, seeds, false)
                });
                checks.record(acts == activities, || {
                    format!("{}: {backend} activity differs from the default", d.name)
                });
                kernel_steps[k] += acts.iter().map(|a| a.steps).sum::<u64>();
            }
            spans.time("sim.stimulus", || {
                for &s in seeds {
                    black_box(Stimulus::UniformRandom.flat_vectors(
                        &r.converted,
                        RETROFIT_COMPUTATIONS,
                        s,
                    ));
                }
            });
            let priced = spans.time("power.mc_eval", || {
                evaluate_design_monte_carlo(&r.converted, mode, &tech, &activities)
            });
            checks.record(priced.power.total_mw > 0.0, || {
                format!("{}: no Monte-Carlo power", d.name)
            });
        }
    }
    m.insert("rtl.to_vhdl_us", spans.median("rtl.to_vhdl"));
    m.insert("rtl.from_vhdl_us", spans.median("rtl.from_vhdl"));
    m.insert("retrofit.convert_us", spans.median("retrofit.convert"));
    m.insert("retrofit.verify_us", spans.median("retrofit.verify"));
    m.insert("sim.seed_kernel_us", spans.median("sim.seed_kernel"));
    let per_s = |steps: u64, name| steps as f64 / (spans.total(name) * 1e-6);
    m.insert(
        "sim.seed_steps_per_s.batched",
        per_s(kernel_steps[0], "sim.seed.batched"),
    );
    m.insert(
        "sim.seed_steps_per_s.bitsliced",
        per_s(kernel_steps[1], "sim.seed.bitsliced"),
    );
    m.insert(
        "sim.stimulus_share",
        spans.total("sim.stimulus") / spans.total("sim.seed_kernel"),
    );
    m.insert("power.mc_eval_us", spans.median("power.mc_eval"));
}

/// The content fingerprint the explorer keys a benchmark's points with
/// (name, DSL, reference schedule), rebuilt from public parts.
fn content_fingerprint(bm: &Benchmark) -> u64 {
    let mut s = String::new();
    let _ = writeln!(s, "{}", bm.dfg.name());
    let _ = writeln!(s, "{}", mc_dfg::parse::to_dsl(&bm.dfg));
    for t in 1..=bm.schedule.length() {
        let _ = writeln!(s, "step{t}={:?}", bm.schedule.nodes_at_step(t));
    }
    fnv1a(s.as_bytes())
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(md) if md.is_dir() => dir_bytes(&e.path()),
            Ok(md) => md.len(),
            Err(_) => 0,
        })
        .sum()
}

/// `explore` and `core.cache`: the explore slice without a cache, then a
/// cold/warm pair whose cache is read back and replayed key by key.
fn explore_and_cache(fx: &Fixture, spans: &mut Spans, m: &mut Values, checks: &mut Checks) {
    let facet = &fx.designs[0].bm;
    let t = Instant::now();
    let nocache = explorer(fx).run(facet);
    m.insert("explore.nocache_cold_s", t.elapsed().as_secs_f64());
    let dir = fx.dir.join("probe-explore");
    let Some(pair) = explore_pair(fx, &dir, checks) else {
        return;
    };
    checks.record(
        nocache.is_ok_and(|r| r.to_json() == pair.cold.to_json()),
        || "explore: uncached report differs from cached".to_owned(),
    );
    m.insert("explore.cold_s", pair.cold_s);
    m.insert("explore.warm_s", median(&pair.warm_s));
    m.insert("explore.flow_evals", pair.cold.flow_evals as f64);
    m.insert("explore.dedup_served", pair.cold.dedup_served as f64);
    m.insert("explore.disk_hits", pair.warm.disk_hits as f64);
    m.insert("cache.bytes", dir_bytes(&dir) as f64);

    let gen = ExploreSpace::scale().generator();
    let content = content_fingerprint(facet);
    let canonical = |i: usize| {
        gen.point_at(i)
            .canonical(content, EXPLORE_COMPUTATIONS, fx.explore_seed, 1)
    };
    let n = EXPLORE_BUDGET.min(gen.len());
    let t = Instant::now();
    for i in 0..n {
        black_box(fnv1a(canonical(i).as_bytes()));
    }
    m.insert(
        "explore.point_key_ns",
        t.elapsed().as_secs_f64() * 1e9 / n as f64,
    );

    // Read the cold run's entries back in lattice order, as a warm run
    // does; rewrite points the explorer folded onto a twin have no entry
    // of their own and are skipped.
    let cache = DiskCache::open(&dir).expect("the pair's cache directory exists");
    let mut entries: Vec<(String, String)> = Vec::new();
    let mut objectives = Vec::new();
    for i in 0..n {
        let key = canonical(i);
        if let Some(body) = spans.time("cache.get_hit", || cache.get(&key)) {
            if let Some(record) = PointRecord::from_cache_body(&body) {
                objectives.push(record.objectives);
            }
            entries.push((key, body));
        }
    }
    checks.record(!objectives.is_empty(), || {
        "explore: no cache entry found under the rebuilt keys".to_owned()
    });
    let mut frontier = StreamingFrontier::new();
    let t = Instant::now();
    for (k, o) in objectives.iter().enumerate() {
        black_box(frontier.offer(*o, k));
    }
    m.insert(
        "explore.frontier_offer_ns",
        t.elapsed().as_secs_f64() * 1e9 / objectives.len().max(1) as f64,
    );

    // Replay distinct entries into a fresh directory: a miss, then a put.
    let replay_dir = fx.dir.join("probe-replay");
    remove_dir(&replay_dir);
    let fresh = DiskCache::open(&replay_dir).expect("replay directory opens");
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries.dedup_by(|a, b| a.0 == b.0);
    for (key, body) in entries.iter().take(REPLAY) {
        let missed = spans.time("cache.get_miss", || fresh.get(key)).is_none();
        let put = spans.time("cache.put", || fresh.put(key, body));
        checks.record(missed && put.is_ok(), || "cache replay".to_owned());
    }
    m.insert("cache.get_hit_us", spans.median("cache.get_hit"));
    m.insert("cache.get_miss_us", spans.median("cache.get_miss"));
    m.insert("cache.put_p50_us", spans.median("cache.put"));
    m.insert("cache.put_p90_us", tail(spans.get("cache.put")));
    m.insert(
        "cache.evictions",
        (cache.evictions() + fresh.evictions()) as f64,
    );
    remove_dir(&dir);
    remove_dir(&replay_dir);
}

/// `serve`: HTTP alone, request parsing, the flow behind `/eval`, and
/// what a cold `/eval` spends outside that flow.
fn serve(fx: &Fixture, spans: &mut Spans, m: &mut Values, checks: &mut Checks) {
    let addr = fx.server.addr;
    for _ in 0..200 {
        let ok = spans.time("serve.healthz", || {
            http_request(addr, "GET", "/healthz", "")
        });
        checks.record(matches!(ok, Ok((200, _))), || "healthz".to_owned());
    }
    let pool = FlowPool::new();
    for (i, d) in fx.designs.iter().enumerate() {
        for k in 0..SERVE_PROBES {
            // A fresh pair per probe, so every request is a cold one.
            let fresh = |tag| eval_body(d, derive(fx.seed, tag, i as u64 * 100 + k));
            let body = fresh("probe-json");
            let parsed = spans.time("serve.parse", || {
                api::parse_request("eval", &body).and_then(|r| r.canonical().map(|_| r))
            });
            let Ok(request) = parsed else {
                checks.record(false, || format!("{}: /eval body rejected", d.name));
                continue;
            };
            // The flow work of a cold request through a private pool,
            // without HTTP, cache or coalescing...
            let json = spans.time("serve.run_json", || request.run_json(&pool));
            checks.record(json.is_ok(), || format!("{}: run_json", d.name));
            // ...and a cold request of the same design over HTTP.
            let cold = fresh("probe-http");
            let reply = spans.time("serve.cold", || http_request(addr, "POST", "/eval", &cold));
            checks.record(matches!(reply, Ok((200, _))), || {
                format!("{}: cold /eval", d.name)
            });
        }
    }
    // The served tails: under the closed loop a warm request often waits
    // behind the other client's cold one, so the p90s swing with the
    // machine's scheduling and are reported here rather than gated.
    let mut load = Paths::new(fx, 1_000);
    while load.samples(Workload::ServeEval) < MIN_SAMPLES {
        load.unit(Workload::ServeEval);
    }
    checks.absorb(load.checks());
    let (cold_ms, warm_ms) = load.served_ms();
    m.insert("serve.cold_p90_ms", tail(cold_ms));
    m.insert("serve.warm_p90_ms", tail(warm_ms));
    m.insert("serve.healthz_rtt_us", spans.median("serve.healthz"));
    m.insert("serve.parse_us", spans.median("serve.parse"));
    let run_json = spans.median("serve.run_json");
    m.insert("serve.run_json_us", run_json);
    let cold = spans.median("serve.cold");
    m.insert("serve.outside_flow_share", (cold - run_json) / cold);
    let stats = http_request(addr, "GET", "/stats", "")
        .ok()
        .and_then(|(_, body)| mc_trace::json::parse(&body).ok());
    let stat = |k: &str| {
        stats
            .as_ref()
            .and_then(|s| s.get(k))
            .and_then(mc_trace::json::Value::as_f64)
    };
    checks.record(stat("flows").is_some(), || "GET /stats".to_owned());
    m.insert("serve.flows_held", stat("flows").unwrap_or(0.0));
    m.insert("serve.flow_runs", stat("flow_runs").unwrap_or(0.0));
    m.insert("serve.errors", stat("errors").unwrap_or(0.0));
}
