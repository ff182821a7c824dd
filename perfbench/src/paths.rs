//! The user-facing paths as units of checked work against the crates'
//! public APIs: a round of paper tables, a round of retrofits, a block of
//! served `/eval` requests, and (for the traced run) an explore cold/warm
//! pair.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use mc_core::{experiment, retrofit};
use mc_explore::{ExploreReport, ExploreSpace, Explorer, SchedulerChoice};
use mc_serve::http::http_request;

use crate::catalog::Checks;
use crate::fixture::{
    multiclock_beats_gated, same_table, Design, Fixture, EXPLORE_BUDGET, EXPLORE_COMPUTATIONS,
    RETROFIT_CLOCKS, RETROFIT_COMPUTATIONS, TABLE_COMPUTATIONS, THREADS,
};
use crate::layers::Values;
use crate::seed::Rng;
use crate::stats::{median, tail, MIN_BEYOND};
use crate::stream::ClientStream;
use crate::Workload;

/// Requests per client in one serve block: one cold request per design.
const SERVE_BLOCK: usize = 16;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One serve client: its request stream and the bodies it was answered.
struct Client {
    stream: ClientStream,
    answered: HashMap<(usize, u64), String>,
}

/// What one client saw in one block.
#[derive(Default)]
struct BlockOut {
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    checks: Checks,
}

impl Client {
    /// Sends the next [`SERVE_BLOCK`] requests, closed-loop.
    fn block(&mut self, fx: &Fixture) -> BlockOut {
        let mut out = BlockOut::default();
        for call in self.stream.by_ref().take(SERVE_BLOCK) {
            let d = &fx.designs[call.design];
            let body = eval_body(d, call.seed);
            let t = Instant::now();
            let reply = http_request(fx.server.addr, "POST", "/eval", &body);
            let ms = ms_since(t);
            let ok = match reply {
                Ok((200, body)) if call.cold => {
                    self.answered.insert((call.design, call.seed), body);
                    true
                }
                Ok((200, body)) => self.answered.get(&(call.design, call.seed)) == Some(&body),
                _ => false,
            };
            out.checks.record(ok, || {
                format!("{}: /eval seed {} failed or differs", d.name, call.seed)
            });
            if call.cold {
                out.cold_ms.push(ms);
            } else {
                out.warm_ms.push(ms);
            }
        }
        out
    }
}

/// The JSON body of a `/eval` request.
#[must_use]
pub fn eval_body(d: &Design, seed: u64) -> String {
    format!("{{\"benchmark\":\"{}\",\"seed\":{seed}}}", d.name)
}

/// The verification settings of a retrofit: the design's 16 seeds,
/// sequential, default backend.
#[must_use]
pub fn retrofit_options(d: &Design) -> retrofit::RetrofitOptions {
    retrofit::RetrofitOptions {
        computations: RETROFIT_COMPUTATIONS,
        seeds: d.retrofit_seeds.clone(),
        parallel: false,
        ..Default::default()
    }
}

/// One retrofit operation: export the single-clock design as VHDL,
/// convert it to three phases and verify the conversion. Returns the
/// measured power reduction.
pub fn retrofit_once(d: &Design) -> Result<f64, String> {
    let text = mc_rtl::export::to_vhdl(&d.single_clock);
    let r = retrofit::retrofit_source(&text, RETROFIT_CLOCKS).map_err(|e| e.to_string())?;
    let report = retrofit::verify_retrofit(&r, &retrofit_options(d)).map_err(|e| e.to_string())?;
    Ok(report.power_reduction_pct)
}

/// The explore slice's explorer: facet's scale lattice, first 24k
/// points, 6 computations, [`THREADS`] workers.
#[must_use]
pub fn explorer(fx: &Fixture) -> Explorer {
    Explorer::new()
        .with_space(ExploreSpace::scale())
        .with_computations(EXPLORE_COMPUTATIONS)
        .with_seed(fx.explore_seed)
        .with_budget(EXPLORE_BUDGET)
        .with_threads(THREADS)
}

/// Warm runs per explore pair: a warm run is short, so several of them
/// give a steady median.
pub const WARM_RUNS: usize = 5;

/// A checked explore pair: wall times and both reports.
pub struct Pair {
    /// Cold wall time (s).
    pub cold_s: f64,
    /// Wall time (s) of each of the [`WARM_RUNS`] warm runs.
    pub warm_s: Vec<f64>,
    /// The cold run's report.
    pub cold: ExploreReport,
    /// The last warm run's report.
    pub warm: ExploreReport,
}

/// One explore pair in a fresh cache directory `dir`, which is left in
/// place: a cold run, then [`WARM_RUNS`] identical warm runs reading its
/// cache. Every warm report must equal the cold one byte for byte, with
/// zero flow evaluations.
pub fn explore_pair(fx: &Fixture, dir: &Path, checks: &mut Checks) -> Option<Pair> {
    remove_dir(dir);
    let facet = &fx.designs[0].bm;
    let t = Instant::now();
    let cold = match explorer(fx).with_cache_dir(dir).run(facet) {
        Ok(cold) => cold,
        Err(e) => {
            checks.record(false, || format!("explore cold run: {e}"));
            return None;
        }
    };
    let cold_s = t.elapsed().as_secs_f64();
    let keeps_best = cold
        .frontier()
        .into_iter()
        .any(|r| r.point.style == fx.paper_best && r.point.scheduler == SchedulerChoice::Reference);
    checks.record(keeps_best, || {
        format!("explore: frontier lost the paper-best {}", fx.paper_best)
    });
    // Commit the cold run's pending journal work before timing reads.
    sync_dir(dir);
    let cold_json = cold.to_json();
    let mut warm_s = Vec::with_capacity(WARM_RUNS);
    let mut last = None;
    for _ in 0..WARM_RUNS {
        let t = Instant::now();
        let warm = explorer(fx).with_cache_dir(dir).run(facet);
        warm_s.push(t.elapsed().as_secs_f64());
        match warm {
            Ok(w) => {
                checks.record(w.flow_evals == 0 && w.to_json() == cold_json, || {
                    format!(
                        "explore: warm run evaluated {} points or differs",
                        w.flow_evals
                    )
                });
                last = Some(w);
            }
            Err(e) => checks.record(false, || format!("explore warm run: {e}")),
        }
    }
    Some(Pair {
        cold_s,
        warm_s,
        cold,
        warm: last?,
    })
}

fn sync_dir(dir: &Path) {
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Removes a directory tree and commits the removal to disk, so its
/// journal work lands inside the run that caused it rather than leaking
/// into later measurements.
pub fn remove_dir(dir: &Path) {
    if std::fs::remove_dir_all(dir).is_ok() {
        if let Some(parent) = dir.parent() {
            sync_dir(parent);
        }
    }
}

/// Everything a run's paths measured so far.
pub struct Paths<'a> {
    fx: &'a Fixture,
    eval_order: Rng,
    retrofit_order: Rng,
    clients: Vec<Client>,
    eval_ms: Vec<f64>,
    retrofit_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    serve_s: f64,
    checks: Checks,
}

impl<'a> Paths<'a> {
    /// Fresh paths over `fx`; `salt` keeps the serve pairs of separate
    /// passes of one run apart.
    #[must_use]
    pub fn new(fx: &'a Fixture, salt: u64) -> Paths<'a> {
        let clients = (0..THREADS as u64)
            .map(|c| Client {
                stream: ClientStream::new(fx.seed, c, salt, fx.designs.len()),
                answered: HashMap::new(),
            })
            .collect();
        Paths {
            fx,
            eval_order: Rng::new(fx.seed, "eval-order"),
            retrofit_order: Rng::new(fx.seed, "retrofit-order"),
            clients,
            eval_ms: Vec::new(),
            retrofit_ms: Vec::new(),
            cold_ms: Vec::new(),
            warm_ms: Vec::new(),
            serve_s: 0.0,
            checks: Checks::default(),
        }
    }

    /// Runs one unit of `w`: a round of tables or retrofits (every
    /// design once, seeded order) or a serve block per client.
    pub fn unit(&mut self, w: Workload) {
        let fx = self.fx;
        match w {
            Workload::PaperEval => {
                for i in self.eval_order.permutation(fx.designs.len()) {
                    let d = &fx.designs[i];
                    let t = Instant::now();
                    let table = experiment::paper_table(&d.bm, TABLE_COMPUTATIONS, d.stim_seed);
                    self.eval_ms.push(ms_since(t));
                    let ok = table
                        .as_ref()
                        .is_ok_and(|t| same_table(t, &d.table) && multiclock_beats_gated(t));
                    self.checks.record(ok, || {
                        format!("{}: table differs from set-up or multi-clock loses", d.name)
                    });
                }
            }
            Workload::RetrofitMc => {
                for i in self.retrofit_order.permutation(fx.designs.len()) {
                    let d = &fx.designs[i];
                    let t = Instant::now();
                    let outcome = retrofit_once(d);
                    self.retrofit_ms.push(ms_since(t));
                    self.checks.record(matches!(outcome, Ok(p) if p > 0.0), || {
                        format!("{}: retrofit {outcome:?}", d.name)
                    });
                }
            }
            Workload::ServeEval => {
                let t = Instant::now();
                let outs: Vec<BlockOut> = std::thread::scope(|scope| {
                    let handles: Vec<_> = self
                        .clients
                        .iter_mut()
                        .map(|c| scope.spawn(move || c.block(fx)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("serve client panicked"))
                        .collect()
                });
                self.serve_s += t.elapsed().as_secs_f64();
                for o in outs {
                    self.cold_ms.extend(o.cold_ms);
                    self.warm_ms.extend(o.warm_ms);
                    self.checks.absorb(o.checks);
                }
            }
        }
    }

    /// Cold and warm `/eval` round trips so far, in ms.
    #[must_use]
    pub fn served_ms(&self) -> (&[f64], &[f64]) {
        (&self.cold_ms, &self.warm_ms)
    }

    /// Samples in the smallest latency class of `w` so far.
    #[must_use]
    pub fn samples(&self, w: Workload) -> usize {
        match w {
            Workload::PaperEval => self.eval_ms.len(),
            Workload::RetrofitMc => self.retrofit_ms.len(),
            Workload::ServeEval => self.cold_ms.len().min(self.warm_ms.len()),
        }
    }

    /// The output-check tally of every unit run.
    #[must_use]
    pub fn checks(&self) -> Checks {
        self.checks
    }

    /// Folds the end-to-end latency metrics into `m` and summarises the
    /// sample counts on stderr.
    pub fn metrics(&self, m: &mut Values) {
        for (ms, p50, p90) in [
            (
                &self.eval_ms,
                "eval_table_p50_ms",
                Some("eval_table_p90_ms"),
            ),
            (
                &self.retrofit_ms,
                "retrofit_p50_ms",
                Some("retrofit_p90_ms"),
            ),
            (&self.cold_ms, "serve_cold_p50_ms", None),
            (&self.warm_ms, "serve_warm_p50_ms", None),
        ] {
            if ms.len() > MIN_BEYOND {
                m.insert(p50, median(ms));
                if let Some(p90) = p90 {
                    m.insert(p90, tail(ms));
                }
            }
        }
        let requests = self.cold_ms.len() + self.warm_ms.len();
        if requests > 0 {
            m.insert("serve_rps", requests as f64 / self.serve_s);
        }
        eprintln!(
            "{} tables, {} retrofits, {} cold + {} warm requests",
            self.eval_ms.len(),
            self.retrofit_ms.len(),
            self.cold_ms.len(),
            self.warm_ms.len()
        );
    }
}
