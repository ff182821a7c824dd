//! Set-up: everything a run prepares before its first timed operation —
//! the four paper designs loaded, their reference tables and
//! single-clock netlists built, the work directory opened and an
//! in-process server answering `/healthz`.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Duration;

use mc_bench::{PaperRow, PAPER_TABLE_1, PAPER_TABLE_2, PAPER_TABLE_3, PAPER_TABLE_4};
use mc_core::experiment::{self, Table};
use mc_core::{DesignStyle, Synthesizer};
use mc_dfg::benchmarks::{self, Benchmark};
use mc_rtl::Netlist;
use mc_serve::http::http_request;
use mc_serve::{ServeConfig, ServeError, Server};

use crate::seed::derive;

/// The paper's four benchmarks with their published tables.
pub const DESIGNS: [(&str, &[PaperRow; 5]); 4] = [
    ("facet", &PAPER_TABLE_1),
    ("hal", &PAPER_TABLE_2),
    ("biquad", &PAPER_TABLE_3),
    ("bandpass", &PAPER_TABLE_4),
];

/// Random computations per table evaluation (the paper's setting).
pub const TABLE_COMPUTATIONS: usize = 400;

/// Phase clocks a retrofit converts to.
pub const RETROFIT_CLOCKS: u32 = 3;
/// Equivalence seeds per retrofit: a full 16-lane batched sweep and a
/// partial 64-seed bit-sliced word.
pub const RETROFIT_SEEDS: usize = 16;
/// Computations per retrofit equivalence seed.
pub const RETROFIT_COMPUTATIONS: usize = 200;

/// The explore slice: facet's scale lattice, first 24k points.
pub const EXPLORE_BUDGET: usize = 24_000;
/// Computations per explored point.
pub const EXPLORE_COMPUTATIONS: usize = 6;

/// Worker threads of the explorer and the server, and client
/// connections of the serve load.
pub const THREADS: usize = 2;

/// One paper benchmark and the inputs derived for it.
pub struct Design {
    /// Benchmark name.
    pub name: &'static str,
    /// The loaded behaviour and schedule.
    pub bm: Benchmark,
    /// The published table.
    pub paper: &'static [PaperRow; 5],
    /// Stimulus seed of this design's tables.
    pub stim_seed: u64,
    /// The set-up table every later table of this design must equal.
    pub table: Table,
    /// The conventional single-clock netlist a retrofit starts from.
    pub single_clock: Netlist,
    /// Equivalence seeds of this design's retrofits.
    pub retrofit_seeds: Vec<u64>,
}

/// A server running on its own thread; shut down and joined on drop.
pub struct LiveServer {
    /// Where it listens.
    pub addr: SocketAddr,
    handle: Option<JoinHandle<Result<(), ServeError>>>,
}

impl LiveServer {
    fn start(cache_dir: PathBuf) -> Result<LiveServer, String> {
        let server = Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            cache_dir,
            threads: THREADS,
        })
        .map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let live = LiveServer {
            addr,
            handle: Some(std::thread::spawn(move || server.run())),
        };
        for _ in 0..2_000 {
            if let Ok((200, _)) = http_request(addr, "GET", "/healthz", "") {
                return Ok(live);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("server never answered /healthz".to_owned())
    }

    /// Drains the server and joins its thread.
    ///
    /// # Errors
    ///
    /// The server's own failure, or a panic on its thread.
    pub fn shutdown(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        let _ = http_request(self.addr, "POST", "/shutdown", "");
        match handle.join() {
            Ok(result) => result.map_err(|e| e.to_string()),
            Err(_) => Err("server thread panicked".to_owned()),
        }
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        if let Err(e) = self.shutdown() {
            eprintln!("server shutdown: {e}");
        }
    }
}

/// Everything a run's timed operations use.
pub struct Fixture {
    /// The workload seed every input derives from.
    pub seed: u64,
    /// The four paper designs, in [`DESIGNS`] order.
    pub designs: Vec<Design>,
    /// Stimulus seed of the explore slice.
    pub explore_seed: u64,
    /// facet's lowest-power multi-clock style at the explore settings:
    /// the row the explore frontier must keep.
    pub paper_best: DesignStyle,
    /// This fixture's private directory (explore caches live below it).
    pub dir: PathBuf,
    /// The in-process server (its result cache lives below `dir`).
    pub server: LiveServer,
}

impl Fixture {
    /// Builds the fixture for workload seed `seed` under `dir`.
    ///
    /// # Errors
    ///
    /// Any failure to load, synthesise or serve — the run cannot start.
    pub fn new(seed: u64, dir: &Path) -> Result<Fixture, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut designs = Vec::with_capacity(DESIGNS.len());
        for (i, &(name, paper)) in DESIGNS.iter().enumerate() {
            let bm = benchmarks::by_name(name).ok_or_else(|| format!("no benchmark {name}"))?;
            let stim_seed = derive(seed, "eval", i as u64);
            let table = experiment::paper_table(&bm, TABLE_COMPUTATIONS, stim_seed)
                .map_err(|e| e.to_string())?;
            let single_clock = Synthesizer::for_benchmark(&bm)
                .synthesize(DesignStyle::ConventionalNonGated)
                .map_err(|e| e.to_string())?
                .datapath
                .netlist;
            let retrofit_seeds =
                mc_power::derive_seeds(derive(seed, "retrofit", i as u64), RETROFIT_SEEDS);
            designs.push(Design {
                name,
                bm,
                paper,
                stim_seed,
                table,
                single_clock,
                retrofit_seeds,
            });
        }
        let explore_seed = derive(seed, "explore", 0);
        let facet = &designs[0].bm;
        let best = experiment::paper_table(facet, EXPLORE_COMPUTATIONS, explore_seed)
            .map_err(|e| e.to_string())?
            .rows
            .into_iter()
            .filter(|r| matches!(r.style, DesignStyle::MultiClock(n) if n >= 2))
            .min_by(|a, b| a.report.power.total_mw.total_cmp(&b.report.power.total_mw))
            .ok_or("facet table has no multi-clock row")?
            .style;
        let server = LiveServer::start(dir.join("serve-cache"))?;
        Ok(Fixture {
            seed,
            designs,
            explore_seed,
            paper_best: best,
            dir: dir.to_owned(),
            server,
        })
    }

    /// Mean absolute error of the set-up tables' power against the
    /// published tables, in percent, over all 20 rows.
    #[must_use]
    pub fn paper_power_mape_pct(&self) -> f64 {
        let mut sum = 0.0;
        let mut rows = 0.0;
        for d in &self.designs {
            for (ours, paper) in d.table.rows.iter().zip(d.paper.iter()) {
                debug_assert_eq!(ours.label, paper.label, "row order follows the paper");
                sum += (ours.report.power.total_mw - paper.power_mw).abs() / paper.power_mw;
                rows += 1.0;
            }
        }
        100.0 * sum / rows
    }
}

/// Whether two tables are bit-identical in every published column.
#[must_use]
pub fn same_table(a: &Table, b: &Table) -> bool {
    a.rows.len() == b.rows.len()
        && a.rows.iter().zip(&b.rows).all(|(x, y)| {
            x.label == y.label
                && x.report.power.total_mw.to_bits() == y.report.power.total_mw.to_bits()
                && x.report.area.total_lambda2.to_bits() == y.report.area.total_lambda2.to_bits()
                && x.report.stats.mem_cells == y.report.stats.mem_cells
                && x.report.stats.mux_inputs == y.report.stats.mux_inputs
        })
}

/// The paper's claim on one table: the best multi-clock row beats the
/// gated-clock row.
#[must_use]
pub fn multiclock_beats_gated(t: &Table) -> bool {
    t.gated_to_best_multiclock_reduction()
        .is_some_and(|r| r > 0.0)
}
