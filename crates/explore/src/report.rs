//! The explorer's typed result: the streamed Pareto frontier with full
//! consumption accounting, and renderers for terminal tables and JSON.
//!
//! The streaming engine never retains dominated points (they can be
//! spilled to a side file instead), so [`ExploreReport::results`] holds
//! *the frontier only*, in arrival (lattice) order, while the counters
//! account for every consumed point: `evaluated = results.len() +
//! dominated`, and `flow_evals + dedup_served + disk-served` explains
//! how each of them was priced.
//!
//! JSON emission follows the workspace conventions
//! ([`mc_bench::harness::JsonObj`]): hand-rolled, dependency-free, with
//! `f64` rendered through `Display` (shortest round-trip, deterministic
//! across platforms and runs). [`ExploreReport::to_json`] deliberately
//! excludes wall-clock durations and every cache counter — they vary
//! with scheduling and cache warmth — so same-seed runs emit
//! bit-identical documents whether cold, warm, or resumed;
//! [`ExploreReport::to_json_with_timings`] adds them back for human
//! inspection (`mcpm explore --timings`).

use std::fmt::Write as _;
use std::time::Duration;

use mc_bench::harness::{json_array, JsonObj};
use mc_core::flow::{CacheStats, PassMetrics};
use mc_power::PowerCi;

use crate::pareto::Objectives;
use crate::space::DesignPoint;

/// One frontier lattice point.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// The configuration that was evaluated.
    pub point: DesignPoint,
    /// Its minimised objective vector.
    pub objectives: Objectives,
    /// Schedule length in control steps (affine schedules stretch it).
    pub steps: u32,
    /// Whether static timing meets the library's target frequency.
    pub meets_target: bool,
    /// Whether the point survived dominance pruning (always `true` for
    /// points retained in [`ExploreReport::results`]; kept so JSON
    /// consumers see an explicit verdict per row).
    pub on_frontier: bool,
    /// Monte-Carlo confidence bounds on the power objective, present
    /// when the explorer ran more than one stimulus seed per point
    /// ([`Explorer::with_power_seeds`](crate::Explorer::with_power_seeds));
    /// `power_ci.mean_mw` equals [`Objectives::power_mw`].
    pub power_ci: Option<PowerCi>,
    /// Per-pass instrumentation of this evaluation. Empty when the point
    /// was served from dedup, the record memo, the persistent cache or a
    /// resumed checkpoint (timings vary run to run; excluded from
    /// deterministic JSON).
    pub metrics: Vec<PassMetrics>,
}

impl PointResult {
    /// Wall-clock spent across this point's recorded passes.
    #[must_use]
    pub fn eval_duration(&self) -> Duration {
        self.metrics.iter().map(|m| m.duration).sum()
    }

    /// How many of this point's passes were served from the flow cache.
    #[must_use]
    pub fn cache_served(&self) -> usize {
        self.metrics.iter().filter(|m| m.cache_hit).count()
    }

    fn json_obj(&self) -> JsonObj {
        let mut obj = JsonObj::new()
            .str("style", &self.point.style.label())
            .str("scheduler", &self.point.scheduler.label())
            .str("rewrite", self.point.rewrite.label())
            .num("volts", self.point.volts)
            .num("scenario", self.point.scenario)
            .num("power_mw", self.objectives.power_mw);
        if let Some(ci) = &self.power_ci {
            obj = obj
                .num("power_std_mw", ci.std_mw)
                .num("power_ci95_mw", ci.ci95_mw)
                .num("power_seeds", ci.seeds);
        }
        obj.num("area_lambda2", self.objectives.area_lambda2)
            .num("latency_ns", self.objectives.latency_ns)
            .num("steps", self.steps)
            .bool("meets_target", self.meets_target)
            .bool("on_frontier", self.on_frontier)
    }
}

/// The result of one exploration run over one benchmark.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// The benchmark name.
    pub benchmark: String,
    /// Stimulus seed every evaluation was keyed with.
    pub seed: u64,
    /// Random computations per simulation.
    pub computations: usize,
    /// Size of the full lattice (before any budget or deadline cut).
    pub lattice_points: usize,
    /// Lattice points consumed (served or evaluated), cumulative across
    /// resumed runs.
    pub evaluated: usize,
    /// Lattice points outside the evaluation budget.
    pub skipped: usize,
    /// In-budget points not reached before the deadline (resume picks
    /// them up).
    pub remaining: usize,
    /// Consumed points served because a structurally equivalent point
    /// occurred earlier in the lattice (deterministic).
    pub dedup_served: u64,
    /// Consumed points pruned by dominance and not retained (spilled if
    /// a spill file was configured); `evaluated = results.len() +
    /// dominated`.
    pub dominated: u64,
    /// Full flow evaluations this run actually performed (varies with
    /// cache warmth; 0 for a fully warm or fully resumed run).
    pub flow_evals: usize,
    /// Persistent-cache lookups served from disk this run.
    pub disk_hits: u64,
    /// Persistent-cache lookups that missed this run.
    pub disk_misses: u64,
    /// Records written to the persistent cache this run.
    pub disk_puts: u64,
    /// The Pareto frontier, in arrival (lattice) order.
    pub results: Vec<PointResult>,
    /// Aggregate in-memory artifact-cache counters summed over all flow
    /// groups this run.
    pub cache: CacheStats,
}

impl ExploreReport {
    /// The Pareto-optimal points, in lattice order.
    #[must_use]
    pub fn frontier(&self) -> Vec<&PointResult> {
        self.results.iter().filter(|r| r.on_frontier).collect()
    }

    /// The lowest-power frontier point, if any point was consumed.
    #[must_use]
    pub fn best_power(&self) -> Option<&PointResult> {
        self.frontier().into_iter().min_by(|a, b| {
            a.objectives
                .power_mw
                .total_cmp(&b.objectives.power_mw)
                .then_with(|| a.point.label().cmp(&b.point.label()))
        })
    }

    /// Renders the frontier table by rising power, with the consumption
    /// accounting in the header and footer.
    #[must_use]
    pub fn render_ranked(&self) -> String {
        let mut rows: Vec<&PointResult> = self.results.iter().collect();
        rows.sort_by(|a, b| {
            a.objectives
                .power_mw
                .total_cmp(&b.objectives.power_mw)
                .then_with(|| a.point.label().cmp(&b.point.label()))
        });
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Design-space exploration: {} ({} points evaluated, {} skipped, frontier {})",
            self.benchmark,
            self.evaluated,
            self.skipped,
            self.frontier().len()
        );
        let _ = writeln!(
            s,
            "{:>4}  {:>9}  {:>10}  {:>10}  {:>5}  {:>4}  configuration",
            "rank", "power mW", "area λ²", "lat. ns", "steps", "time"
        );
        for (rank, r) in rows.iter().enumerate() {
            let _ = writeln!(
                s,
                "{:>4}  {:>9.3} {:>10.0}  {:>10.1}  {:>5}  {:>4}  {} {}",
                rank + 1,
                r.objectives.power_mw,
                r.objectives.area_lambda2,
                r.objectives.latency_ns,
                r.steps,
                if r.meets_target { "ok" } else { "VIOL" },
                if r.on_frontier { "*" } else { " " },
                r.point.label()
            );
        }
        let _ = writeln!(
            s,
            "({} dominated points not retained, {} served by dedup{})",
            self.dominated,
            self.dedup_served,
            if self.remaining > 0 {
                format!(
                    ", {} in-budget points remaining — resume to continue",
                    self.remaining
                )
            } else {
                String::new()
            }
        );
        let _ = writeln!(s, "(* = Pareto-optimal; timing target = library clock)");
        s
    }

    /// Renders the per-point evaluation timings and the aggregate cache
    /// counters (the nondeterministic half the JSON leaves out).
    #[must_use]
    pub fn render_timings(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "Evaluation timings: {}", self.benchmark);
        for r in &self.results {
            let _ = writeln!(
                s,
                "  {:>9.1?}  {:>2} cache-served  {}",
                r.eval_duration(),
                r.cache_served(),
                r.point.label()
            );
        }
        let _ = writeln!(
            s,
            "flow evals: {}  cache: {}  disk: {} hits / {} misses / {} puts",
            self.flow_evals, self.cache, self.disk_hits, self.disk_misses, self.disk_puts
        );
        s
    }

    fn json_header(&self) -> JsonObj {
        JsonObj::new()
            .str("benchmark", &self.benchmark)
            .num("seed", self.seed)
            .num("computations", self.computations)
            .num("lattice_points", self.lattice_points)
            .num("evaluated", self.evaluated)
            .num("skipped", self.skipped)
            .num("remaining", self.remaining)
            .num("dedup_served", self.dedup_served)
            .num("dominated", self.dominated)
            .num("frontier", self.frontier().len())
    }

    /// Deterministic JSON: identical bytes for identical (benchmark,
    /// space, seed, computations) regardless of thread count, cache
    /// warmth, interrupt/resume history, or run.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.json_header()
            .raw(
                "points",
                &json_array(self.results.iter().map(|r| r.json_obj().finish())),
            )
            .finish()
    }

    /// JSON with per-point wall-clock and every cache counter appended —
    /// for `mcpm explore --timings`, *not* for determinism comparison.
    #[must_use]
    pub fn to_json_with_timings(&self) -> String {
        self.json_header()
            .raw(
                "points",
                &json_array(self.results.iter().map(|r| {
                    r.json_obj()
                        .num(
                            "eval_ms",
                            format_args!("{:.3}", r.eval_duration().as_secs_f64() * 1e3),
                        )
                        .num("cache_served", r.cache_served())
                        .finish()
                })),
            )
            .num("flow_evals", self.flow_evals)
            .num("cache_hits", self.cache.hits)
            .num("cache_misses", self.cache.misses)
            .num("disk_hits", self.disk_hits)
            .num("disk_misses", self.disk_misses)
            .num("disk_puts", self.disk_puts)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SchedulerChoice;
    use mc_core::{DesignStyle, RewriteChoice};

    fn result(power: f64) -> PointResult {
        PointResult {
            point: DesignPoint {
                style: DesignStyle::MultiClock(2),
                scheduler: SchedulerChoice::Reference,
                volts: 4.65,
                scenario: 0,
                rewrite: RewriteChoice::Baseline,
            },
            objectives: Objectives {
                power_mw: power,
                area_lambda2: 1000.0 - power, // trade-off keeps both on the frontier
                latency_ns: 160.0,
            },
            steps: 8,
            meets_target: true,
            on_frontier: true,
            power_ci: None,
            metrics: Vec::new(),
        }
    }

    fn report() -> ExploreReport {
        ExploreReport {
            benchmark: "hal".to_owned(),
            seed: 42,
            computations: 50,
            lattice_points: 5,
            evaluated: 4,
            skipped: 1,
            remaining: 0,
            dedup_served: 1,
            dominated: 2,
            flow_evals: 3,
            disk_hits: 0,
            disk_misses: 0,
            disk_puts: 0,
            results: vec![result(1.5), result(2.5)],
            cache: CacheStats {
                hits: 3,
                misses: 7,
                datapaths: 2,
                reports: 2,
            },
        }
    }

    #[test]
    fn frontier_and_best_power_filter_correctly() {
        let r = report();
        assert_eq!(r.frontier().len(), 2);
        assert_eq!(r.best_power().unwrap().objectives.power_mw, 1.5);
    }

    #[test]
    fn ranked_table_accounts_for_every_consumed_point() {
        let table = report().render_ranked();
        assert!(table.contains("frontier 2"));
        assert!(table.contains("* 2 Clocks"));
        assert!(table.contains("1 skipped"));
        assert!(table.contains("4 points evaluated"));
        assert!(table.contains("2 dominated points not retained"));
        assert!(table.contains("1 served by dedup"));
        assert!(table.contains("Pareto-optimal"));
    }

    #[test]
    fn interrupted_reports_point_at_resume() {
        let mut r = report();
        r.remaining = 7;
        assert!(r.render_ranked().contains("7 in-budget points remaining"));
    }

    #[test]
    fn json_is_structured_and_excludes_timings() {
        let json = report().to_json();
        assert!(json.contains("\"benchmark\":\"hal\""));
        assert!(json.contains("\"power_mw\":1.5"));
        assert!(json.contains("\"on_frontier\":true"));
        assert!(json.contains("\"evaluated\":4"));
        assert!(json.contains("\"remaining\":0"));
        assert!(json.contains("\"dedup_served\":1"));
        assert!(json.contains("\"dominated\":2"));
        assert!(json.contains("\"scenario\":0"));
        assert!(json.contains("\"rewrite\":\"baseline\""));
        assert!(!json.contains("eval_ms"));
        assert!(!json.contains("cache"));
        assert!(!json.contains("disk"));
        assert!(!json.contains("flow_evals"));
        // Single-seed points carry no Monte-Carlo fields.
        assert!(!json.contains("power_ci95_mw"));
    }

    #[test]
    fn monte_carlo_points_emit_confidence_fields() {
        let mut r = report();
        r.results[0].power_ci = Some(PowerCi {
            mean_mw: 1.5,
            std_mw: 0.2,
            ci95_mw: 0.1,
            seeds: 8,
        });
        let json = r.to_json();
        assert!(json.contains("\"power_ci95_mw\":0.1"));
        assert!(json.contains("\"power_std_mw\":0.2"));
        assert!(json.contains("\"power_seeds\":8"));
    }

    #[test]
    fn timed_json_adds_wallclock_and_cache_fields() {
        let json = report().to_json_with_timings();
        assert!(json.contains("\"eval_ms\":"));
        assert!(json.contains("\"flow_evals\":3"));
        assert!(json.contains("\"cache_hits\":3"));
        assert!(json.contains("\"cache_misses\":7"));
        assert!(json.contains("\"disk_hits\":0"));
    }
}
