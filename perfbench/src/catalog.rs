//! The metric catalog — every name and unit the benchmark reports — and
//! the one-line JSON result the run ends with. `BENCHMARK.json` at the
//! repository root lists the same names and units; a test keeps the two
//! in step.

use std::collections::BTreeMap;

use mc_bench::harness::JsonObj;

/// End-to-end metrics (untraced runs), as `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("eval_table_p50_ms", "ms"),
    ("eval_table_p90_ms", "ms"),
    ("paper_power_mape_pct", "%"),
    ("retrofit_p50_ms", "ms"),
    ("retrofit_p90_ms", "ms"),
    ("serve_cold_p50_ms", "ms"),
    ("serve_warm_p50_ms", "ms"),
    ("serve_rps", "req/s"),
];

/// Per-layer metrics (traced runs), as `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dfg.load_us", "us"),
    ("flow.evaluate_us", "us"),
    ("flow.cache_hit_ratio", "ratio"),
    ("alloc.allocate_us", "us"),
    ("alloc.components", "count"),
    ("sim.compile_us", "us"),
    ("sim.run_us", "us"),
    ("sim.steps_per_s", "steps/s"),
    ("sim.seed_kernel_us", "us"),
    ("sim.seed_steps_per_s.batched", "steps/s"),
    ("sim.seed_steps_per_s.bitsliced", "steps/s"),
    ("sim.stimulus_share", "ratio"),
    ("sim.steps", "count"),
    ("sim.instructions", "count"),
    ("sim.toggles", "count"),
    ("power.eval_us", "us"),
    ("power.mc_eval_us", "us"),
    ("rtl.to_vhdl_us", "us"),
    ("rtl.from_vhdl_us", "us"),
    ("retrofit.convert_us", "us"),
    ("retrofit.verify_us", "us"),
    ("cache.put_p50_us", "us"),
    ("cache.put_p90_us", "us"),
    ("cache.get_miss_us", "us"),
    ("cache.get_hit_us", "us"),
    ("cache.bytes", "B"),
    ("cache.evictions", "count"),
    ("explore.cold_s", "s"),
    ("explore.warm_s", "s"),
    ("explore.nocache_cold_s", "s"),
    ("explore.point_key_ns", "ns"),
    ("explore.frontier_offer_ns", "ns"),
    ("explore.flow_evals", "count"),
    ("explore.dedup_served", "count"),
    ("explore.disk_hits", "count"),
    ("serve.cold_p90_ms", "ms"),
    ("serve.warm_p90_ms", "ms"),
    ("serve.healthz_rtt_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.run_json_us", "us"),
    ("serve.outside_flow_share", "ratio"),
    ("serve.flows_held", "count"),
    ("serve.flow_runs", "count"),
    ("serve.errors", "count"),
    ("exact.paper_power_mape_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Operations attempted and failed by a run's output checks.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    /// Checked operations.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
}

impl Checks {
    /// Records one checked operation; a failure is reported on stderr.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The final result line: `correct`, `attempted`, `failed` and every
/// metric of `catalog` with its unit.
///
/// # Panics
///
/// Panics when `values` lacks a catalog metric — a benchmark bug, never
/// an input problem.
#[must_use]
pub fn result_line(
    catalog: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
    checks: Checks,
) -> String {
    let mut metrics = JsonObj::new();
    for &(name, unit) in catalog {
        let value = values
            .get(name)
            .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
        metrics = metrics.raw(
            name,
            &JsonObj::new()
                .num("value", value)
                .str("unit", unit)
                .finish(),
        );
    }
    JsonObj::new()
        .bool("correct", checks.attempted > 0 && checks.failed == 0)
        .num("attempted", checks.attempted)
        .num("failed", checks.failed)
        .raw("metrics", &metrics.finish())
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_trace::json::{parse, Value};

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn assert_output_names_every_listed_metric(catalog: &[(&'static str, &str)], key: &str) {
        let values = catalog.iter().map(|&(n, _)| (n, 1.5)).collect();
        let line = result_line(catalog, &values, Checks::default());
        let out = parse(&line).expect("result line is JSON");
        let metrics = out.get("metrics").expect("metrics object");
        let manifest = manifest();
        let listed = listed(&manifest, key);
        assert_eq!(
            listed.len(),
            catalog.len(),
            "`{key}` and the catalog differ in size"
        );
        for (name, unit) in listed {
            let m = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("output lacks `{name}`"));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
            assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.5));
        }
    }

    #[test]
    fn untraced_output_names_every_end_to_end_metric_with_its_unit() {
        assert_output_names_every_listed_metric(END_TO_END, "end_to_end");
    }

    #[test]
    fn traced_output_names_every_per_layer_metric_with_its_unit() {
        assert_output_names_every_listed_metric(PER_LAYER, "per_layer");
    }

    #[test]
    fn result_line_carries_the_check_tally() {
        let values = END_TO_END.iter().map(|&(n, _)| (n, 2.0)).collect();
        let checks = Checks {
            attempted: 9,
            failed: 1,
        };
        let out = parse(&result_line(END_TO_END, &values, checks)).unwrap();
        assert_eq!(out.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(out.get("attempted").and_then(Value::as_f64), Some(9.0));
        assert_eq!(out.get("failed").and_then(Value::as_f64), Some(1.0));
    }
}
