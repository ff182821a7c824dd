//! Pins what retrofit verification reports, end to end.
//!
//! - The power figures of `mcpm retrofit --json` must match the
//!   checked-in golden file byte for byte, under both batch backends and
//!   both `--parallel` values. The cases cover every paper
//!   benchmark at 2 and 3 phases, plus hal at 1, 17 and 65 seeds: a
//!   partial lane chunk, a chunk boundary and more than one bit-sliced
//!   word. The report is deterministic, so any diff is a real change to
//!   the numbers. Regenerate only for an intended change, with:
//!
//!   ```text
//!   MC_UPDATE_GOLDEN=1 cargo test --test retrofit
//!   ```
//!
//! - A conversion that does not compute what the original computes must
//!   fail with the exact first divergence, and a converted design whose
//!   inputs the stimulus does not cover must fail with a typed
//!   simulation error, on every backend and schedule.

use std::path::PathBuf;
use std::process::Command;

use multiclock::dfg::benchmarks;
use multiclock::power::derive_seeds;
use multiclock::retrofit::{
    retrofit_netlist, verify_retrofit, Retrofit, RetrofitError, RetrofitMismatch, RetrofitOptions,
};
use multiclock::sim::{BatchBackend, SimError};
use multiclock::{DesignStyle, Synthesizer};

/// `(benchmark, clocks, seeds)` per golden line, in file order.
const CASES: [(&str, u32, usize); 11] = [
    ("facet", 2, 16),
    ("facet", 3, 16),
    ("hal", 2, 16),
    ("hal", 3, 16),
    ("biquad", 2, 16),
    ("biquad", 3, 16),
    ("bandpass", 2, 16),
    ("bandpass", 3, 16),
    ("hal", 3, 1),
    ("hal", 3, 17),
    ("hal", 3, 65),
];

/// Every verification schedule a report must not depend on:
/// `(--backend, --parallel)`.
const SCHEDULES: [(&str, &str); 4] = [
    ("batched", "true"),
    ("batched", "false"),
    ("bitsliced", "true"),
    ("bitsliced", "false"),
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/retrofit_reports.jsonl")
}

/// `mcpm retrofit --json` at 200 computations; panics on failure.
fn retrofit_json(bench: &str, clocks: u32, seeds: usize, backend: &str, parallel: &str) -> String {
    let (clocks, seeds) = (clocks.to_string(), seeds.to_string());
    let out = Command::new(env!("CARGO_BIN_EXE_mcpm"))
        .args(["retrofit", "--benchmark", bench, "--clocks", &clocks])
        .args(["--seeds", &seeds, "--computations", "200", "--json"])
        .args(["--backend", backend, "--parallel", parallel])
        .output()
        .expect("mcpm runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{bench} --clocks {clocks}: {stderr}");
    String::from_utf8(out.stdout).expect("UTF-8 JSON")
}

#[test]
fn retrofit_reports_match_the_golden_file_on_every_schedule() {
    let path = golden_path();
    if std::env::var_os("MC_UPDATE_GOLDEN").is_some() {
        let lines: String = CASES
            .iter()
            .map(|&(bench, clocks, seeds)| retrofit_json(bench, clocks, seeds, "batched", "false"))
            .collect();
        std::fs::write(&path, lines).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    let lines: Vec<&str> = golden.lines().collect();
    assert_eq!(lines.len(), CASES.len(), "one golden line per case");
    let mut mismatches = Vec::new();
    for (&(bench, clocks, seeds), want) in CASES.iter().zip(&lines) {
        for (backend, parallel) in SCHEDULES {
            let got = retrofit_json(bench, clocks, seeds, backend, parallel);
            if got.trim_end() != *want {
                mismatches.push(format!(
                    "{bench} --clocks {clocks} --seeds {seeds} --backend {backend} \
                     --parallel {parallel}:\n  got  {}\n  want {want}",
                    got.trim_end()
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

fn retrofit_of(bm: &benchmarks::Benchmark, clocks: u32) -> Retrofit {
    let nl = Synthesizer::for_benchmark(bm)
        .synthesize(DesignStyle::ConventionalNonGated)
        .expect("paper benchmarks synthesise conventionally")
        .datapath
        .netlist;
    retrofit_netlist(nl, clocks).expect("paper benchmarks retrofit")
}

/// The four schedules as options over `derive_seeds(3, 4)` at 50
/// computations.
fn schedules() -> Vec<RetrofitOptions> {
    let mut out = Vec::new();
    for backend in [BatchBackend::Batched, BatchBackend::Bitsliced] {
        for parallel in [true, false] {
            out.push(RetrofitOptions {
                computations: 50,
                seeds: derive_seeds(3, 4),
                parallel,
                backend,
                ..RetrofitOptions::default()
            });
        }
    }
    out
}

#[test]
fn a_diverging_conversion_reports_its_first_mismatch() {
    let mut r = retrofit_of(&benchmarks::hal(), 3);
    // Cross the drivers of the first two outputs: the design still
    // flattens, runs and obeys the latch discipline, but computes the
    // wrong function.
    let first = r.circuit.outputs[0].1.clone();
    r.circuit.outputs[0].1 = std::mem::replace(&mut r.circuit.outputs[1].1, first);
    r.converted = r.circuit.flatten().expect("swapped outputs still flatten");
    let want = RetrofitMismatch {
        seed: 3,
        computation: 0,
        port: "u1".to_owned(),
        original: 13,
        converted: 10,
    };
    for opts in schedules() {
        match verify_retrofit(&r, &opts) {
            Err(RetrofitError::Diverged(m)) => {
                assert_eq!(*m, want, "{:?} parallel={}", opts.backend, opts.parallel);
                assert_eq!(
                    RetrofitError::Diverged(m).to_string(),
                    "seed 3 computation 0: output `u1` diverged (13 vs 10)"
                );
            }
            other => panic!(
                "{:?} parallel={}: expected Diverged, got {other:?}",
                opts.backend, opts.parallel
            ),
        }
    }
}

#[test]
fn a_converted_design_missing_an_input_is_a_typed_error() {
    let mut r = retrofit_of(&benchmarks::hal(), 3);
    // facet reads an input `b` that hal's stimulus never drives.
    r.converted = retrofit_of(&benchmarks::facet(), 3).converted;
    let want = SimError::MissingInput {
        input: "b".to_owned(),
        computation: 0,
    };
    for opts in schedules() {
        match verify_retrofit(&r, &opts) {
            Err(RetrofitError::Sim(e)) => {
                assert_eq!(e, want, "{:?} parallel={}", opts.backend, opts.parallel);
            }
            other => panic!(
                "{:?} parallel={}: expected a simulation error, got {other:?}",
                opts.backend, opts.parallel
            ),
        }
    }
}
