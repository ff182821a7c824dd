//! End-to-end tests of the `mcpm` command-line tool, driving the real
//! binary the way a user would.

use std::process::Command;

fn mcpm(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mcpm"))
        .args(args)
        .output()
        .expect("mcpm runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn no_arguments_prints_usage() {
    let (ok, stdout, _) = mcpm(&[]);
    assert!(ok);
    assert!(stdout.contains("commands:"));
}

#[test]
fn list_names_all_benchmarks() {
    let (ok, stdout, _) = mcpm(&["list"]);
    assert!(ok);
    for name in ["facet", "hal", "biquad", "bandpass", "ewf"] {
        assert!(stdout.contains(name), "missing {name}");
    }
}

#[test]
fn eval_renders_the_five_styles() {
    let (ok, stdout, _) = mcpm(&["eval", "--benchmark", "facet", "--computations", "40"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("Non-Gated Clock"));
    assert!(stdout.contains("3 Clocks"));
    assert!(stdout.contains("reduction"));
}

#[test]
fn synth_verifies_and_prints_netlist() {
    let (ok, stdout, stderr) = mcpm(&[
        "synth",
        "--benchmark",
        "motivating",
        "--clocks",
        "2",
        "--computations",
        "30",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("netlist `motivating_integrated_2clk`"));
    assert!(stderr.contains("verified OK"));
}

#[test]
fn synth_exports_vhdl() {
    let (ok, stdout, _) = mcpm(&[
        "synth",
        "--benchmark",
        "hal",
        "--clocks",
        "3",
        "--export",
        "vhdl",
        "--computations",
        "20",
    ]);
    assert!(ok);
    assert!(stdout.contains("entity hal_integrated_3clk is"));
    assert!(stdout.contains("CLK3 : in bit;"));
}

#[test]
fn synth_from_dsl_file_works() {
    let (ok, stdout, stderr) = mcpm(&[
        "synth",
        "--file",
        "examples/data/mac4.dfg",
        "--clocks",
        "2",
        "--computations",
        "30",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("netlist `mac4_integrated_2clk`"));
}

#[test]
fn unknown_benchmark_fails_with_candidates() {
    let (ok, _, stderr) = mcpm(&["eval", "--benchmark", "nope"]);
    assert!(!ok);
    assert!(stderr.contains("unknown benchmark"));
    assert!(stderr.contains("facet"));
}

#[test]
fn degenerate_random_benchmark_specs_are_rejected_with_the_reason() {
    // Zero and oversized node counts are out of range, not unknown names.
    let (ok, _, stderr) = mcpm(&["eval", "--benchmark", "random:0:1"]);
    assert!(!ok);
    assert!(stderr.contains("node count 0 is out of range"), "{stderr}");
    let (ok, _, stderr) = mcpm(&["eval", "--benchmark", "random:100000:1"]);
    assert!(!ok);
    assert!(stderr.contains("out of range"), "{stderr}");
    // Trailing fields and non-numeric fields name the malformed spec.
    let (ok, _, stderr) = mcpm(&["eval", "--benchmark", "random:8:1:9"]);
    assert!(!ok);
    assert!(stderr.contains("bad random benchmark spec"), "{stderr}");
    assert!(stderr.contains("expected 2"), "{stderr}");
    let (ok, _, stderr) = mcpm(&["eval", "--benchmark", "random:8:banana"]);
    assert!(!ok);
    assert!(stderr.contains("not a 64-bit integer"), "{stderr}");
    // A well-formed spec still evaluates.
    let (ok, stdout, stderr) = mcpm(&["eval", "--benchmark", "random:6:1", "--computations", "8"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("mW"), "{stdout}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let (ok, _, stderr) = mcpm(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    assert!(stderr.contains("commands:"));
}

#[test]
fn sweep_outputs_one_row_per_clock_count() {
    let (ok, stdout, _) = mcpm(&[
        "sweep",
        "--benchmark",
        "ar_lattice",
        "--max-clocks",
        "3",
        "--computations",
        "30",
    ]);
    assert!(ok);
    let rows = stdout
        .lines()
        .filter(|l| l.trim_start().starts_with(['1', '2', '3']))
        .count();
    assert_eq!(rows, 3, "{stdout}");
}

#[test]
fn eval_json_is_machine_readable() {
    let (ok, stdout, _) = mcpm(&[
        "eval",
        "--benchmark",
        "facet",
        "--computations",
        "40",
        "--json",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.starts_with('{'), "{stdout}");
    assert!(stdout.contains("\"benchmark\":\"facet\""));
    assert!(stdout.contains("\"style\":\"3 Clocks\""));
    assert!(stdout.contains("\"gated_to_best_multiclock_reduction\":"));
}

#[test]
fn sweep_json_has_one_row_per_clock_count() {
    let (ok, stdout, _) = mcpm(&[
        "sweep",
        "--benchmark",
        "hal",
        "--max-clocks",
        "3",
        "--computations",
        "30",
        "--json",
    ]);
    assert!(ok, "{stdout}");
    assert_eq!(stdout.matches("\"clocks\":").count(), 3, "{stdout}");
    assert!(stdout.contains("\"power_mw\":"));
}

#[test]
fn explore_renders_a_frontier_table() {
    let (ok, stdout, stderr) = mcpm(&[
        "explore",
        "--benchmark",
        "hal",
        "--computations",
        "30",
        "--budget",
        "6",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("Design-space exploration: hal"));
    assert!(stdout.contains("Pareto-optimal"));
    assert!(stdout.contains("3 Clocks"));
}

#[test]
fn explore_json_is_deterministic_across_runs_and_thread_counts() {
    let args = [
        "explore",
        "--benchmark",
        "facet",
        "--computations",
        "30",
        "--budget",
        "8",
        "--json",
    ];
    let (ok1, run1, _) = mcpm(&args);
    let (ok2, run2, _) = mcpm(&args);
    let mut sequential = args.to_vec();
    sequential.extend(["--parallel", "false"]);
    let (ok3, run3, _) = mcpm(&sequential);
    assert!(ok1 && ok2 && ok3);
    assert_eq!(run1, run2, "same-seed reruns must emit identical JSON");
    assert_eq!(
        run1, run3,
        "parallel and sequential must emit identical JSON"
    );
    assert!(run1.contains("\"on_frontier\":true"));
}

#[test]
fn explore_rewrites_flag_is_bounded_and_reaches_the_frontier() {
    let (ok, _, stderr) = mcpm(&["explore", "--benchmark", "hal", "--rewrites", "9"]);
    assert!(!ok);
    assert!(
        stderr.contains("--rewrites out of range (1..=4)"),
        "{stderr}"
    );
    // The full rewrite axis on hal puts an equivalence-checked commute
    // variant on the frontier alongside the baseline paper rows.
    let (ok, stdout, stderr) = mcpm(&[
        "explore",
        "--benchmark",
        "hal",
        "--computations",
        "60",
        "--rewrites",
        "4",
        "--json",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("\"rewrite\":\"baseline\""), "{stdout}");
    assert!(stdout.contains("\"rewrite\":\"commute\""), "{stdout}");
}

#[test]
fn explore_with_seeds_reports_confidence_bounds() {
    let args = [
        "explore",
        "--benchmark",
        "hal",
        "--computations",
        "24",
        "--budget",
        "5",
        "--seeds",
        "3",
        "--json",
    ];
    let (ok1, run1, stderr) = mcpm(&args);
    assert!(ok1, "{stderr}");
    assert!(run1.contains("\"power_ci95_mw\":"));
    assert!(run1.contains("\"power_seeds\":3"));
    // A different lane width changes throughput, never the JSON.
    let mut narrow = args.to_vec();
    narrow.extend(["--batch", "4"]);
    let (ok2, run2, _) = mcpm(&narrow);
    assert!(ok2);
    assert_eq!(run1, run2, "--batch must not affect results");
    // So does the bit-sliced kernel: a different backend, the same bits.
    let mut sliced = args.to_vec();
    sliced.extend(["--backend", "bitsliced"]);
    let (ok3, run3, _) = mcpm(&sliced);
    assert!(ok3);
    assert_eq!(run1, run3, "--backend must not affect results");
}

#[test]
fn retrofit_json_is_identical_across_backends() {
    let args = [
        "retrofit",
        "--benchmark",
        "biquad",
        "--computations",
        "30",
        "--seeds",
        "2",
        "--json",
    ];
    let (ok1, batched, stderr) = mcpm(&args);
    assert!(ok1, "{stderr}");
    assert!(batched.contains("\"power_reduction_pct\":"), "{batched}");
    let mut with_backend = args.to_vec();
    with_backend.extend(["--backend", "bitsliced"]);
    let (ok2, sliced, stderr) = mcpm(&with_backend);
    assert!(ok2, "{stderr}");
    assert_eq!(
        batched, sliced,
        "the retrofit report must not encode the verification backend"
    );
    assert!(!sliced.contains("backend"), "{sliced}");
}

#[test]
fn unknown_backend_name_is_rejected() {
    let (ok, _, stderr) = mcpm(&["explore", "--benchmark", "hal", "--backend", "vectorised"]);
    assert!(!ok, "unknown backend names must not fall back to a default");
    assert!(
        stderr.contains("invalid value `vectorised` for --backend"),
        "{stderr}"
    );
    assert!(stderr.contains("batched"), "{stderr}");
    assert!(stderr.contains("bitsliced"), "{stderr}");
}

#[test]
fn signoff_is_clean_for_multiclock_designs() {
    let (ok, stdout, _) = mcpm(&[
        "signoff",
        "--benchmark",
        "biquad",
        "--clocks",
        "2",
        "--computations",
        "40",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("functional equivalence: PASS"));
    assert!(stdout.contains("latch discipline"));
    assert!(stdout.contains("signoff CLEAN"));
    assert!(stdout.contains("DPM(CLK1)"));
}

#[test]
fn stats_report_spread() {
    let (ok, stdout, _) = mcpm(&[
        "stats",
        "--benchmark",
        "facet",
        "--clocks",
        "2",
        "--computations",
        "50",
        "--seeds",
        "3",
    ]);
    assert!(ok);
    assert!(stdout.contains("3 seeds"));
    assert!(stdout.contains("±"));
}

#[test]
fn misspelled_flag_is_rejected_with_a_suggestion() {
    let (ok, _, stderr) = mcpm(&["synth", "--benchmark", "hal", "--clcoks", "3"]);
    assert!(!ok, "typos must not be silently ignored");
    assert!(stderr.contains("unknown flag `--clcoks`"), "{stderr}");
    assert!(stderr.contains("did you mean `--clocks`?"), "{stderr}");
    assert!(stderr.contains("valid flags:"), "{stderr}");
}

#[test]
fn unknown_flag_without_a_near_miss_lists_valid_flags() {
    let (ok, _, stderr) = mcpm(&["eval", "--benchmark", "facet", "--frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag `--frobnicate`"), "{stderr}");
    assert!(!stderr.contains("did you mean"), "{stderr}");
    assert!(stderr.contains("--benchmark"), "{stderr}");
}

#[test]
fn degenerate_numeric_flags_are_rejected_at_parse_time() {
    for (args, flag) in [
        (
            vec!["eval", "--benchmark", "facet", "--computations", "0"],
            "computations",
        ),
        (
            vec![
                "stats",
                "--benchmark",
                "facet",
                "--clocks",
                "2",
                "--seeds",
                "0",
            ],
            "seeds",
        ),
        (
            vec!["explore", "--benchmark", "hal", "--batch", "0"],
            "batch",
        ),
    ] {
        let (ok, _, stderr) = mcpm(&args);
        assert!(!ok, "{args:?} must fail");
        assert!(
            stderr.contains(&format!("invalid value `0` for --{flag}")),
            "{args:?} → {stderr}"
        );
        assert!(stderr.contains("must be at least 1"), "{stderr}");
    }
}

#[test]
fn stray_positional_arguments_are_rejected() {
    let (ok, _, stderr) = mcpm(&["eval", "facet"]);
    assert!(!ok);
    assert!(stderr.contains("unexpected argument `facet`"), "{stderr}");
}

#[test]
fn paper_takes_no_flags_and_no_arguments() {
    let (ok, _, stderr) = mcpm(&["paper", "--computations", "10"]);
    assert!(!ok, "the record has one setting");
    assert!(
        stderr.contains("unknown flag `--computations` for `paper`; `paper` takes no flags"),
        "{stderr}"
    );
    let (ok, _, stderr) = mcpm(&["paper", "table2"]);
    assert!(!ok, "the record has no section selector");
    assert!(
        stderr.contains("unexpected argument `table2`: `paper` takes no arguments"),
        "{stderr}"
    );
}

#[test]
fn boolean_flags_accept_only_true_or_false() {
    for args in [
        &["eval", "--benchmark", "hal", "--json", "no"][..],
        &["explore", "--benchmark", "hal", "--parallel", "0"],
        &["explore", "--benchmark", "hal", "--parallel", "no"],
        &["retrofit", "--benchmark", "hal", "--parallel", "yes"],
    ] {
        let (ok, stdout, stderr) = mcpm(args);
        assert!(!ok, "{args:?} must fail, printed {stdout}");
        let (flag, value) = (&args[3][2..], args[4]);
        assert!(
            stderr.contains(&format!("invalid value `{value}` for --{flag}")),
            "{args:?} → {stderr}"
        );
    }
    // `false` reads as false: eval prints its text table, not JSON.
    let (ok, stdout, _) = mcpm(&[
        "eval",
        "--benchmark",
        "hal",
        "--computations",
        "20",
        "--json",
        "false",
    ]);
    assert!(ok);
    assert!(
        stdout.contains("3 Clocks") && !stdout.starts_with('{'),
        "{stdout}"
    );
}

#[test]
fn boolean_flags_leave_a_following_positional_alone() {
    let dir = std::env::temp_dir().join("mcpm-cli-bool-positional");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("eval.json");
    let path_str = path.to_str().unwrap();
    let (ok, _, stderr) = mcpm(&[
        "eval",
        "--benchmark",
        "hal",
        "--computations",
        "20",
        "--trace",
        path_str,
    ]);
    assert!(ok, "{stderr}");
    // The bare flag may come before or after the file, or carry an
    // explicit `true`; all three read the same counters.
    let (ok, after, stderr) = mcpm(&["trace-summary", path_str, "--counters"]);
    assert!(ok, "{stderr}");
    assert!(after.contains("\"sim.runs\":"), "{after}");
    for args in [
        &["trace-summary", "--counters", path_str][..],
        &["trace-summary", "--counters", "true", path_str],
    ] {
        let (ok, stdout, stderr) = mcpm(args);
        assert!(ok, "{args:?} → {stderr}");
        assert_eq!(stdout, after, "{args:?}");
    }
    // `false` is still the flag's value, not the file.
    let (ok, stdout, stderr) = mcpm(&["trace-summary", "--counters", "false", path_str]);
    assert!(ok, "{stderr}");
    assert!(!stdout.starts_with("{\"counters\""), "{stdout}");
    // Where no positional is accepted, a stray value is still named as
    // the flag's invalid value, and an explicit `false` still works.
    let (ok, _, stderr) = mcpm(&["eval", "--benchmark", "hal", "--json", "no"]);
    assert!(!ok);
    assert!(stderr.contains("invalid value `no` for --json"), "{stderr}");
    let (ok, stdout, stderr) = mcpm(&[
        "retrofit",
        "--benchmark",
        "hal",
        "--clocks",
        "2",
        "--seeds",
        "2",
        "--computations",
        "20",
        "--parallel",
        "false",
        "--json",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.starts_with('{'), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_flag_writes_a_loadable_chrome_trace() {
    let dir = std::env::temp_dir().join("mcpm-cli-trace-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("eval.json");
    let path_str = path.to_str().unwrap();
    let (ok, _, stderr) = mcpm(&[
        "eval",
        "--benchmark",
        "facet",
        "--computations",
        "30",
        "--trace",
        path_str,
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("trace written"), "{stderr}");

    // The file must validate and summarize through the CLI itself.
    let (ok, stdout, stderr) = mcpm(&["trace-summary", path_str]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("span coverage"), "{stdout}");
    assert!(stdout.contains("mcpm.eval"), "{stdout}");
    assert!(stdout.contains("sim.instructions"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_counters_are_identical_across_runs() {
    let dir = std::env::temp_dir().join("mcpm-cli-trace-determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let mut counters = Vec::new();
    for name in ["a.json", "b.json"] {
        let path = dir.join(name);
        let path_str = path.to_str().unwrap().to_owned();
        let (ok, _, stderr) = mcpm(&[
            "explore",
            "--benchmark",
            "facet",
            "--computations",
            "24",
            "--budget",
            "6",
            "--trace",
            &path_str,
        ]);
        assert!(ok, "{stderr}");
        let (ok, stdout, stderr) = mcpm(&["trace-summary", &path_str, "--counters"]);
        assert!(ok, "{stderr}");
        counters.push(stdout);
    }
    assert_eq!(
        counters[0], counters[1],
        "deterministic counters must be bit-identical across runs"
    );
    assert!(counters[0].contains("\"pool.tasks\":"), "{}", counters[0]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bitsliced_trace_counters_are_identical_across_runs_and_thread_counts() {
    let dir = std::env::temp_dir().join("mcpm-cli-bitslice-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let mut counters = Vec::new();
    for (name, threads) in [("a.json", None), ("b.json", None), ("seq.json", Some("1"))] {
        let path = dir.join(name);
        let path_str = path.to_str().unwrap().to_owned();
        let mut args = vec![
            "explore",
            "--benchmark",
            "hal",
            "--computations",
            "24",
            "--budget",
            "5",
            "--seeds",
            "4",
            "--backend",
            "bitsliced",
            "--trace",
            &path_str,
        ];
        if let Some(t) = threads {
            args.extend(["--threads", t]);
        }
        let (ok, _, stderr) = mcpm(&args);
        assert!(ok, "{stderr}");
        let (ok, stdout, stderr) = mcpm(&["trace-summary", &path_str, "--counters"]);
        assert!(ok, "{stderr}");
        counters.push(stdout);
    }
    assert_eq!(
        counters[0], counters[1],
        "bit-sliced counters must be bit-identical across runs"
    );
    assert_eq!(
        counters[0], counters[2],
        "bit-sliced counters must be bit-identical across thread counts"
    );
    for key in [
        "\"sim.bitslice.planes\":",
        "\"sim.bitslice.plane_ops\":",
        "\"sim.bitslice.popcounts\":",
        "\"sim.bitslice.fallback_transposes\":",
    ] {
        assert!(counters[0].contains(key), "missing {key}: {}", counters[0]);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_renders_bars() {
    let (ok, stdout, _) = mcpm(&[
        "profile",
        "--benchmark",
        "hal",
        "--clocks",
        "2",
        "--computations",
        "40",
    ]);
    assert!(ok);
    assert!(stdout.contains("power profile"));
    assert!(stdout.contains('#'));
}
