//! Pins the reproduction record and the document that reports it.
//!
//! - `mcpm paper` must print `tests/golden/paper.jsonl` byte for byte.
//!   The record is deterministic, so any diff is a real change to a paper
//!   number, and the change that causes it has to explain it. Regenerate
//!   only for an intended change, with:
//!
//!   ```text
//!   MC_UPDATE_GOLDEN=1 cargo test --test paper
//!   ```
//!
//! - EXPERIMENTS.md must show Tables 1–4 and their "Gated → best
//!   multiclock" lines exactly as rendered here from the golden file.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

use multiclock::trace::json::{parse, Value};

fn repo_file(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name)
}

fn read(name: &str) -> String {
    std::fs::read_to_string(repo_file(name)).unwrap_or_else(|e| panic!("cannot read {name}: {e}"))
}

#[test]
fn paper_record_matches_the_golden_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_mcpm"))
        .arg("paper")
        .output()
        .expect("mcpm runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "mcpm paper failed: {stderr}");
    let record = String::from_utf8(out.stdout).expect("UTF-8 record");
    if std::env::var_os("MC_UPDATE_GOLDEN").is_some() {
        std::fs::write(repo_file("tests/golden/paper.jsonl"), &record).expect("write golden");
    }
    let golden = read("tests/golden/paper.jsonl");
    let diffs: Vec<String> = golden
        .lines()
        .zip(record.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  got  {got}\n  want {want}"))
        .collect();
    assert!(diffs.is_empty(), "record drifted:\n{}", diffs.join("\n"));
    assert_eq!(record, golden, "record differs from the golden file");
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("missing `{key}`"))
}

fn num(v: &Value, key: &str) -> f64 {
    field(v, key).as_f64().expect("a number")
}

fn rows(v: &Value) -> &[Value] {
    field(v, "rows").as_array().expect("an array")
}

/// An integer with its thousands separated by spaces: `2 157 436`.
fn grouped(v: f64) -> String {
    let digits = format!("{v:.0}");
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            out.push(' ');
        }
        out.push(c);
    }
    out
}

/// Tables 1–4 as EXPERIMENTS.md shows them, each followed by its
/// gated → best multiclock line. Every table carries Table 1's full
/// column set; starred columns are the published values.
fn rendered_tables(golden: &str) -> Vec<String> {
    let mut blocks = Vec::new();
    for line in golden.lines() {
        let doc = parse(line).expect("golden lines are JSON");
        let section = field(&doc, "section").as_str().expect("a string");
        if !section.starts_with("table") {
            continue;
        }
        let (measured, published) = (field(&doc, "measured"), field(&doc, "published"));
        let mut table = String::from(
            "| design | mW | mW* | λ² | λ²* | Mem | Mem* | MuxIn | MuxIn* |\n\
             |---|---|---|---|---|---|---|---|---|\n",
        );
        for (m, p) in rows(measured).iter().zip(rows(published)) {
            let style = field(m, "style").as_str().expect("a string");
            assert_eq!(
                Some(style),
                field(p, "style").as_str(),
                "{section} rows align"
            );
            let _ = writeln!(
                table,
                "| {style} | {:.2} | {:.2} | {} | {} | {:.0} | {:.0} | {:.0} | {:.0} |",
                num(m, "power_mw"),
                num(p, "power_mw"),
                grouped(num(m, "area_lambda2")),
                grouped(num(p, "area_lambda2")),
                num(m, "mem_cells"),
                num(p, "mem_cells"),
                num(m, "mux_inputs"),
                num(p, "mux_inputs"),
            );
        }
        blocks.push(table.trim_end().to_owned());
        let reduction = "gated_to_best_multiclock_reduction";
        blocks.push(format!(
            "Gated → best multiclock: **measured −{:.1} %, published −{:.1} %**.",
            100.0 * num(measured, reduction),
            100.0 * num(published, reduction),
        ));
    }
    blocks
}

#[test]
fn experiments_md_shows_the_golden_tables() {
    let blocks = rendered_tables(&read("tests/golden/paper.jsonl"));
    assert_eq!(blocks.len(), 8, "four tables, each with its reduction line");
    let doc = read("EXPERIMENTS.md");
    let doc: Vec<&str> = doc.lines().collect();
    let shown = |block: &String| {
        let want: Vec<&str> = block.lines().collect();
        doc.windows(want.len()).any(|w| w == want.as_slice())
    };
    assert!(
        blocks.iter().all(shown),
        "EXPERIMENTS.md disagrees with tests/golden/paper.jsonl; it must contain, \
         line for line:\n\n{}",
        blocks.join("\n\n")
    );
}
