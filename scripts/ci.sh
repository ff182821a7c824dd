#!/usr/bin/env bash
# Full offline quality gate: formatting, lints, release build, tests.
# Everything runs without network access — the workspace has no external
# dependencies.
set -euo pipefail

cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" run cargo doc --no-deps --workspace
run cargo build --release --workspace
run cargo test -q --workspace

# Explorer determinism smoke: a tiny-budget exploration of two benchmarks
# must emit bit-identical JSON on a repeated run and with the thread pool
# disabled. Any diff means scheduling leaked into the numbers — fail.
explore_smoke() {
    local bench="$1" dir="$2"
    echo "==> explorer determinism smoke: $bench"
    ./target/release/mcpm explore --benchmark "$bench" --computations 40 \
        --budget 8 --json --out "$dir/$bench.a.json" > /dev/null
    ./target/release/mcpm explore --benchmark "$bench" --computations 40 \
        --budget 8 --json --out "$dir/$bench.b.json" > /dev/null
    ./target/release/mcpm explore --benchmark "$bench" --computations 40 \
        --budget 8 --json --parallel false --out "$dir/$bench.seq.json" > /dev/null
    cmp "$dir/$bench.a.json" "$dir/$bench.b.json" \
        || { echo "ci.sh: $bench explorer JSON differs between runs" >&2; exit 1; }
    cmp "$dir/$bench.a.json" "$dir/$bench.seq.json" \
        || { echo "ci.sh: $bench explorer JSON differs parallel vs sequential" >&2; exit 1; }
}
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT

# Paper record smoke: the release binary must print the pinned record on
# every run. The debug test build checks the same golden (tests/paper.rs),
# so this also holds release and debug builds to the same bytes.
echo "==> paper record smoke: release output == golden, run to run"
./target/release/mcpm paper > "$SMOKE_DIR/paper.a.jsonl"
./target/release/mcpm paper > "$SMOKE_DIR/paper.b.jsonl"
cmp "$SMOKE_DIR/paper.a.jsonl" "$SMOKE_DIR/paper.b.jsonl" \
    || { echo "ci.sh: mcpm paper output differs between runs" >&2; exit 1; }
cmp "$SMOKE_DIR/paper.a.jsonl" tests/golden/paper.jsonl \
    || { echo "ci.sh: mcpm paper output differs from tests/golden/paper.jsonl" >&2; exit 1; }

explore_smoke facet "$SMOKE_DIR"
explore_smoke hal "$SMOKE_DIR"

# Explorer scale smoke: interrupt a budget run via checkpoint, resume it,
# and byte-compare the resumed JSON against a straight-through run of the
# same budget. A diff means the checkpoint lost or reordered state. The
# warm re-run against the same cache directory must also be identical.
echo "==> explorer scale smoke: checkpoint/resume + cross-run cache"
./target/release/mcpm explore --benchmark hal --computations 40 --budget 12 \
    --scenarios 2 --cache-dir "$SMOKE_DIR/xcache" --json \
    --out "$SMOKE_DIR/straight.json" > /dev/null
./target/release/mcpm explore --benchmark hal --computations 40 --budget 6 \
    --scenarios 2 --checkpoint "$SMOKE_DIR/x.ckpt" --json \
    --out "$SMOKE_DIR/interrupted.json" > /dev/null
./target/release/mcpm explore --benchmark hal --computations 40 --budget 12 \
    --scenarios 2 --checkpoint "$SMOKE_DIR/x.ckpt" --resume --json \
    --out "$SMOKE_DIR/resumed.json" > /dev/null
cmp "$SMOKE_DIR/straight.json" "$SMOKE_DIR/resumed.json" \
    || { echo "ci.sh: resumed explorer JSON differs from straight run" >&2; exit 1; }
./target/release/mcpm explore --benchmark hal --computations 40 --budget 12 \
    --scenarios 2 --cache-dir "$SMOKE_DIR/xcache" --json \
    --out "$SMOKE_DIR/warm.json" > /dev/null
cmp "$SMOKE_DIR/straight.json" "$SMOKE_DIR/warm.json" \
    || { echo "ci.sh: warm explorer JSON differs from cold run" >&2; exit 1; }

# Rewrite smoke: the equivalence-checked datapath rewrite axis must keep
# the explorer deterministic — two runs and parallel vs sequential emit
# byte-identical JSON — and must actually evaluate at least one
# equivalence-verified rewritten variant: the frontier carries a
# rewritten row and the deterministic trace counters record a non-zero
# `rewrite.verified`.
echo "==> rewrite smoke: determinism + equivalence-verified variants"
./target/release/mcpm explore --benchmark hal --computations 40 --rewrites 4 \
    --json --trace "$SMOKE_DIR/rw.trace.json" --out "$SMOKE_DIR/rw.a.json" > /dev/null
./target/release/mcpm explore --benchmark hal --computations 40 --rewrites 4 \
    --json --out "$SMOKE_DIR/rw.b.json" > /dev/null
./target/release/mcpm explore --benchmark hal --computations 40 --rewrites 4 \
    --json --parallel false --out "$SMOKE_DIR/rw.seq.json" > /dev/null
cmp "$SMOKE_DIR/rw.a.json" "$SMOKE_DIR/rw.b.json" \
    || { echo "ci.sh: --rewrites explorer JSON differs between runs" >&2; exit 1; }
cmp "$SMOKE_DIR/rw.a.json" "$SMOKE_DIR/rw.seq.json" \
    || { echo "ci.sh: --rewrites explorer JSON differs parallel vs sequential" >&2; exit 1; }
grep -q '"rewrite":"commute"' "$SMOKE_DIR/rw.a.json" \
    || { echo "ci.sh: no rewritten variant reached the --rewrites frontier" >&2; exit 1; }
./target/release/mcpm trace-summary "$SMOKE_DIR/rw.trace.json" --counters \
    > "$SMOKE_DIR/rw.counters"
grep -q '"rewrite.verified":[1-9]' "$SMOKE_DIR/rw.counters" \
    || { echo "ci.sh: trace counters record no equivalence-verified rewrite" >&2; exit 1; }

# Retrofit smoke: export a benchmark, re-import it through the VHDL
# round trip, convert it to the latch-based multi-phase form, and verify
# (bit-identical outputs + power reduction happen inside the command).
# The deterministic JSON report must be bit-identical across two runs
# and with parallel seed verification disabled.
echo "==> retrofit smoke: round trip + conversion determinism"
./target/release/mcpm retrofit --benchmark biquad --computations 40 --seeds 2 \
    --json --out "$SMOKE_DIR/retro.a.json" > /dev/null
./target/release/mcpm retrofit --benchmark biquad --computations 40 --seeds 2 \
    --json --out "$SMOKE_DIR/retro.b.json" > /dev/null
./target/release/mcpm retrofit --benchmark biquad --computations 40 --seeds 2 \
    --json --parallel false --out "$SMOKE_DIR/retro.seq.json" > /dev/null
cmp "$SMOKE_DIR/retro.a.json" "$SMOKE_DIR/retro.b.json" \
    || { echo "ci.sh: retrofit JSON differs between runs" >&2; exit 1; }
cmp "$SMOKE_DIR/retro.a.json" "$SMOKE_DIR/retro.seq.json" \
    || { echo "ci.sh: retrofit JSON differs parallel vs sequential" >&2; exit 1; }
# The release binary must also print the pinned report: line 4 of
# tests/golden/retrofit_reports.jsonl is hal at 3 phases, 16 seeds and
# 200 computations (the debug test build checks every line).
./target/release/mcpm retrofit --benchmark hal --clocks 3 --seeds 16 \
    --computations 200 --json > "$SMOKE_DIR/retro.hal3.json"
sed -n 4p tests/golden/retrofit_reports.jsonl | cmp - "$SMOKE_DIR/retro.hal3.json" \
    || { echo "ci.sh: retrofit JSON differs from tests/golden/retrofit_reports.jsonl" >&2; exit 1; }
# The flat .mcnl export must also survive a file-based round trip.
./target/release/mcpm synth --benchmark facet --clocks 1 --strategy conventional \
    --export mcnl --out "$SMOKE_DIR/facet.mcnl" 2> /dev/null > /dev/null
./target/release/mcpm retrofit --file "$SMOKE_DIR/facet.mcnl" --clocks 2 \
    --computations 40 --seeds 2 > /dev/null \
    || { echo "ci.sh: retrofit of exported .mcnl failed" >&2; exit 1; }

# Bit-sliced backend smoke: the multi-seed commands must emit
# byte-identical JSON whichever batch backend runs them — the backend
# changes throughput, never numbers. Exercised through the two
# multi-seed flows (exploration pricing and retrofit verification).
echo "==> bit-sliced backend smoke: batched vs bitsliced JSON"
./target/release/mcpm explore --benchmark facet --computations 40 --budget 8 \
    --seeds 3 --backend batched --json --out "$SMOKE_DIR/facet.bat.json" > /dev/null
./target/release/mcpm explore --benchmark facet --computations 40 --budget 8 \
    --seeds 3 --backend bitsliced --json --out "$SMOKE_DIR/facet.bs.json" > /dev/null
cmp "$SMOKE_DIR/facet.bat.json" "$SMOKE_DIR/facet.bs.json" \
    || { echo "ci.sh: explore JSON differs between batch backends" >&2; exit 1; }
./target/release/mcpm retrofit --benchmark biquad --computations 40 --seeds 2 \
    --backend bitsliced --json --out "$SMOKE_DIR/retro.bs.json" > /dev/null
cmp "$SMOKE_DIR/retro.a.json" "$SMOKE_DIR/retro.bs.json" \
    || { echo "ci.sh: retrofit JSON differs between batch backends" >&2; exit 1; }

# Trace smoke: --trace must produce a file that validates against the
# Chrome trace_event schema (trace-summary parses and checks every
# event), and the deterministic counter export must be bit-identical
# across two runs — scheduling may move work between threads but never
# change what gets computed. The second export puts the bare
# `--counters` before the file, which must not swallow it.
echo "==> trace smoke: schema + counter determinism"
./target/release/mcpm eval --benchmark hal --computations 40 \
    --trace "$SMOKE_DIR/t1.json" > /dev/null
./target/release/mcpm eval --benchmark hal --computations 40 \
    --trace "$SMOKE_DIR/t2.json" > /dev/null
./target/release/mcpm trace-summary "$SMOKE_DIR/t1.json" > /dev/null \
    || { echo "ci.sh: trace file failed schema validation" >&2; exit 1; }
./target/release/mcpm trace-summary "$SMOKE_DIR/t1.json" --counters \
    > "$SMOKE_DIR/t1.counters"
./target/release/mcpm trace-summary --counters "$SMOKE_DIR/t2.json" \
    > "$SMOKE_DIR/t2.counters"
cmp "$SMOKE_DIR/t1.counters" "$SMOKE_DIR/t2.counters" \
    || { echo "ci.sh: trace counters differ between runs" >&2; exit 1; }

# Serve smoke: boot the persistent service on an ephemeral port, check
# health over raw TCP, diff one served /eval byte for byte against the
# one-shot CLI's --json output (captured via redirection — stdout and
# the HTTP body are the same bytes), then drain it gracefully.
echo "==> serve smoke: health + byte-identity + graceful shutdown"
./target/release/mcpm serve --addr 127.0.0.1:0 \
    --cache-dir "$SMOKE_DIR/serve-cache" > "$SMOKE_DIR/serve.log" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2> /dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
for _ in $(seq 50); do
    grep -q "listening on" "$SMOKE_DIR/serve.log" && break
    sleep 0.1
done
SERVE_ADDR="$(sed -n 's#.*http://\([0-9.:]*\).*#\1#p' "$SMOKE_DIR/serve.log")"
test -n "$SERVE_ADDR" \
    || { echo "ci.sh: mcpm serve never announced its address" >&2; exit 1; }
./target/release/mcpm request --addr "$SERVE_ADDR" --get --path /healthz > /dev/null
./target/release/mcpm request --addr "$SERVE_ADDR" --path /eval \
    --body '{"benchmark":"facet","computations":40}' > "$SMOKE_DIR/eval.served.json"
./target/release/mcpm eval --benchmark facet --computations 40 --json \
    > "$SMOKE_DIR/eval.cli.json"
cmp "$SMOKE_DIR/eval.served.json" "$SMOKE_DIR/eval.cli.json" \
    || { echo "ci.sh: served /eval differs from CLI --json output" >&2; exit 1; }
./target/release/mcpm request --addr "$SERVE_ADDR" --path /shutdown > /dev/null
wait "$SERVE_PID" \
    || { echo "ci.sh: mcpm serve exited non-zero after shutdown" >&2; exit 1; }
trap 'rm -rf "$SMOKE_DIR"' EXIT

# Benchmark smoke: perfbench/ (a Cargo workspace of its own, so the
# workspace stages above never build it) names library items, so an API
# change that breaks the repository benchmark fails here. Its self-tests
# run, then one untraced and one traced retrofit_mc run, one untraced and
# one traced serve_eval run, then two traced paper_eval runs; each run's
# last line must report every output check correct and no failed
# operation, so every workload of BENCHMARK.json runs. The traced
# serve_eval counts must include the simulations that served requests
# ran on the server's workers (`sim.runs`), and the two paper_eval runs
# must print byte-identical exact-counts lines (the table path's
# simulated work is deterministic). No timing is gated. perfbench writes .perfbench_work/
# in its working directory, so every run starts in the scratch directory.
PERFBENCH_MANIFEST="$(pwd)/perfbench/Cargo.toml"
run cargo test -q --release --manifest-path "$PERFBENCH_MANIFEST"
perfbench_smoke() { # workload trace out-file
    echo "==> perfbench smoke: $1 --trace $2"
    (cd "$SMOKE_DIR" && cargo run -q --release --manifest-path "$PERFBENCH_MANIFEST" -- \
        --workload "$1" --seed 1 --seconds 1 --trace "$2") > "$3"
    local last
    last="$(tail -n 1 "$3")"
    grep -q '"correct":true' <<< "$last" && grep -qE '"failed":0[,}]' <<< "$last" \
        || { echo "ci.sh: perfbench $1 --trace $2 run failed: $last" >&2; exit 1; }
}
perfbench_smoke retrofit_mc 0 "$SMOKE_DIR/perfbench.out"
perfbench_smoke retrofit_mc 1 "$SMOKE_DIR/perfbench.out"
perfbench_smoke serve_eval 0 "$SMOKE_DIR/perfbench.out"
perfbench_smoke serve_eval 1 "$SMOKE_DIR/serve_eval.out"
grep '^exact-counts ' "$SMOKE_DIR/serve_eval.out" | grep -q '"sim.runs":[1-9]' \
    || { echo "ci.sh: traced perfbench serve_eval counts carry no sim.runs" >&2; exit 1; }
for pass in 1 2; do
    perfbench_smoke paper_eval 1 "$SMOKE_DIR/paper_eval.$pass.out"
    grep '^exact-counts ' "$SMOKE_DIR/paper_eval.$pass.out" > "$SMOKE_DIR/paper_eval.$pass.counts" \
        || { echo "ci.sh: perfbench paper_eval run $pass printed no exact-counts" >&2; exit 1; }
done
cmp "$SMOKE_DIR/paper_eval.1.counts" "$SMOKE_DIR/paper_eval.2.counts" \
    || { echo "ci.sh: perfbench paper_eval exact-counts differ between runs" >&2; exit 1; }

echo "==> ci.sh: all checks passed"
