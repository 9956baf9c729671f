#!/usr/bin/env bash
# Tier-1 verification, fully offline.
#
# The workspace has a zero-external-dependency policy (see README
# "Offline, zero-dependency build"): everything below must pass on a
# machine with no network access and no cargo registry cache.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> tier-1: cargo build --release --offline"
cargo build --release --offline

echo "==> tier-1: cargo test -q --offline"
cargo test -q --offline

echo "==> member crates: unit tests of lang, cfg, dfg, core, machine and bench"
# The tier-1 stage runs only the root package's tests; the member crates'
# own unit tests (scheduler, serve engine, bench gate table, ...) run here.
cargo test -q --offline --workspace --exclude cf2df

echo "==> default features must be warning-free (full build, all targets)"
RUSTFLAGS="-Dwarnings" cargo build --workspace --all-targets --offline

echo "==> docs: rustdoc must be warning-free"
# Intra-doc links to renamed or deleted items dangle silently unless the
# docs are built; rustdoc's warnings (unresolved or ambiguous links
# included) are errors here.
RUSTDOCFLAGS=-Dwarnings cargo doc --workspace --no-deps --offline

echo "==> e2ebench: build and self-test the end-to-end benchmark"
# e2ebench/ is a Cargo workspace of its own, so the stages above never
# compile it: a public-API change in core, dfg or machine would break the
# benchmark unnoticed. Its self-test runs every workload in quick mode.
cargo test --offline --release --manifest-path e2ebench/Cargo.toml

echo "==> validate: certify corpus x schemas x optimized, + mutation slice"
# The static translation validator must certify the full corpus matrix
# with zero defects, and the seeded mutation harness must detect every
# injected translator bug (drop-arc, retarget-switch-output,
# delete-loop-exit, swap-merge-for-strict).
target/release/cf2df validate corpus --mutations --seeds 4

echo "==> chaos smoke: fault-injection campaign (cf2df chaos --quick)"
# Every run must match the deterministic simulator or return a typed
# machine error within the watchdog bound — no hangs, no aborts.
target/release/cf2df chaos --quick

echo "==> serve smoke: concurrent multi-invocation engine (cf2df serve --quick)"
# Every request is verified bit-for-bit against the deterministic
# simulator; exits non-zero on any mismatch or per-request error.
target/release/cf2df serve --quick
target/release/cf2df serve --quick --inflight 1 --workers 2 stencil

echo "==> bench: cf2df bench, fused and --no-fuse"
target/release/cf2df bench --out-dir target/bench-smoke
target/release/cf2df bench --no-fuse --out-dir target/bench-smoke-nofuse

echo "==> bench gate: every counter exact against the committed baselines"
# One table of deterministic counters (crates/bench/src/compare.rs):
# every counter must equal the baseline's and every row must be present
# on both sides. A change that moves a counter regenerates the baseline
# in the same commit (`cf2df bench` in the repository root, then
# `git diff`). The artifacts hold no wall-clock field: timing across
# commits is judged only in alternating e2ebench pairs against the
# bounds in BENCHMARK.json.
for kind in pipeline executor translate; do
    target/release/cf2df check-bench \
        "target/bench-smoke/BENCH_$kind.json" --compare "BENCH_$kind.json"
done

echo "==> fusion gate: corpus equivalence + token-traffic reduction"
# Macro-op fusion must be execution-invisible (every corpus program x
# schema computes identical results fused and unfused) and must pay its
# way: on the loop_nest executor workloads the fused run processes at
# least 25% fewer tokens than the unfused one, at every worker count.
target/release/cf2df fuse-check
target/release/cf2df check-bench \
    target/bench-smoke/BENCH_executor.json \
    --compare target/bench-smoke-nofuse/BENCH_executor.json

echo "==> best-effort: --all-features (proptest = 8x heavy property mode)"
if cargo build --workspace --all-features --offline; then
    echo "    all-features build: ok"
else
    echo "    all-features build: FAILED (non-blocking)" >&2
fi

echo "verify: OK"
