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

echo "==> default features must be warning-free (full build, all targets)"
RUSTFLAGS="-Dwarnings" cargo build --workspace --all-targets --offline

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

echo "==> bench smoke: cf2df bench --quick + artifact validation"
target/release/cf2df bench --quick --out-dir target/bench-smoke
# The throughput artifact also carries the multiplexed-serving
# acceptance gate: req/sec at inflight 4 on 4 workers must beat the
# back-to-back serial baseline by 1.3x on at least two workloads.
target/release/cf2df check-bench \
    target/bench-smoke/BENCH_pipeline.json \
    target/bench-smoke/BENCH_executor.json \
    target/bench-smoke/BENCH_translate.json \
    target/bench-smoke/BENCH_throughput.json \
    --require-inflight-speedup 1.3

echo "==> fusion gate: corpus equivalence + token-traffic reduction"
# Macro-op fusion must be execution-invisible (every corpus program x
# schema computes identical results fused and unfused) and must pay its
# way: on the loop_nest executor workloads the fused run processes at
# least 25% fewer tokens than the unfused one, at every worker count.
target/release/cf2df fuse-check
target/release/cf2df bench --quick --no-fuse --out-dir target/bench-smoke-nofuse
target/release/cf2df check-bench \
    target/bench-smoke/BENCH_executor.json \
    --compare target/bench-smoke-nofuse/BENCH_executor.json \
    --min-token-reduction 0.25:loop_nest

echo "==> bench regression gate: compare against committed quick baselines"
# Fails on schema errors, >25% wall-clock regression (median, with a
# 10 µs absolute floor), or any increase in deterministic counters
# (for translate: analyses computed per run). The executor artifact
# additionally passes the compiled-graph acceptance gate: loop_nest
# wall-clock medians (compile, simulator, and every worker width) must
# be at or below the committed quick baseline modulo a 20% jitter
# allowance — the dense runtime representation has to pay for itself,
# not just avoid a 25% regression. Because the gated medians sit inside
# scheduler jitter on a loaded single-core host, a breach triggers one
# fresh re-measurement before it counts: a real regression fails both
# runs, a scheduling hiccup does not.
target/release/cf2df check-bench \
    target/bench-smoke/BENCH_pipeline.json \
    --compare BENCH_pipeline.quick.json
if ! target/release/cf2df check-bench \
    target/bench-smoke/BENCH_executor.json \
    --compare BENCH_executor.quick.json \
    --require-wall-leq loop_nest; then
    echo "    executor gate breached; re-measuring once to rule out scheduler noise"
    target/release/cf2df bench --quick --out-dir target/bench-smoke-retry
    target/release/cf2df check-bench \
        target/bench-smoke-retry/BENCH_executor.json \
        --compare BENCH_executor.quick.json \
        --require-wall-leq loop_nest
fi
target/release/cf2df check-bench \
    target/bench-smoke/BENCH_translate.json \
    --compare BENCH_translate.quick.json
# Throughput rates are wall-clock and noisy on a shared host: like the
# executor gate, a breach triggers one fresh re-measurement before it
# counts.
if ! target/release/cf2df check-bench \
    target/bench-smoke/BENCH_throughput.json \
    --compare BENCH_throughput.quick.json; then
    echo "    throughput gate breached; re-measuring once to rule out scheduler noise"
    target/release/cf2df bench --quick --out-dir target/bench-smoke-retry
    target/release/cf2df check-bench \
        target/bench-smoke-retry/BENCH_throughput.json \
        --compare BENCH_throughput.quick.json
fi

echo "==> best-effort: --all-features (proptest = 8x heavy property mode)"
if cargo build --workspace --all-features --offline; then
    echo "    all-features build: ok"
else
    echo "    all-features build: FAILED (non-blocking)" >&2
fi

echo "verify: OK"
