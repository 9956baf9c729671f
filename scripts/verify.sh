#!/usr/bin/env bash
# Tier-1 verification, fully offline.
#
# The workspace has a zero-external-dependency policy (see README
# "Offline, zero-dependency build"): everything below must pass on a
# machine with no network access and no cargo registry cache.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> format: cargo fmt --all --check"
# e2ebench/ is a workspace of its own and is not checked here.
cargo fmt --all --check

echo "==> tier-1: cargo build --release --offline"
cargo build --release --offline

echo "==> tier-1: cargo test -q --offline"
# Includes the bench gate: a fresh `cf2df bench` must equal each committed
# BENCH_*.json byte for byte (tests/cli.rs). A change that moves a counter
# regenerates the baselines in the same commit (`cf2df bench` in the
# repository root, then `git diff`). tests/cli.rs also runs the CLI
# smokes: `validate corpus --mutations`, the `chaos --quick` campaign
# and two `serve --quick` sessions, and tests/paper_examples.rs holds
# figures_output.txt to a fresh `figures` render byte for byte.
cargo test -q --offline

echo "==> member crates: unit tests of lang, cfg, dfg, core, machine and bench"
# The tier-1 stage runs only the root package's tests; the member crates'
# own unit tests (scheduler, serve engine, bench renderers, ...) run here.
cargo test -q --offline --workspace --exclude cf2df

echo "==> warning-free build (all targets)"
RUSTFLAGS="-Dwarnings" cargo build --workspace --all-targets --offline

echo "==> lint: clippy must be warning-free (all targets)"
cargo clippy --workspace --all-targets --offline -- -Dwarnings

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

echo "verify: OK"
