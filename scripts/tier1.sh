#!/usr/bin/env bash
# Tier-1 verification: exactly what CI runs, plus static gates (rustfmt +
# clippy with warnings denied on every target, the in-tree analyzer)
# and the `repro` gates. The root manifest's `default-members` lists
# every crate, so the plain `cargo build --release && cargo test -q`
# builds and tests the whole workspace: unit tests, the determinism and
# oracle suites, and the server e2e suites. Run from the repo root; one
# command is the whole tier-1 gate.
set -euo pipefail
cd "$(dirname "$0")/.."

# --full additionally runs the dynamic checkers (Miri + TSan via
# scripts/sanitize.sh) after the static gate; they degrade to a loud
# skip on toolchains without nightly, so --full is safe anywhere.
FULL=0
if [[ "${1:-}" == "--full" ]]; then
    FULL=1
    shift
fi

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# Workspace invariants (unsafe-audit, determinism, lock-discipline,
# lock-graph, atomics-audit, error-hygiene): zero violations, enforced
# by the in-tree analyzer — including the derived lock-order graph and
# the interprocedural determinism taint.
cargo run -q -p tane-lint --release
# Rustdoc with warnings denied: a doc link to a deleted or private item
# fails here instead of rotting silently.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
# The benchmark harness is its own Cargo package, so the root build never
# compiles it; type-check it here so a rename of any workspace item it
# uses fails tier-1 instead of the benchmark run. `--locked` keeps the
# check from rewriting perfbench/Cargo.lock.
cargo check --offline --locked --manifest-path perfbench/Cargo.toml

if [[ "$FULL" == "1" ]]; then
    ./scripts/sanitize.sh
fi

cargo build --release
# The server suites again in release: a fast search is what exposes a
# response the socket holds back (a streamed level arriving with the
# trailer), which the slow debug search hides.
cargo test -q --release -p tane-server
cargo test -q
# Work-stealing pool scaling gate: a cheap small-dataset scaling run that
# fails if 4 threads do not beat 2 on the memory backend. The check skips
# (loudly) on machines with fewer than 4 cores, where the comparison is
# meaningless; N, products and disk bytes read/written are asserted
# identical down the thread column either way.
./target/release/repro scaling --fast --assert-scaling > /dev/null
# Ranked search gate: a cheap bounded-vs-unbounded run that asserts the
# bounded heap is a prefix of the unbounded ranking and never adds work.
./target/release/repro topk --fast > /dev/null

echo "tier1: OK"
