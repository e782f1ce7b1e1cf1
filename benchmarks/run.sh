#!/usr/bin/env bash
# Builds the program under test and the benchmark, then hands over to
# g10bench. Run from the repository root:
#
#   bash benchmarks/run.sh all --seed 46            # everything, ~4 min
#   bash benchmarks/run.sh all --seed 46 --smoke    # every workload, tiny, < 20 s
#   bash benchmarks/run.sh bench --workload demo --seed 1 --seconds 8 --trace 0
set -euo pipefail

if [ ! -f Cargo.toml ] || [ ! -d crates ] || [ ! -f benchmarks/Cargo.toml ]; then
    echo "run.sh: run from the root of a grade10 checkout" >&2
    exit 1
fi

# The root manifest points its external dependencies at vendor/*, which no
# commit carries. Until one does, the stand-ins take its place; the link is
# git-ignored and a real vendor/ is never touched.
if [ ! -e vendor/rand/Cargo.toml ]; then
    ln -sfn benchmarks/standins vendor
fi

# One target directory for both builds, so the crates compile once and the
# two binaries end up side by side.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"

start=$(date +%s%N)
cargo build --release --offline --locked --quiet --bin grade10
cargo build --release --offline --locked --quiet --manifest-path benchmarks/Cargo.toml
# Printed, not gated: a no-op build when nothing changed.
echo "build_s $(( ($(date +%s%N) - start) / 1000000 ))e-3" >&2

exec "$CARGO_TARGET_DIR/release/g10bench" "$@"
