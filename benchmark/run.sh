#!/usr/bin/env bash
# Build the benchmark (and with it the program, from source) and run one
# workload in one process:
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1 [--quick]
# Run from anywhere; everything it writes stays under benchmark/ and the
# cargo target directory.
set -euo pipefail
home="$(dirname "${BASH_SOURCE[0]}")"

# No PROBKB_* knob may reach the build or the run (the binary scrubs its
# own environment too; this keeps `cargo` invocations honest as well).
for name in $(compgen -e); do
    case "$name" in PROBKB_*) unset "$name" ;; esac
done

cargo build --release --offline --quiet --manifest-path "$home/Cargo.toml" >&2
binary="${CARGO_TARGET_DIR:-$home/target}/release/probkb-benchmark"

BENCH_COMMIT="$(git -C "$home" rev-parse --short HEAD 2>/dev/null || echo unknown)"
BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export BENCH_COMMIT BENCH_RUSTC

# The manifest gate comes before anything is measured.
"$binary" check-manifest --home "$home" >&2
exec "$binary" --home "$home" "$@"
