#!/usr/bin/env bash
# Appends one hot-path speedup measurement (legacy AoS engine loop vs the
# flat-SoA/scratch/skip engine) to BENCH_hotpath.json at the repo root.
# Each line is a self-contained JSON object stamped with the current git
# revision (suffixed `-dirty` when measured on uncommitted changes), so the
# file accumulates a performance trajectory across commits.
#
# Usage: scripts/bench_report.sh [output-file]
# Env:   HYVE_BENCH_SMALL=1 switches from the largest dataset (TW) to YT
#        for quick CI runs.
#        HYVE_TRACE_DIR=<dir> additionally writes per-iteration trace
#        artifacts (JSONL, inspect with `hyve report`) next to the
#        trajectory.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_hotpath.json}"

if [ -n "${HYVE_TRACE_DIR:-}" ]; then
  mkdir -p "$HYVE_TRACE_DIR"
fi

HOTPATH_REV="$(git describe --always --dirty 2>/dev/null || echo unknown)"
HOTPATH_UTC="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
export HOTPATH_REV HOTPATH_UTC

cargo run --release -p hyve-bench --bin hotpath_report -- "$out"
echo "==> trajectory tail:"
tail -n 1 "$out"
