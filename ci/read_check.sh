#!/usr/bin/env bash
# Read-consistency gate: runs the mixed-paper perfbench workload (50% get,
# 50% put, Zipf 0.99 under the paper model) for seeds 1-3. The harness
# checks every get against read-your-writes and every acknowledged put, and
# exits non-zero on any stale or unknown value. This script fails unless
# every run exits 0.
#
# Usage:
#   ci/read_check.sh [seconds]
#
# seconds defaults to 39, the benchmark's run length. Each run takes about
# a minute (setup plus the measured window) on 4 cores.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
seconds="${1:-39}"
failed=0
for seed in 1 2 3; do
  echo "==> mixed-paper seed ${seed} (${seconds} s)"
  if ! python3 perfbench/run.py --workload mixed-paper --seed "${seed}" \
      --seconds "${seconds}" --trace 0 | tail -n 2; then
    echo "FAIL: mixed-paper seed ${seed}" >&2
    failed=1
  fi
done
exit "${failed}"
