#!/usr/bin/env bash
# Line delta of a change, per top-level directory.
#
# Usage:
#   ci/loc_delta.sh <base-ref>
#
# Compares the working tree (every tracked file, staged or not; `git add`
# new files first) against <base-ref> with `git diff --numstat` and
# prints lines added, removed and net for src/, tests/, bench/, docs/
# and ci/, then the files outside them as "other" and a total. Binary
# files count as zero lines.
set -euo pipefail

if (( $# != 1 )); then
  echo "usage: $0 <base-ref>" >&2
  exit 2
fi

cd "$(dirname "${BASH_SOURCE[0]}")/.."
git diff --numstat "$1" -- | awk -F'\t' '
  BEGIN {
    n = split("src tests bench docs ci other", order, " ")
    for (i = 1; i <= n; i++) { add[order[i]] = 0; del[order[i]] = 0 }
  }
  {
    dir = $3
    sub(/\/.*/, "", dir)
    if (!(dir in add) || dir == $3) dir = "other"
    if ($1 != "-") { add[dir] += $1; del[dir] += $2 }
  }
  END {
    printf "%-8s %8s %8s %8s\n", "dir", "added", "removed", "net"
    for (i = 1; i <= n; i++) {
      d = order[i]
      label = d == "other" ? d : d "/"
      printf "%-8s %8d %8d %+8d\n", label, add[d], del[d], add[d] - del[d]
      ta += add[d]; td += del[d]
    }
    printf "%-8s %8d %8d %+8d\n", "total", ta, td, ta - td
  }'
