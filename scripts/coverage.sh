#!/usr/bin/env bash
# Race-enabled test run plus a per-package coverage summary and a regression
# gate, as two passes over the whole tree: `go test -race ./...` first, then
# `go test -cover ./...`, whose per-package percentages go to a CSV artifact.
# The script fails if either pass fails or if a gated package's coverage
# drops below the floor recorded in scripts/coverage_baseline.txt (the
# values measured when the gate landed; raise them when coverage improves,
# never lower them to make a red build green).
#
# The passes are separate because -race forces -covermode=atomic, and the
# atomic counters in internal/thermal's parallel SOR sweep cost far more than
# the race detector does: on a 2-vCPU machine that package took 102 s under
# -race, 34 s under -cover and 1,058 s under -race -cover, past go test's
# 10-minute default timeout. Coverage is the same either way (89.9%).
#
# The race pass alone takes about 10 minutes on 2 vCPUs, and internal/core,
# not thermal, dominates it: 318 s under -race against 20 s under -cover.
# Two of core's tests take nearly half of that:
# TestDegenerateNetsAgreeAcrossEvaluators takes 91 s under -race against
# 3.8 s without, and TestRunAtPowerBound 55 s against 2.2 s.
#
# Usage:
#   scripts/coverage.sh                 # gate + artifacts under coverage/
#   OUT_DIR=/tmp/cov scripts/coverage.sh
set -euo pipefail

cd "$(dirname "$0")/.."

OUT_DIR="${OUT_DIR:-coverage}"
BASELINE="scripts/coverage_baseline.txt"
mkdir -p "$OUT_DIR"

RACE="$OUT_DIR/race.txt"
RAW="$OUT_DIR/test.txt"
CSV="$OUT_DIR/coverage.csv"

echo "== go test -race ./... -> $RACE"
go test -race ./... | tee "$RACE"

echo "== go test -cover ./... -> $RAW"
go test -cover ./... | tee "$RAW"

# Parse `ok  <pkg>  <time>  coverage: NN.N% of statements` lines.
awk 'BEGIN { print "package,coverage_pct" }
     $1 == "ok" {
       pct = ""
       for (i = 1; i <= NF; i++) if ($i == "coverage:") { pct = $(i+1); sub(/%$/, "", pct) }
       if (pct != "") printf "%s,%s\n", $2, pct
     }' "$RAW" > "$CSV"
echo "== per-package coverage written to $CSV"

# Gate: each `<package> <min_pct>` line in the baseline must be met.
fail=0
while read -r pkg floor; do
  case "$pkg" in ''|'#'*) continue;; esac
  got="$(awk -F, -v p="$pkg" '$1 == p { print $2 }' "$CSV")"
  if [ -z "$got" ]; then
    echo "coverage gate: no coverage recorded for $pkg" >&2
    fail=1
    continue
  fi
  if awk -v g="$got" -v f="$floor" 'BEGIN { exit !(g < f) }'; then
    echo "coverage gate: $pkg at ${got}% is below the ${floor}% floor" >&2
    fail=1
  else
    echo "coverage gate: $pkg at ${got}% (floor ${floor}%)"
  fi
done < "$BASELINE"
exit "$fail"
