#!/usr/bin/env bash
# Smoke run of the installed `bootplan` console script.
#
# It checks only what the pytest suite cannot see through cli.main: that the
# entry point runs each command and returns each documented exit code, and
# four wall-clock guards.  Every other command-line check lives in
# tests/test_cli.py.
#
# Usage, with `bootplan` on PATH:  bash tests/smoke.sh
# All files go to a temporary directory, which is removed on exit.
set -euxo pipefail

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"

# exits CODE COMMAND...: run COMMAND and fail unless it exits with CODE.
exits() {
  local want=$1 code=0
  shift
  "$@" || code=$?
  test "$code" -eq "$want"
}

verified() {
  grep -P '^verified_feasible\tyes$' "$1"
}

# Each command once, and each exit code once: 0, 1, 2 and 3.
bootplan gen --kind red-chain --length 7 --out chain.circuit
: > none.marks
exits 1 bootplan check chain.circuit none.marks --level 3
printf 'node a\nnode b\nedge a b\n' > pair.dvd
bootplan reduce-dvd pair.dvd --out reduced.circuit
test -s reduced.circuit && test -s reduced.circuit.map
exits 2 bootplan gen --kind layered --red-fraction 1.5 --out bad.circuit
test ! -e bad.circuit
bootplan gen --kind red-chain --length 25 --out long.circuit
exits 3 bootplan solve long.circuit --level 3 --method exact --out capped.tsv
test ! -e capped.tsv

# A budget far above the depth costs no more than the depth.
timeout 10 bootplan solve chain.circuit --level 1000000000 --out huge.tsv
verified huge.tsv
grep -P '^marks\t$' huge.tsv

# The 750-vertex circuit at L = 3 once hit the simplex iteration cap.
bootplan gen --kind layered --layers 15 --width 50 --red-fraction 0.3 --seed 1 --out big.circuit
timeout 120 bootplan solve big.circuit --level 3 --out big.tsv
verified big.tsv

# Exact search: 12 marks of 15 candidates, found in blocks.
bootplan gen --kind layered --layers 6 --width 3 --red-fraction 1 --seed 1 --out red6.circuit
timeout 10 bootplan solve red6.circuit --level 1 --method exact --out red6.tsv
verified red6.tsv
grep -P '^exact_optimum\t12$' red6.tsv
grep -P '^subsets_explored\t32193$' red6.tsv

# Exact search: 20 marks of 24 candidates.  The search starts at the
# disjoint-row bound, and subsets_explored still counts every smaller size.
bootplan gen --kind layered --layers 9 --width 3 --red-fraction 1 --seed 1 --out red9.circuit
timeout 10 bootplan solve red9.circuit --level 1 --method exact --out red9.tsv
verified red9.tsv
grep -P '^exact_optimum\t20$' red9.tsv
grep -P '^subsets_explored\t16764476$' red9.tsv
