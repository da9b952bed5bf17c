#!/usr/bin/env bash
# Mutation smoke: arm each seeded single-point bug via PARADB_MUTATE and
# assert the differential oracle catches it within the PR-gate case
# budget, with a shrunk counterexample small enough to read at a glance
# (<= 4 atoms, <= 10 tuples).  A clean unmutated run must stay green.
#
#   scripts/mutation_smoke.sh [path-to-paradb-binary]
#
# Exit codes: 0 all mutants caught and the clean run is clean; 1 a
# mutant survived, a counterexample was too large, or the clean run
# diverged.
set -eu

PARADB=${1:-./_build/default/bin/paradb.exe}
SEED=${SEED:-1}
CASES=${CASES:-500}
MAX_ATOMS=4
MAX_TUPLES=10

fail() { echo "mutation_smoke: $*" >&2; exit 1; }

# --- clean run: no divergences without a mutant armed ------------------
unset PARADB_MUTATE || true
out=$("$PARADB" fuzz --seed "$SEED" --cases "$CASES") || fail "clean run diverged (exit $?): $out"
echo "$out" | grep -q 'divergences=0' || fail "clean run reported divergences: $out"
echo "mutation_smoke: clean run ok ($CASES cases)"

# --- each mutant must be caught, with a small counterexample -----------
for mutant in semijoin_off_by_one drop_neq color_count probe_key_swap \
              sum_instead_of_max count_dedup_drop materialize_drop_eq \
              ship_drop_row exists_cut_early barrier_key_prefix \
              ship_stale_snapshot semijoin_probe_first_only order_raw_codes \
              neq_quotient_sign forest_count_headfree_bool; do
  set +e
  out=$(PARADB_MUTATE=$mutant "$PARADB" fuzz --seed "$SEED" --cases "$CASES")
  status=$?
  set -e
  [ "$status" -eq 2 ] || fail "mutant $mutant survived $CASES cases (exit $status)"

  # first divergence line: "divergence: engine=... atoms=N tuples=M"
  line=$(echo "$out" | grep -m1 '^divergence:') || fail "mutant $mutant: exit 2 but no divergence line"
  atoms=$(echo "$line" | sed -n 's/.*atoms=\([0-9]*\).*/\1/p')
  tuples=$(echo "$line" | sed -n 's/.*tuples=\([0-9]*\).*/\1/p')
  [ -n "$atoms" ] && [ -n "$tuples" ] || fail "mutant $mutant: cannot parse: $line"
  [ "$atoms" -le "$MAX_ATOMS" ] || fail "mutant $mutant: counterexample has $atoms atoms (> $MAX_ATOMS)"
  [ "$tuples" -le "$MAX_TUPLES" ] || fail "mutant $mutant: counterexample has $tuples tuples (> $MAX_TUPLES)"
  echo "mutation_smoke: $mutant caught (atoms=$atoms tuples=$tuples)"
done

# --- unchecked_add: no bounded fuzz case reaches 2^62 valuations, so the
# overflow mutant is caught on the query that needs it: COUNT of a
# 12-edge path on the complete 40-node graph (40^13 valuations) must
# fail with count-overflow, and the mutant must answer a number.
facts=$(mktemp)
trap 'rm -f "$facts"' EXIT
for i in $(seq 0 39); do for j in $(seq 0 39); do echo "e($i, $j)."; done; done > "$facts"
path='ans() :- e(X0, X1), e(X1, X2), e(X2, X3), e(X3, X4), e(X4, X5), e(X5, X6), e(X6, X7), e(X7, X8), e(X8, X9), e(X9, X10), e(X10, X11), e(X11, X12).'
set +e
err=$("$PARADB" eval --count -d "$facts" "$path" 2>&1)
status=$?
set -e
[ "$status" -ne 0 ] && echo "$err" | grep -q 'count-overflow' \
  || fail "clean build did not refuse the overflowing COUNT: $err"
out=$(PARADB_MUTATE=unchecked_add "$PARADB" eval --count -d "$facts" "$path" 2>&1) \
  || fail "unchecked_add survived: $out"
echo "mutation_smoke: unchecked_add caught (answered $(echo "$out" | tail -1))"

echo "mutation_smoke: all mutants caught"
