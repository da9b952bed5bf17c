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
              ship_stale_snapshot semijoin_probe_first_only; do
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

echo "mutation_smoke: all mutants caught"
