#!/usr/bin/env bash
# Chaos smoke: run a fault-injected, tightly-deadlined server against
# hostile clients and assert that it stays up, keeps answering, and
# accounts for every abuse in its telemetry.
#
#   scripts/chaos.sh [path-to-paradb-binary]
#
# Artifacts: chaos-serve.log (server stderr/stdout), chaos-trace.jsonl
# (span trace covering the whole storm).
set -eux

PARADB=${1:-./_build/default/bin/paradb.exe}

# Inject faults into the server's own I/O paths: truncated reads,
# delayed writes, surprise disconnects.  The seed pins the storm.
export PARADB_FAULTS="short_read:0.1,write_delay:0.05,disconnect:0.05,seed:42"

$PARADB serve --port 0 --deadline-ms 200 --max-line 4096 --max-rows 1000 \
  --idle-timeout 30 --grace 1 --trace chaos-trace.jsonl \
  > chaos-serve.log 2>&1 &
SERVE_PID=$!
trap 'kill $SERVE_PID 2>/dev/null || true' EXIT
for i in $(seq 1 50); do grep -q listening chaos-serve.log && break; sleep 0.2; done
PORT=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' chaos-serve.log)

# A database big enough that the 4-cycle join below cannot finish
# inside a 200ms deadline on the naive engine.
$PARADB generate edges -n 1000 --seed 7 > chaos.facts
BLOWER='EVAL g naive ans(W, X, Y, Z) :- e(W, X), e(X, Y), e(Y, Z), e(Z, W).'

# With disconnect faults active any single request may be dropped, so
# every well-behaved request retries.
req() { $PARADB client --port "$PORT" --timeout 10 --retries 5 -c "$1"; }
req "LOAD g chaos.facts"

# The storm: oversized lines, raw garbage with half-closed sockets, and
# deadline blowers, interleaved.  Individual commands are allowed to
# fail (that is the point); the server must survive all of them.
for i in $(seq 1 10); do
  req "EVAL g naive $(printf 'x%.0s' $(seq 1 8000))" || true
  { printf 'EVAL g naive garbage(((\r\n\000\001\002\n'; } \
    > "/dev/tcp/127.0.0.1/$PORT" || true
  req "$BLOWER" || true
done

# Deterministically observe a deadline rejection (retry past injected
# disconnects, which can eat the response).
DEADLINE_SEEN=0
for i in $(seq 1 10); do
  if req "$BLOWER" 2>&1 | grep -q 'deadline-exceeded'; then
    DEADLINE_SEEN=1
    break
  fi
done
test "$DEADLINE_SEEN" -eq 1

# Oversized results carry the truncation marker instead of flooding
# the wire (the 2-hop join is far past --max-rows 1000).
for i in $(seq 1 5); do
  req 'EVAL g yannakakis ans(X, Y) :- e(X, Z), e(Z, Y).' \
    > chaos-truncated.out && break
done
grep -q 'truncated=true' chaos-truncated.out
test "$(tail -n +2 chaos-truncated.out | wc -l)" -eq 1000

# The pool is still alive and bit-identical on a well-behaved query
# under the row cap: same answer as the one-shot evaluator.
req 'EVAL g yannakakis ans(Y) :- e(1, Z), e(Z, Y).' \
  | tail -n +2 | sort > chaos-server.out
$PARADB eval --db chaos.facts --engine yannakakis \
  'ans(Y) :- e(1, Z), e(Z, Y).' \
  | sed -n 's/^  \((.*)\)$/\1/p' | sort > chaos-oneshot.out
diff chaos-server.out chaos-oneshot.out

# Telemetry accounted for the storm: deadlines fired, faults injected,
# and METRICS still answers with quantiles.  Injected disconnects can
# drop a stats response too (--retries only covers the connect), so
# each scrape retries until its output holds the lines checked.
for i in $(seq 1 5); do
  $PARADB stats --port "$PORT" > chaos-stats.out || true
  grep -q '^telemetry.server.deadline_exceeded ' chaos-stats.out \
    && grep -q '^telemetry.server.faults.injected ' chaos-stats.out && break
done
cat chaos-stats.out
DEADLINES=$(awk '$1 == "telemetry.server.deadline_exceeded" { print $2 }' chaos-stats.out)
test "${DEADLINES:-0}" -ge 1
FAULTS=$(awk '$1 == "telemetry.server.faults.injected" { print $2 }' chaos-stats.out)
test "${FAULTS:-0}" -ge 1
for i in $(seq 1 5); do
  $PARADB stats --port "$PORT" --json > chaos-stats.json || true
  grep -q '"p99"' chaos-stats.json && break
done
grep -q '"p99"' chaos-stats.json

# Graceful shutdown on SIGTERM: drain and exit within the grace window.
kill -TERM $SERVE_PID
wait $SERVE_PID || true
test -s chaos-trace.jsonl
grep -q '"name":"server.eval"' chaos-trace.jsonl

# ── Cluster storm ────────────────────────────────────────────────────
# A coordinator over two clean shards, with shard-loss and straggler
# faults injected into the coordinator's own shard calls: every dropped
# pooled connection must redial (or fail over — replicas=2 keeps every
# slice reachable), every answer must stay bit-identical to the
# one-shot evaluator, and a real shard death must be absorbed too.
unset PARADB_FAULTS
$PARADB serve --port 0 > chaos-cshard0.log 2>&1 &
CS0=$!
$PARADB serve --port 0 > chaos-cshard1.log 2>&1 &
CS1=$!
trap 'kill $SERVE_PID $CS0 $CS1 $COORD 2>/dev/null || true' EXIT
for f in chaos-cshard0.log chaos-cshard1.log; do
  for i in $(seq 1 50); do grep -q listening "$f" && break; sleep 0.2; done
done
P0=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' chaos-cshard0.log)
P1=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' chaos-cshard1.log)
mkdir -p chaos-hints
PARADB_FAULTS="shard_loss:0.2,straggler_delay:0.2,seed:42" \
  $PARADB coordinator --port 0 --shards "$P0,$P1" --replicas 2 \
  --shard-retries 5 --hints-dir chaos-hints > chaos-coord.log 2>&1 &
COORD=$!
for i in $(seq 1 50); do grep -q coordinating chaos-coord.log && break; sleep 0.2; done
CPORT=$(sed -n 's/.*on 127\.0\.0\.1:\([0-9]*\).*/\1/p' chaos-coord.log)
creq() { $PARADB client --port "$CPORT" --timeout 10 --retries 5 -c "$1"; }
creq "LOAD g chaos.facts"
CQ='ans(Y) :- e(1, Z), e(Z, Y).'
$PARADB eval --db chaos.facts "$CQ" \
  | sed -n 's/^  \((.*)\)$/\1/p' | sort > chaos-cluster-oneshot.out
for i in $(seq 1 15); do
  creq "EVAL g auto $CQ" | tail -n +2 | sort > chaos-cluster.out
  diff chaos-cluster.out chaos-cluster-oneshot.out
done
# kill one shard outright: replicas keep answering, bit-identical
kill $CS1; wait $CS1 || true
creq "EVAL g auto $CQ" | tail -n +2 | sort > chaos-cluster.out
diff chaos-cluster.out chaos-cluster-oneshot.out
# writes keep flowing while the shard is down: acked ones count the
# replica miss and journal a hint for handoff
creq "FACT g e(9001, 1)." || true
creq "FACT g e(9002, 1)." || true
# repair storm: revive the shard with empty state (full amnesia), let
# REPAIR replay the hints and re-ship the divergent slices, then demand
# bit-identical replicas and bit-identical answers
$PARADB serve --port "$P1" > chaos-cshard1b.log 2>&1 &
CS1=$!
for i in $(seq 1 50); do grep -q listening chaos-cshard1b.log && break; sleep 0.2; done
# injected shard_loss can fault a repair sub-request, so retry the
# pass; it must converge within a few attempts
CONVERGED=0
for i in $(seq 1 10); do
  creq "REPAIR g" | tee chaos-repair.out || true
  grep -q 'repaired g' chaos-repair.out || continue
  if creq "DIGEST g" | tee chaos-digest.out | grep -q 'divergent=0'; then
    CONVERGED=1
    break
  fi
done
test "$CONVERGED" -eq 1
creq "EVAL g auto $CQ" | tail -n +2 | sort > chaos-cluster.out
diff chaos-cluster.out chaos-cluster-oneshot.out
# the storm is accounted for: rounds ran, faults fired, the dead shard
# registered as a failover, and the per-shard histograms answer
$PARADB stats --port "$CPORT" | tee chaos-cluster-stats.out
ROUNDS=$(awk '$1 == "telemetry.cluster.rounds" { print $2 }' chaos-cluster-stats.out)
test "${ROUNDS:-0}" -ge 16
CFAULTS=$(awk '$1 == "telemetry.server.faults.injected" { print $2 }' chaos-cluster-stats.out)
test "${CFAULTS:-0}" -ge 1
FAILOVERS=$(awk '$1 == "telemetry.cluster.failover" { print $2 }' chaos-cluster-stats.out)
test "${FAILOVERS:-0}" -ge 1
$PARADB stats --port "$CPORT" --json | grep -q '"cluster.round.ns"'
kill -TERM $COORD; wait $COORD || true
kill $CS0; wait $CS0 || true

echo "chaos smoke passed"
