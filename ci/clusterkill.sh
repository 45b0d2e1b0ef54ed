#!/usr/bin/env bash
# Cluster kill drill: prove the fault-tolerance story end to end, the
# ugly way. Three race-built obarchd nodes warm-boot from one shipped
# image behind a race-built obrouter; race-built loadgen drives keyed +
# keyless traffic through the router while we SIGKILL one node
# mid-flight (no drain — its queue, its connections, and its counters
# all die with it). Node 3 runs every send behind a 50ms stall, and the
# kill waits until node 3 holds a send, so a send is in flight when it
# dies. The drill passes only if:
#
#   - the kill is invisible to well-behaved clients: loadgen exits 0,
#     zero non-retryable failures, every checksum validated — the
#     router absorbed the node death as failovers,
#   - the router's health machinery noticed: the dead node's breaker
#     opened (state "down", breaker_opens >= 1) and the router stayed
#     ready (2/3 is still a quorum),
#   - accounting stays exact where it can be exact: with the dead node
#     still down, a fixed batch of sends across the survivors conserves
#     completed + rejected + shed == submitted + refusal-failovers
#     (the kill phase itself cannot balance — the dead node took its
#     counters with it, which is exactly why this phase exists),
#   - the node comes back: after a restart from the same image the
#     router's half-open probe (an obwire ping on the router's control
#     connection, whose pong must say ready) recovers it to healthy, and
#     it demonstrably receives traffic again. The router reads each
#     node's health and queue depth only from pongs; the drill's own
#     curl of a node's /readyz is just its wait for the node to boot.
#
# Exit 0 only if every assertion holds. Any failure dumps all daemon
# logs for the postmortem.
set -euo pipefail

WORK="$(mktemp -d)"
PORT="${CLUSTERKILL_PORT:-8451}"
A1="127.0.0.1:$PORT"          B1="127.0.0.1:$((PORT + 1))"
A2="127.0.0.1:$((PORT + 2))"  B2="127.0.0.1:$((PORT + 3))"
A3="127.0.0.1:$((PORT + 4))"  B3="127.0.0.1:$((PORT + 5))"
RADDR="127.0.0.1:$((PORT + 6))"
ROUTER="http://$RADDR"
IMG="$WORK/com.img"
P1="" P2="" P3="" PR=""

cleanup() {
  for pid in "$P1" "$P2" "$P3" "$PR"; do
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "clusterkill: FAIL: $*" >&2
  for log in "$WORK"/*.log; do
    echo "--- $(basename "$log") ---" >&2
    cat "$log" >&2 || true
  done
  exit 1
}

wait_ready() { # wait_ready URL NAME
  for _ in $(seq 1 100); do
    if curl -fsS "$1/readyz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  fail "$2 at $1 never became ready"
}

# node_stat BIN_ADDR FIELD — one field of a node's row in the router's
# /stats cluster block.
node_stat() {
  curl -fsS "$ROUTER/stats" | jq -r --arg b "$1" \
    ".cluster.nodes[] | select(.bin_addr == \$b) | .$2"
}

cluster_stat() { # cluster_stat FIELD
  curl -fsS "$ROUTER/stats" | jq -r ".cluster.$1"
}

echo "clusterkill: building race-enabled binaries"
go build -race -o "$WORK/obarchd" ./cmd/obarchd
go build -race -o "$WORK/obrouter" ./cmd/obrouter
go build -race -o "$WORK/loadgen" ./cmd/loadgen

echo "clusterkill: phase 0 — seed the one image every node boots from"
"$WORK/obarchd" -addr "$A1" -image "$IMG" >"$WORK/seed.log" 2>&1 &
SEED=$!
wait_ready "http://$A1" "image seeder"
curl -fsS -X POST "http://$A1/save" >/dev/null || fail "POST /save refused"
kill "$SEED" && wait "$SEED" 2>/dev/null || true
[ -s "$IMG" ] || fail "seeder wrote no image at $IMG"

echo "clusterkill: phase 1 — boot 3 nodes from $IMG behind obrouter"
start_node() { # start_node HTTP_ADDR BIN_ADDR LOG [FLAG...]
  local http="$1" bin="$2" log="$3"
  shift 3
  "$WORK/obarchd" -addr "$http" -binary-addr "$bin" -image "$IMG" -workers 2 "$@" \
    >>"$WORK/$log" 2>&1 &
}
start_node "$A1" "$B1" node1.log; P1=$!
start_node "$A2" "$B2" node2.log; P2=$!
# Node 3 stalls 50ms before every send it runs, so that once traffic
# flows it is almost always mid-send: the kill below lands on a send in
# flight, which the router must fail over.
start_node "$A3" "$B3" node3.log -chaos "stall=1:50ms"; P3=$!
wait_ready "http://$A1" node1
wait_ready "http://$A2" node2
wait_ready "http://$A3" node3
for a in "$A1" "$A2" "$A3"; do
  MODE=$(curl -fsS "http://$a/stats" | jq -r .image.mode)
  [ "$MODE" = "warm" ] || fail "node $a boot mode $MODE, want warm (one image is the distribution mechanism)"
done

"$WORK/obrouter" -addr "$RADDR" -nodes "$A1=$B1,$A2=$B2,$A3=$B3" \
  -poll 100ms -failthreshold 3 -cooldown 1s >"$WORK/router.log" 2>&1 &
PR=$!
wait_ready "$ROUTER" obrouter

# Warmup traffic through the router: keyed sends exercise the ring,
# keyless ones the cluster-level JSQ; loadgen validates every checksum.
"$WORK/loadgen" -addr "$ROUTER" -clients 4 -rounds 4 -skew 0.5 >/dev/null \
  || fail "warmup run through the router failed"
for b in "$B1" "$B2" "$B3"; do
  DONE=$(node_stat "$b" completed)
  [ "$DONE" -gt 0 ] || fail "node $b completed $DONE sends in warmup, want > 0 (routing never reached it)"
done

echo "clusterkill: phase 2 — SIGKILL node 3 mid-traffic"
BASE_SENDS=$(cluster_stat sends)
# 4 clients x 60 rounds x 6 programs = 1440 sends: enough that the kill
# lands mid-flight with plenty of traffic still to route afterwards,
# small enough that six race-built processes on CI iron finish promptly.
"$WORK/loadgen" -addr "$ROUTER" -clients 4 -rounds 60 -skew 0.5 -retries 8 \
  >"$WORK/kill_loadgen.log" 2>&1 &
LG=$!
# Kill only once traffic is demonstrably flowing through the router.
for _ in $(seq 1 200); do
  NOW=$(cluster_stat sends)
  [ $((NOW - BASE_SENDS)) -ge 150 ] && break
  sleep 0.05
done
[ $((NOW - BASE_SENDS)) -ge 150 ] || fail "router saw only $((NOW - BASE_SENDS)) sends; kill would not be mid-traffic"
# Kill only while node 3 itself holds a send: its own queue depths,
# which count a send it is running, sum above zero.
DEPTH=0
for _ in $(seq 1 250); do
  DEPTH=$(curl -fsS "http://$A3/stats" | jq '[.queue_depths[]] | add')
  [ "$DEPTH" -gt 0 ] && break
  sleep 0.02
done
[ "$DEPTH" -gt 0 ] || fail "node 3 held no send in 5s of polling after the router's first 150; kill would not land on a send in flight"
kill -9 "$P3"
wait "$P3" 2>/dev/null || true
P3=""
if ! wait "$LG"; then
  fail "loadgen failed across the node kill (see kill_loadgen.log above) — the kill was client-visible"
fi

FAILOVERS=$(( $(cluster_stat failovers_transport) + $(cluster_stat failovers_refusal) ))
[ "$FAILOVERS" -ge 1 ] || fail "router recorded no failovers across a node kill"
for _ in $(seq 1 100); do
  STATE=$(node_stat "$B3" state)
  [ "$STATE" = "down" ] && break
  sleep 0.1
done
[ "$STATE" = "down" ] || fail "killed node state $STATE, want down (breaker never opened)"
OPENS=$(node_stat "$B3" breaker_opens)
[ "$OPENS" -ge 1 ] || fail "killed node breaker_opens $OPENS, want >= 1"
curl -fsS "$ROUTER/readyz" >/dev/null || fail "router lost readiness at 2/3 routable (that is still a quorum)"

echo "clusterkill: phase 3 — exact conservation across the survivors"
# With the dead node still down, every send lands on a survivor, so the
# books must balance exactly: survivor (requests + rejected + shed)
# deltas equal the submitted count plus the router's refusal failovers
# (each refusal failover is one extra node-side refusal for the same
# client send). 2 clients x 3 rounds x 6 suite programs = 36 sends,
# client retries disabled so the denominator is fixed.
survivor_total() {
  local t=0 s
  for a in "$A1" "$A2"; do
    s=$(curl -fsS "http://$a/stats" | jq -r '.requests + .rejected + .shed_expired')
    t=$((t + s))
  done
  echo "$t"
}
BEFORE=$(survivor_total)
REFUSAL_BEFORE=$(cluster_stat failovers_refusal)
POSTS=36
"$WORK/loadgen" -addr "$ROUTER" -clients 2 -rounds 3 -skew 0.5 -retries 0 >/dev/null \
  || fail "conservation run refused sends with a healthy majority"
AFTER=$(survivor_total)
REFUSAL_AFTER=$(cluster_stat failovers_refusal)
GOT=$((AFTER - BEFORE))
WANT=$((POSTS + REFUSAL_AFTER - REFUSAL_BEFORE))
[ "$GOT" -eq "$WANT" ] || fail "conservation: survivor deltas $GOT, want $WANT ($POSTS submitted + $((REFUSAL_AFTER - REFUSAL_BEFORE)) refusal failovers)"

echo "clusterkill: phase 4 — restart node 3 (without the stall) and watch the half-open probe recover it"
start_node "$A3" "$B3" node3.log; P3=$!
wait_ready "http://$A3" "restarted node3"
for _ in $(seq 1 150); do
  STATE=$(node_stat "$B3" state)
  [ "$STATE" = "healthy" ] && break
  sleep 0.1
done
[ "$STATE" = "healthy" ] || fail "restarted node state $STATE, want healthy (half-open probe never recovered it)"
PROBES=$(node_stat "$B3" probes)
RECOV=$(node_stat "$B3" recoveries)
[ "$PROBES" -ge 1 ] || fail "probes $PROBES after rejoin, want >= 1"
[ "$RECOV" -ge 1 ] || fail "recoveries $RECOV after rejoin, want >= 1"

# The rejoined node must actually receive traffic again.
REJOIN_BASE=$(node_stat "$B3" completed)
"$WORK/loadgen" -addr "$ROUTER" -clients 4 -rounds 6 -skew 0.5 >/dev/null \
  || fail "post-rejoin run failed"
REJOIN_DONE=$(node_stat "$B3" completed)
[ "$REJOIN_DONE" -gt "$REJOIN_BASE" ] || fail "rejoined node served no traffic (completed stuck at $REJOIN_DONE)"
ROUTABLE=$(curl -fsS "$ROUTER/stats" | jq -r .routable)
[ "$ROUTABLE" -eq 3 ] || fail "routable $ROUTABLE after rejoin, want 3"

for pid in "$P1" "$P2" "$P3" "$PR"; do kill "$pid" 2>/dev/null || true; done
for pid in "$P1" "$P2" "$P3" "$PR"; do wait "$pid" 2>/dev/null || true; done
P1="" P2="" P3="" PR=""
echo "clusterkill: PASS — kill absorbed as $FAILOVERS failovers with zero client failures, breaker opened $OPENS time(s), conservation exact across survivors, node rejoined after $PROBES probe(s)"
