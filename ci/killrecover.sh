#!/usr/bin/env bash
# Kill-and-recover drill: prove the durability story end to end, the ugly
# way. A race-built obarchd serves real loadgen traffic — over the obwire
# binary transport, so the drill covers both wires — while the
# background checkpointer writes generations (one image file each); we
# SIGKILL it mid-flight (no drain, no final checkpoint), corrupt the
# newest generation's file to force the recovery ladder to actually
# reject a rung, restart from the same checkpoint directory, and assert
# from /stats that the reborn node:
#
#   - booted from a checkpoint (mode == "checkpoint"),
#   - skipped the corrupted generation (recovered_generation < newest,
#     recovery_ladder >= 1),
#   - serves warm — itlb_hit_ratio == 1 after the first send, because a
#     checkpoint image carries its method cache with it,
#   - and conserves accounting: requests + rejected + shed_expired on the
#     new node equals exactly the sends we posted at it.
#
# Exit 0 only if every assertion holds. Any failure leaves the daemon log
# on stdout for the postmortem.
set -euo pipefail

WORK="$(mktemp -d)"
ADDR="127.0.0.1:${KILLRECOVER_PORT:-8441}"
BADDR="127.0.0.1:$(( ${KILLRECOVER_PORT:-8441} + 1 ))"
BASE="http://$ADDR"
CKPT="$WORK/ckpt"
LOG="$WORK/obarchd.log"
PID=""

cleanup() {
  [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "killrecover: FAIL: $*" >&2
  echo "--- obarchd log ---" >&2
  cat "$LOG" >&2 || true
  exit 1
}

wait_ready() {
  for _ in $(seq 1 100); do
    if curl -fsS "$BASE/readyz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  fail "server at $BASE never became ready"
}

echo "killrecover: building race-enabled binaries"
go build -race -o "$WORK/obarchd" ./cmd/obarchd
go build -o "$WORK/loadgen" ./cmd/loadgen

echo "killrecover: phase 1 — serve traffic, checkpoint every 300ms"
# -workers 1 so every program the suite replays warms the one shard the
# checkpoint snapshots: the recovered image must carry a fully warm
# method cache for the itlb_hit_ratio == 1 assertion below.
"$WORK/obarchd" -addr "$ADDR" -binary-addr "$BADDR" -workers 1 -checkpoint 300ms \
  -checkpoint-dir "$CKPT" -checkpoint-keep 4 >"$LOG" 2>&1 &
PID=$!
wait_ready

# Traffic while the checkpointer runs — over the pipelined binary
# transport, so the checkpoint drill also soaks the obwire path; loadgen
# itself asserts zero failures and every checksum.
"$WORK/loadgen" -addr "$BASE" -transport binary -binary-addr "$BADDR" -pipeline 4 \
  -clients 4 -rounds 6 >/dev/null

# Wait until at least two complete generations exist, so corrupting the
# newest still leaves a valid one to recover.
for _ in $(seq 1 100); do
  COUNT=$(ls "$CKPT"/gen-*.img 2>/dev/null | wc -l)
  [ "$COUNT" -ge 2 ] && break
  sleep 0.1
done
[ "$COUNT" -ge 2 ] || fail "checkpointer wrote $COUNT generations, need 2"

echo "killrecover: phase 2 — SIGKILL mid-flight (no drain, no parting checkpoint)"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

NEWEST=$(ls "$CKPT"/gen-*.img | sort | tail -1)
OLDER=$(ls "$CKPT"/gen-*.img | sort | tail -2 | head -1)
OLDER_GEN=${OLDER##*gen-}
OLDER_GEN=$((10#${OLDER_GEN%.img}))
echo "killrecover: corrupting $NEWEST (newest must be rejected, gen $OLDER_GEN must boot)"
python3 - "$NEWEST" <<'EOF'
import sys
path = sys.argv[1]
b = bytearray(open(path, "rb").read())
b[len(b) // 2] ^= 1
open(path, "wb").write(b)
EOF

echo "killrecover: phase 3 — restart from the checkpoint directory"
"$WORK/obarchd" -addr "$ADDR" -binary-addr "$BADDR" -checkpoint 300ms \
  -checkpoint-dir "$CKPT" -checkpoint-keep 4 -image "$WORK/com.img" >>"$LOG" 2>&1 &
PID=$!
wait_ready

# A known fixed number of sends so conservation is exact: 2 clients,
# 3 rounds, 6 suite programs = 36 sends, retries disabled, one binary
# frame per send (depth 1) — every frame must land in exactly one of the
# server's three counters.
POSTS=36
"$WORK/loadgen" -addr "$BASE" -transport binary -binary-addr "$BADDR" \
  -clients 2 -rounds 3 -retries 0 >/dev/null

STATS=$(curl -fsS "$BASE/stats")
MODE=$(echo "$STATS" | jq -r .image.mode)
GEN=$(echo "$STATS" | jq -r .image.recovered_generation)
LADDER=$(echo "$STATS" | jq -r .image.recovery_ladder)
HIT=$(echo "$STATS" | jq -r .itlb_hit_ratio)
REQ=$(echo "$STATS" | jq -r .requests)
REJ=$(echo "$STATS" | jq -r .rejected)
SHED=$(echo "$STATS" | jq -r .shed_expired)

[ "$MODE" = "checkpoint" ] || fail "boot mode $MODE, want checkpoint"
[ "$GEN" = "$OLDER_GEN" ] || fail "recovered generation $GEN, want $OLDER_GEN (corrupt newest skipped)"
[ "$LADDER" -ge 1 ] || fail "recovery ladder $LADDER, want >= 1 (the corrupt generation costs a rung)"
[ "$HIT" = "1" ] || fail "itlb_hit_ratio $HIT after recovery, want 1 (checkpoint must carry the warm method cache)"
TOTAL=$((REQ + REJ + SHED))
[ "$TOTAL" -eq "$POSTS" ] || fail "conservation: requests($REQ) + rejected($REJ) + shed_expired($SHED) = $TOTAL, want $POSTS"

echo "killrecover: phase 4 — live rotation drill on the recovered node"
# Persist the recovered node's live state as its -image, then have
# loadgen swap the pool onto it mid-traffic: the run fails unless the
# rotation completes with zero lost sends and the client p99 stays
# inside budget (generous — this is a race-built binary on CI iron).
curl -fsS -X POST "$BASE/save" >/dev/null || fail "POST /save refused"
# Traffic rides the binary wire at depth 1 so rotation-transient
# refusals retry through the backoff loop; the rotation POST itself is
# control-plane HTTP.
"$WORK/loadgen" -addr "$BASE" -transport binary -binary-addr "$BADDR" -clients 4 -rounds 8 \
  -expect-rotation -p99budget 2s >/dev/null || fail "rotation drill (see loadgen output above)"
ROTS=$(curl -fsS "$BASE/stats" | jq -r .rotations)
[ "$ROTS" -ge 1 ] || fail "rotations counter $ROTS after the drill, want >= 1"

kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
PID=""
echo "killrecover: PASS — recovered gen $GEN (ladder $LADDER), warm ITLB, conservation exact, live rotation clean"
