#!/usr/bin/env bash
# The network serving tier end-to-end: two shard processes, a router
# fronting them, and a 200-request mixed workload (updates included)
# driven through net::Client (`viptree_query --connect`). Venue ids
# net-a/net-b rendezvous-hash to different shards, so the router genuinely
# splits the load, and its fleet-wide stats count all 200. Then SIGTERM
# one shard: it must drain and exit cleanly, and the rerun must fail over
# to the survivor with zero failures.
#
# Usage: tools/ci/net_e2e_smoke.sh BIN_DIR PORT_BASE
#   BIN_DIR    holds viptree_build, viptree_query and viptree_router
#   PORT_BASE  the router listens on PORT_BASE, the shards on the next two
# Scratch files go to $RUNNER_TEMP when it is set, else to a new temp dir.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 BIN_DIR PORT_BASE" >&2
  exit 2
fi
BIN="$1"
ROUTER_PORT="$2"
SHARD1_PORT=$((ROUTER_PORT + 1))
SHARD2_PORT=$((ROUTER_PORT + 2))
TMP="${RUNNER_TEMP:-$(mktemp -d)}"
# A failed step must not leave a shard or the router running.
trap 'kill $(jobs -p) 2>/dev/null || true' EXIT

"$BIN/viptree_build" --seed 40 --objects 24 --keyword-tags 3 \
  --out "$TMP/net-a.vipsnap" \
  --registry "$TMP/net-registry.txt" --venue-id net-a
"$BIN/viptree_build" --seed 42 --objects 24 --keyword-tags 3 \
  --out "$TMP/net-b.vipsnap" \
  --registry "$TMP/net-registry.txt" --venue-id net-b
"$BIN/viptree_query" --registry "$TMP/net-registry.txt" \
  --venue net-a --queries 80 --updates 20 \
  --emit-workload > "$TMP/net.txt"
"$BIN/viptree_query" --registry "$TMP/net-registry.txt" \
  --venue net-b --queries 80 --updates 20 \
  --emit-workload >> "$TMP/net.txt"
"$BIN/viptree_query" --registry "$TMP/net-registry.txt" \
  --listen "$SHARD1_PORT" --threads 2 > "$TMP/shard1.out" & S1=$!
"$BIN/viptree_query" --registry "$TMP/net-registry.txt" \
  --listen "$SHARD2_PORT" --threads 2 > "$TMP/shard2.out" & S2=$!
sleep 1
"$BIN/viptree_router" \
  --shards "127.0.0.1:$SHARD1_PORT,127.0.0.1:$SHARD2_PORT" \
  --manifest "$TMP/net-registry.txt" --listen "$ROUTER_PORT" \
  --probe-interval-ms 50 > "$TMP/router.out" & R=$!
sleep 1
"$BIN/viptree_query" --connect "127.0.0.1:$ROUTER_PORT" \
  --input "$TMP/net.txt" | tee "$TMP/net1.out"
grep -q "sent 200 requests to 127.0.0.1:$ROUTER_PORT (160 ok, 40 updates, 0 expired, 0 rejected, 0 failed)" "$TMP/net1.out"
# The router answers a stats probe from fresh shard replies, so the run
# just finished is counted in full.
grep -q "(200 submitted fleet-wide)" "$TMP/net1.out"
kill -TERM "$S1" && wait "$S1"
grep -q "shard drained" "$TMP/shard1.out"
"$BIN/viptree_query" --connect "127.0.0.1:$ROUTER_PORT" \
  --input "$TMP/net.txt" | tee "$TMP/net2.out"
grep -q "sent 200 requests to 127.0.0.1:$ROUTER_PORT (160 ok, 40 updates, 0 expired, 0 rejected, 0 failed)" "$TMP/net2.out"
kill -TERM "$R" && wait "$R"
grep -q "router drained" "$TMP/router.out"
kill -TERM "$S2" && wait "$S2"
grep -q "shard drained" "$TMP/shard2.out"
