#!/bin/sh
# router_smoke.sh: end-to-end smoke test of the sharded serving tier
# over real sockets, mirroring the CI router-smoke job and
# `make router-smoke`.
#
# Topology: two persisted ctserved replicas behind one ctrouter. The
# script asserts, in order:
#   1. a repeated eval through the router is byte-identical and lands
#      on the same shard (fleet-wide: exactly 1 miss, then 1 hit);
#   2. a sweep fans out and re-merges with a clean summary;
#   3. SIGKILLing one replica does not stop the router answering
#      (transparent failover to the ring successor);
#   4. restarting the dead replica against its persist dir brings it
#      back routable with its cache warm: replaying the whole workload
#      causes (almost) no recomputation — >= 90% warm answers;
#   5. a one-residue words-axis price sweep goes to one replica by its
#      home key, so ctserved_law_fits_total{outcome="fitted"} rises on
#      exactly one of the two replicas.
set -eu

GO=${GO:-go}
OUT=${OUT:-$(mktemp -d)}
trap 'kill "$PID_A" "$PID_B" "$PID_R" 2>/dev/null || true; wait 2>/dev/null || true' EXIT

fail() { echo "router-smoke: FAIL: $*" >&2; exit 1; }

$GO build -o "$OUT/ctserved" ./cmd/ctserved
$GO build -o "$OUT/ctrouter" ./cmd/ctrouter

# wait_addr <logfile> <pid> -> echoes the announced listen address
wait_addr() {
    _addr=
    for _ in $(seq 1 100); do
        _addr=$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$1" | head -n1)
        [ -n "$_addr" ] && break
        kill -0 "$2" 2>/dev/null || { cat "$1" >&2; fail "process died at startup"; }
        sleep 0.1
    done
    [ -n "$_addr" ] || fail "no listening line in $1"
    echo "$_addr"
}

# metric <base> <name> -> value (0 when absent)
metric() {
    curl -fsS "$1/metrics" | sed -n "s/^$2 \([0-9]*\)$/\1/p" | grep . || echo 0
}

# fitted <base> -> laws fitted, summed over law families
fitted() {
    curl -fsS "$1/metrics" \
        | sed -n 's/^ctserved_law_fits_total{family="[a-z]*",outcome="fitted"} \([0-9]*\)$/\1/p' \
        | awk '{ n += $1 } END { print n + 0 }'
}

"$OUT/ctserved" -addr 127.0.0.1:0 -persist "$OUT/pa" -persist-flush 50ms >"$OUT/a.log" 2>&1 &
PID_A=$!
"$OUT/ctserved" -addr 127.0.0.1:0 -persist "$OUT/pb" -persist-flush 50ms >"$OUT/b.log" 2>&1 &
PID_B=$!
ADDR_A=$(wait_addr "$OUT/a.log" "$PID_A")
ADDR_B=$(wait_addr "$OUT/b.log" "$PID_B")

# Stable ring names: the restarted replica must keep its keyspace
# shard even though it comes back on the same port here.
"$OUT/ctrouter" -addr 127.0.0.1:0 \
    -replicas "ra=http://$ADDR_A,rb=http://$ADDR_B" \
    -probe-interval 100ms >"$OUT/r.log" 2>&1 &
PID_R=$!
ADDR_R=$(wait_addr "$OUT/r.log" "$PID_R")
BASE="http://$ADDR_R"
echo "router-smoke: replicas $ADDR_A $ADDR_B behind router $ADDR_R"

curl -fsS "$BASE/healthz" | grep -q ok || fail "router /healthz not ok"
curl -fsS -H 'Accept: application/json' "$BASE/healthz" | grep -q '"routable": *2' \
    || fail "router healthz JSON missing routable:2"

# 1. Shard-stable cache hit: same eval twice -> byte-identical, and
# fleet-wide exactly one miss then one hit (the repeat landed on the
# same replica's cache).
BODY='{"machine":"t3d","expr":"1C64"}'
R1=$(curl -fsS -X POST -d "$BODY" "$BASE/v1/eval") || fail "first routed eval"
R2=$(curl -fsS -X POST -d "$BODY" "$BASE/v1/eval") || fail "second routed eval"
[ "$R1" = "$R2" ] || fail "repeated routed eval not byte-identical"
MISSES=$(( $(metric "http://$ADDR_A" ctserved_cache_misses_total) + $(metric "http://$ADDR_B" ctserved_cache_misses_total) ))
HITS=$(( $(metric "http://$ADDR_A" ctserved_cache_hits_total) + $(metric "http://$ADDR_B" ctserved_cache_hits_total) ))
[ "$MISSES" -eq 1 ] || fail "fleet-wide misses = $MISSES after repeat, want 1 (shard not stable?)"
[ "$HITS" -ge 1 ] || fail "fleet-wide hits = $HITS after repeat, want >= 1"
echo "router-smoke: shard-stable cache hit confirmed (1 miss, $HITS hit)"

# 2. Sweep fan-out: rows from both shards re-merge into one clean stream.
SWEEP='{"kind":"eval","machines":["t3d","paragon"],"ops":["1Q64","1Q1"]}'
S1=$(curl -fsS -X POST -d "$SWEEP" "$BASE/v1/sweep") || fail "routed sweep"
echo "$S1" | grep -q '"done":true,"cells":4,' || fail "sweep summary wrong: $(echo "$S1" | tail -n1)"
echo "$S1" | grep -q 'unreachable' && fail "healthy sweep produced unreachable rows"

# Seed a workload of distinct evals, then let the write-behind flush.
i=1
while [ "$i" -le 20 ]; do
    curl -fsS -X POST -d "{\"machine\":\"t3d\",\"expr\":\"${i}C1\"}" "$BASE/v1/eval" >/dev/null \
        || fail "seed eval $i"
    i=$((i + 1))
done
sleep 0.5

# 3. Kill replica A hard; the router must keep answering everything by
# failing the orphaned shard over to B.
kill -9 "$PID_A"
wait "$PID_A" 2>/dev/null || true
i=1
while [ "$i" -le 20 ]; do
    curl -fsS -X POST -d "{\"machine\":\"t3d\",\"expr\":\"${i}C1\"}" "$BASE/v1/eval" >/dev/null \
        || fail "eval $i failed after replica kill"
    i=$((i + 1))
done
echo "router-smoke: all 20 evals answered with one replica dead"

# 4. Restart A on its old port with its persist dir: it must rejoin the
# ring warm. Replaying the workload must cause no recomputation.
"$OUT/ctserved" -addr "$ADDR_A" -persist "$OUT/pa" -persist-flush 50ms >"$OUT/a2.log" 2>&1 &
PID_A=$!
for _ in $(seq 1 100); do
    ROUTABLE=$(curl -fsS -H 'Accept: application/json' "$BASE/healthz" | sed -n 's/.*"routable": *\([0-9]*\).*/\1/p')
    [ "$ROUTABLE" = "2" ] && break
    sleep 0.1
done
[ "$ROUTABLE" = "2" ] || fail "restarted replica never became routable"
WARM=$(metric "http://$ADDR_A" ctserved_cache_warm_loaded)
[ "$WARM" -ge 1 ] || fail "restarted replica warm-loaded $WARM entries, want >= 1"

M0=$(( $(metric "http://$ADDR_A" ctserved_cache_misses_total) + $(metric "http://$ADDR_B" ctserved_cache_misses_total) ))
i=1
while [ "$i" -le 20 ]; do
    curl -fsS -X POST -d "{\"machine\":\"t3d\",\"expr\":\"${i}C1\"}" "$BASE/v1/eval" >/dev/null \
        || fail "replay eval $i"
    i=$((i + 1))
done
M1=$(( $(metric "http://$ADDR_A" ctserved_cache_misses_total) + $(metric "http://$ADDR_B" ctserved_cache_misses_total) ))
COLD=$((M1 - M0))
[ "$COLD" -le 2 ] || fail "replay recomputed $COLD of 20 answers, want <= 2 (>= 90% warm)"
echo "router-smoke: restart warm-loaded $WARM entries; replay recomputed $COLD/20"

# 5. Law-affine routing: every word count of this sweep is congruent
# modulo t3d's law periods, so all eight cells share one home replica,
# which fits the laws once; the other replica fits nothing.
FA0=$(fitted "http://$ADDR_A")
FB0=$(fitted "http://$ADDR_B")
LAWSWEEP='{"kind":"price","machines":["t3d"],"ops":["1Q64"],"styles":["chained"],"words":[32768,36864,40960,45056,49152,53248,57344,61440]}'
S5=$(curl -fsS -X POST -d "$LAWSWEEP" "$BASE/v1/sweep") || fail "routed law sweep"
echo "$S5" | grep -q '"done":true,"cells":8,' || fail "law sweep summary wrong: $(echo "$S5" | tail -n1)"
DA=$(( $(fitted "http://$ADDR_A") - FA0 ))
DB=$(( $(fitted "http://$ADDR_B") - FB0 ))
{ [ "$DA" -gt 0 ] && [ "$DB" -eq 0 ]; } || { [ "$DA" -eq 0 ] && [ "$DB" -gt 0 ]; } \
    || fail "law fits rose by $DA and $DB on the two replicas, want exactly one rising"
echo "router-smoke: law sweep fitted $((DA + DB)) laws on one replica ($DA + $DB)"

STATS=$(curl -fsS "$BASE/v1/stats") || fail "/v1/stats"
echo "$STATS" | grep -q '"ejections": *[1-9]' || fail "router recorded no ejections: $STATS"

# Clean drain of the whole tier.
kill -TERM "$PID_R"
CODE=0
wait "$PID_R" || CODE=$?
[ "$CODE" -eq 0 ] || { cat "$OUT/r.log" >&2; fail "router exit code $CODE after SIGTERM"; }
kill -TERM "$PID_A" "$PID_B"
wait "$PID_A" || fail "replica A unclean exit"
wait "$PID_B" || fail "replica B unclean exit"
trap - EXIT
echo "router-smoke: PASS (shard-stable hits, failover, warm restart, law-affine sweep, clean drain)"
