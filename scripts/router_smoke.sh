#!/usr/bin/env bash
# router_smoke.sh — end-to-end smoke of the 2-replica router mode:
# start two stsserve replicas and one stsserve -route process over
# them, register a plan through the router (broadcast to both), check
# routed solves against the stssolve oracle bitwise, then kill one
# replica mid-run and require every subsequent routed solve to keep
# answering 200 — the router ejects the dead replica and fails over;
# it never turns a dead backend into a 500 of its own.
#
# Run from anywhere inside the repo: bash scripts/router_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

N=4000
TMP=$(mktemp -d)
PIDS=()
cleanup() {
  for p in "${PIDS[@]:-}"; do kill "$p" 2>/dev/null || true; done
  rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/stsserve" ./cmd/stsserve
go build -o "$TMP/stssolve" ./cmd/stssolve

# Oracle: the same deterministic system the replicas will build.
"$TMP/stssolve" -class grid3d -n $N -method sts3 -repeats 1 \
  -dump-rhs "$TMP/b.txt" -dump-solution "$TMP/x.txt" >/dev/null
awk 'BEGIN{printf "{\"plan\":\"g3\",\"b\":["} {printf "%s%s",(NR>1?",":""),$1} END{printf "]}"}' \
  "$TMP/b.txt" >"$TMP/req.json"

# Two replicas on ephemeral ports.
"$TMP/stsserve" -addr 127.0.0.1:0 -addr-file "$TMP/rep1.addr" 2>"$TMP/rep1.log" &
REP1_PID=$!; PIDS+=("$REP1_PID")
"$TMP/stsserve" -addr 127.0.0.1:0 -addr-file "$TMP/rep2.addr" 2>"$TMP/rep2.log" &
REP2_PID=$!; PIDS+=("$REP2_PID")
for f in rep1.addr rep2.addr; do
  for _ in $(seq 50); do [ -s "$TMP/$f" ] && break; sleep 0.2; done
  [ -s "$TMP/$f" ] || { echo "replica never wrote $f"; exit 1; }
done
REP1=$(cat "$TMP/rep1.addr"); REP2=$(cat "$TMP/rep2.addr")
for a in "$REP1" "$REP2"; do
  for _ in $(seq 50); do curl -fsS "http://$a/healthz" >/dev/null 2>&1 && break; sleep 0.2; done
  curl -fsS "http://$a/healthz" >/dev/null
done

# The router over both, with a fast probe so ejection lands quickly.
"$TMP/stsserve" -route "$REP1,$REP2" -addr 127.0.0.1:0 -addr-file "$TMP/rt.addr" \
  -health-interval 100ms 2>"$TMP/rt.log" &
RT_PID=$!; PIDS+=("$RT_PID")
for _ in $(seq 50); do [ -s "$TMP/rt.addr" ] && break; sleep 0.2; done
RT=$(cat "$TMP/rt.addr")
for _ in $(seq 50); do curl -fsS "http://$RT/healthz" >/dev/null 2>&1 && break; sleep 0.2; done

# Register through the router: the broadcast must land on BOTH replicas.
curl -fsS -X POST "http://$RT/v1/plans" \
  -d "{\"name\":\"g3\",\"class\":\"grid3d\",\"n\":$N,\"method\":\"sts3\"}" >/dev/null
for a in "$REP1" "$REP2"; do
  curl -fsS "http://$a/v1/plans" >"$TMP/rep.json"
  grep -q '"name":"g3"' "$TMP/rep.json" \
    || { echo "replica $a missing the broadcast plan: $(cat "$TMP/rep.json")"; exit 1; }
done
echo "registration broadcast to both replicas"

# Routed solves with both replicas up: all 200, all bitwise-exact.
solve_and_check() { # $1 = output tag
  code=$(curl -s -o "$TMP/out.$1" -w '%{http_code}' -X POST "http://$RT/v1/solve" \
    --data-binary @"$TMP/req.json")
  [ "$code" = "200" ] || { echo "routed solve $1 answered $code: $(head -c 200 "$TMP/out.$1")"; exit 1; }
  sed 's/.*"x":\[//; s/\].*//' "$TMP/out.$1" | tr ',' '\n' >"$TMP/got.$1"
  paste "$TMP/x.txt" "$TMP/got.$1" | awk '
    { if ($1+0 != $2+0) { bad++; if (bad<4) printf "  mismatch line %d: %s vs %s\n", NR, $1, $2 } }
    END { if (bad>0) { printf "response had %d mismatching values\n", bad; exit 1 } }' \
    || { echo "routed solve $1 differs from stssolve output"; exit 1; }
}
for i in $(seq 10); do solve_and_check "pre.$i"; done
echo "10 routed solves OK with both replicas up"

# --- trace-ID propagation through the router -------------------------
# A client-supplied X-STS-Trace-Id must survive the routed hop: the
# backend echoes it, the router relays the echo, and the ID names a
# retained entry in the serving replica's /debug/traces ring.
code=$(curl -s -D "$TMP/thdr.txt" -o /dev/null -w '%{http_code}' -X POST "http://$RT/v1/solve" \
  -H 'X-STS-Trace-Id: tracesmoke42' --data-binary @"$TMP/req.json")
[ "$code" = "200" ] || { echo "traced routed solve answered $code"; exit 1; }
grep -qi '^x-sts-trace-id: tracesmoke42' "$TMP/thdr.txt" \
  || { echo "router did not relay the trace ID echo:"; cat "$TMP/thdr.txt"; exit 1; }
found=""
for a in "$REP1" "$REP2"; do
  if curl -fsS "http://$a/debug/traces?thresholdMs=0" | grep -q '"id":"tracesmoke42"'; then found=1; fi
done
[ -n "$found" ] || { echo "trace tracesmoke42 retained on neither replica"; exit 1; }

# Without a client ID the router mints one (16 hex digits) so the whole
# fan-out is attributable, and the response still carries it.
curl -s -D "$TMP/thdr2.txt" -o /dev/null -X POST "http://$RT/v1/solve" \
  --data-binary @"$TMP/req.json"
grep -qiE '^x-sts-trace-id: [0-9a-f]{16}' "$TMP/thdr2.txt" \
  || { echo "router did not mint a trace ID:"; cat "$TMP/thdr2.txt"; exit 1; }
echo "trace IDs round-trip through the router (client-supplied and minted)"

# Replica and router expositions are well-formed, with the stage
# histograms live on the replicas after the routed load.
curl -fsS "http://$REP2/metrics" >"$TMP/repmet.txt"
python3 scripts/check_exposition.py "$TMP/repmet.txt" \
  'stsserve_stage_latency_seconds_bucket{stage="kernel",outcome="ok"' \
  'stsserve_stage_latency_seconds_bucket{stage="queue_wait",outcome="ok"' \
  'stsserve_go_goroutines'

# Kill one replica abruptly (no drain) and keep firing: the router must
# fail over / eject and keep serving 200s — never a 500 of its own.
kill -KILL "$REP1_PID"
wait "$REP1_PID" 2>/dev/null || true
for i in $(seq 20); do solve_and_check "post.$i"; done
echo "20 routed solves OK with one replica killed mid-run"

# The prober must have ejected the dead replica, and the router's own
# health endpoint keeps answering 200 while one backend is alive.
sleep 0.5
curl -fsS "http://$RT/metrics" >"$TMP/rtmet.txt"
python3 scripts/check_exposition.py "$TMP/rtmet.txt" 'stsrouter_requests_total'
grep -q '^stsrouter_ejections_total [1-9]' "$TMP/rtmet.txt" \
  || { echo "router never ejected the dead replica:"; grep stsrouter "$TMP/rtmet.txt"; exit 1; }
grep -q "stsrouter_backend_healthy{backend=\"http://$REP2\"} 1" "$TMP/rtmet.txt" \
  || { echo "router lost the live replica:"; grep stsrouter_backend_healthy "$TMP/rtmet.txt"; exit 1; }
curl -fsS "http://$RT/healthz" >/dev/null || { echo "router healthz failed with one live backend"; exit 1; }
echo "dead replica ejected, router healthy on the survivor"

# Value update through the router reaches the survivor.
"$TMP/stssolve" -class grid3d -n $N -method sts3 -repeats 1 -scale-values 2 \
  -load-rhs "$TMP/b.txt" -dump-values "$TMP/vals2.txt" -dump-solution "$TMP/x2.txt" >/dev/null
awk 'BEGIN{printf "{\"values\":["} {printf "%s%s",(NR>1?",":""),$1} END{printf "],\"ifVersion\":1}"}' \
  "$TMP/vals2.txt" >"$TMP/upd.json"
curl -fsS -X PUT "http://$RT/v1/plans/g3/values" --data-binary @"$TMP/upd.json" >/dev/null
cp "$TMP/x2.txt" "$TMP/x.txt"
solve_and_check "upd"
echo "post-update routed solve matches the scaled oracle bitwise"

# No 500s anywhere in the run, and a clean router drain.
kill -TERM "$RT_PID"
rc=0; wait "$RT_PID" || rc=$?
[ "$rc" = "0" ] || { echo "router exited $rc after SIGTERM, want 0"; exit 1; }
echo "router smoke OK"
