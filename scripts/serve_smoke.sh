#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke of the solve-as-a-service daemon:
# start stsserve, register a generated grid3d plan over HTTP, fire
# concurrent solve requests, and check every returned solution against
# the solution cmd/stssolve computes for the identical system (bitwise:
# both sides print/parse full-precision float64). Then update the plan's
# values mid-load (PUT /v1/plans/g3/values, ×2 — binary-exact) and check
# that every in-flight response matches one of the two epochs in full
# and every post-update response matches the scaled stssolve oracle.
# Finally the warm-restart check: a daemon with -snapshot-dir is killed
# and restarted on the same directory — the plan must come back from its
# snapshot (zero cold builds), at least 10x faster than the cold build,
# with bitwise-identical solves.
#
# Run from anywhere inside the repo: bash scripts/serve_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

N=4000
ADDR=127.0.0.1:8377
DADDR=127.0.0.1:8378
CLIENTS=48
TMP=$(mktemp -d)
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/stsserve" ./cmd/stsserve
go build -o "$TMP/stssolve" ./cmd/stssolve

# Reference: solve the manufactured grid3d system with stssolve and dump
# the right-hand side and solution at full precision (%.17g round-trips
# float64 exactly).
"$TMP/stssolve" -class grid3d -n $N -method sts3 -repeats 1 \
  -dump-rhs "$TMP/b.txt" -dump-solution "$TMP/x.txt" >/dev/null

# Scaled oracle for the mid-load value update: solve the ×2-scaled
# system against the ORIGINAL b (the requests keep sending b.txt). ×2 is
# a power of two, so the scaled values and this run's solution are
# binary-exact — exactly what the server must produce after the PUT.
"$TMP/stssolve" -class grid3d -n $N -method sts3 -repeats 1 -scale-values 2 \
  -load-rhs "$TMP/b.txt" -dump-values "$TMP/vals2.txt" -dump-solution "$TMP/x2.txt" >/dev/null

"$TMP/stsserve" -addr "$ADDR" -debug-addr "$DADDR" -drain-grace 2s &
SERVER_PID=$!

for _ in $(seq 50); do
  curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS "http://$ADDR/healthz" >/dev/null

# Register the same plan the reference used (same deterministic
# generator, same ordering defaults → the same triangular system).
curl -fsS -X POST "http://$ADDR/v1/plans" \
  -d "{\"name\":\"g3\",\"class\":\"grid3d\",\"n\":$N,\"method\":\"sts3\"}" >"$TMP/plan.json"
grep -q '"loaded":true' "$TMP/plan.json" || { echo "plan not loaded: $(cat "$TMP/plan.json")"; exit 1; }

# One request body, fired by $CLIENTS concurrent clients so the
# coalescer actually gets to pack panels.
awk 'BEGIN{printf "{\"plan\":\"g3\",\"b\":["} {printf "%s%s",(NR>1?",":""),$1} END{printf "]}"}' \
  "$TMP/b.txt" >"$TMP/req.json"
seq "$CLIENTS" | xargs -P 32 -I{} curl -fsS -X POST "http://$ADDR/v1/solve" \
  --data-binary @"$TMP/req.json" -o "$TMP/out.{}"

# Every response must match the stssolve solution exactly.
lines=$(wc -l <"$TMP/x.txt")
for i in $(seq "$CLIENTS"); do
  sed 's/.*"x":\[//; s/\].*//' "$TMP/out.$i" | tr ',' '\n' >"$TMP/got.$i"
  got=$(wc -l <"$TMP/got.$i")
  [ "$got" = "$lines" ] || { echo "response $i: $got values, want $lines"; exit 1; }
  paste "$TMP/x.txt" "$TMP/got.$i" | awk '
    { if ($1+0 != $2+0) { bad++; if (bad<4) printf "  mismatch line %d: %s vs %s\n", NR, $1, $2 } }
    END { if (bad>0) { printf "response had %d mismatching values\n", bad; exit 1 } }' \
    || { echo "response $i differs from stssolve output"; exit 1; }
done
echo "all $CLIENTS responses match the stssolve solution bitwise"

curl -fsS "http://$ADDR/metrics" | grep -E "stsserve_panel_width_mean|stsserve_requests_solved_total|stsserve_solve_batches_total"

# --- observability: exposition, stage attribution, traces, pprof -----
# The scrape must be well-formed Prometheus text (monotone buckets,
# +Inf present, _count consistent) and carry the per-stage lifecycle
# histograms plus the runtime health series.
curl -fsS "http://$ADDR/metrics" >"$TMP/met.txt"
python3 scripts/check_exposition.py "$TMP/met.txt" \
  'stsserve_stage_latency_seconds_bucket{stage="queue_wait",outcome="ok"' \
  'stsserve_stage_latency_seconds_bucket{stage="coalesce_wait",outcome="ok"' \
  'stsserve_stage_latency_seconds_bucket{stage="kernel",outcome="ok"' \
  'stsserve_stage_latency_seconds_bucket{stage="serialize",outcome="ok"' \
  'stsserve_stage_latency_seconds_bucket{stage="admission",outcome="ok"' \
  'stsserve_plan_stage_seconds_sum{plan="g3",stage="kernel"}' \
  'stsserve_go_goroutines' \
  'stsserve_go_gc_pause_seconds_bucket'
# The load wave above actually flowed through the stages: the kernel
# stage must have observed at least $CLIENTS solves.
kc=$(sed -n 's/^stsserve_stage_latency_seconds_count{stage="kernel",outcome="ok"} //p' "$TMP/met.txt")
[ -n "$kc" ] && [ "$kc" -ge "$CLIENTS" ] \
  || { echo "kernel stage histogram saw $kc solves, want >= $CLIENTS"; exit 1; }

# A client-supplied trace ID round-trips to the response header and
# names a retained entry in the slow-trace ring.
curl -fsS -D "$TMP/thdr.txt" -X POST "http://$ADDR/v1/solve" \
  -H 'X-STS-Trace-Id: smoketrace42' --data-binary @"$TMP/req.json" -o /dev/null
grep -qi '^x-sts-trace-id: smoketrace42' "$TMP/thdr.txt" \
  || { echo "X-STS-Trace-Id not echoed:"; cat "$TMP/thdr.txt"; exit 1; }
curl -fsS "http://$ADDR/debug/traces?thresholdMs=0" >"$TMP/traces.json"
grep -q '"id":"smoketrace42"' "$TMP/traces.json" \
  || { echo "trace smoketrace42 not retained in /debug/traces"; exit 1; }
grep -q '"stage":"kernel"' "$TMP/traces.json" \
  || { echo "/debug/traces entries carry no kernel span"; exit 1; }
grep -q '"stage":"queue_wait"' "$TMP/traces.json" \
  || { echo "/debug/traces entries carry no queue_wait span"; exit 1; }
# Read-time threshold filtering: an absurd floor retains nothing.
curl -fsS "http://$ADDR/debug/traces?thresholdMs=1e9" | grep -q '"traces":\[\]' \
  || { echo "thresholdMs=1e9 still returned traces"; exit 1; }
# The /debug/traces and /metrics views are mirrored on the debug
# listener, next to pprof.
curl -fsS "http://$DADDR/debug/traces?thresholdMs=0" | grep -q '"enabled":true' \
  || { echo "debug listener does not serve /debug/traces"; exit 1; }

# Capture a CPU profile from the debug listener while a solve wave is
# in flight; the result must be a non-trivial gzipped pprof protobuf.
seq "$CLIENTS" | xargs -P 32 -I{} curl -fsS -X POST "http://$ADDR/v1/solve" \
  --data-binary @"$TMP/req.json" -o /dev/null &
PROF_WAVE=$!
curl -fsS "http://$DADDR/debug/pprof/profile?seconds=1" -o "$TMP/cpu.pb.gz"
wait "$PROF_WAVE"
[ "$(head -c2 "$TMP/cpu.pb.gz" | od -An -tx1 | tr -d ' \n')" = "1f8b" ] \
  || { echo "pprof profile is not gzipped protobuf"; exit 1; }
[ "$(wc -c <"$TMP/cpu.pb.gz")" -gt 100 ] || { echo "pprof profile implausibly small"; exit 1; }
echo "observability: exposition valid, stage histograms live, trace ID round-trips, pprof captured"

# --- numeric refactorization mid-load -------------------------------
# Fire a wave of solves and land the value update while they are in
# flight: the copy-on-write contract says every response is entirely
# old-epoch or entirely new-epoch, never a mix.
awk 'BEGIN{printf "{\"values\":["} {printf "%s%s",(NR>1?",":""),$1} END{printf "],\"ifVersion\":1}"}' \
  "$TMP/vals2.txt" >"$TMP/upd.json"
seq "$CLIENTS" | xargs -P 32 -I{} curl -fsS -X POST "http://$ADDR/v1/solve" \
  --data-binary @"$TMP/req.json" -o "$TMP/mid.{}" &
SOLVE_WAVE=$!
curl -fsS -X PUT "http://$ADDR/v1/plans/g3/values" \
  --data-binary @"$TMP/upd.json" >"$TMP/upd_resp.json"
grep -q '"version":2' "$TMP/upd_resp.json" || { echo "update response lacks version 2: $(cat "$TMP/upd_resp.json")"; exit 1; }
wait "$SOLVE_WAVE"

for i in $(seq "$CLIENTS"); do
  sed 's/.*"x":\[//; s/\].*//' "$TMP/mid.$i" | tr ',' '\n' >"$TMP/midgot.$i"
  paste "$TMP/x.txt" "$TMP/x2.txt" "$TMP/midgot.$i" | awk '
    { if ($1+0 != $3+0) old++; if ($2+0 != $3+0) new++ }
    END { if (old>0 && new>0) { printf "torn response: %d old-epoch and %d new-epoch mismatches\n", old, new; exit 1 } }' \
    || { echo "mid-update response $i matches neither epoch in full"; exit 1; }
done
echo "all $CLIENTS mid-update responses are epoch-consistent"

# After the update every response must match the scaled oracle exactly.
curl -fsS -X POST "http://$ADDR/v1/solve" --data-binary @"$TMP/req.json" -o "$TMP/post.json"
sed 's/.*"x":\[//; s/\].*//' "$TMP/post.json" | tr ',' '\n' >"$TMP/postgot.txt"
paste "$TMP/x2.txt" "$TMP/postgot.txt" | awk '
  { if ($1+0 != $2+0) { bad++; if (bad<4) printf "  mismatch line %d: %s vs %s\n", NR, $1, $2 } }
  END { if (bad>0) { printf "post-update response had %d mismatching values\n", bad; exit 1 } }' \
  || { echo "post-update response differs from the scaled stssolve solution"; exit 1; }
echo "post-update response matches the scaled stssolve solution bitwise"

curl -fsS "http://$ADDR/v1/plans" | grep -q '"version":2' || { echo "plan listing lacks version 2"; exit 1; }
curl -fsS "http://$ADDR/metrics" | grep -E "stsserve_value_updates_total|stsserve_plan_version"

# --- graceful drain over SIGTERM ------------------------------------
# BeginDrain flips /healthz to 503 "draining" while the listener is
# still open (the -drain-grace window), so load balancers route away
# before connections start failing; the daemon then exits 0.
kill -TERM "$SERVER_PID"
drained=""
for _ in $(seq 60); do
  code=$(curl -s -o "$TMP/drain.json" -w '%{http_code}' "http://$ADDR/healthz" 2>/dev/null || echo 000)
  if [ "$code" = "503" ] && grep -q '"draining"' "$TMP/drain.json"; then drained=1; break; fi
  sleep 0.05
done
[ -n "$drained" ] || { echo "healthz never reported draining after SIGTERM"; exit 1; }
rc=0; wait "$SERVER_PID" || rc=$?
SERVER_PID=""
[ "$rc" = "0" ] || { echo "stsserve exited $rc after SIGTERM, want 0"; exit 1; }
echo "SIGTERM drain: healthz flipped to draining, daemon exited 0"

# --- snapshot persistence: warm restart ------------------------------
# Register a plan big enough that the cold ordering-pipeline build costs
# real time, kill the daemon (drain persists the write-behind snapshot),
# restart on the same -snapshot-dir, and require: the plan is resident
# at boot with zero cold builds, WarmStart beat the cold build by >= 10x,
# and a solve matches the stssolve oracle bitwise.
SNAPN=1000000
SNAPDIR="$TMP/snaps"
"$TMP/stssolve" -class grid3d -n $SNAPN -method sts3 -repeats 1 \
  -dump-rhs "$TMP/sb.txt" -dump-solution "$TMP/sx.txt" >/dev/null
awk 'BEGIN{printf "{\"plan\":\"big\",\"b\":["} {printf "%s%s",(NR>1?",":""),$1} END{printf "]}"}' \
  "$TMP/sb.txt" >"$TMP/sreq.json"

"$TMP/stsserve" -addr "$ADDR" -snapshot-dir "$SNAPDIR" 2>"$TMP/cold.log" &
SERVER_PID=$!
for _ in $(seq 50); do
  curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
cold_start=$(date +%s%N)
curl -fsS -X POST "http://$ADDR/v1/plans" \
  -d "{\"name\":\"big\",\"class\":\"grid3d\",\"n\":$SNAPN,\"method\":\"sts3\"}" >/dev/null
cold_ns=$(( $(date +%s%N) - cold_start ))
kill -TERM "$SERVER_PID"
rc=0; wait "$SERVER_PID" || rc=$?
SERVER_PID=""
[ "$rc" = "0" ] || { echo "stsserve exited $rc after SIGTERM, want 0"; exit 1; }
[ -f "$SNAPDIR/big.snap" ] || { echo "no snapshot persisted at $SNAPDIR/big.snap"; exit 1; }

# Restart twice and keep the faster WarmStart: the ratio compares work
# (snapshot reload vs ordering pipeline), and the minimum is the right
# estimator against one-off scheduler noise on loaded CI machines.
warm_best=""
for attempt in 1 2; do
  "$TMP/stsserve" -addr "$ADDR" -snapshot-dir "$SNAPDIR" 2>"$TMP/warm.log" &
  SERVER_PID=$!
  for _ in $(seq 50); do
    curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && break
    sleep 0.2
  done
  w=$(sed -n 's/.*msg="warm-started plans" count=1 .*duration=//p' "$TMP/warm.log" | python3 -c '
import re, sys
s = sys.stdin.read().strip()
m = re.fullmatch(r"(?:(\d+)m)?(?:([\d.]+)s)?(?:([\d.]+)ms)?(?:[\d.]+\xc2?\xb5s)?(?:\d+ns)?", s)
mins, secs, ms = (float(g) if g else 0.0 for g in m.groups())
print(int(mins*60000 + secs*1000 + ms))
')
  if [ -z "$warm_best" ] || [ "$w" -lt "$warm_best" ]; then warm_best=$w; fi
  if [ "$attempt" = "1" ]; then
    kill -TERM "$SERVER_PID"
    rc=0; wait "$SERVER_PID" || rc=$?
    SERVER_PID=""
    [ "$rc" = "0" ] || { echo "stsserve exited $rc after SIGTERM, want 0"; exit 1; }
  fi
done
curl -fsS "http://$ADDR/v1/plans" >"$TMP/warmlist.json"
grep -q '"name":"big"' "$TMP/warmlist.json" || { echo "warm restart lost the plan: $(cat "$TMP/warmlist.json")"; exit 1; }
grep -q '"loaded":true' "$TMP/warmlist.json" || { echo "warm-restarted plan not resident: $(cat "$TMP/warmlist.json")"; exit 1; }

# The restarted daemon must have performed zero cold builds...
curl -fsS "http://$ADDR/metrics" >"$TMP/warmmet.txt"
grep -q '^stsserve_plan_builds_total 0$' "$TMP/warmmet.txt" \
  || { echo "warm restart ran a cold build:"; grep stsserve_plan_builds_total "$TMP/warmmet.txt"; exit 1; }
grep -q '^stsserve_snapshot_loads_total 1$' "$TMP/warmmet.txt" \
  || { echo "warm restart did not load the snapshot:"; grep stsserve_snapshot_loads_total "$TMP/warmmet.txt"; exit 1; }

# ...at least 10x faster than the cold build (WarmStart duration from
# the daemon's own boot log vs the timed cold registration).
warm_ms=$warm_best
cold_ms=$(( cold_ns / 1000000 ))
echo "warm restart: cold build ${cold_ms}ms, warm start ${warm_ms}ms"
[ "$warm_ms" -gt 0 ] || warm_ms=1
[ $(( cold_ms / warm_ms )) -ge 10 ] \
  || { echo "warm restart only $(( cold_ms / warm_ms ))x faster than cold build, want >= 10x"; exit 1; }

# Bitwise solve on the warm-restarted plan, and still zero cold builds.
curl -fsS -X POST "http://$ADDR/v1/solve" --data-binary @"$TMP/sreq.json" -o "$TMP/sout.json"
sed 's/.*"x":\[//; s/\].*//' "$TMP/sout.json" | tr ',' '\n' >"$TMP/sgot.txt"
paste "$TMP/sx.txt" "$TMP/sgot.txt" | awk '
  { if ($1+0 != $2+0) { bad++; if (bad<4) printf "  mismatch line %d: %s vs %s\n", NR, $1, $2 } }
  END { if (bad>0) { printf "warm-restarted response had %d mismatching values\n", bad; exit 1 } }' \
  || { echo "warm-restarted solve differs from the stssolve solution"; exit 1; }
curl -fsS "http://$ADDR/metrics" >"$TMP/postmet.txt"
grep -q '^stsserve_plan_builds_total 0$' "$TMP/postmet.txt" \
  || { echo "solve on the warm-restarted plan triggered a cold build"; exit 1; }
echo "warm restart: snapshot reload $(( cold_ms / warm_ms ))x faster than cold build, solve bitwise identical"

kill -TERM "$SERVER_PID"
rc=0; wait "$SERVER_PID" || rc=$?
SERVER_PID=""
[ "$rc" = "0" ] || { echo "stsserve exited $rc after SIGTERM, want 0"; exit 1; }
echo "serve smoke OK"
