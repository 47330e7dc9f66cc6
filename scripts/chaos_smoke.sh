#!/usr/bin/env bash
# chaos_smoke.sh — fault-injection smoke of the solve-as-a-service
# daemon: start stsserve with deterministic chaos armed (kernel panics at
# engine job boundaries, coalescer queue saturation, a registry build
# fault), hammer it with concurrent clients, and assert the fault-
# tolerance contract end to end:
#
#   * the daemon never crashes or deadlocks under injected faults,
#   * every 200 response is bitwise identical to the stssolve oracle,
#   * every failure is a contained refusal (429/500/503/408), never a
#     connection reset or a torn result,
#   * stsserve_panics_recovered_total > 0 — panics were really injected
#     and really contained,
#   * SIGTERM still drains gracefully: /healthz flips to draining and
#     the process exits 0.
#
# Run from anywhere inside the repo: bash scripts/chaos_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

N=3000
ADDR=127.0.0.1:8378
CLIENTS=48
WAVES=4
FAULTS='engine.job:panic:p=0.05;coalescer.enqueue:saturate:p=0.1;registry.build:error:after=1,count=1'
TMP=$(mktemp -d)
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/stsserve" ./cmd/stsserve
go build -o "$TMP/stssolve" ./cmd/stssolve

# Oracle: the same deterministic system the server will build, solved
# offline at full precision (%.17g round-trips float64 exactly).
"$TMP/stssolve" -class grid3d -n $N -method sts3 -repeats 1 \
  -dump-rhs "$TMP/b.txt" -dump-solution "$TMP/x.txt" >/dev/null

"$TMP/stsserve" -addr "$ADDR" -drain-grace 2s \
  -faults "$FAULTS" -fault-seed 7 &
SERVER_PID=$!

for _ in $(seq 50); do
  curl -s -o /dev/null "http://$ADDR/healthz" 2>/dev/null && break
  sleep 0.2
done

# Registration must survive: the build fault is armed after=1, so the
# first build is clean and later cold rebuilds would eat the error.
curl -fsS -X POST "http://$ADDR/v1/plans" \
  -d "{\"name\":\"g3\",\"class\":\"grid3d\",\"n\":$N,\"method\":\"sts3\"}" >"$TMP/plan.json"
grep -q '"loaded":true' "$TMP/plan.json" || { echo "plan not loaded: $(cat "$TMP/plan.json")"; exit 1; }

awk 'BEGIN{printf "{\"plan\":\"g3\",\"b\":["} {printf "%s%s",(NR>1?",":""),$1} END{printf "]}"}' \
  "$TMP/b.txt" >"$TMP/req.json"

# Waves of concurrent clients under fire. Individual request failures are
# the point — only the status code discipline and bitwise 200s matter.
for w in $(seq "$WAVES"); do
  seq "$CLIENTS" | xargs -P 32 -I{} sh -c \
    "curl -s -X POST http://$ADDR/v1/solve --data-binary @$TMP/req.json \
       -o $TMP/out.$w.{} -w '%{http_code}' > $TMP/code.$w.{} || echo 000 > $TMP/code.$w.{}"
done

lines=$(wc -l <"$TMP/x.txt")
ok=0; refused=0
for w in $(seq "$WAVES"); do
  for i in $(seq "$CLIENTS"); do
    code=$(cat "$TMP/code.$w.$i")
    case "$code" in
      200)
        ok=$((ok+1))
        sed 's/.*"x":\[//; s/\].*//' "$TMP/out.$w.$i" | tr ',' '\n' >"$TMP/got"
        got=$(wc -l <"$TMP/got")
        [ "$got" = "$lines" ] || { echo "wave $w response $i: $got values, want $lines"; exit 1; }
        paste "$TMP/x.txt" "$TMP/got" | awk '
          { if ($1+0 != $2+0) { bad++; if (bad<4) printf "  mismatch line %d: %s vs %s\n", NR, $1, $2 } }
          END { if (bad>0) { printf "response had %d mismatching values\n", bad; exit 1 } }' \
          || { echo "wave $w response $i: 200 body differs from the oracle under chaos"; exit 1; }
        ;;
      429|500|503|408)
        refused=$((refused+1))
        ;;
      *)
        echo "wave $w response $i: status $code outside the contained-refusal set"
        exit 1
        ;;
    esac
  done
done
[ "$ok" -gt 0 ] || { echo "chaos starved every request — nothing solved"; exit 1; }

curl -s "http://$ADDR/metrics" >"$TMP/metrics.txt"
panics=$(awk '/^stsserve_panics_recovered_total/ {print $2}' "$TMP/metrics.txt")
retries=$(awk '/^stsserve_retries_total/ {print $2}' "$TMP/metrics.txt")
[ -n "$panics" ] && [ "$panics" -gt 0 ] || { echo "stsserve_panics_recovered_total = ${panics:-missing}, want > 0"; exit 1; }
echo "chaos: $ok bitwise-correct responses, $refused contained refusals, $panics panics recovered, $retries retries"

# The daemon survived the storm and still drains gracefully.
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
[ "$rc" = "0" ] || { echo "stsserve exited $rc after SIGTERM under chaos, want 0"; exit 1; }
echo "chaos smoke OK"
