#!/usr/bin/env bash
# Black-box load smoke test: boot a span-instrumented, journaled
# sparcle-server on the example scenario, fire a short open-loop Poisson
# run at it with sparcle-load, and require (a) a nonzero number of
# admissions, (b) a parseable non-empty Chrome trace from GET
# /debug/flight, (c) a report carrying per-stage latency quantiles, and
# (d) commit-queue activity on /healthz. A second pass reboots the server
# region-sharded (-shards 4) and writes its own report, so the sharded
# admission path gets the same black-box treatment as the single-lock
# one.
set -euo pipefail

rate=${RATE:-100}
duration=${DURATION:-3s}
min_admitted=${MIN_ADMITTED:-10}

work=$(mktemp -d)
trap 'kill "${pid:-}" 2>/dev/null || true; rm -rf "$work"' EXIT

go build -o "$work/sparcle" ./cmd/sparcle
go build -o "$work/sparcle-server" ./cmd/sparcle-server
go build -o "$work/sparcle-load" ./cmd/sparcle-load
"$work/sparcle" -example > "$work/scenario.json"

# boot LOG FLAGS... starts a server on the example scenario and sets pid
# and addr once it listens.
boot() {
    local log=$1
    shift
    "$work/sparcle-server" -f "$work/scenario.json" -addr 127.0.0.1:0 "$@" > "$log" 2>&1 &
    pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^sparcle-server listening on \([^ ]*\).*/\1/p' "$log")
        [ -n "$addr" ] && return
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    echo "server never became ready:"
    cat "$log"
    exit 1
}

echo "== boot with span tracing armed over a journal"
boot "$work/server.log" -journal "$work/journal" \
    -spans -spans-chrome "$work/trace.json" -flight 256

echo "== open-loop run: rate=$rate for $duration (floor: $min_admitted admissions)"
"$work/sparcle-load" -addr "$addr" -rate "$rate" -duration "$duration" \
    -keep 16 -out "$work/report.json" \
    -min-admitted "$min_admitted" -check-flight

echo "== report sanity"
grep -q '"admissionsPerSec"' "$work/report.json"
grep -q '"core.batch"' "$work/report.json"

echo "== commit-queue activity visible on /healthz"
python3 - "$addr" <<'PY'
import json, sys, urllib.request
hz = json.load(urllib.request.urlopen(f"http://{sys.argv[1]}/healthz"))
gc = hz.get("groupCommit")
# Removes ride the queue as single-op groups, so groups can
# legitimately exceed apps under keep-eviction churn.
assert gc and gc["groups"] > 0 and gc["apps"] > 0, f"no group activity: {gc}"
print(f"group commit ok: {gc['groups']} groups, {gc['apps']} apps, {gc['follows']} follows")
PY

echo "== server-side Chrome trace parses after shutdown"
kill "$pid"
wait "$pid" 2>/dev/null || true
python3 - "$work/trace.json" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))
assert isinstance(events, list) and events, "trace empty"
assert all(e.get("ph") == "X" for e in events), "unexpected event phase"
names = {e["name"] for e in events}
for stage in ("http.submit", "group.lead", "core.batch", "batch.submit", "assign.rank",
              "journal.append", "journal.fsync"):
    assert stage in names, f"stage {stage} missing from trace: {sorted(names)}"
print(f"trace ok: {len(events)} events, {len(names)} distinct stages")
PY

echo "== sharded pass: boot with -shards 4"
boot "$work/server-shards.log" -shards 4 \
    -spans -spans-chrome "$work/trace-shards.json" -flight 256
grep -q 'sparcle-server sharded: 4 regions' "$work/server-shards.log"

echo "== sharded open-loop run: rate=$rate for $duration"
"$work/sparcle-load" -addr "$addr" -rate "$rate" -duration "$duration" \
    -keep 16 -out "$work/report-shards.json" \
    -min-admitted "$min_admitted" -check-flight

echo "== sharded report sanity"
python3 - "$work/report-shards.json" <<'PY'
import json, sys
rep = json.load(open(sys.argv[1]))
assert rep["config"].get("shards") == 4, rep["config"]
assert "core.batch" in rep["server"]["stages"], "sharded run lost stage spans"
print(f'sharded report ok: {rep["client"]["admitted"]} admitted')
PY

echo "== sharded trace parses after shutdown"
kill "$pid"
wait "$pid" 2>/dev/null || true
python3 - "$work/trace-shards.json" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))
assert isinstance(events, list) and events, "sharded trace empty"
names = {e["name"] for e in events}
for stage in ("http.submit", "core.batch", "batch.submit", "lock.wait"):
    assert stage in names, f"stage {stage} missing from sharded trace: {sorted(names)}"
print(f"sharded trace ok: {len(events)} events, {len(names)} distinct stages")
PY

echo "PASS: load smoke complete"
