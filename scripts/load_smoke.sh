#!/usr/bin/env bash
# Black-box load smoke test: boot a span-traced (-trace FILE -flight 256),
# journaled sparcle-server on the example scenario, POST a few dozen
# applications at it (a few at a time, so commit groups form) and evict
# some, and require (a) a floor of admissions, (b) a parseable non-empty
# Chrome trace from GET /debug/flight, (c) per-stage latency quantiles on
# GET /debug/latency, (d) commit-queue activity on /healthz, and (e) every
# admission-path stage, with its decisions, in the JSONL trace. A second pass
# reboots the server region-sharded (-shards 4) and repeats the run, so
# the sharded admission path gets the same black-box treatment as the
# single-lock one. Sustained load and its numbers are benchmark/run.sh's
# job; this script only checks that the surfaces answer under traffic.
set -euo pipefail

apps=48
parallel=4
min_admitted=10

work=$(mktemp -d)
trap 'kill "${pid:-}" 2>/dev/null || true; rm -rf "$work"' EXIT

go build -o "$work/sparcle" ./cmd/sparcle
go build -o "$work/sparcle-server" ./cmd/sparcle-server
"$work/sparcle" -example > "$work/scenario.json"

# boot LOG FLAGS... starts a server on the example scenario and sets pid
# and addr once it listens.
boot() {
    local log=$1
    shift
    : > "$log" # the background redirect below may open it after the first poll
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

# submit I posts best-effort pipeline load-I (source -> one free worker ->
# sink) and prints the HTTP status. The pin pairs stay inside one region
# of the -shards 4 partition except the last, which crosses a border.
submit() {
    local pins=("ncp1 ncp1" "ncp1 ncp5" "ncp3 ncp4" "ncp4 ncp6" "cloud cloud" "ncp5 ncp6")
    set -- "$1" ${pins[$(( $1 % ${#pins[@]} ))]}
    curl -s -o /dev/null -w '%{http_code}\n' -X POST "http://$addr/apps" -d '{
        "name": "load-'"$1"'",
        "cts": [{"name": "s", "host": "'"$2"'"},
                {"name": "w", "req": {"cpu": '"$(( 100 + $1 % 7 * 50 ))"'}},
                {"name": "t", "host": "'"$3"'"}],
        "tts": [{"from": "s", "to": "w", "bits": 2}, {"from": "w", "to": "t", "bits": 1}],
        "qos": {"class": "best-effort", "priority": '"$(( 1 + $1 % 3 ))"', "maxPaths": 2}
    }'
}
export -f submit

# run_load SHARDS posts $apps applications, $parallel at a time, evicts
# every fourth, and checks the admission floor, the two debug surfaces and
# /healthz (commit-queue activity; SHARDS regions when SHARDS > 0).
run_load() {
    export addr
    seq 1 "$apps" | xargs -P "$parallel" -I{} bash -c 'submit {}' > "$work/codes.txt"
    local admitted
    admitted=$(grep -c '^201$' "$work/codes.txt" || true)
    echo "admitted $admitted of $apps"
    if [ "$admitted" -lt "$min_admitted" ]; then
        echo "FAIL: fewer than $min_admitted admissions:"
        sort "$work/codes.txt" | uniq -c
        exit 1
    fi
    for i in $(seq 4 4 "$apps"); do
        curl -s -o /dev/null -X DELETE "http://$addr/apps/load-$i"
    done
    python3 - "$addr" "$1" <<'PY'
import json, sys, urllib.request
get = lambda path: json.load(urllib.request.urlopen(f"http://{sys.argv[1]}{path}"))
flight = get("/debug/flight")
assert isinstance(flight, list) and flight, "flight recorder empty"
assert all("name" in e and "ts" in e for e in flight), "flight events malformed"
stages = get("/debug/latency")["stages"]
assert "core.batch" in stages, f"core.batch missing from /debug/latency: {sorted(stages)}"
assert stages["core.batch"]["count"] > 0 and stages["core.batch"]["p99"] > 0, stages["core.batch"]
print(f"debug surfaces ok: {len(flight)} flight events, {len(stages)} stages")
hz = get("/healthz")
gc = hz.get("groupCommit")
# Removes take their region lock directly and never enter the queue,
# so every group commits at least one submitted app.
assert gc and 0 < gc["groups"] <= gc["apps"], f"no group activity: {gc}"
print(f"group commit ok: {gc['groups']} groups, {gc['apps']} apps, {gc['follows']} follows")
if shards := int(sys.argv[2]):
    sh = hz.get("sharding")
    assert sh and len(sh["shards"]) == shards, f"no sharding section: {sh}"
    assert sum(s["admitted"] for s in sh["shards"]) > 0, f"shards empty: {sh}"
    print(f'sharding ok: {[s["admitted"] for s in sh["shards"]]} apps per shard')
PY
}

# check_trace FILE STAGE... parses the server's JSONL span trace after
# shutdown and requires every STAGE, plus an admission verdict on a
# batch.submit span and a ranked pick on an assign.rank span.
check_trace() {
    python3 - "$@" <<'PY'
import json, sys
recs = [json.loads(line) for line in open(sys.argv[1])]
assert recs, "trace empty"
names = {r["name"] for r in recs}
for stage in sys.argv[2:]:
    assert stage in names, f"stage {stage} missing from trace: {sorted(names)}"
verdicts = [r["attrs"]["outcome"] for r in recs if r["name"] == "batch.submit"]
assert "admitted" in verdicts, f"no admission verdict on batch.submit: {set(verdicts)}"
assert any("gamma" in r.get("attrs", {}) for r in recs if r["name"] == "assign.rank"), "no ranked pick"
print(f"trace ok: {len(recs)} spans, {len(names)} distinct stages")
PY
}

echo "== boot with span tracing armed over a journal"
boot "$work/server.log" -journal "$work/journal" \
    -trace "$work/trace.jsonl" -flight 256

echo "== load: $apps apps, $parallel at a time (floor: $min_admitted admissions)"
run_load 0

echo "== server-side span trace parses after shutdown"
kill "$pid"
wait "$pid" 2>/dev/null || true
check_trace "$work/trace.jsonl" http.submit group.lead core.batch batch.submit assign.rank \
    journal.append journal.fsync

echo "== sharded pass: boot with -shards 4"
boot "$work/server-shards.log" -shards 4 \
    -trace "$work/trace-shards.jsonl" -flight 256
grep -q 'sparcle-server sharded: 4 regions' "$work/server-shards.log"

echo "== sharded load: $apps apps, $parallel at a time"
run_load 4

echo "== sharded trace parses after shutdown"
kill "$pid"
wait "$pid" 2>/dev/null || true
check_trace "$work/trace-shards.jsonl" http.submit core.batch batch.submit lock.wait

echo "PASS: load smoke complete"
