#!/usr/bin/env bash
# Black-box durability smoke test, two rounds. Round one boots a journaled
# sparcle-server, submits the example scenario's apps plus one over HTTP,
# SIGKILLs the process, restarts over the same journal directory, and
# requires GET /apps to be byte-identical to the pre-crash state. Round
# two does the same at -shards 2 with a cross-region application, then
# DELETEs one intra-region and one cross-region application on the
# restarted server: the name registry must come back from the log.
set -euo pipefail

work=$(mktemp -d)
trap 'kill -9 "${pid:-}" 2>/dev/null || true; rm -rf "$work"' EXIT

go build -o "$work/sparcle" ./cmd/sparcle
go build -o "$work/sparcle-server" ./cmd/sparcle-server
"$work/sparcle" -example > "$work/scenario.json"

start_server() { # args: scenario journal-dir extra flags...; sets $pid and $addr
    local scenario=$1 journal=$2
    shift 2
    : > "$work/server.log"
    "$work/sparcle-server" -f "$scenario" -addr 127.0.0.1:0 \
        -journal "$journal" "$@" > "$work/server.log" 2>&1 &
    pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^sparcle-server listening on \([^ ]*\).*/\1/p' "$work/server.log")
        [ -n "$addr" ] && break
        kill -0 "$pid" 2>/dev/null || { echo "server died:"; cat "$work/server.log"; exit 1; }
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "server never became ready:"; cat "$work/server.log"; exit 1; }
}

crash_and_restart() { # args: scenario journal-dir label
    curl -fsS "http://$addr/apps" > "$work/before-$3.json"
    grep -q . "$work/before-$3.json"
    echo "== SIGKILL (no graceful shutdown, journal left open)"
    kill -9 "$pid"
    wait "$pid" 2>/dev/null || true
    echo "== restart over the same journal, without -submit"
    start_server "$1" "$2" "${@:4}"
    grep -q 'recovered to seq' "$work/server.log"
    curl -fsS "http://$addr/apps" > "$work/after-$3.json"
    if ! diff -u "$work/before-$3.json" "$work/after-$3.json"; then
        echo "FAIL: recovered /apps differs from pre-crash state ($3)"
        exit 1
    fi
    echo "PASS: recovered state is byte-identical ($(wc -c < "$work/before-$3.json") bytes, $3)"
}

echo "== round 1: boot with -submit and a journal"
start_server "$work/scenario.json" "$work/journal" -submit
curl -fsS -X POST "http://$addr/apps" -d '{
    "name": "smoke-extra",
    "cts": [{"name": "s", "host": "ncp1"}, {"name": "t", "host": "cloud"}],
    "tts": [{"from": "s", "to": "t", "bits": 8}],
    "qos": {"class": "best-effort", "priority": 1, "maxPaths": 2}
}' > /dev/null
crash_and_restart "$work/scenario.json" "$work/journal" one-region
kill "$pid"
wait "$pid" 2>/dev/null || true

echo "== round 2: -shards 2, intra- and cross-region applications"
# A dumbbell: region {a0,a1} and region {b0,b1} joined by one bridge.
cat > "$work/dumbbell.json" <<'EOF'
{
  "network": {
    "name": "dumbbell",
    "ncps": [
      {"name": "a0", "capacity": {"cpu": 1000}, "failProb": 0.01},
      {"name": "a1", "capacity": {"cpu": 1000}, "failProb": 0.01},
      {"name": "b0", "capacity": {"cpu": 1000}, "failProb": 0.01},
      {"name": "b1", "capacity": {"cpu": 1000}, "failProb": 0.01}
    ],
    "links": [
      {"name": "la", "a": "a0", "b": "a1", "bandwidth": 1000000, "failProb": 0.01},
      {"name": "bridge", "a": "a1", "b": "b0", "bandwidth": 1000, "failProb": 0.02},
      {"name": "lb", "a": "b0", "b": "b1", "bandwidth": 1000000, "failProb": 0.01}
    ]
  },
  "apps": []
}
EOF
app() { # args: name from to
    printf '{"name": "%s", "cts": [{"name": "in", "host": "%s"}, {"name": "work", "req": {"cpu": 1}}, {"name": "out", "host": "%s"}],
        "tts": [{"from": "in", "to": "work", "bits": 2}, {"from": "work", "to": "out", "bits": 2}],
        "qos": {"class": "best-effort", "priority": 1, "availability": 0.5, "maxPaths": 1}}' "$1" "$2" "$3"
}
start_server "$work/dumbbell.json" "$work/journal2" -shards 2
curl -fsS -X POST "http://$addr/apps" -d "$(app inA a0 a1)" > /dev/null
curl -fsS -X POST "http://$addr/apps" -d "$(app inB b0 b1)" > /dev/null
for name in xr1 xr2; do
    curl -fsS -X POST "http://$addr/apps" -d "$(app "$name" a0 b1)" > "$work/cross.json"
    grep -q '"cross":' "$work/cross.json" || { echo "FAIL: $name was not admitted cross-region:"; cat "$work/cross.json"; exit 1; }
done
crash_and_restart "$work/dumbbell.json" "$work/journal2" two-regions -shards 2
for name in inA xr1; do
    code=$(curl -sS -o "$work/delete.json" -w '%{http_code}' -X DELETE "http://$addr/apps/$name")
    if [ "$code" != 200 ]; then
        echo "FAIL: DELETE $name after recovery answered $code: $(cat "$work/delete.json")"
        exit 1
    fi
done
echo "PASS: the restarted server routes intra- and cross-region names from its log"
