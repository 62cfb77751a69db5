#!/usr/bin/env bash
# Surface ratchet (ROADMAP aim 2): print the size of what the repository
# asks a reader and an operator to know — non-test Go lines outside
# benchmark/, the part of them that serves the admission path
# (internal/server + internal/shard), the part that replicates it
# (internal/replica), the telemetry layer (internal/obs), sparcle-server
# flags, exported core.With*/Without*
# options — and fail when any exceeds its ceiling. The ceilings are the
# numbers of the last change that lowered them; a change that lowers one
# lowers its ceiling here, and nothing raises one without saying why in
# DESIGN.md.
set -euo pipefail

max_lines=22187
max_host_lines=3707
max_replica_lines=2407
max_obs_lines=1201
max_flags=20
max_options=5

cd "$(dirname "$0")/.."

count_lines() {
    find "$@" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
}

lines=$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 |
    xargs -0 cat | wc -l)
host_lines=$(count_lines internal/server internal/shard)
replica_lines=$(count_lines internal/replica)
obs_lines=$(count_lines internal/obs)
flags=$(go run ./cmd/sparcle-server -h 2>&1 | grep -c '^  -' || true)
options=$(find internal/core -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 cat | grep -cE '^func (With|Without)[A-Za-z]*\(' || true)

printf 'non-test Go lines outside benchmark/: %6d (ceiling %d)\n' "$lines" "$max_lines"
printf '  of which internal/server + shard:   %6d (ceiling %d)\n' "$host_lines" "$max_host_lines"
printf '  of which internal/replica:          %6d (ceiling %d)\n' "$replica_lines" "$max_replica_lines"
printf '  of which internal/obs:              %6d (ceiling %d)\n' "$obs_lines" "$max_obs_lines"
printf 'sparcle-server flags:                 %6d (ceiling %d)\n' "$flags" "$max_flags"
printf 'core.With*/Without* options:          %6d (ceiling %d)\n' "$options" "$max_options"

if [ "$lines" -gt "$max_lines" ] || [ "$host_lines" -gt "$max_host_lines" ] ||
    [ "$replica_lines" -gt "$max_replica_lines" ] || [ "$obs_lines" -gt "$max_obs_lines" ] ||
    [ "$flags" -gt "$max_flags" ] || [ "$options" -gt "$max_options" ]; then
    echo "FAIL: surface grew past its ceiling"
    exit 1
fi
