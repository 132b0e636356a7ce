#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Invoked from the root of a
# checkout as `bash bench/run.sh --workload <name> --seed <n> --seconds <s>
# --trace <0|1>`; every file it writes (build cache, binary, trace) stays
# under .bench_build/ in that checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
# The go command writes its build cache to GOCACHE and its telemetry counters
# and env file under the user's config directory; both are kept in here.
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -C "$here" -o "$out/compassbench" .
cd "$root"
exec "$out/compassbench" "$@"
