#!/bin/sh
# Chaos smoke: drive the supervised-run machinery end to end through the
# CLI. A guarded campaign with an injected panic must aggregate the
# surviving seeds, quarantine the crashing one after its retry budget,
# and write a crash-repro bundle that replays to the identical failure;
# an induced hang must classify as a proven deadlock; a machine that cannot
# be built is refused before anything runs. Everything runs in
# seconds — this is containment coverage, not a benchmark.
set -eu

bin=${COMPASSRUN:-go run ./cmd/compassrun}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "== guarded campaign with injected panic (seed 13 of 11..14) =="
if $bin -workload tpcc -agents 2 -tx 3 \
    -faults "seed=11,disk.transient=0.2,net.drop=0.02" \
    -seeds 4 -chaos crashseed=13 -retries 1 -bundle "$work/bundles" \
    >"$work/camp.out" 2>"$work/camp.err"; then
  echo "chaos-smoke: campaign with a crashing seed exited 0" >&2
  exit 1
fi
cat "$work/camp.out" "$work/camp.err"
# Partial results: the three clean seeds still aggregate...
grep -q "(3 seeds)" "$work/camp.out"
# ...and the crashed one lands in the quarantine table after 2 attempts.
grep -q "quarantined:" "$work/camp.out"
grep -q "kind=quarantine point=seed13 attempts=2" "$work/camp.err"

echo "== crash-repro bundle replay =="
bundle=$(sed -n 's/.* bundle=//p' "$work/camp.err" | head -1)
test -n "$bundle"
test -f "$bundle/manifest.json"
test -f "$bundle/stack.txt"
$bin -repro "$bundle"

echo "== induced deadlock (blocked pipe read, RTC off) =="
if $bin -workload tpcc -agents 1 -tx 1 -chaos block -rtc=false \
    >"$work/dl.out" 2>"$work/dl.err"; then
  echo "chaos-smoke: induced deadlock exited 0" >&2
  exit 1
fi
cat "$work/dl.err"
grep -q "kind=deadlock" "$work/dl.err"

echo "== unbuildable machine (4 CPUs on 3 nodes, half-way down a verb's table) =="
if $bin arch -workload tpcc -nodes 3 >"$work/arch.out" 2>"$work/arch.err"; then
  echo "chaos-smoke: an unbuildable machine exited 0" >&2
  exit 1
fi
cat "$work/arch.err"
grep -q "not divisible by 3 nodes" "$work/arch.err"
if [ -s "$work/arch.out" ] || grep -q "goroutine" "$work/arch.err"; then
  echo "chaos-smoke: an unbuildable machine got as far as running" >&2
  exit 1
fi

echo "chaos-smoke: OK"
