#!/bin/sh
# Chaos smoke: drive the supervised-run machinery end to end through the
# CLI. A guarded campaign with an injected panic must aggregate the
# surviving seeds, quarantine the crashing one after its retry budget,
# and write a crash-repro bundle that replays to the identical failure;
# a segmented run that crashes resumes from its auto-checkpoints, and one
# of them named by ckpt -resume, to the cycles of the uninterrupted run;
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

echo "== segmented run: crash after segment 2, then resume =="
tpcc="-workload tpcc -cpus 2 -agents 2 -tx 6"
status=0
$bin $tpcc -autockpt "$work/ck" -chaos crashsegment=2 >"$work/crash.out" 2>"$work/crash.err" || status=$?
cat "$work/crash.err"
if [ "$status" -ne 1 ] || ! grep -q "kind=panic" "$work/crash.err"; then
  echo "chaos-smoke: a crash after segment 2 exited $status without kind=panic" >&2
  exit 1
fi
# The first field after the workload name is the run's simulated cycles.
cycles() { awk 'NR == 1 { print $2 }' "$1"; }
$bin $tpcc -segments 4 >"$work/straight.out"
$bin $tpcc -autockpt "$work/ck" >"$work/resumed.out"
$bin ckpt -resume "$work/ck/auto-001.ckpt" $tpcc -segments 4 -warmtx 0 >"$work/named.out"
want=$(cycles "$work/straight.out")
for out in resumed named; do
  got=$(cycles "$work/$out.out")
  echo "$out: $got cycles, uninterrupted: $want"
  if [ -z "$want" ] || [ "$got" != "$want" ]; then
    echo "chaos-smoke: the $out run did not resume where its checkpoint says" >&2
    exit 1
  fi
done

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
