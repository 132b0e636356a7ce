#!/usr/bin/env bash
# make reach: every function is entered by something a user runs, or it is
# listed in scripts/unreached.txt with the reason it may stay.
#
# "Something a user runs" is, each as a coverage build of compass/...:
#   - TestTranscripts, the compassrun command lines pinned under
#     cmd/compassrun/testdata/transcripts (in process, go test -coverpkg);
#   - every example under examples/;
#   - compassvet ./..., and one compassrun invocation, so main is entered;
#   - the benchmark, bench --quick --trace 1, on its four workloads.
# The profiles are merged, and every function that none of them entered
# (go tool cover -func reports 0.0%; a function with an empty body has
# no statement to enter, and is left out) is compared with the list. The
# target fails on a function that is not entered and not listed, and on a
# listed one that is entered now or gone, so the list only shrinks on
# purpose. The benchmark's own package (compass/bench) is left out: it is
# a nested module, which go tool cover cannot resolve from here.
#
# Usage: scripts/reach.sh [-print | -update]
#   -print   print the functions never entered, by package, and exit
#   -update  rewrite the list from this run, keeping the reasons of the
#            entries that stay; a new entry has none, so the check still
#            fails until one is written
set -euo pipefail

GO="${GO:-go}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
list="$root/scripts/unreached.txt"
mode="${1:-check}"
case "$mode" in check | -print | -update) ;; *)
	echo "usage: scripts/reach.sh [-print | -update]" >&2
	exit 2
	;;
esac

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$root"

# The transcripts, in process.
"$GO" test -count=1 -run '^TestTranscripts$' -coverpkg=./... \
	-coverprofile="$work/transcripts.out" ./cmd/compassrun >"$work/test.log" 2>&1 ||
	{ cat "$work/test.log"; exit 1; }

# The binaries, each run into a directory of its own.
"$GO" build -cover -coverpkg=compass/... -o "$work/bin/" ./examples/... ./cmd/compassvet ./cmd/compassrun
"$GO" build -C bench -cover -coverpkg=compass/... -o "$work/bin/compassbench" .
runs=()
covered() { # name, command...
	local dir="$work/cov/$1"
	shift
	mkdir -p "$dir"
	if ! GOCOVERDIR="$dir" "$@" >"$dir.log" 2>&1; then
		cat "$dir.log"
		echo "reach: $* failed" >&2
		exit 1
	fi
	runs+=("$dir")
}
for ex in examples/*/; do
	name="$(basename "$ex")"
	covered "example-$name" "$work/bin/$name"
done
covered compassvet "$work/bin/compassvet" ./...
covered compassrun "$work/bin/compassrun" -workload sor -cpus 2 -agents 2
covered bench "$work/bin/compassbench" --quick --trace 1
(IFS=,; "$GO" tool covdata textfmt -i="${runs[*]}" -o "$work/binaries.out")

# One profile: a block counts as run when any input ran it.
awk '$1 == "mode:" { next }
	$1 ~ /^compass\/bench\// { next }
	{ key = $1 " " $2; if (!(key in n) || $3 > n[key]) n[key] = $3 }
	END { print "mode: set"; for (k in n) print k, (n[k] > 0) }' \
	"$work/transcripts.out" "$work/binaries.out" >"$work/merged.out"

# file<TAB>function of every function never entered, a method named with
# its receiver type as in (*T).M, the module prefix and the line dropped.
"$GO" tool cover -func="$work/merged.out" |
	awk '$NF == "0.0%" {
		split($1, at, ":"); path = at[1]; sub(/^compass\//, "", path)
		n = 0; src = ""
		while ((getline l < path) > 0) if (++n == at[2]) { src = l; break }
		close(path)
		if (src ~ /\{ *\}$/) next # an empty body has nothing to enter
		name = $2
		if (match(src, /^func \([^)]*\)/)) {
			recv = substr(src, RSTART + 6, RLENGTH - 7)
			sub(/^[A-Za-z0-9_]+ /, "", recv); sub(/\[.*\]$/, "", recv)
			name = (recv ~ /^\*/ ? "(" recv ")" : recv) "." name
		}
		print path "\t" name
	}' | LC_ALL=C sort >"$work/unreached"

case "$mode" in
-print)
	awk -F'\t' '{ pkg = $1; if (!sub(/\/[^\/]*$/, "", pkg)) pkg = "."; print pkg "\t" $0 }' "$work/unreached" |
		LC_ALL=C sort | awk -F'\t' '$1 != last { print $1; last = $1 } { print "\t" $3 "\t" $2 }'
	exit 0
	;;
-update)
	{
		grep '^#' "$list" || true
		awk -F'\t' 'NR == FNR { if ($0 !~ /^#/ && NF >= 2) why[$1 "\t" $2] = $3; next }
			{ print $1 "\t" $2 "\t" why[$1 "\t" $2] }' "$list" "$work/unreached"
	} >"$work/list"
	mv "$work/list" "$list"
	echo "reach: wrote $(wc -l <"$work/unreached") entries to scripts/unreached.txt"
	exit 0
	;;
esac

status=0
grep -v '^#' "$list" | awk -F'\t' 'NF >= 2 { print $1 "\t" $2 }' | LC_ALL=C sort >"$work/listed"
if ! LC_ALL=C comm -23 "$work/unreached" "$work/listed" | sed 's/^/reach: never entered and not listed: /' | grep . ; then :; else status=1; fi
if ! LC_ALL=C comm -13 "$work/unreached" "$work/listed" | sed 's/^/reach: listed but entered now, or gone (drop it from the list): /' | grep . ; then :; else status=1; fi
if grep -v '^#' "$list" | awk -F'\t' '$3 !~ /^(probe|string|api|later|branch|paper|host timing): ./ {
	print "reach: listed without a reason of a known category: " $1 "\t" $2; bad = 1 } END { exit !bad }'; then
	status=1
fi
if [ "$status" -ne 0 ]; then
	echo "reach: scripts/unreached.txt is out of date (scripts/reach.sh -print lists what no run enters)" >&2
	exit 1
fi
echo "reach: ok, $(wc -l <"$work/unreached") functions never entered, each listed with its reason"
