GO ?= go

.PHONY: all build test race vet vet-compass staticcheck fmt check bench fuzz-smoke bench-smoke chaos-smoke examples inline-check reach

all: check

build:
	$(GO) build ./...

# Every test invocation pins -timeout: a livelocked simulation must fail
# the suite in bounded time, not hang a CI job until the runner is killed.
# The second line runs the root package once more in a random order (the
# seed is printed on failure): its tests share a process, and with it what
# encoding/gob keeps process-wide, so none may lean on which ran before it.
test:
	$(GO) test -timeout 10m ./...
	$(GO) test -shuffle=on -timeout 10m .

# One race pass at full length, every package: the threaded-port
# differentials and the fs hold rule are concurrency tests.
race:
	$(GO) test -race -timeout 10m ./...

# Fuzz smoke: 10 seconds per native fuzz target over the committed
# corpora. The targets are found, not listed: every Fuzz function of every
# package, one go test -fuzz each (it takes one target per invocation).
fuzz-smoke:
	@for pkg in $$($(GO) list ./...); do \
		names="$$($(GO) test -list '^Fuzz' "$$pkg")" || exit 1; \
		for name in $$(echo "$$names" | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$name"; \
			$(GO) test -fuzz "^$$name\$$" -fuzztime 10s -timeout 10m "$$pkg" || exit 1; \
		done; \
	done

# Every example under examples/ builds and runs to a zero exit. One build
# into a temporary directory, then each binary in turn; a failing one
# prints its output and fails the target.
examples:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/" ./examples/... || exit 1; \
	for bin in "$$dir"/*; do \
		name="$$(basename "$$bin")"; \
		if "$$bin" >"$$dir/$$name.out" 2>&1; then \
			echo "ok   examples/$$name"; \
		else \
			cat "$$dir/$$name.out"; echo "FAIL examples/$$name"; exit 1; \
		fi; \
	done

# End-to-end failure containment through the CLI: injected panic,
# quarantine table, bundle replay via -repro, induced deadlock.
chaos-smoke:
	sh scripts/chaos_smoke.sh

# The repo benchmark (BENCHMARK.json) is a nested module, so ./... does
# not reach it: vet it and run its tests (metric names against
# BENCHMARK.json, a --quick pass of every workload with its oracle).
bench-smoke:
	cd bench && $(GO) vet . && $(GO) test -timeout 10m ./...

vet:
	$(GO) vet ./...

# The helpers a reference's common case is written with (DESIGN.md §4.3,
# "One walk of a set"): each must stay within the compiler's inlining
# budget, or the fast path it sits on pays a call again. The compiler's -m
# report is read for "can inline" of every one, as package.function; the
# target fails and names each helper that lost it. Inlining costs belong to
# the compiler, so a failure after a toolchain change may be its doing: the
# message gives `go version`.
INLINED := \
	'snoop.(*frameHolders).mine' \
	'snoop.(*frameHolders).own' \
	'snoop.(*System).supply' \
	'snoop.(*System).recordOf' \
	'snoop.(*System).lose' \
	'snoop.(*System).writeback' \
	'snoop.(*System).busAcquire' \
	'core.(*Sim).walkOn' \
	'core.(*Sim).preemptDue' \
	'core.(*Sim).tick'

inline-check:
	@report="$$($(GO) build -gcflags=-m ./internal/snoop ./internal/core 2>&1)" || { echo "$$report"; exit 1; }; \
	inlinable="$$(echo "$$report" | sed -n 's|^internal/\([a-z]*\)/[^:]*:[0-9]*:[0-9]*: can inline \(.*\)$$|\1.\2|p')"; \
	lost=""; \
	for f in $(INLINED); do \
		echo "$$inlinable" | grep -qxF "$$f" || lost="$$lost $$f"; \
	done; \
	if [ -n "$$lost" ]; then \
		echo "inline-check: no longer inlinable:$$lost ($$($(GO) version); a new compiler may cost them differently)"; exit 1; \
	fi; \
	echo "inline-check: ok"

# Every function is entered by something a user runs — the compassrun
# transcripts, the examples, compassvet, a compassrun run, bench --quick —
# or scripts/unreached.txt names it with its reason (DESIGN.md §17). Fails
# on a function no run enters that the list does not name, and on a listed
# one that a run enters now or that is gone. ~10 s.
reach:
	bash scripts/reach.sh

# The determinism/snapshot/lane invariant suite (see DESIGN.md §11 and
# §15). Fails on any finding: each is fixed or carries its analyzer's
# reasoned annotation. Allocation is not among its rules: the root
# package's TestAllocationBudgets, run by `test`, measures it.
vet-compass:
	$(GO) run ./cmd/compassvet ./...

# staticcheck is optional tooling: run it when installed (CI installs
# it), skip quietly on machines that don't have it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The tier-1 gate: formatting, vet, the invariant analyzers, the hot
# paths' inlining, full tests (the root package once more shuffled), the
# examples, what every function is reached by, the benchmark's own checks,
# then the race pass.
check: fmt vet vet-compass inline-check staticcheck test examples reach bench-smoke race

bench:
	$(GO) test -bench . -benchtime 1x ./...
