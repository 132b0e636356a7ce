GO ?= go

.PHONY: all build test race race-ports vet vet-compass staticcheck fmt check bench fuzz-smoke bench-smoke chaos-smoke

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

# Short-mode race pass: catches frontend/backend rendezvous races without
# the full-length workloads. The second line runs the experiment-engine
# e2e tests (parallel fan-out, shared snapshot restore, seed campaigns,
# determinism) at full length under the detector — the expt layer's
# correctness IS its concurrency, so it never rides the -short discount.
race: race-ports
	$(GO) test -race -short -timeout 10m ./...
	$(GO) test -race -timeout 10m ./internal/expt

# The full-length tests that put whole workloads and scenarios on the
# threaded ports (SpinPorts), where frontends really run in parallel with
# the backend: the root determinism, fault, sweep and supervision suites,
# the resumed-run and per-point checkpoint-directory tests of the run driver
# (a campaign's workers share one Observe hook), the port differential
# (whose latch-heavy TPCC leg has the agents filling
# their ports' records in place while siblings run and the backend calling
# their poll conditions), and the range, spin, standing-pick and
# fault-handler differentials of internal/core, internal/dsm and
# internal/frontend, which walk range and spin events from Run's loop on
# those ports, scenario by scenario; with them the differentials the walks'
# bulk paths rest on: a run against its references and a rehit against its
# stores on the five models (internal/memsys), one walk of a set against two
# (internal/cache, internal/snoop, internal/directory, internal/coma), the
# walks in bulk against the walks step by step and the deadlock a lone poller
# proves (internal/core, internal/guard); and the stepped-range differentials — a scan as one event
# against its loop (internal/core, whose steps the backend calls on its own
# goroutine there while the posting process waits), the posting half
# (internal/frontend), a row scan against ReadRowInto (internal/apps/db) and
# the mmap query on every architecture; the snoop filter against probing
# every peer (internal/snoop); a sent packet's pooled buffer, which the
# sender may overwrite while the packet is on the wire (internal/netstack);
# and the buffer-cache hold rule, whose count the frontend and the disk
# completion both change, with the recovery paths, whose I/O fields (target
# block, outcome, snapshot) the process and the completion both change
# (internal/fs). A test is added to the list here,
# once; CI reaches it through make check.
race-ports:
	$(GO) test -race -timeout 10m -run 'TestDeterminism|TestFaults|TestWarmBatchSweep|TestGuarded|TestAutoCkpt|TestCampaignAutoCkpt|TestResumedRun|TestChaosBlock|TestSharded|TestPortImplementationsAgree|TestInPlaceShareTPCC|TestRangeMatchesPerReference|TestLockWhenMatchesLoop|TestSpinStopsBeforeEveryStep|TestRequestAbortEndsLonePoller|TestSpinReadyPanicSurfacesFromRun|TestStandingPickMatchesFullScan|TestFaultHandlerPostsDoNotClobberFaultingEvent|TestRequestAbortEndsLoneRanger|TestDSMRangesMatchPerReference|TestTouchRange|TestAccessRunMatchesAccess|TestRehitMatchesStores|TestOneWalkMatches|TestBulkWalksMatchSteps|TestSpinAheadLeavesTheStepsOnePartialIteration|TestAbortInsideARunEndsWithThePage|TestLonePollerNobodyToWakeIsDeadlock|TestSteppedRangeMatchesLoop|TestRequestAbortEndsLoneScanner|TestStepPanicSurfacesFromRun|TestTouchStepped|TestScanRowsMatchesReadRowInto|TestMmapQueryOnEveryArchitecture|TestHolderFilterIsExact|TestSendBuffersLiveUntilDelivered|TestEvictedBufferKeepsItsBytes|TestReadGivesUpThenRepairs|TestFlushGivesUp|TestBadBlockReadRemapsWithItsBytes|TestBadBlockWriteLandsOnTheSpare|TestFailedReadAheadIsRepairedOnDemand|TestRemapLookupOnlyWithRecovery|TestEvictedReadAheadKeepsItsBuffer|TestEvictedWriteBufferIsNotReused' . ./internal/core ./internal/dsm ./internal/frontend ./internal/memsys ./internal/cache ./internal/snoop ./internal/directory ./internal/coma ./internal/guard ./internal/apps/db ./internal/netstack ./internal/fs

# Fuzz smoke: 10 seconds per native fuzz target over the committed
# corpora (go test -fuzz takes one target per invocation).
fuzz-smoke:
	$(GO) test -fuzz FuzzParseSpec -fuzztime 10s -timeout 10m ./internal/fault
	$(GO) test -fuzz FuzzReadInfo -fuzztime 10s -timeout 10m ./internal/checkpoint
	$(GO) test -fuzz FuzzParseSpec -fuzztime 10s -timeout 10m ./internal/loadgen

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

# The tier-1 gate: formatting, vet, the invariant analyzers, full
# tests (the root package once more shuffled), the benchmark's own checks,
# then the race pass.
check: fmt vet vet-compass staticcheck test bench-smoke race

bench:
	$(GO) test -bench . -benchtime 1x ./...
