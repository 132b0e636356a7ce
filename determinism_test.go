package compass

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// resultTable reduces a Result to its full deterministic byte surface:
// the Table-1 profile row, final cycle, every backend counter, the fault
// table, the syscall profile, the open-loop latency table and the
// workload extras. Host wall time is the only field excluded. Two runs
// are "bit-identical" iff these bytes match.
func resultTable(r Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\ncycles=%d\n", r.Profile.String(), r.Cycles)
	b.WriteString(r.Counters.String())
	b.WriteString(r.FaultTable())
	b.WriteString(r.Syscalls)
	b.WriteString(r.LoadTable)
	keys := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "extra %s=%v\n", k, r.Extra[k])
	}
	return b.String()
}

// The determinism contract that gates every future perf PR: TPCC run
// twice serially and once through the parallel engine produces
// byte-identical result tables (Table-1 profile, counters, fault table),
// host scheduling notwithstanding. Faults are enabled so the fault table
// is part of the compared surface.
func TestDeterminismTPCCSerialSerialParallel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPUs = 2
	cfg.Faults = faultPlan() // Seed 7
	w := DefaultTPCC()
	w.Agents = 2
	w.TxPerAgent = 4
	first := resultTable(mustRun(cfg, TPCC(w)))
	second := resultTable(mustRun(cfg, TPCC(w)))
	if first != second {
		t.Fatalf("two serial TPCC runs differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}

	// A 1-seed campaign on a multi-worker pool routes the identical run
	// through the engine's worker goroutines.
	camp := RunSeedCampaign(cfg, []uint64{cfg.Faults.Seed}, TPCC(w), Options{}, ExptOptions{Workers: 2})
	viaEngine := resultTable(camp.Points[0].Res)
	if first != viaEngine {
		t.Fatalf("serial and engine TPCC runs differ:\n--- serial ---\n%s\n--- engine ---\n%s", first, viaEngine)
	}
}

// The batch sweep run twice serially and once through the parallel
// engine produces byte-identical sweep tables, per-point counters
// included.
func TestDeterminismBatchSweepSerialSerialParallel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPUs = 2
	batches := []int{1, 8, 64}
	const warmStores, stores = 400, 300

	table := func(workers int) string {
		t.Helper()
		points, failed, warmEnd, err := RunBatchSweepWarm(cfg, batches, warmStores, stores, Options{}, ExptOptions{Workers: workers})
		if err != nil || len(failed) != 0 {
			t.Fatalf("sweep: %v\n%s", err, FormatSweepFailures(failed))
		}
		return FormatSweepTable(points, warmEnd)
	}
	first := table(1)
	second := table(1)
	parallel := table(4)

	if first != second {
		t.Fatalf("two serial sweeps differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if first != parallel {
		t.Fatalf("serial and parallel sweeps differ:\n--- serial ---\n%s\n--- parallel ---\n%s", first, parallel)
	}
}

// The open-loop generator under its hardest mix — a flash-crowd surge
// on top of a fault plan with client-side ARQ — run twice serially
// produces byte-identical result tables including the full
// p50/p90/p99/p999 latency table. This pins the loadgen subsystem into
// the determinism contract so future perf PRs can't silently break it.
func TestDeterminismLoadgenFlashFault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPUs = 2
	cfg.Faults = faultPlan()
	lc, err := ParseLoadSpec("seed=13,requests=120;" +
		"class=web,clients=150000,interval=2e9,burst=2,objects=12,flash=250000:800000:6;" +
		"class=api,rate=30,objects=8,mmpp=1e6:300000:3")
	if err != nil {
		t.Fatal(err)
	}
	run := func() string {
		res, err := Run(cfg, LoadHTTPD(2, lc), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.LoadTable == "" {
			t.Fatal("no latency table in the compared surface")
		}
		return resultTable(res)
	}
	first := run()
	second := run()
	if first != second {
		t.Fatalf("two serial loadgen runs differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// A multi-seed campaign aggregates identically on one worker and on
// many: per-seed tables, the campaign summary and the aggregated fault
// table are all byte-equal.
func TestDeterminismSeedCampaignWorkersInvariant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPUs = 2
	cfg.Faults = faultPlan()
	w := DefaultTPCC()
	w.Agents = 2
	w.TxPerAgent = 3
	seeds := CampaignSeeds(11, 4)

	one := RunSeedCampaign(cfg, seeds, TPCC(w), Options{}, ExptOptions{Workers: 1})
	many := RunSeedCampaign(cfg, seeds, TPCC(w), Options{}, ExptOptions{Workers: 4})

	if got, want := one.String(), many.String(); got != want {
		t.Fatalf("campaign summaries differ:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", got, want)
	}
	if one.FaultTable() != many.FaultTable() {
		t.Fatalf("aggregated fault tables differ:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
			one.FaultTable(), many.FaultTable())
	}
	for i := range seeds {
		a, b := resultTable(one.Points[i].Res), resultTable(many.Points[i].Res)
		if a != b {
			t.Fatalf("seed %d tables differ:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", seeds[i], a, b)
		}
	}
	if one.Cycles != many.Cycles {
		t.Fatalf("total cycles differ: %d vs %d", one.Cycles, many.Cycles)
	}
}
