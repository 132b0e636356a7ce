package compass

import (
	"runtime"
	"testing"

	"compass/internal/loadgen"
)

// TestAllocationBudgets holds each of the benchmark's four workload shapes
// to a number of heap allocations per unit of work. A row runs its
// workload at two sizes and charges the difference in allocations to the
// extra work, which cancels everything both runs share (machine, files,
// processes). The slope covers every path the work takes: references,
// system calls, packets, scheduled tasks. head is what the tree allocated
// when the bound was set (go1.24, linux/amd64; web reads 0.23 under
// -race); each bound sits below what one more allocation per reference,
// per disk wait or per received frame adds.
func TestAllocationBudgets(t *testing.T) {
	numa := DefaultConfig()
	numa.Arch, numa.Nodes = ArchCCNUMA, 4
	rows := []struct {
		name, unit   string
		cfg          Config
		small, large int
		per          float64 // units of work per step of n
		work         func(n int) Workload
		done         string // an Extra that must read n, if any
		head, bound  float64
	}{
		{"TPCC", "transaction", DefaultConfig(), 10, 40, 4, func(n int) Workload {
			w := DefaultTPCC()
			w.Agents, w.TxPerAgent = 4, n
			return TPCC(w)
		}, "", 34.6, 36},
		{"TPCD", "row", numa, 8 << 10, 32 << 10, 1, func(n int) Workload {
			w := DefaultTPCD()
			w.Rows, w.Orders = n, n/64
			return TPCD(w, QueryScanAgg, true)
		}, "", 1.11, 1.2},
		{"LoadHTTPD", "request", loadCfg(), 100, 400, 1, func(n int) Workload {
			lc := LoadConfig{Seed: 5, Requests: uint64(n), Classes: []loadgen.ClassConfig{{Name: "web", Rate: 2, Objects: 16}}}
			lc.ApplyDefaults()
			return LoadHTTPD(2, lc)
		}, "completed", 0.20, 0.5},
		{"BatchSweep", "store", DefaultConfig(), 2000, 8000, 4, func(n int) Workload {
			return BatchSweep(1, n)
		}, "", 0.001, 0.01},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			mallocs := func(n int) float64 {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				res, err := Run(r.cfg, r.work(n), Options{})
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if r.done != "" && res.Extra[r.done] != float64(n) {
					t.Fatalf("%s = %v, want %d", r.done, res.Extra[r.done], n)
				}
				return float64(after.Mallocs - before.Mallocs)
			}
			mallocs(r.small) // warm whatever is made once per process
			a, b := mallocs(r.small), mallocs(r.large)
			slope := (b - a) / (r.per * float64(r.large-r.small))
			t.Logf("%.0f allocations at %d, %.0f at %d: %.4f a %s (%.4f when the bound was set)", a, r.small, b, r.large, slope, r.unit, r.head)
			if slope > r.bound {
				t.Errorf("%.4f heap allocations a %s, want at most %g", slope, r.unit, r.bound)
			}
		})
	}
}
