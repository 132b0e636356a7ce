package compass

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"compass/internal/loadgen"
)

// TestAllocationBudgets holds each of the benchmark's four workload shapes
// to a number of heap allocations, and of bytes allocated, per unit of work.
// A row runs its workload at two sizes and charges the difference to the
// extra work, which cancels everything both runs share (machine, files,
// processes). Two rows make what the others cancel the unit: WarmSweep
// charges a warm sweep's extra points, each a machine restored from the
// shared snapshot, and LoadHTTPDSharded runs the web row on two shards,
// where the load generator's tasks are born in a lane. The slope covers
// every path the work takes: references, system calls, packets, scheduled
// tasks, disk blocks. Objects and bytes see different regressions: a 4 KB
// array per buffer-cache miss is one object among many, and a small record
// per reference is few bytes. The two web rows run three pairs and take the
// median slope: one pair's read 0.13 to 0.20 objects a request over eight
// runs of the same simulation. head is what the tree allocated when the
// bounds were set (go1.24, linux/amd64; under -race TPCC reads 0.13 and 61
// bytes, web 0.19 and 84, a SPECWeb request 3.22 and 364, a warm-sweep point
// 344 and 645 000); each bound sits below what one more allocation per
// reference, per disk wait, per received frame or per block read adds, or a
// gob decode per restored point. SPECWeb's closed-loop request carries its
// trace entry's path, formatted through fmt, whose printer pool -race
// drains: its bound sits below one more allocation a request under -race,
// which `make check` runs.
func TestAllocationBudgets(t *testing.T) {
	numa := DefaultConfig()
	numa.Arch, numa.Nodes = ArchCCNUMA, 4
	sharded := loadCfg()
	sharded.Shards = 2
	// workload runs the description work makes for n; done names an Extra
	// that must read n, if any.
	workload := func(cfg Config, done string, work func(n int) Workload) func(n int) error {
		return func(n int) error {
			res, err := Run(cfg, work(n), Options{})
			if err == nil && done != "" && res.Extra[done] != float64(n) {
				err = fmt.Errorf("%s = %v, want %d", done, res.Extra[done], n)
			}
			return err
		}
	}
	web := func(n int) Workload {
		lc := LoadConfig{Seed: 5, Requests: uint64(n), Classes: []loadgen.ClassConfig{{Name: "web", Rate: 2, Objects: 16}}}
		lc.ApplyDefaults()
		return LoadHTTPD(2, lc)
	}
	rows := []struct {
		name, unit   string
		small, large int
		per          float64 // units of work per step of n
		run          func(n int) error
		// objects and bytes a unit when the bounds were set, and the bounds
		head, bound   float64
		headB, boundB float64
		// pairs is how many (small, large) pairs are run: the slope is the
		// median of theirs.
		pairs int
	}{
		{"TPCC", "transaction", 10, 40, 4, workload(DefaultConfig(), "", func(n int) Workload {
			w := DefaultTPCC()
			w.Agents, w.TxPerAgent = 4, n
			return TPCC(w)
		}), 0.19, 1, 70, 200, 1},
		{"TPCD", "row", 8 << 10, 32 << 10, 1, workload(numa, "", func(n int) Workload {
			w := DefaultTPCD()
			w.Rows, w.Orders = n, n/64
			return TPCD(w, QueryScanAgg, true)
		}), 0.0078, 0.02, 94, 110, 1},
		{"LoadHTTPD", "request", 100, 400, 1, workload(loadCfg(), "completed", web), 0.19, 0.5, 74.5, 120, 3},
		{"LoadHTTPDSharded", "request", 100, 400, 1, workload(sharded, "completed", web), 0.18, 0.5, 73, 120, 3},
		{"SPECWeb", "request", 200, 800, 1, workload(loadCfg(), "requests", func(n int) Workload {
			w := DefaultSPECWeb()
			w.Requests = n
			return SPECWeb(2, 4, w)
		}), 2.18, 3.6, 263, 390, 1},
		{"BatchSweep", "store", 2000, 8000, 4, workload(DefaultConfig(), "", func(n int) Workload {
			return BatchSweep(1, n)
		}), 0.0005, 0.01, 0.2, 2, 1},
		{"WarmSweep", "point", 2, 8, 1, func(n int) error {
			batches := make([]int, n)
			for i := range batches {
				batches[i] = 4
			}
			points, _, _, err := RunBatchSweepWarm(DefaultConfig(), batches, 500, 500, Options{}, ExptOptions{Workers: 2})
			if err == nil && len(points) != n {
				err = fmt.Errorf("%d of %d points measured", len(points), n)
			}
			return err
		}, 325, 400, 638e3, 700e3, 1},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			allocs := func(n int) (objects, bytes float64) {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				err := r.run(n)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
			}
			allocs(r.small) // warm whatever is made once per process
			units := r.per * float64(r.large-r.small)
			var slopes, slopesB []float64
			for i := 0; i < r.pairs; i++ {
				a, aB := allocs(r.small)
				b, bB := allocs(r.large)
				slopes, slopesB = append(slopes, (b-a)/units), append(slopesB, (bB-aB)/units)
				t.Logf("%.0f allocations at %d, %.0f at %d; %.0f bytes at %d, %.0f at %d", a, r.small, b, r.large, aB, r.small, bB, r.large)
			}
			slope, slopeB := median(slopes), median(slopesB)
			t.Logf("%.4f allocations a %s (%.4f when the bound was set), of %.4f", slope, r.unit, r.head, slopes)
			t.Logf("%.1f bytes a %s (%.1f when the bound was set), of %.1f", slopeB, r.unit, r.headB, slopesB)
			if slope > r.bound {
				t.Errorf("%.4f heap allocations a %s, want at most %g", slope, r.unit, r.bound)
			}
			if slopeB > r.boundB {
				t.Errorf("%.1f bytes allocated a %s, want at most %g", slopeB, r.unit, r.boundB)
			}
		})
	}
}

// median is the middle of an odd number of values.
func median(v []float64) float64 {
	v = slices.Clone(v)
	slices.Sort(v)
	return v[len(v)/2]
}
