package compass

import (
	"runtime"
	"testing"

	"compass/internal/loadgen"
)

// The web server's request path allocates a bounded amount per request:
// packet buffers, syscall records, connections, request bytes and the paths
// parsed out of them are reused. The test serves two budgets of the same
// plan on the serial backend and charges the difference in heap
// allocations to the extra requests, which cancels everything both runs
// share (machine, file set, workers).
func TestLoadHTTPDAllocationBudget(t *testing.T) {
	const small, large = 100, 400
	plan := func(requests uint64) LoadConfig {
		lc := LoadConfig{
			Seed:     5,
			Requests: requests,
			Classes:  []loadgen.ClassConfig{{Name: "web", Rate: 2, Objects: 16}},
		}
		lc.ApplyDefaults()
		return lc
	}
	mallocs := func(requests uint64) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := Run(loadCfg(), LoadHTTPD(2, plan(requests)), Options{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := uint64(res.Extra["completed"]); got != requests {
			t.Fatalf("%d of %d requests completed", got, requests)
		}
		return after.Mallocs - before.Mallocs
	}
	mallocs(small) // warm whatever is made once per process
	a, b := mallocs(small), mallocs(large)
	perRequest := (float64(b) - float64(a)) / (large - small)
	t.Logf("%d allocations at %d requests, %d at %d: %.2f a request", a, small, b, large, perRequest)
	if perRequest > 2 {
		t.Errorf("%.2f heap allocations per request, want at most 2", perRequest)
	}
}
