package compass

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"compass/internal/guard"
)

// The two event-port implementations — backend-driven coroutines (the
// default) and free-running goroutines gated on published clocks
// (Config.SpinPorts, the Table 3 experiment) — must interleave events
// identically: the full result tables and counters of a short TPCC and a
// short SPECWeb run are byte-compared across them.
func TestPortImplementationsAgree(t *testing.T) {
	tpccW := DefaultTPCC()
	tpccW.Agents = 3 // one more than the CPUs: the scheduler takes part
	tpccW.TxPerAgent = 4
	webW := DefaultSPECWeb()
	webW.Requests = 40
	workloads := []struct {
		name string
		run  func(Config) Result
	}{
		{"tpcc", func(c Config) Result { return RunTPCC(c, tpccW) }},
		{"specweb", func(c Config) Result { return RunSPECWeb(c, webW, 2, 4) }},
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.CPUs = 2
			cfg.Faults = faultPlan()
			coroutine := resultTable(wl.run(cfg))
			cfg.SpinPorts = true
			threaded := resultTable(wl.run(cfg))
			if coroutine != threaded {
				t.Fatalf("port implementations disagree:\n--- coroutine ---\n%s\n--- threaded ---\n%s", coroutine, threaded)
			}
		})
	}
}

// goroutinesSettle reports the goroutine count once goroutines that have
// been told to end are gone.
func goroutinesSettle(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 500 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// A run gives back every goroutine it started, however it ends: each
// simulated process is a coroutine that lives until the process exits or
// the run is abandoned. (Machines with Config.SyncdInterval set keep their
// flush daemon suspended; none of these has one.)
func TestRunsLeaveNoGoroutines(t *testing.T) {
	w := DefaultTPCC()
	w.Agents = 2
	w.TxPerAgent = 3
	cfg := DefaultConfig()
	cfg.CPUs = 2
	blocked := cfg
	blocked.RTC = false
	blocked.Observe = ObserveBlock()

	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"normal", func(*testing.T) { RunTPCC(cfg, w) }},
		{"warm and measured phases", func(t *testing.T) {
			if _, err := RunTPCCWithOptions(cfg, w, w, RunOptions{}); err != nil {
				t.Fatal(err)
			}
		}},
		{"guard-aborted", func(t *testing.T) {
			_, err := RunGuarded(blocked, GuardConfig{}, "block",
				Guarded(func(c Config) Result { return RunTPCC(c, w) }))
			var a *guard.Abort
			if !errors.As(err, &a) || a.Kind != guard.KindDeadlock {
				t.Fatalf("got %v, want a contained deadlock", err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			tc.run(t)
			if got := goroutinesSettle(before); got != before {
				t.Errorf("%d goroutines after the run, %d before it", got, before)
			}
		})
	}
}
