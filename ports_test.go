package compass

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"compass/internal/apps/tpcc"
	"compass/internal/frontend"
	"compass/internal/guard"
	"compass/internal/machine"
)

// The two event-port implementations — backend-driven coroutines (the
// default), which serve an event in place when its poster is the next pick,
// and free-running goroutines gated on published clocks (Config.SpinPorts,
// the Table 3 experiment), which never do — must interleave events
// identically: the full result tables and counters of short runs are
// byte-compared across them, on a TPCC and a SPECWeb run, on a TPCC run that
// is mostly latches (one warehouse and a pool of eight pages for four agents
// on four CPUs: the agents spin on the pool latch and the district locks and
// poll pages in transit, so nearly every event is an RMW or a spin event
// filled into the port's record in place while siblings run, and the
// backend calls the agents' poll conditions while they do) and on small
// versions of the
// benchmark's other two machines, the TPC-D scan on a four-node CC-NUMA and
// httpd under open-loop load with a flash crowd on two backend lanes. The
// last case looks at the ports themselves: a range of references, or a
// lock-poll loop, is one event on either kind, walked by the same code —
// called from Run on threaded ports, which serve nothing in place — so both
// post fewer events than they serve steps, and the same number of events
// and walked steps together.
func TestPortImplementationsAgree(t *testing.T) {
	tpccW := DefaultTPCC()
	tpccW.Agents = 3 // one more than the CPUs: the scheduler takes part
	tpccW.TxPerAgent = 4
	latchW := DefaultTPCC()
	latchW.Warehouses, latchW.DistrictsPerW, latchW.PoolPages = 1, 2, 8
	latchW.Agents, latchW.TxPerAgent = 4, 5
	webW := DefaultSPECWeb()
	webW.Requests = 40
	tpcdW := DefaultTPCD()
	tpcdW.Rows = 4096
	two := func(c *Config) { c.CPUs = 2 }
	workloads := []struct {
		name  string
		shape func(*Config)
		run   func(Config) Result
	}{
		{"tpcc", two, func(c Config) Result { return mustRun(c, TPCC(tpccW)) }},
		{"tpcc latches", func(c *Config) { c.CPUs = 4 }, func(c Config) Result { return mustRun(c, TPCC(latchW)) }},
		{"specweb", two, func(c Config) Result { return mustRun(c, SPECWeb(2, 4, webW)) }},
		{"tpcd ccnuma", func(c *Config) { c.Arch, c.Nodes = ArchCCNUMA, 4 },
			func(c Config) Result { return mustRun(c, TPCD(tpcdW, QueryScanAgg, true)) }},
		{"httpd open loop", func(c *Config) { c.Shards = 2 }, func(c Config) Result {
			res, err := Run(c, LoadHTTPD(4, loadPlan()), Options{})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			cfg := DefaultConfig()
			wl.shape(&cfg)
			cfg.Faults = faultPlan()
			coroutine := resultTable(wl.run(cfg))
			cfg.SpinPorts = true
			if threaded := resultTable(wl.run(cfg)); coroutine != threaded {
				t.Fatalf("port implementations disagree:\n--- coroutine ---\n%s\n--- threaded ---\n%s", coroutine, threaded)
			}
		})
	}
	t.Run("ranges walk on both", func(t *testing.T) {
		run := func(threaded bool) (out string, posts, inPlace, walked uint64) {
			cfg := DefaultConfig()
			cfg.CPUs = 2
			cfg.SpinPorts = threaded
			m := machine.New(cfg)
			wl := tpcc.Setup(m.FS, tpccW)
			for i := 0; i < tpccW.Agents; i++ {
				m.SpawnConnected(fmt.Sprintf("agent%d", i), func(p *frontend.Proc) { wl.Agent(p, i) })
			}
			end := m.Sim.Run()
			posts, inPlace, ranged := m.Sim.PortStats()
			_, _, yields := m.Sim.SpinStats()
			// The steps that were not posted: references past the first of
			// a range or spin event, and the yields of spin events.
			return fmt.Sprintf("end=%d\n%s", end, m.Sim.Counters().String()), posts, inPlace, ranged + yields
		}
		coroutine, posts, inPlace, walked := run(false)
		threaded, tposts, tinPlace, twalked := run(true)
		if coroutine != threaded {
			t.Fatalf("port implementations disagree:\n--- coroutine ---\n%s\n--- threaded ---\n%s", coroutine, threaded)
		}
		if walked == 0 || twalked == 0 {
			t.Errorf("steps served past the first of their event: %d on coroutine ports, %d on threaded ones, want both to walk", walked, twalked)
		}
		if inPlace == 0 || tinPlace != 0 {
			t.Errorf("events served in place: %d on coroutine ports, %d on threaded ones, want some and none", inPlace, tinPlace)
		}
		// A walk may end earlier on threaded ports (a running sibling's
		// published clock is a lower bound on its next event), never on a
		// different step: what it leaves is posted.
		if posts+walked != tposts+twalked {
			t.Errorf("events posted + steps walked: %d+%d on coroutine ports, %d+%d on threaded ones", posts, walked, tposts, twalked)
		}
	})
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

// goroutinesQuiet returns the goroutine count once it has held still for a
// few milliseconds, so that a goroutine an earlier test left winding down
// is not counted into a later test's baseline.
func goroutinesQuiet() int {
	n, still := runtime.NumGoroutine(), 0
	for i := 0; i < 500 && still < 3; i++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
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
	blocked.Observe = observeBlock

	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"normal", func(*testing.T) { mustRun(cfg, TPCC(w)) }},
		{"warm and measured phases", func(t *testing.T) {
			if _, err := Run(cfg, TPCC(w, w), Options{}); err != nil {
				t.Fatal(err)
			}
		}},
		{"guard-aborted", func(t *testing.T) {
			_, err := Run(blocked, TPCC(w), Options{Guard: &GuardConfig{}, Label: "block"})
			var a *guard.Abort
			if !errors.As(err, &a) || a.Kind != guard.KindDeadlock {
				t.Fatalf("got %v, want a contained deadlock", err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := goroutinesQuiet()
			tc.run(t)
			if got := goroutinesSettle(before); got != before {
				t.Errorf("%d goroutines after the run, %d before it", got, before)
			}
		})
	}
}

// Results cannot tell whether references are served without a switch — they
// are the same either way, only slower — so the share is pinned here: on
// the benchmark's oltp_simple machine, over a TPCC run long enough for the
// cold start (disk reads, page faults, processes starting together) to stop
// mattering, at least 95 % of the references — an event served in place, or
// a reference past the first of a range or spin event, which never leaves
// the backend — cost no switch to the backend loop and back. A post is up to
// 128 references of a range, or any number of iterations of a lock-poll
// loop, so the share of posts alone says less than it did: the posts that
// are left are the ones walks end on. The yields a spin event carries are
// steps saved, not references, and stay out of the share; the log line has
// them.
func TestInPlaceShareTPCC(t *testing.T) {
	w := DefaultTPCC()
	w.TxPerAgent = 100
	m := machine.New(DefaultConfig())
	wl := tpcc.Setup(m.FS, w)
	for i := 0; i < w.Agents; i++ {
		m.SpawnConnected(fmt.Sprintf("agent%d", i), func(p *frontend.Proc) { wl.Agent(p, i) })
	}
	m.Sim.Run()
	posts, inPlace, ranged := m.Sim.PortStats()
	spins, iterations, yields := m.Sim.SpinStats()
	share := float64(inPlace+ranged) / float64(posts+ranged)
	t.Logf("%d events posted, %d served in place (%.1f %%); %d references walked past the first of a range or spin event; %.1f %% of references without a switch",
		posts, inPlace, 100*float64(inPlace)/float64(posts), ranged, 100*share)
	t.Logf("%d spin events carried %d iterations of their loops and %d yields", spins, iterations, yields)
	if share < 0.95 {
		t.Errorf("%.1f %% of references served without a switch, want at least 95 %%", 100*share)
	}
	// GetPage polls for pages in transit and takes the pool latch through the
	// same event: most spin events are one CAS, the polls are many.
	if spins == 0 || iterations <= spins {
		t.Errorf("%d spin events carried %d iterations: the page-in-transit polls should be walked", spins, iterations)
	}
}
