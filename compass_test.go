package compass

import (
	"fmt"
	"strings"
	"testing"

	"compass/internal/apps/db"
	"compass/internal/apps/tpcd"
	"compass/internal/frontend"
	"compass/internal/machine"
)

func smallTPCD() TPCDConfig {
	w := DefaultTPCD()
	w.Rows = 2048
	w.Orders = 32
	w.Agents = 2
	return w
}

func TestRunTPCDFacade(t *testing.T) {
	res := mustRun(DefaultConfig(), TPCD(smallTPCD(), QueryScanAgg, true))
	if res.Cycles == 0 {
		t.Fatal("no simulated time elapsed")
	}
	if res.Profile.TotalCycles == 0 {
		t.Fatal("empty profile")
	}
	if res.Counters.Get("simple.loads") == 0 && res.Counters.Get("simple.stores") == 0 {
		t.Error("no memory traffic recorded")
	}
	if !strings.Contains(res.String(), "TPCD") {
		t.Error("summary missing name")
	}
}

func TestRawModeIsFasterAndSkipsModel(t *testing.T) {
	w := smallTPCD()
	w.Agents = 1
	cfg := DefaultConfig()
	cfg.CPUs = 1
	sim := mustRun(cfg, TPCD(w, QueryScanAgg, true))
	raw := mustRun(cfg, TPCD(w, QueryScanAgg, false))
	// The raw run must drive far fewer events into the memory model.
	simTraffic := sim.Counters.Get("simple.loads") + sim.Counters.Get("simple.stores")
	rawTraffic := raw.Counters.Get("simple.loads") + raw.Counters.Get("simple.stores")
	if rawTraffic >= simTraffic/10 {
		t.Errorf("raw traffic %d not ≪ simulated traffic %d", rawTraffic, simTraffic)
	}
}

func TestRunTPCCFacade(t *testing.T) {
	w := DefaultTPCC()
	w.Agents = 2
	w.TxPerAgent = 6
	res := mustRun(DefaultConfig(), TPCC(w))
	if res.Extra["transactions"] != 12 {
		t.Errorf("transactions = %f", res.Extra["transactions"])
	}
	if res.Extra["pool.misses"] == 0 {
		t.Error("no pool misses recorded")
	}
}

func TestRunSPECWebFacade(t *testing.T) {
	w := DefaultSPECWeb()
	w.Requests = 25
	res := mustRun(DefaultConfig(), SPECWeb(2, 4, w))
	if res.Extra["requests"] != 25 || res.Extra["served"] != 25 {
		t.Errorf("requests=%f served=%f", res.Extra["requests"], res.Extra["served"])
	}
	if res.Profile.OSPct < 50 {
		t.Errorf("web OS share %.1f%% too low", res.Profile.OSPct)
	}
}

func TestRunSORFacade(t *testing.T) {
	res := mustRun(DefaultConfig(), SOR(SORConfig{N: 26, Iters: 4, Procs: 4}))
	if res.Profile.OSPct > 15 {
		t.Errorf("SOR OS share %.1f%%", res.Profile.OSPct)
	}
}

func TestTable1SmallScale(t *testing.T) {
	rows, err := Table1(RunSpec{CPUs: 2, Agents: 2, Tx: 6, Rows: 2048, Requests: 20, RTC: true})
	if err != nil || len(rows) != 3 {
		t.Fatalf("%d rows, %v", len(rows), err)
	}
	// Shape assertions (scaled-down, so bounds are loose): the web server
	// is OS-dominated; the database workloads are user-dominated.
	if rows[0].Profile.OSPct < 50 {
		t.Errorf("SPECWeb OS %.1f%%, want > 50%%", rows[0].Profile.OSPct)
	}
	if rows[1].Profile.UserPct < 50 {
		t.Errorf("TPCD user %.1f%%, want > 50%%", rows[1].Profile.UserPct)
	}
	if rows[2].Profile.UserPct < 50 {
		t.Errorf("TPCC user %.1f%%, want > 50%%", rows[2].Profile.UserPct)
	}
	txt := FormatTable1(rows)
	if !strings.Contains(txt, "benchmark") || !strings.Contains(txt, "interrupt") {
		t.Error("table header missing")
	}
	t.Logf("\n%s", txt)
}

// The Table 2 ordering — simulating costs more host time than running raw —
// is a wall-clock assertion, so it is made on the fastest of three passes
// per leg, after a pass that pays the one-off costs (the raw leg runs
// first), and on legs of 60 ms and more unless -short asks for 4 ms ones.
func TestSlowdownSmall(t *testing.T) {
	rows := 32768
	if testing.Short() {
		rows = 2048
	}
	slowdown := func(rows int) SlowdownResult {
		res, err := Slowdown(RunSpec{CPUs: 1, Agents: 1, Rows: rows, RTC: true}, 1)
		if err != nil || len(res.Rows) != 3 {
			t.Fatalf("%d rows, %v", len(res.Rows), err)
		}
		return res
	}
	slowdown(2048)
	res := slowdown(rows)
	for pass := 1; pass < 3; pass++ {
		for i, r := range slowdown(rows).Rows {
			res.Rows[i].Wall = min(res.Rows[i].Wall, r.Wall)
		}
	}
	raw := res.Rows[0].Wall
	for i := range res.Rows {
		res.Rows[i].Slowdown = float64(res.Rows[i].Wall) / float64(raw)
	}
	if res.Rows[1].Slowdown <= 1 {
		t.Errorf("simple backend slowdown %.2f not above raw", res.Rows[1].Slowdown)
	}
	if res.Rows[2].Slowdown <= 1 {
		t.Errorf("complex backend slowdown %.2f not above raw", res.Rows[2].Slowdown)
	}
	if !strings.Contains(res.Format(), "backend") {
		t.Error("format broken")
	}
	t.Logf("\n%s", res.Format())
}

func TestRunSORDSMFacade(t *testing.T) {
	res := mustRun(DefaultConfig(), SORDSM(SORConfig{N: 32, Iters: 2, Procs: 4}))
	if res.Extra["dsm.faults"] == 0 || res.Extra["dsm.pagemoves"] == 0 {
		t.Errorf("DSM protocol idle: %+v", res.Extra)
	}
	if res.Cycles == 0 {
		t.Error("no simulated time")
	}
}

func TestRunBatchSweepGranularityInvariant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPUs = 2
	a := mustRun(cfg, BatchSweep(1, 3000)).Cycles
	b := mustRun(cfg, BatchSweep(8, 3000)).Cycles
	if a != b {
		t.Errorf("batching changed simulated time: %d vs %d", a, b)
	}
}

func TestRunTier3Facade(t *testing.T) {
	res := mustRun(DefaultConfig(), Tier3(DefaultTier3(), 30))
	if res.Extra["requests"] != 30 || res.Extra["ok"] != 30 {
		t.Errorf("requests=%.0f ok=%.0f", res.Extra["requests"], res.Extra["ok"])
	}
	if res.Syscalls == "" {
		t.Error("no syscall profile")
	}
}

func TestSyscallProfileInResult(t *testing.T) {
	w := smallTPCD()
	res := mustRun(DefaultConfig(), TPCD(w, QueryScanAgg, true))
	if !strings.Contains(res.Syscalls, "kreadv") {
		t.Errorf("syscall profile missing kreadv:\n%s", res.Syscalls)
	}
}

// TestArchitecturesFunctionallyEquivalent runs the same query on every
// target architecture: timing differs, but the execution-driven results
// must be identical to the oracle (the memory models are timing-only by
// design, so they must never perturb data).
func TestArchitecturesFunctionallyEquivalent(t *testing.T) {
	for _, tc := range []struct {
		name  string
		arch  Arch
		nodes int
	}{
		{"fixed", ArchFixed, 1},
		{"simple", ArchSimple, 1},
		{"smp", ArchSMP, 1},
		{"ccnuma", ArchCCNUMA, 4},
		{"coma", ArchCOMA, 4},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Arch = tc.arch
			cfg.Nodes = tc.nodes
			m := machine.New(cfg)
			w := tpcd.Setup(m.FS, tpcd.Config{Rows: 2048, Orders: 32, Agents: 4, PoolPages: 16, Seed: 7})
			pages := w.LineitemPages()
			partials := make([]tpcd.Q1Result, 4)
			for i := 0; i < 4; i++ {
				i := i
				m.SpawnConnected(fmt.Sprintf("a%d", i), func(p *frontend.Proc) {
					a := db.NewAgent(p, w.Cat)
					partials[i] = w.Q1(p, a, pages*i/4, pages*(i+1)/4, 1200)
					a.Close()
				})
			}
			m.Sim.Run()
			var got tpcd.Q1Result
			for _, pr := range partials {
				got.Count += pr.Count
				got.SumQty += pr.SumQty
				got.SumPrice += pr.SumPrice
			}
			if got != w.HostQ1(1200) {
				t.Errorf("%s: Q1 = %+v, oracle %+v", tc.name, got, w.HostQ1(1200))
			}
		})
	}
}

// TestMmapQueryOnEveryArchitecture runs the mmap scan at its default size on
// every target architecture: each agent maps the table, takes a page fault on
// the first row of every page, scans, and unmaps — which frees the region's
// frames with their lines still cached (on CC-NUMA an L2 victim of a freed
// frame has no home node any more, and used to crash the run). The values are
// the oracle's on every model; only the cycles differ.
func TestMmapQueryOnEveryArchitecture(t *testing.T) {
	w := DefaultTPCD()
	for _, tc := range []struct {
		name  string
		arch  Arch
		nodes int
	}{
		{"fixed", ArchFixed, 1},
		{"simple", ArchSimple, 1},
		{"smp", ArchSMP, 1},
		{"ccnuma/2", ArchCCNUMA, 2},
		{"ccnuma/4", ArchCCNUMA, 4},
		{"coma", ArchCOMA, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Arch, cfg.Nodes = tc.arch, tc.nodes
			// As a user runs it; the facade does not report the count.
			if res := mustRun(cfg, TPCD(w, QueryMmap, true)); res.Cycles == 0 {
				t.Fatal("no simulated time elapsed")
			}
			m := machine.New(cfg)
			wl := tpcd.Setup(m.FS, w)
			counts := make([]uint64, w.Agents)
			for i := range counts {
				m.SpawnConnected(fmt.Sprintf("a%d", i), func(p *frontend.Proc) {
					var err error
					if counts[i], err = wl.QMmapScan(p, 1500); err != nil {
						panic(err)
					}
				})
			}
			m.Sim.Run()
			for i, got := range counts {
				if want := wl.HostQ1(1500).Count; got != want {
					t.Errorf("agent %d counted %d rows, oracle %d", i, got, want)
				}
			}
		})
	}
}

// mustRun is a plain Run — unsupervised, no checkpoints — of a description
// the test built itself: all that can fail is the description.
func mustRun(cfg Config, w Workload) Result {
	res, err := Run(cfg, w, Options{})
	if err != nil {
		panic(err)
	}
	return res
}
