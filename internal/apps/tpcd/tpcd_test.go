package tpcd

import (
	"fmt"
	"testing"

	"compass/internal/apps/db"
	"compass/internal/frontend"
	"compass/internal/machine"
	"compass/internal/stats"
)

func smallConfig() Config {
	return Config{Rows: 4096, Orders: 64, Agents: 4, PoolPages: 32, Seed: 7}
}

func TestQ1MatchesOracle(t *testing.T) {
	cfg := smallConfig()
	m := machine.New(machine.Default())
	w := Setup(m.FS, cfg)
	const cutoff = 1200
	pages := w.lineitem.Pages()
	partials := make([]Q1Result, cfg.Agents)
	var shmView Q1Result
	for i := 0; i < cfg.Agents; i++ {
		i := i
		m.SpawnConnected(fmt.Sprintf("agent%d", i), func(p *frontend.Proc) {
			a := db.NewAgent(p, w.Cat)
			first := pages * i / cfg.Agents
			last := pages * (i + 1) / cfg.Agents
			partials[i] = w.Q1(p, a, first, last, cutoff)
			// Last agent (by page range) also reads the shared cells so
			// the shm result path is validated in-simulation.
			if last == pages {
				shmView = w.ReadResults(p, a)
			}
			a.Close()
		})
	}
	m.Sim.Run()

	want := w.HostQ1(cutoff)
	var got Q1Result
	for _, pr := range partials {
		got.Count += pr.Count
		got.SumQty += pr.SumQty
		got.SumPrice += pr.SumPrice
	}
	if got != want {
		t.Errorf("Q1 = %+v, oracle %+v", got, want)
	}
	// The shm view may be partial (other agents may still be publishing
	// when the last agent reads), but the count must never exceed the
	// oracle and must be nonzero.
	if shmView.Count == 0 || shmView.Count > want.Count {
		t.Errorf("shm Q1 count %d implausible (oracle %d)", shmView.Count, want.Count)
	}
}

func TestQ6MatchesOracle(t *testing.T) {
	cfg := smallConfig()
	cfg.Agents = 2
	m := machine.New(machine.Default())
	w := Setup(m.FS, cfg)
	var got [2]uint64
	pages := w.lineitem.Pages()
	for i := 0; i < cfg.Agents; i++ {
		i := i
		m.SpawnConnected(fmt.Sprintf("agent%d", i), func(p *frontend.Proc) {
			a := db.NewAgent(p, w.Cat)
			got[i] = w.Q6(p, a, pages*i/cfg.Agents, pages*(i+1)/cfg.Agents, 100, 1500, 5, 30)
			a.Close()
		})
	}
	m.Sim.Run()
	if sum := got[0] + got[1]; sum != w.HostQ6(100, 1500, 5, 30) {
		t.Errorf("Q6 revenue %d, oracle %d", sum, w.HostQ6(100, 1500, 5, 30))
	}
}

func TestQ3JoinRuns(t *testing.T) {
	cfg := smallConfig()
	cfg.Agents = 1
	m := machine.New(machine.Default())
	w := Setup(m.FS, cfg)
	var total uint64
	m.SpawnConnected("join", func(p *frontend.Proc) {
		a := db.NewAgent(p, w.Cat)
		total = w.Q3Join(p, a, 0, cfg.Orders, 2)
		a.Close()
	})
	m.Sim.Run()
	// Oracle: sum of prices of line items whose order has priority 2.
	var want uint64
	perOrder := cfg.Rows / cfg.Orders
	for o := 0; o < cfg.Orders; o++ {
		if w.OrderPriority(o) != 2 {
			continue
		}
		for r := o * perOrder; r < (o+1)*perOrder; r++ {
			want += uint64(w.li[r][3])
		}
	}
	if total != want {
		t.Errorf("Q3 join = %d, oracle %d", total, want)
	}
}

func TestQMmapScan(t *testing.T) {
	cfg := smallConfig()
	m := machine.New(machine.Default())
	w := Setup(m.FS, cfg)
	var count uint64
	m.SpawnConnected("mmap", func(p *frontend.Proc) {
		var err error
		count, err = w.QMmapScan(p, 1200)
		if err != nil {
			t.Error(err)
		}
	})
	m.Sim.Run()
	if count != w.HostQ1(1200).Count {
		t.Errorf("mmap scan count %d, oracle %d", count, w.HostQ1(1200).Count)
	}
	if got := m.Sim.Counters().Get("vm.pagein"); got == 0 {
		t.Error("mmap scan generated no page-ins")
	}
	if got := m.Sim.Counters().Get("vm.munmap"); got != 1 {
		t.Errorf("munmap count %d", got)
	}
}

func TestTPCDProfileShape(t *testing.T) {
	cfg := smallConfig()
	m := machine.New(machine.Default())
	w := Setup(m.FS, cfg)
	pages := w.lineitem.Pages()
	for i := 0; i < cfg.Agents; i++ {
		i := i
		m.SpawnConnected(fmt.Sprintf("agent%d", i), func(p *frontend.Proc) {
			a := db.NewAgent(p, w.Cat)
			w.Q1(p, a, pages*i/cfg.Agents, pages*(i+1)/cfg.Agents, 1500)
			w.Q6(p, a, pages*i/cfg.Agents, pages*(i+1)/cfg.Agents, 0, 2000, 5, 40)
			a.Close()
		})
	}
	m.Sim.Run()
	total := m.Sim.TotalAccount()
	prof := stats.ProfileOf("TPCD", &total)
	t.Logf("TPCD profile: %s", prof)
	if prof.UserPct < 40 {
		t.Errorf("user share %.1f%% too low for a DSS scan (paper: ~81%%)", prof.UserPct)
	}
	if prof.OSPct < 3 {
		t.Errorf("OS share %.1f%% too low — buffer-pool misses should cost kernel time", prof.OSPct)
	}
}

func TestTPCDDeterministic(t *testing.T) {
	run := func() uint64 {
		cfg := smallConfig()
		cfg.Agents = 2
		m := machine.New(machine.Default())
		w := Setup(m.FS, cfg)
		pages := w.lineitem.Pages()
		for i := 0; i < cfg.Agents; i++ {
			i := i
			m.SpawnConnected(fmt.Sprintf("a%d", i), func(p *frontend.Proc) {
				a := db.NewAgent(p, w.Cat)
				w.Q1(p, a, pages*i/cfg.Agents, pages*(i+1)/cfg.Agents, 900)
				a.Close()
			})
		}
		end := m.Sim.Run()
		return uint64(end)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic end time: %d vs %d", a, b)
	}
}
