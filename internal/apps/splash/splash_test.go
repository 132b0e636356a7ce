package splash

import (
	"fmt"
	"math"
	"testing"

	"compass/internal/frontend"
	"compass/internal/machine"
	"compass/internal/stats"
)

func runSOR(t *testing.T, cfg SORConfig, mcfg machine.Config) (*machine.Machine, *SOR) {
	t.Helper()
	m := machine.New(mcfg)
	s := NewSOR(cfg)
	for i := 0; i < cfg.Procs; i++ {
		i := i
		m.SpawnConnected(fmt.Sprintf("sor%d", i), func(p *frontend.Proc) {
			s.Worker(p, i)
		})
	}
	m.Sim.Run()
	return m, s
}

func TestSORMatchesSequentialOracle(t *testing.T) {
	cfg := SORConfig{N: 18, Iters: 4, Procs: 4}
	_, s := runSOR(t, cfg, machine.Default())
	want := HostSOR(cfg)
	got := s.Grid()
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-12 {
			t.Fatalf("grid[%d] = %g, oracle %g", i, got[i], want[i])
		}
	}
}

func TestSORBarelyEntersOS(t *testing.T) {
	// The paper's motivation: scientific applications spend very little
	// time in the OS, so skipping OS simulation costs them nothing.
	cfg := SORConfig{N: 26, Iters: 4, Procs: 4}
	m, _ := runSOR(t, cfg, machine.Default())
	total := m.Sim.TotalAccount()
	p := stats.ProfileOf("SOR", &total)
	t.Logf("SOR profile: %s", p)
	if p.OSPct > 15 {
		t.Errorf("scientific kernel spends %.1f%% in OS — should be near zero", p.OSPct)
	}
	if p.UserPct < 85 {
		t.Errorf("user share %.1f%%", p.UserPct)
	}
}

func TestSORDeterministic(t *testing.T) {
	run := func() uint64 {
		cfg := SORConfig{N: 14, Iters: 3, Procs: 3}
		m, _ := runSOR(t, cfg, machine.Default())
		total := m.Sim.TotalAccount()
		return total.Total()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic SOR: %d vs %d", a, b)
	}
}

func TestSOROnCCNUMA(t *testing.T) {
	mcfg := machine.Default()
	mcfg.Arch = machine.ArchCCNUMA
	mcfg.Nodes = 4
	mcfg.Placement = 2 // first-touch
	cfg := SORConfig{N: 18, Iters: 3, Procs: 4}
	m, s := runSOR(t, cfg, mcfg)
	want := HostSOR(cfg)
	for i := range want {
		if math.Abs(want[i]-s.Grid()[i]) > 1e-12 {
			t.Fatal("CCNUMA run diverged from oracle")
		}
	}
	c := m.Sim.Counters()
	if c.Get("ccnuma.miss.remote") == 0 {
		t.Error("no remote misses on a 4-node NUMA run")
	}
	if c.Get("ccnuma.invalidations") == 0 {
		t.Error("no coherence invalidations despite boundary sharing")
	}
}
