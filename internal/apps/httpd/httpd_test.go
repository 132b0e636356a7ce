package httpd

import (
	"fmt"
	"testing"

	"compass/internal/frontend"
	"compass/internal/machine"
	"compass/internal/specweb"
	"compass/internal/stats"
	"compass/internal/trace"
)

// serve runs a full SPECWeb-style experiment: fileset on the simulated
// disk, pre-forked workers, trace player driving the NIC.
func serve(t *testing.T, swCfg specweb.Config, workers, concurrency int) (*machine.Machine, *trace.Player, []Stats) {
	t.Helper()
	m := machine.New(machine.Default())
	specweb.GenerateFileset(m.FS, swCfg)
	reqs := specweb.GenerateTrace(swCfg)
	cfg := DefaultConfig()
	cfg.Workers = workers
	m.FS.SetupCreate(cfg.LogFile, nil)
	stats := make([]Stats, workers)
	for i := 0; i < workers; i++ {
		i := i
		m.SpawnConnected(fmt.Sprintf("httpd%d", i), func(p *frontend.Proc) {
			Worker(p, cfg, &stats[i])
		})
	}
	player := trace.NewPlayer(m.Sim, m.NIC, reqs, trace.PlayerConfig{
		Concurrency: concurrency,
		ThinkCycles: 20_000,
		Workers:     workers,
		Port:        cfg.Port,
	})
	player.Start()
	m.Sim.Run()
	return m, player, stats
}

func TestServesWholeTrace(t *testing.T) {
	sw := specweb.DefaultConfig()
	sw.Requests = 60
	m, player, st := serve(t, sw, 4, 8)
	if player.Completed != 60 {
		t.Fatalf("completed %d of 60 requests", player.Completed)
	}
	if player.BadBytes != 0 {
		t.Errorf("%d responses had wrong body sizes", player.BadBytes)
	}
	var served uint64
	for _, s := range st {
		served += s.Served
	}
	if served != 60 {
		t.Errorf("workers served %d, want 60", served)
	}
	if m.NIC.RxPackets == 0 || m.NIC.TxPackets == 0 {
		t.Error("no NIC traffic")
	}
	if player.Latency.State().Count != 60 || player.Latency.Mean() == 0 {
		t.Error("latency histogram empty")
	}
}

func TestSPECWebProfileShape(t *testing.T) {
	sw := specweb.DefaultConfig()
	sw.Requests = 80
	m, _, _ := serve(t, sw, 4, 8)
	total := m.Sim.TotalAccount()
	p := stats.ProfileOf("SPECWeb/httpd", &total)
	t.Logf("SPECWeb profile: %s", p)
	// Paper: user 14.9%, OS 85.1% (interrupt 37.8%, kernel 47.3%): the web
	// server must be OS-dominated with kernel > interrupt.
	if p.OSPct < 55 {
		t.Errorf("OS share %.1f%% too low (paper: 85.1%%)", p.OSPct)
	}
	if p.UserPct > 45 {
		t.Errorf("user share %.1f%% too high (paper: 14.9%%)", p.UserPct)
	}
	if p.KernelPct <= p.InterruptPct {
		t.Errorf("kernel %.1f%% should exceed interrupt %.1f%% (paper: 47.3 vs 37.8)",
			p.KernelPct, p.InterruptPct)
	}
}

func Test404ForMissingFile(t *testing.T) {
	m := machine.New(machine.Default())
	sw := specweb.DefaultConfig()
	specweb.GenerateFileset(m.FS, sw)
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.LogFile = ""
	var st Stats
	m.SpawnConnected("httpd", func(p *frontend.Proc) {
		Worker(p, cfg, &st)
	})
	reqs := trace.Trace{{Path: "/no/such/file", Size: 0}}
	player := trace.NewPlayer(m.Sim, m.NIC, reqs, trace.PlayerConfig{
		Concurrency: 1, Workers: 1, Port: cfg.Port,
	})
	player.Start()
	m.Sim.Run()
	if st.NotFound != 1 {
		t.Errorf("NotFound = %d, want 1", st.NotFound)
	}
}

func TestAccessLogWritten(t *testing.T) {
	sw := specweb.DefaultConfig()
	sw.Requests = 10
	m, _, _ := serve(t, sw, 2, 2)
	var checked bool
	// The access log should have accumulated one line per request; verify
	// through the filesystem's own state after the run.
	for _, name := range []string{"access.log"} {
		ino := findInode(m, name)
		if ino == nil {
			t.Fatalf("no %s", name)
		}
		if ino.Size == 0 {
			t.Error("access log empty")
		}
		checked = true
	}
	if !checked {
		t.Fatal("nothing checked")
	}
}

func findInode(m *machine.Machine, name string) *inodeView {
	// The fs package exposes lookup only in kernel context; peek via a
	// tiny post-run simulation-free check: SetupCreate-d files keep their
	// inode in the fs tables, reachable through InodeByID scan.
	for id := 0; ; id++ {
		ino := func() (ino *inodeView) {
			defer func() { recover() }()
			i := m.FS.InodeByID(id)
			return &inodeView{Name: i.Name, Size: i.Size}
		}()
		if ino == nil {
			return nil
		}
		if ino.Name == name {
			return ino
		}
	}
}

type inodeView struct {
	Name string
	Size int64
}
