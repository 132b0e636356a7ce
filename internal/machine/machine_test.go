package machine

import (
	"testing"

	"compass/internal/frontend"
	"compass/internal/isa"
	"compass/internal/mem"
)

func TestAllArchitecturesBoot(t *testing.T) {
	for _, arch := range []Arch{ArchFixed, ArchSimple, ArchSMP, ArchCCNUMA, ArchCOMA} {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			cfg := Default()
			cfg.Arch = arch
			if arch == ArchCCNUMA || arch == ArchCOMA {
				cfg.Nodes = 2
			}
			m := New(cfg)
			var ran bool
			m.SpawnConnected("p", func(p *frontend.Proc) {
				os := p.OS
				if os == nil {
					t.Error("OS thread not connected")
				}
				base := mustSbrk(p)
				p.Store(base, 8)
				p.Load(base, 8)
				p.Compute(isa.ALU(100))
				ran = true
			})
			end := m.Sim.Run()
			if !ran || end == 0 {
				t.Fatalf("ran=%v end=%d", ran, end)
			}
			if m.Sim.Model().Name() == "" {
				t.Error("model unnamed")
			}
		})
	}
}

func mustSbrk(p *frontend.Proc) mem.VirtAddr {
	type sbrker interface{ Sbrk(uint32) mem.VirtAddr }
	return p.OS.(sbrker).Sbrk(4096)
}

func TestBadTopologyPanics(t *testing.T) {
	cfg := Default()
	cfg.CPUs = 4
	cfg.Nodes = 3 // does not divide
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(cfg)
}

func TestArchString(t *testing.T) {
	for a, want := range map[Arch]string{
		ArchFixed: "fixed", ArchSimple: "simple", ArchSMP: "smp",
		ArchCCNUMA: "ccnuma", ArchCOMA: "coma",
	} {
		if a.String() != want {
			t.Errorf("%d = %q", a, a.String())
		}
	}
	if Arch(99).String() != "Arch(99)" {
		t.Error("out-of-range name")
	}
}

func TestRTCOptional(t *testing.T) {
	cfg := Default()
	cfg.RTC = false
	m := New(cfg)
	if m.RTC != nil {
		t.Error("RTC created despite being disabled")
	}
	m.SpawnConnected("p", func(p *frontend.Proc) { p.Compute(isa.ALU(10)) })
	m.Sim.Run()
}
