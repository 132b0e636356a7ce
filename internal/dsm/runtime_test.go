package dsm

import (
	"fmt"
	"testing"

	"compass/internal/frontend"
	"compass/internal/isa"
	"compass/internal/machine"
	"compass/internal/mem"
	"compass/internal/osserver"
	"compass/internal/simsync"
	"compass/internal/stats"
)

// runStencil runs a page-partitioned compute over a DSM region: each node
// writes its own pages and reads a neighbour's, round-robin, under a
// barrier — the minimal sharing pattern that drives page migrations and
// invalidations. Ranges go through storeRange and loadRange.
func runStencil(t *testing.T, storeRange, loadRange func(v *View, p *frontend.Proc, va mem.VirtAddr, n int)) (*machine.Machine, *Protocol) {
	const nodes = 4
	const pagesPerNode = 2
	cfg := machine.Default()
	cfg.CPUs = nodes
	m := machine.New(cfg)
	proto := New(DefaultConfig(nodes))

	totalBytes := uint32(nodes * pagesPerNode * mem.PageSize)

	for i := 0; i < nodes; i++ {
		i := i
		m.SpawnConnected(fmt.Sprintf("node%d", i), func(p *frontend.Proc) {
			os := osserver.For(p)
			// One extra page up front holds the barrier words; the DSM
			// region itself must be page-aligned.
			segID, err := os.ShmGet(0xD5A1, totalBytes+mem.PageSize)
			if err != nil {
				t.Error(err)
				return
			}
			base, err := os.ShmAt(segID)
			if err != nil {
				t.Error(err)
				return
			}
			region := NewRegion(m.Sim, proto, base+mem.PageSize, totalBytes)
			view := region.NewView(i)
			bar := &simsync.Barrier{Addr: base, N: nodes}

			myPage := region.Base + mem.VirtAddr(i*pagesPerNode*mem.PageSize)
			neighbour := region.Base + mem.VirtAddr(((i+1)%nodes)*pagesPerNode*mem.PageSize)

			for iter := 0; iter < 3; iter++ {
				storeRange(view, p, myPage, 2*mem.PageSize)
				p.Compute(isa.ALU(500))
				bar.Wait(p)
				loadRange(view, p, neighbour, 2*mem.PageSize)
				bar.Wait(p)
			}
		})
	}
	m.Sim.Run()
	return m, proto
}

func TestDSMStencil(t *testing.T) {
	_, proto := runStencil(t, (*View).StoreRange, (*View).LoadRange)

	if proto.ReadFaults == 0 || proto.WriteFaults == 0 {
		t.Errorf("faults r=%d w=%d — protocol never engaged", proto.ReadFaults, proto.WriteFaults)
	}
	if proto.PageMoves == 0 {
		t.Error("no page transfers")
	}
	if proto.Invalidations == 0 {
		t.Error("no invalidations despite write sharing")
	}
	// Every page must satisfy SWMR at the end.
	for page := range proto.pages {
		if err := proto.CheckInvariant(page); err != nil {
			t.Error(err)
		}
	}
}

// LoadRange and StoreRange touch their range as one range event. The same
// stencil with every reference posted by itself — the SVM faults, the
// blocking page fetches and the wake-ups falling where they did — must end
// on the same cycle with the same counters and time accounts.
func TestDSMRangesMatchPerReference(t *testing.T) {
	perReference := func(write bool) func(v *View, p *frontend.Proc, va mem.VirtAddr, n int) {
		return func(v *View, p *frontend.Proc, va mem.VirtAddr, n int) {
			for pg := va &^ mem.PageMask; pg < va+mem.VirtAddr(n); pg += mem.PageSize {
				v.ensure(p, pg, write)
			}
			for off := 0; off < n; off += 32 {
				if write {
					p.Store(va+mem.VirtAddr(off), min(32, n-off))
				} else {
					p.Load(va+mem.VirtAddr(off), min(32, n-off))
				}
			}
		}
	}
	render := func(m *machine.Machine, proto *Protocol) string {
		out := fmt.Sprintf("end=%d\n%s", m.Sim.CurTime(), m.Sim.Counters().String())
		var c stats.Counters
		proto.AddCounters(&c)
		out += c.String()
		for _, p := range m.Sim.Procs() {
			a := p.Account()
			out += fmt.Sprintf("%s user=%d kernel=%d interrupt=%d\n", p.Name(),
				a.Cycles(stats.ModeUser), a.Cycles(stats.ModeKernel), a.Cycles(stats.ModeInterrupt))
		}
		return out
	}
	rm, rproto := runStencil(t, (*View).StoreRange, (*View).LoadRange)
	pm, pproto := runStencil(t, perReference(true), perReference(false))
	if ranges, refs := render(rm, rproto), render(pm, pproto); ranges != refs {
		t.Errorf("range events and per-reference posts disagree:\n--- ranges ---\n%s--- per reference ---\n%s", ranges, refs)
	}
	if _, _, ranged := rm.Sim.PortStats(); ranged == 0 {
		t.Error("no reference was served past the first of its range")
	}
}

func TestDSMRightsCachedAfterFault(t *testing.T) {
	cfg := machine.Default()
	cfg.CPUs = 2
	m := machine.New(cfg)
	proto := New(DefaultConfig(2))
	var faultsAfterWarm uint64
	m.SpawnConnected("n1", func(p *frontend.Proc) {
		os := osserver.For(p)
		segID, _ := os.ShmGet(0xD5A2, 4*mem.PageSize)
		base, _ := os.ShmAt(segID)
		region := NewRegion(m.Sim, proto, base, 4*mem.PageSize)
		view := region.NewView(1)
		view.Store(p, base+100, 4) // write fault: ownership moves to node 1
		warm := proto.ReadFaults + proto.WriteFaults
		for k := 0; k < 50; k++ {
			view.Store(p, base+mem.VirtAddr(100+k*8), 4)
			view.Load(p, base+mem.VirtAddr(100+k*8), 4)
		}
		faultsAfterWarm = proto.ReadFaults + proto.WriteFaults - warm
	})
	m.Sim.Run()
	if faultsAfterWarm != 0 {
		t.Errorf("%d extra faults on owned page", faultsAfterWarm)
	}
}

func TestDSMOutOfRegionPanics(t *testing.T) {
	cfg := machine.Default()
	cfg.CPUs = 1
	m := machine.New(cfg)
	proto := New(DefaultConfig(1))
	m.SpawnConnected("n", func(p *frontend.Proc) {
		os := osserver.For(p)
		segID, _ := os.ShmGet(0xD5A3, mem.PageSize)
		base, _ := os.ShmAt(segID)
		region := NewRegion(m.Sim, proto, base, mem.PageSize)
		view := region.NewView(0)
		defer func() {
			if recover() == nil {
				t.Error("out-of-region access did not panic")
			}
		}()
		view.Load(p, base+2*mem.PageSize, 4)
	})
	m.Sim.Run()
}
