package core

import (
	"fmt"
	"strings"
	"testing"

	"compass/internal/comm"
	"compass/internal/event"
	"compass/internal/frontend"
	"compass/internal/isa"
	"compass/internal/mem"
)

// pickScenarios are the ways a port other than the posting one, or the
// queue, can come between two posts of one process: what the pick made for
// each post must take in. The range scenarios add interleaving siblings, the
// quantum, traps and batches to them.
var pickScenarios = []rangeScenario{
	{
		// Tasks land between the posts of a process with nobody to interleave
		// with, which is the pick for the whole run: the queue head is looked
		// at afresh for every one of them.
		name: "queue tasks between the posts of a lone process", cpus: 1, procs: 1, walks: true,
		body: func(s *Sim, p *frontend.Proc, _ int, touch toucher, _ any, log func(string)) {
			base := alloc(s, p, mem.PageSize)
			for _, delay := range []event.Cycle{3, 40, 41, 500} {
				p.Call(0, func() any {
					s.ScheduleTask(delay, "probe", false, func() {
						log(fmt.Sprintf("task at %d after %d references", s.CurTime(), modelRefs(s)))
					})
					return nil
				})
				for k := 0; k < 40; k++ {
					p.Load(base+mem.VirtAddr(k*32), 4)
					p.Compute(isa.ALU(uint64(delay % 7)))
				}
				touch(p, base, mem.PageSize, true, false)
			}
		},
	},
	{
		// A device interrupt's handler wakes the sleeper onto the free CPU
		// while the other process is between two posts.
		name: "woken by a device interrupt", cpus: 2, procs: 2, walks: true,
		body: func(s *Sim, p *frontend.Proc, i int, touch toucher, _ any, log func(string)) {
			base := alloc(s, p, mem.PageSize)
			if i == 0 {
				for k := 0; k < 3; k++ {
					p.Call(5, func() any {
						s.ScheduleTask(event.Cycle(700+90*k), "disk-intr", false, func() {
							s.RaiseInterrupt(1, s.CurTime(), 300, nil)
							s.Wake(p.ID(), s.CurTime())
						})
						s.BlockCurrent()
						return nil
					})
					log(fmt.Sprintf("woke at %d on cpu %d", p.Now(), p.CPU()))
					touch(p, base, 256, false, false)
				}
				return
			}
			for k := 0; k < 400; k++ {
				p.Store(base+mem.VirtAddr(k*32%mem.PageSize), 4)
				p.Compute(isa.ALU(11))
			}
			touch(p, base, mem.PageSize, false, false)
		},
	},
	{
		// The child starts on the free CPU between two posts of its parent,
		// and both go on referencing.
		name: "fork from a KCall", cpus: 2, procs: 1, walks: true,
		body: func(s *Sim, p *frontend.Proc, _ int, touch toucher, _ any, log func(string)) {
			base := alloc(s, p, mem.PageSize)
			for k := 0; k < 50; k++ {
				p.Load(base+mem.VirtAddr(k*32), 4)
			}
			p.Call(30, func() any {
				s.SpawnLocked("child", func(c *frontend.Proc) {
					cbase := alloc(s, c, mem.PageSize)
					for k := 0; k < 120; k++ {
						c.Store(cbase+mem.VirtAddr(k*32), 4)
						c.Compute(isa.ALU(5))
					}
					touch(c, cbase, mem.PageSize, false, false)
					log(fmt.Sprintf("child done at %d", c.Now()))
				})
				return nil
			})
			for k := 0; k < 200; k++ {
				p.Load(base+mem.VirtAddr(k*32%mem.PageSize), 4)
				p.Compute(isa.ALU(3))
			}
			touch(p, base, mem.PageSize, true, false)
			log(fmt.Sprintf("parent done at %d", p.Now()))
		},
	},
	{
		// Three processes at different paces: whoever is the pick falls
		// behind one sibling or both, and the runner-up changes with it.
		name: "siblings posting earlier events", cpus: 3, procs: 3, walks: true,
		body: func(s *Sim, p *frontend.Proc, i int, touch toucher, _ any, log func(string)) {
			base := alloc(s, p, 2*mem.PageSize)
			for k := 0; k < 30; k++ {
				for j := 0; j <= 2*i; j++ {
					p.Load(base+mem.VirtAddr((k*96+j*32)%mem.PageSize), 4)
				}
				p.Compute(isa.ALU(uint64(150 - 60*i)))
				if k%10 == 9 {
					touch(p, base+mem.PageSize, 640, k%20 == 9, false)
				}
			}
			log(fmt.Sprintf("proc %d done at %d", i, p.Now()))
		},
	},
	{
		// The last exit hands the CPU to a daemon whose events are then the
		// next picks: they wait for the next Run either way.
		name: "end of run under a daemon", cpus: 1, procs: 1,
		setup: func(s *Sim) any {
			s.SpawnDaemon("daemon", func(p *frontend.Proc) {
				base := alloc(s, p, mem.PageSize)
				for {
					p.Load(base, 4)
					p.Compute(isa.ALU(3))
					p.Yield() // born first, on the only CPU
				}
			})
			return nil
		},
		body: func(s *Sim, p *frontend.Proc, _ int, _ toucher, _ any, _ func(string)) {
			base := alloc(s, p, mem.PageSize)
			for k := 0; k < 10; k++ {
				p.Load(base, 4)
				p.Yield()
			}
		},
	},
}

// A process stays the pick from one of its posts to the next for as long as
// the scan of every port says so, and is served in place meanwhile: on every
// model the scenarios walk ranges and serve events in place, and where the
// ports can be threaded, taking every pick from the loop instead handles the
// same events in the same order.
func TestStandingPickMatchesFullScan(t *testing.T) {
	scenarios := append(append([]rangeScenario(nil), pickScenarios...), rangeScenarios...)
	// Every model: a walk taken too far past a sibling's event shows in the
	// cycles only where the two meet, on a contended bus or in a directory.
	for _, m := range rangeModels {
		for i := range scenarios {
			sc := &scenarios[i]
			// The range scenarios have met the threaded ports already
			// (TestRangeMatchesPerReference); a threaded daemon would be left
			// waiting at its port for good.
			threadedToo := i < len(pickScenarios) && sc.setup == nil
			t.Run(m.name+"/"+sc.name, func(t *testing.T) {
				got, _, inPlace, ranged := runScenario(t, sc, m.build, touchByRange, false)
				if sc.walks && (inPlace == 0 || ranged == 0) {
					t.Errorf("%d events served in place and %d references ranged: the scenario should do both", inPlace, ranged)
				}
				if !threadedToo {
					return
				}
				// The threaded ports take their picks from the loop alone:
				// same events again.
				if threaded, _, _, _ := runScenario(t, sc, m.build, touchByRange, true); threaded != got {
					t.Errorf("threaded ports disagree:\n--- threaded ---\n%s--- coroutine ---\n%s", threaded, got)
				}
			})
		}
	}
}

// A run checkpointed at the end of one phase goes on identically on the
// machine that took the checkpoint and on a fresh one restored from it: the
// pick is made from the restored ports alone.
func TestStandingPickAcrossCheckpoint(t *testing.T) {
	phase := func(s *Sim, n int) {
		for i := 0; i < 2; i++ {
			s.Spawn(fmt.Sprint("phase", n, "-", i), func(p *frontend.Proc) {
				base := alloc(s, p, mem.PageSize)
				for k := 0; k < 100; k++ {
					p.Store(base+mem.VirtAddr(k*32), 4)
					p.Compute(isa.ALU(uint64(3 + 40*i)))
				}
				p.TouchRange(base, mem.PageSize, false)
			})
		}
		s.Run()
	}
	render := func(s *Sim) string {
		// The backend's own state: the model's counters are the model's to
		// checkpoint.
		out := fmt.Sprintf("end=%d ctxswitches=%d\n%s", s.CurTime(), s.ctxSwitches, s.ownCounters().String())
		for _, p := range s.Procs() {
			out += fmt.Sprintf("%s total=%d\n", p.Name(), p.Account().Total())
		}
		return out
	}
	a := New(testConfig(2))
	phase(a, 1)
	st, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b := New(testConfig(2))
	if err := b.Restore(st); err != nil {
		t.Fatal(err)
	}
	b.SetQueueState(st.Queue)
	phase(a, 2)
	phase(b, 2)
	if got, want := render(b), render(a); got != want {
		t.Errorf("the restored machine disagrees:\n--- restored ---\n%s--- original ---\n%s", got, want)
	}
}

// The trap path posts through the port's record while the faulting event
// waits to be retried: the retry must be the event that faulted, whatever
// the handler posted in between — a load, a batch, a range, an RMW.
func TestFaultHandlerPostsDoNotClobberFaultingEvent(t *testing.T) {
	cases := []struct {
		name string
		// touch references the lazy page at va; a counter there starts at 0.
		touch func(p *frontend.Proc, va mem.VirtAddr, log func(string))
	}{
		{"load", func(p *frontend.Proc, va mem.VirtAddr, _ func(string)) { p.Load(va+8, 8) }},
		{"batched", func(p *frontend.Proc, va mem.VirtAddr, _ func(string)) {
			p.SetBatch(4)
			for k := 0; k < 8; k++ {
				p.Store(va+mem.VirtAddr(k*512), 4) // the second event's primary faults on the next page
			}
			p.SetBatch(1)
		}},
		{"range", func(p *frontend.Proc, va mem.VirtAddr, _ func(string)) {
			p.TouchRange(va-64, 2*mem.PageSize, true) // faults two references in, and again a page on
		}},
		{"RMW", func(p *frontend.Proc, va mem.VirtAddr, log func(string)) {
			log(fmt.Sprint("counter was ", p.RMW(va+16, 4, comm.RMWAdd, 7, 0, false)))
			log(fmt.Sprint("counter was ", p.RMW(va+16, 4, comm.RMWCAS, 9, 7, false)))
			log(fmt.Sprint("counter was ", p.RMW(va+16, 4, comm.RMWSwap, 0, 0, false)))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// busy says what the fault handler does on its way: nothing but
			// resolve the fault, or every kind of post there is. What the
			// references under test did comes out in the log, the VM's
			// counters and the model's, less the handler's own traffic.
			run := func(busy bool) (out string, loads, stores uint64) {
				s := New(snoopConfig(1))
				var lines []string
				log := func(l string) { lines = append(lines, l) }
				s.Spawn("subject", func(p *frontend.Proc) {
					scratch := alloc(s, p, 2*mem.PageSize)
					p.SetFaultHandler(func(pp *frontend.Proc, f *mem.Fault) {
						log(fmt.Sprintf("fault %v at %#x write=%v", f.Kind, uint32(f.Addr), f.Write))
						if busy {
							pp.Load(scratch, 4)
							pp.TouchRange(scratch+mem.PageSize, 1024, true)
							pp.RMW(scratch+128, 4, comm.RMWAdd, 1, 0, false)
							pp.Yield()
						}
						pp.Call(200, func() any {
							if _, err := s.ResolvePresentFault(pp.ID(), f); err != nil {
								panic(err)
							}
							return nil
						})
					})
					base := p.Call(100, func() any {
						va, err := s.MapFileRegion(p.ID(), 4*mem.PageSize, 1, 0, mem.ProtRead|mem.ProtWrite)
						if err != nil {
							panic(err)
						}
						return va
					}).(mem.VirtAddr)
					tc.touch(p, base+mem.PageSize, log)
				})
				s.Run()
				c := s.Counters()
				out = fmt.Sprintf("%v faults=%d pagein=%d", lines, c.Get("vm.faults"), c.Get("vm.pagein"))
				return out, c.Get("simple.loads"), c.Get("simple.stores")
			}
			quiet, loads, stores := run(false)
			busy, busyLoads, busyStores := run(true)
			if quiet != busy {
				t.Errorf("a fault handler that posts changed what was retried:\n--- posting handler ---\n%s\n--- quiet handler ---\n%s", busy, quiet)
			}
			var faults uint64
			if _, err := fmt.Sscanf(quiet[strings.LastIndex(quiet, "faults="):], "faults=%d", &faults); err != nil || faults == 0 {
				t.Fatalf("no fault was taken: %s", quiet)
			}
			// The handler loads once and stores 32 lines and a latch word.
			if busyLoads != loads+faults || busyStores != stores+33*faults {
				t.Errorf("%d loads and %d stores with a posting handler, %d and %d with a quiet one, over %d faults: want 1 load and 33 stores more per fault",
					busyLoads, busyStores, loads, stores, faults)
			}
		})
	}
}

// BenchmarkLoneRMW is BenchmarkLoneLoader for the synchronisation
// instruction: a latch word swapped back and forth, every event in place.
func BenchmarkLoneRMW(b *testing.B) {
	s := New(testConfig(1))
	s.Spawn("solo", func(p *frontend.Proc) {
		base := alloc(s, p, 4096)
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			p.RMW(base, 4, comm.RMWSwap, uint64(k&1), 0, false)
		}
	})
	s.Run()
}
