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
	"compass/internal/memsys"
	"compass/internal/simsync"
	"compass/internal/snoop"
	"compass/internal/stats"
)

func testConfig(cpus int) Config {
	cfg := DefaultConfig()
	cfg.CPUs = cpus
	cfg.MemFrames = 2048
	return cfg
}

func snoopConfig(cpus int) Config {
	cfg := testConfig(cpus)
	cfg.NewModel = func(_ *mem.Physical, n int) memsys.Model {
		return snoop.New(snoop.SimpleConfig(n))
	}
	return cfg
}

// alloc grows the proc's heap through a backend call, like the brk stub.
func alloc(s *Sim, p *frontend.Proc, size uint32) mem.VirtAddr {
	va := p.Call(50, func() any {
		a, err := s.Sbrk(p.ID(), size)
		if err != nil {
			panic(err)
		}
		return a
	})
	return va.(mem.VirtAddr)
}

func TestSingleProcLifecycle(t *testing.T) {
	s := New(testConfig(1))
	var base mem.VirtAddr
	s.Spawn("solo", func(p *frontend.Proc) {
		base = alloc(s, p, 4096)
		p.Compute(isa.ALU(100))
		p.Store(base, 4)
		p.Load(base, 4)
	})
	end := s.Run()
	if end == 0 {
		t.Fatal("simulation ended at cycle 0")
	}
	total := s.TotalAccount()
	if total.Cycles(stats.ModeUser) < 100 {
		t.Errorf("user cycles %d < 100 compute cycles", total.Cycles(stats.ModeUser))
	}
	var c stats.Counters
	s.Model().AddCounters(&c)
	if c.Get("fixed.accesses") != 2 {
		t.Errorf("model saw %d accesses, want 2", c.Get("fixed.accesses"))
	}
}

func TestTimeNeverRegresses(t *testing.T) {
	s := New(testConfig(2))
	for i := 0; i < 3; i++ {
		s.Spawn(fmt.Sprintf("p%d", i), func(p *frontend.Proc) {
			base := alloc(s, p, 4096)
			last := p.Now()
			for j := 0; j < 50; j++ {
				p.Compute(isa.ALU(uint64(1 + j%7)))
				p.Store(base+mem.VirtAddr(j*8), 8)
				if p.Now() < last {
					t.Errorf("proc %d time went backward", p.ID())
				}
				last = p.Now()
			}
		})
	}
	s.Run()
}

func TestMoreProcsThanCPUs(t *testing.T) {
	s := New(testConfig(2))
	done := make([]bool, 5)
	for i := 0; i < 5; i++ {
		i := i
		s.Spawn(fmt.Sprintf("p%d", i), func(p *frontend.Proc) {
			base := alloc(s, p, 4096)
			for j := 0; j < 20; j++ {
				p.Compute(isa.ALU(10))
				p.Store(base, 4)
				p.Yield()
			}
			done[i] = true
		})
	}
	s.Run()
	for i, d := range done {
		if !d {
			t.Errorf("proc %d never finished", i)
		}
	}
	if s.Counters().Get("sched.yields") == 0 {
		t.Error("no yields recorded despite oversubscription")
	}
}

func TestBlockingCallAndWake(t *testing.T) {
	s := New(testConfig(1))
	var wokenAt event.Cycle
	s.Spawn("sleeper", func(p *frontend.Proc) {
		p.Compute(isa.ALU(10))
		before := p.Now()
		p.Call(0, func() any {
			pid := p.ID()
			s.ScheduleTask(5000, "io-complete", false, func() {
				s.Wake(pid, s.CurTime())
			})
			s.BlockCurrent()
			return nil
		})
		wokenAt = p.Now()
		if wokenAt < before+5000 {
			t.Errorf("woke at %d, want >= %d", wokenAt, before+5000)
		}
	})
	s.Run()
	if wokenAt == 0 {
		t.Fatal("sleeper never woke")
	}
}

func TestBlockFreesCPUForOthers(t *testing.T) {
	s := New(testConfig(1)) // single CPU
	order := []string{}
	s.Spawn("blocker", func(p *frontend.Proc) {
		p.Call(0, func() any {
			pid := p.ID()
			s.ScheduleTask(100000, "slow-io", false, func() { s.Wake(pid, s.CurTime()) })
			s.BlockCurrent()
			return nil
		})
		order = append(order, "blocker")
	})
	s.Spawn("worker", func(p *frontend.Proc) {
		p.Compute(isa.ALU(500))
		order = append(order, "worker")
	})
	s.Run()
	if len(order) != 2 || order[0] != "worker" {
		t.Errorf("execution order %v, want worker first (CPU freed by block)", order)
	}
}

// block puts p to sleep until somebody wakes it: a call that blocks.
func block(s *Sim, p *frontend.Proc) { p.Call(0, func() any { s.BlockCurrent(); return nil }) }

func TestSleepCurrent(t *testing.T) {
	s := New(testConfig(1))
	var slept, woke event.Cycle
	s.Spawn("sleeper", func(p *frontend.Proc) {
		p.Call(0, func() any {
			slept = s.CurTime()
			s.SleepCurrent(3000, "wake", false)
			return nil
		})
		woke = p.Now()
	})
	s.Run()
	// The wake comes 3000 cycles after the call, and the process resumes
	// a context switch later.
	if want := slept + 3000 + CtxSwitch; woke != want {
		t.Errorf("resumed at %d, want %d", woke, want)
	}
}

// The wake a call books always finds its process asleep: waking one that is
// running, already woken or exited is a bug in the caller, named by the
// process's id.
func TestWakeOfAProcessNotAsleepPanics(t *testing.T) {
	cases := []struct {
		name string
		body func(s *Sim, p *frontend.Proc)
	}{
		{"running", func(s *Sim, p *frontend.Proc) {
			p.Call(0, func() any { s.Wake(p.ID(), s.CurTime()); return nil })
		}},
		{"woken twice", func(s *Sim, p *frontend.Proc) {
			p.Call(0, func() any {
				s.ScheduleTask(100, "wake twice", false, func() {
					s.Wake(p.ID(), s.CurTime())
					s.Wake(p.ID(), s.CurTime())
				})
				s.BlockCurrent()
				return nil
			})
		}},
		{"exited", func(s *Sim, p *frontend.Proc) {
			p.Call(0, func() any {
				s.ScheduleTask(100, "late wake", false, func() { s.Wake(p.ID(), s.CurTime()) })
				return nil
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(testConfig(1))
			s.Spawn("first", func(p *frontend.Proc) {})
			s.Spawn("second", func(p *frontend.Proc) { tc.body(s, p) })
			defer func() {
				msg := fmt.Sprint(recover())
				if want := "core: wake of proc 1, which is not asleep"; !strings.Contains(msg, want) {
					t.Errorf("recovered %q, want it to contain %q", msg, want)
				}
			}()
			s.Run()
			t.Error("Run returned")
		})
	}
}

func TestSpinLockMutualExclusion(t *testing.T) {
	s := New(snoopConfig(4))
	// A shared segment holds the lock word and a plain (simulated) counter
	// that we also mirror in host memory to detect lost updates.
	segID, _ := s.ShmGet(1, mem.PageSize, true)
	hostCounter := 0
	const procs, iters = 4, 25
	for i := 0; i < procs; i++ {
		s.Spawn(fmt.Sprintf("p%d", i), func(p *frontend.Proc) {
			base, err := (func() (mem.VirtAddr, error) {
				v := p.Call(50, func() any {
					va, err := s.ShmAttach(p.ID(), segID)
					if err != nil {
						panic(err)
					}
					return va
				})
				return v.(mem.VirtAddr), nil
			})()
			if err != nil {
				t.Error(err)
				return
			}
			lock := &simsync.SpinLock{Addr: base}
			for j := 0; j < iters; j++ {
				lock.Lock(p)
				// Critical section: host-level increment is safe only if
				// mutual exclusion holds (checked with -race too).
				v := hostCounter
				p.Compute(isa.ALU(20))
				hostCounter = v + 1
				lock.Unlock(p)
				p.Compute(isa.ALU(5))
			}
		})
	}
	s.Run()
	if hostCounter != procs*iters {
		t.Errorf("counter = %d, want %d (mutual exclusion violated)", hostCounter, procs*iters)
	}
}

func TestBarrier(t *testing.T) {
	s := New(snoopConfig(4))
	segID, _ := s.ShmGet(2, mem.PageSize, true)
	const procs = 4
	phase := make([]int, procs)
	for i := 0; i < procs; i++ {
		i := i
		s.Spawn(fmt.Sprintf("p%d", i), func(p *frontend.Proc) {
			v := p.Call(50, func() any {
				va, err := s.ShmAttach(p.ID(), segID)
				if err != nil {
					panic(err)
				}
				return va
			})
			base := v.(mem.VirtAddr)
			bar := &simsync.Barrier{Addr: base, N: procs}
			for ph := 0; ph < 3; ph++ {
				p.Compute(isa.ALU(uint64(10 * (i + 1)))) // skewed arrival
				bar.Wait(p)
				phase[i] = ph + 1
				// After the barrier, everyone must have finished phase ph.
				for j := 0; j < procs; j++ {
					if phase[j] < ph {
						t.Errorf("proc %d saw proc %d at phase %d during phase %d", i, j, phase[j], ph)
					}
				}
			}
		})
	}
	s.Run()
}

func TestSharedMemoryVisibility(t *testing.T) {
	s := New(testConfig(2))
	segID, _ := s.ShmGet(3, mem.PageSize, true)
	var got uint64
	s.Spawn("writer", func(p *frontend.Proc) {
		v := p.Call(50, func() any {
			va, _ := s.ShmAttach(p.ID(), segID)
			return va
		})
		base := v.(mem.VirtAddr)
		p.RMW(base+64, 4, comm.RMWSwap, 7777, 0, false)
		// Flag the reader.
		p.RMW(base+128, 4, comm.RMWSwap, 1, 0, false)
	})
	s.Spawn("reader", func(p *frontend.Proc) {
		v := p.Call(50, func() any {
			va, _ := s.ShmAttach(p.ID(), segID)
			return va
		})
		base := v.(mem.VirtAddr)
		f := &simsync.Counter{Addr: base + 128}
		for f.Load(p) == 0 {
			p.ComputeCycles(64)
		}
		c := &simsync.Counter{Addr: base + 64}
		got = c.Load(p)
	})
	s.Run()
	if got != 7777 {
		t.Errorf("reader saw %d through shm, want 7777", got)
	}
}

func TestPreemptiveScheduler(t *testing.T) {
	cfg := testConfig(1)
	cfg.Preemptive = true
	cfg.Quantum = 2000
	s := New(cfg)
	progress := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		s.Spawn(fmt.Sprintf("spin%d", i), func(p *frontend.Proc) {
			base := alloc(s, p, 4096)
			for j := 0; j < 300; j++ {
				p.Compute(isa.ALU(50))
				p.Store(base, 4)
				progress[i]++
			}
		})
	}
	s.Run()
	if s.Counters().Get("sched.preemptions") == 0 {
		t.Error("preemptive scheduler never preempted")
	}
	for i, pr := range progress {
		if pr != 300 {
			t.Errorf("proc %d progress %d", i, pr)
		}
	}
}

func TestAffinityReducesMigrations(t *testing.T) {
	run := func(policy SchedPolicy) uint64 {
		cfg := testConfig(2)
		cfg.Scheduler = policy
		s := New(cfg)
		for i := 0; i < 4; i++ {
			s.Spawn(fmt.Sprintf("p%d", i), func(p *frontend.Proc) {
				for j := 0; j < 40; j++ {
					p.Compute(isa.ALU(30))
					p.Call(0, func() any {
						pid := p.ID()
						s.ScheduleTask(500, "io", false, func() { s.Wake(pid, s.CurTime()) })
						s.BlockCurrent()
						return nil
					})
				}
			})
		}
		s.Run()
		return s.Counters().Get("sched.migrations")
	}
	fcfs := run(SchedFCFS)
	aff := run(SchedAffinity)
	if aff > fcfs {
		t.Errorf("affinity migrations (%d) exceed FCFS (%d)", aff, fcfs)
	}
}

func TestPageFaultTrapPath(t *testing.T) {
	s := New(testConfig(1))
	faults := 0
	s.Spawn("mmapper", func(p *frontend.Proc) {
		p.SetFaultHandler(func(pp *frontend.Proc, f *mem.Fault) {
			faults++
			pp.Call(200, func() any {
				if _, err := s.ResolvePresentFault(pp.ID(), f); err != nil {
					panic(err)
				}
				return nil
			})
		})
		v := p.Call(100, func() any {
			va, err := s.MapFileRegion(p.ID(), 2*mem.PageSize, 1, 0, mem.ProtRead|mem.ProtWrite)
			if err != nil {
				panic(err)
			}
			return va
		})
		base := v.(mem.VirtAddr)
		p.Load(base, 4)               // faults page 0
		p.Store(base+mem.PageSize, 4) // faults page 1
		p.Load(base, 4)               // no fault
	})
	s.Run()
	if faults != 2 {
		t.Errorf("fault handler ran %d times, want 2", faults)
	}
	if s.Counters().Get("vm.pagein") != 2 {
		t.Errorf("pageins = %d", s.Counters().Get("vm.pagein"))
	}
}

func TestInterruptStealsCycles(t *testing.T) {
	s := New(testConfig(1))
	s.Spawn("victim", func(p *frontend.Proc) {
		base := alloc(s, p, 4096)
		p.Call(0, func() any {
			s.ScheduleTask(10, "dev-intr", false, func() {
				s.RaiseInterrupt(0, s.CurTime(), 2000, nil)
			})
			return nil
		})
		p.Compute(isa.ALU(5000))
		p.Store(base, 4) // this event absorbs the stolen cycles
	})
	s.Run()
	total := s.TotalAccount()
	if total.Cycles(stats.ModeInterrupt) != 2000 {
		t.Errorf("interrupt cycles = %d, want 2000", total.Cycles(stats.ModeInterrupt))
	}
}

func TestIdleCPUInterrupt(t *testing.T) {
	s := New(testConfig(2)) // CPU 1 stays idle
	s.Spawn("only", func(p *frontend.Proc) {
		p.Call(0, func() any {
			s.RaiseInterrupt(1, s.CurTime(), 3000, nil)
			return nil
		})
		p.Compute(isa.ALU(100))
	})
	s.Run()
	if got := s.IdleInterrupt().Cycles(stats.ModeInterrupt); got != 3000 {
		t.Errorf("idle interrupt cycles = %d, want 3000", got)
	}
}

func TestInstrumentationSwitch(t *testing.T) {
	s := New(testConfig(1))
	s.Spawn("switcher", func(p *frontend.Proc) {
		base := alloc(s, p, 4096)
		p.SetInstrumentation(false)
		for i := 0; i < 100; i++ {
			p.Store(base, 4)
		}
		p.SetInstrumentation(true)
		p.Store(base, 4)
	})
	s.Run()
	var c stats.Counters
	s.Model().AddCounters(&c)
	if got := c.Get("fixed.accesses"); got != 1 {
		t.Errorf("model saw %d accesses with switch off, want 1", got)
	}
}

func TestForkFromRunningProc(t *testing.T) {
	s := New(testConfig(2))
	childRan := false
	s.Spawn("parent", func(p *frontend.Proc) {
		p.Compute(isa.ALU(100))
		p.Call(500, func() any {
			s.SpawnLocked("child", func(cp *frontend.Proc) {
				cp.Compute(isa.ALU(50))
				childRan = true
			})
			return nil
		})
		p.Compute(isa.ALU(100))
	})
	s.Run()
	if !childRan {
		t.Error("forked child never ran")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (event.Cycle, uint64, string) {
		s := New(snoopConfig(2))
		segID, _ := s.ShmGet(9, mem.PageSize, true)
		for i := 0; i < 4; i++ {
			s.Spawn(fmt.Sprintf("p%d", i), func(p *frontend.Proc) {
				v := p.Call(50, func() any {
					va, _ := s.ShmAttach(p.ID(), segID)
					return va
				})
				base := v.(mem.VirtAddr)
				lock := &simsync.SpinLock{Addr: base}
				ctr := &simsync.Counter{Addr: base + 32}
				heap := alloc(s, p, 8192)
				for j := 0; j < 30; j++ {
					p.Compute(isa.ALU(uint64(3 + j%11)))
					p.Store(heap+mem.VirtAddr((j*67)%8000), 4)
					lock.Lock(p)
					ctr.Add(p, 1)
					lock.Unlock(p)
					if j%7 == 0 {
						p.Yield()
					}
				}
			})
		}
		end := s.Run()
		total := s.TotalAccount()
		return end, total.Total(), s.Counters().String()
	}
	e1, t1, c1 := run()
	e2, t2, c2 := run()
	if e1 != e2 {
		t.Errorf("final time differs across replays: %d vs %d", e1, e2)
	}
	if t1 != t2 {
		t.Errorf("total cycles differ: %d vs %d", t1, t2)
	}
	if c1 != c2 {
		t.Errorf("counters differ:\n%s\nvs\n%s", c1, c2)
	}
}

func TestKernelSpaceAccesses(t *testing.T) {
	s := New(testConfig(1))
	kbase, err := s.KernelSbrk(mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("kuser", func(p *frontend.Proc) {
		p.PushMode(stats.ModeKernel)
		p.KTouchRange(kbase, 8, true)
		p.KTouchRange(kbase, 8, false)
		p.ComputeCycles(100)
		p.PopMode()
	})
	s.Run()
	total := s.TotalAccount()
	if total.Cycles(stats.ModeKernel) == 0 {
		t.Error("kernel mode cycles not charged")
	}
}

func TestBatchingEquivalentTraffic(t *testing.T) {
	run := func(batch int) uint64 {
		s := New(snoopConfig(1))
		s.Spawn("b", func(p *frontend.Proc) {
			base := alloc(s, p, 65536)
			p.SetBatch(batch)
			for i := 0; i < 200; i++ {
				p.Store(base+mem.VirtAddr(i*32), 4)
			}
			p.SetBatch(1) // flush remainder
		})
		s.Run()
		var c stats.Counters
		s.Model().AddCounters(&c)
		return c.Get("simple.loads") + c.Get("simple.stores")
	}
	if a, b := run(1), run(16); a != b {
		t.Errorf("batching changed model traffic: %d vs %d", a, b)
	}
}

func TestDeadlockPanics(t *testing.T) {
	s := New(testConfig(1))
	s.Spawn("stuck", func(p *frontend.Proc) {
		p.Call(0, func() any {
			s.BlockCurrent() // block with no wake ever scheduled
			return nil
		})
	})
	defer func() {
		if recover() == nil {
			t.Fatal("deadlocked simulation did not panic")
		}
	}()
	s.Run()
}

func TestInterruptMasking(t *testing.T) {
	s := New(testConfig(1))
	s.Spawn("masked", func(p *frontend.Proc) {
		base := alloc(s, p, 4096)
		p.Call(0, func() any {
			s.DisableInterrupts(0)
			s.RaiseInterrupt(0, s.CurTime(), 5000, nil)
			s.RaiseInterrupt(0, s.CurTime(), 5000, nil)
			return nil
		})
		// While masked, events must not absorb stolen cycles.
		before := p.Account().Cycles(stats.ModeInterrupt)
		p.Store(base, 4)
		if got := p.Account().Cycles(stats.ModeInterrupt); got != before {
			t.Errorf("interrupt time %d charged while masked", got-before)
		}
		p.Call(0, func() any {
			if s.Hub().CPU(0).IRQ != 2 {
				t.Errorf("pending IRQ = %d, want 2", s.Hub().CPU(0).IRQ)
			}
			s.EnableInterrupts(0)
			return nil
		})
		p.Store(base, 4) // now the deferred handlers steal
		if got := p.Account().Cycles(stats.ModeInterrupt); got != 10000 {
			t.Errorf("interrupt cycles after unmask = %d, want 10000", got)
		}
	})
	s.Run()
	if got := s.Counters().Get("intr.deferred"); got != 2 {
		t.Errorf("intr.deferred = %d, want 2", got)
	}
}

func TestPreemptionQuantumScales(t *testing.T) {
	run := func(quantum event.Cycle) uint64 {
		cfg := testConfig(1)
		cfg.Preemptive = true
		cfg.Quantum = quantum
		s := New(cfg)
		for i := 0; i < 3; i++ {
			s.Spawn(fmt.Sprintf("p%d", i), func(p *frontend.Proc) {
				base := alloc(s, p, 4096)
				for j := 0; j < 400; j++ {
					p.Compute(isa.ALU(100))
					p.Store(base, 4)
				}
			})
		}
		s.Run()
		return s.Counters().Get("sched.preemptions")
	}
	short, long := run(3000), run(50000)
	if short <= long {
		t.Errorf("short quantum preemptions (%d) not above long quantum (%d)", short, long)
	}
}

func TestAffinityPrefersSameNode(t *testing.T) {
	cfg := testConfig(4)
	cfg.CPUsPerNode = 2 // 2 nodes
	cfg.Scheduler = SchedAffinity
	s := New(cfg)
	for i := 0; i < 6; i++ {
		s.Spawn(fmt.Sprintf("p%d", i), func(p *frontend.Proc) {
			for j := 0; j < 25; j++ {
				p.Compute(isa.ALU(50))
				p.Call(0, func() any {
					pid := p.ID()
					s.ScheduleTask(800, "io", false, func() { s.Wake(pid, s.CurTime()) })
					s.BlockCurrent()
					return nil
				})
			}
		})
	}
	s.Run()
	if s.NodeOf(0) != 0 || s.NodeOf(2) != 1 {
		t.Fatal("node mapping wrong")
	}
	// Just assert the run completed with migrations tracked; exact counts
	// are policy-dependent.
	_ = s.Counters().Get("sched.migrations")
}

func TestRMWSizes(t *testing.T) {
	s := New(testConfig(1))
	s.Spawn("rmw", func(p *frontend.Proc) {
		base := alloc(s, p, 4096)
		// 8-byte swap holds a full 64-bit value.
		big := uint64(0xABCDEF0123456789)
		p.RMW(base, 8, comm.RMWSwap, big, 0, false)
		if got := p.RMW(base, 8, comm.RMWAdd, 0, 0, false); got != big {
			t.Errorf("64-bit RMW read %#x", got)
		}
		// 4-byte ops at an adjacent offset must not clobber the 8-byte word
		// beyond their width... (they live at base+8).
		p.RMW(base+8, 4, comm.RMWAdd, 7, 0, false)
		if got := p.RMW(base+8, 4, comm.RMWAdd, 0, 0, false); got != 7 {
			t.Errorf("32-bit RMW read %d", got)
		}
		// CAS failure leaves the word intact and returns the old value.
		if old := p.RMW(base+8, 4, comm.RMWCAS, 99, 12345, false); old != 7 {
			t.Errorf("failed CAS returned %d", old)
		}
		if got := p.RMW(base+8, 4, comm.RMWAdd, 0, 0, false); got != 7 {
			t.Error("failed CAS mutated the word")
		}
	})
	s.Run()
}
