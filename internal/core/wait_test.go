package core

import (
	"fmt"
	"testing"
	"time"

	"compass/internal/comm"
	"compass/internal/event"
	"compass/internal/frontend"
	"compass/internal/isa"
	"compass/internal/mem"
	"compass/internal/simsync"
	"compass/internal/stats"
)

// locker acquires l with ready true under it, polling every pause cycles:
// as spin events, or by the loop they stand for.
type locker func(l *simsync.SpinLock, p *frontend.Proc, pause uint32, ready func() bool)

func lockByEvent(l *simsync.SpinLock, p *frontend.Proc, pause uint32, ready func() bool) {
	l.LockWhen(p, pause, ready)
}

// lockByLoop is what LockWhen means, every step posted by itself.
func lockByLoop(l *simsync.SpinLock, p *frontend.Proc, pause uint32, ready func() bool) {
	for {
		l.Lock(p)
		if ready() {
			return
		}
		l.Unlock(p)
		p.ComputeCycles(uint64(pause))
		p.Yield()
	}
}

// latched is the host state of a spin scenario: a latch in kernel space,
// where every process finds it at one address, and the flag it guards.
type latched struct {
	lock simsync.SpinLock
	busy bool
}

func newLatched(s *Sim) any {
	kbase, err := s.KernelSbrk(mem.PageSize)
	if err != nil {
		panic(err)
	}
	return &latched{lock: simsync.SpinLock{Addr: kbase + 64, Kernel: true}, busy: true}
}

// spinScenario is a rangeScenario (machine, cast, set-up; walks says the
// event run should carry steps past the first of their event) whose body
// is written against a locker.
type spinScenario struct {
	rangeScenario
	body func(s *Sim, p *frontend.Proc, i int, lockWhen locker, shared any, log func(string))
	// hostWork is frontend.HostWork for the run.
	hostWork float64
}

// loaderAndPollers: process 0 is a loader that marks the latched state busy,
// works for a while off the latch and marks it settled, three times over;
// the others wait for it to settle, hold the latch for a moment and come
// back, in user or in kernel mode. The pollers' walks are cut short by the
// loader's events, by each other's, and by whatever the machine adds.
func loaderAndPollers(s *Sim, p *frontend.Proc, i int, lockWhen locker, shared any, log func(string)) {
	sh := shared.(*latched)
	base := alloc(s, p, mem.PageSize)
	if i == 0 {
		for round := 0; round < 3; round++ {
			for k := 0; k < 12; k++ {
				p.Load(base+mem.VirtAddr(k*32), 4)
				p.Compute(isa.ALU(uint64(300 + 40*k)))
			}
			sh.lock.Lock(p)
			sh.busy = false
			sh.lock.Unlock(p)
			p.Compute(isa.ALU(2500))
			sh.lock.Lock(p)
			sh.busy = true
			sh.lock.Unlock(p)
		}
		sh.lock.Lock(p)
		sh.busy = false
		sh.lock.Unlock(p)
		return
	}
	p.Compute(isa.ALU(uint64(130 * i))) // out of lockstep
	if i%2 == 0 {
		p.PushMode(stats.ModeKernel)
		defer p.PopMode()
	}
	for round := 0; round < 8; round++ {
		lockWhen(&sh.lock, p, 400, func() bool { return !sh.busy })
		log(fmt.Sprintf("proc %d in at %d on cpu %d", i, p.Now(), p.CPU()))
		p.Store(base, 4)
		sh.lock.Unlock(p)
		p.Compute(isa.ALU(uint64(900 + 70*i)))
	}
}

var spinScenarios = []spinScenario{
	{
		// Nothing but the queue comes between the steps: a task clears the
		// flag, due at every offset into an iteration in turn, so that each
		// walk ends before a different step, and device interrupts land in
		// the waits, their cycles stolen from the first step after them.
		rangeScenario: rangeScenario{name: "lone poller, tasks and interrupts inside the wait", cpus: 1, procs: 1, walks: true, setup: newLatched},
		body: func(s *Sim, p *frontend.Proc, _ int, lockWhen locker, shared any, log func(string)) {
			sh := shared.(*latched)
			delays := []event.Cycle{1, 2, 3, 5, 8, 12, 13, 14, 15, 16, 17, 18, 19, 20, 25, 30, 200, 414, 415, 416, 417, 418, 419, 420, 421, 422, 430, 440, 900, 5000}
			for k, delay := range delays {
				p.Call(0, func() any {
					sh.busy = true
					s.ScheduleTask(delay, "clear", false, func() {
						sh.busy = false
						log(fmt.Sprintf("task cleared at %d after %d RMWs", s.CurTime(), s.rmws))
					})
					if k%3 == 0 {
						s.ScheduleTask(delay/2, "dev-intr", false, func() {
							s.RaiseInterrupt(0, s.CurTime(), 250, []KernelTouch{{Addr: sh.lock.Addr + 128, Write: true}})
						})
					}
					return nil
				})
				lockWhen(&sh.lock, p, 400, func() bool { return !sh.busy })
				log(fmt.Sprintf("in at %d intr=%d", p.Now(), p.Account().Cycles(stats.ModeInterrupt)))
				sh.lock.Unlock(p)
				p.Compute(isa.ALU(uint64(k)))
			}
		},
	},
	{
		rangeScenario: rangeScenario{name: "two pollers on one latch", cpus: 3, procs: 3, walks: true, setup: newLatched},
		body:          loaderAndPollers,
	},
	{
		// The loader starts on the ready queue and gets a CPU only when a
		// poller's yield gives one up.
		rangeScenario: rangeScenario{name: "more processes than CPUs", cpus: 2, procs: 4, walks: true, setup: newLatched},
		body: func(s *Sim, p *frontend.Proc, i int, lockWhen locker, shared any, log func(string)) {
			loaderAndPollers(s, p, (i+1)%4, lockWhen, shared, log)
		},
	},
	{
		rangeScenario: rangeScenario{
			name: "more processes than CPUs under a short quantum", cpus: 2, procs: 5, walks: true, setup: newLatched,
			cfg: func(c *Config) { c.Preemptive, c.Quantum = true, 1500 },
		},
		body: loaderAndPollers,
	},
	{
		// The latch is on a page mapped lazily: the first CAS traps, at its
		// own cycle, and is retried after the trap path.
		rangeScenario: rangeScenario{name: "lock word on a lazy page", cpus: 1, procs: 1, walks: true},
		body: func(s *Sim, p *frontend.Proc, _ int, lockWhen locker, _ any, log func(string)) {
			p.SetFaultHandler(func(pp *frontend.Proc, f *mem.Fault) {
				log(fmt.Sprintf("fault %v at %#x t=%d", f.Kind, uint32(f.Addr), pp.Now()))
				pp.Call(200, func() any {
					if _, err := s.ResolvePresentFault(pp.ID(), f); err != nil {
						panic(err)
					}
					return nil
				})
				pp.ComputeCycles(35)
			})
			base := p.Call(100, func() any {
				va, err := s.MapFileRegion(p.ID(), 2*mem.PageSize, 1, 0, mem.ProtRead|mem.ProtWrite)
				if err != nil {
					panic(err)
				}
				return va
			}).(mem.VirtAddr)
			lock := simsync.SpinLock{Addr: base + mem.PageSize + 16}
			polls := 0
			lockWhen(&lock, p, 250, func() bool { polls++; return polls > 20 })
			log(fmt.Sprintf("in at %d after %d polls", p.Now(), polls))
			lock.Unlock(p)
		},
	},
	{
		// A holder sits on the latch for long stretches: the pollers' CAS
		// finds it held, and they back off, yield and try again as Lock does.
		rangeScenario: rangeScenario{name: "contended latch", cpus: 3, procs: 3, walks: true, setup: newLatched},
		body: func(s *Sim, p *frontend.Proc, i int, lockWhen locker, shared any, log func(string)) {
			sh := shared.(*latched)
			if i == 0 {
				for round := 0; round < 6; round++ {
					sh.lock.Lock(p)
					p.Compute(isa.ALU(uint64(1500 + 900*round)))
					sh.busy = round%2 == 0
					sh.lock.Unlock(p)
					p.Compute(isa.ALU(4100))
				}
				return
			}
			for round := 0; round < 5; round++ {
				lockWhen(&sh.lock, p, 300, func() bool { return !sh.busy })
				log(fmt.Sprintf("proc %d in at %d", i, p.Now()))
				p.Compute(isa.ALU(uint64(200 * i)))
				sh.lock.Unlock(p)
				p.Compute(isa.ALU(uint64(50 + 333*i)))
			}
		},
	},
	{
		rangeScenario: rangeScenario{name: "SetBatch(16)", cpus: 3, procs: 3, setup: newLatched},
		body: func(s *Sim, p *frontend.Proc, i int, lockWhen locker, shared any, log func(string)) {
			p.SetBatch(16)
			loaderAndPollers(s, p, i, lockWhen, shared, log)
			p.SetBatch(1)
		},
	},
	{
		rangeScenario: rangeScenario{name: "instrumentation off", cpus: 3, procs: 3, setup: newLatched},
		body: func(s *Sim, p *frontend.Proc, i int, lockWhen locker, shared any, log func(string)) {
			p.SetInstrumentation(i == 0)
			loaderAndPollers(s, p, i, lockWhen, shared, log)
			p.SetInstrumentation(true)
		},
	},
	{
		rangeScenario: rangeScenario{name: "HostWork set", cpus: 3, procs: 3, setup: newLatched},
		body:          loaderAndPollers,
		hostWork:      0.01,
	},
}

// runSpinScenario runs sc with the given locker and renders what the two
// ways of waiting must agree on (runBodies); steps is how many references
// and yields were handled, posted or walked.
func runSpinScenario(t *testing.T, sc *spinScenario, model func(*Config), lockWhen locker, threaded bool) (out string, posts, steps uint64) {
	t.Helper()
	frontend.HostWork = sc.hostWork
	defer func() { frontend.HostWork = 0 }()
	out, s := runBodies(t, &sc.rangeScenario, model, threaded, false,
		func(s *Sim, p *frontend.Proc, i int, shared any, log func(string)) {
			sc.body(s, p, i, lockWhen, shared, log)
		})
	posts, _, ranged := s.PortStats()
	_, _, yields := s.SpinStats()
	return out, posts, posts + ranged + yields
}

// A lock-poll loop posted as spin events must be indistinguishable, in
// simulated terms, from the loop with every RMW, pause and yield posted by
// itself: the end cycle, the counters (sync.rmw and sched.yields among
// them), every process's time account and what the processes saw on the
// way, on every model and both kinds of port. Only the ports' own figures
// differ: fewer events posted for the same steps.
func TestLockWhenMatchesLoop(t *testing.T) {
	for _, m := range rangeModels {
		for i := range spinScenarios {
			sc := &spinScenarios[i]
			t.Run(m.name+"/"+sc.name, func(t *testing.T) {
				want, loopPosts, loopSteps := runSpinScenario(t, sc, m.build, lockByLoop, false)
				for _, threaded := range []bool{false, true} {
					got, posts, steps := runSpinScenario(t, sc, m.build, lockByEvent, threaded)
					if got != want {
						t.Fatalf("threaded=%v: spin events and the posted loop disagree:\n--- events ---\n%s--- loop ---\n%s", threaded, got, want)
					}
					// Every step is either a post or walked past the first
					// of one.
					if steps != loopSteps {
						t.Errorf("threaded=%v: %d steps posted or walked, by the loop %d", threaded, steps, loopSteps)
					}
					if sc.walks && posts >= loopPosts {
						t.Errorf("threaded=%v: %d events posted, by the loop %d: want fewer", threaded, posts, loopPosts)
					}
					if !sc.walks && posts != loopPosts {
						t.Errorf("threaded=%v: %d events posted, by the loop %d: this path should be the loop's", threaded, posts, loopPosts)
					}
				}
			})
		}
	}
}

// Spin's reply says which step of the loop comes next, and each of them can:
// a lone poller's walk is ended by a task due at every offset into an
// iteration in turn, by a held lock, by a waiter on the ready queue and by
// the quantum; going on from the step named, by the ordinary posts, ends
// where the loop ends.
func TestSpinStopsBeforeEveryStep(t *testing.T) {
	var seen [comm.SpinCASNext + 1]int
	// spin is LockWhen with the stops counted.
	spin := func(l *simsync.SpinLock, p *frontend.Proc, pause uint32, ready func() bool) {
		for {
			stop := p.Spin(l.Addr, l.Kernel, pause, ready)
			seen[stop]++
			switch stop {
			case comm.SpinReady:
				return
			case comm.SpinHeld:
				for p.ComputeCycles(8); !l.TryLock(p); {
					p.ComputeCycles(8)
				}
				fallthrough
			case comm.SpinAcquired:
				if ready() {
					return
				}
				fallthrough
			case comm.SpinSwapNext:
				l.Unlock(p)
				fallthrough
			case comm.SpinPauseNext:
				p.ComputeCycles(uint64(pause))
				p.Yield()
			case comm.SpinCASNext:
			}
		}
	}
	loop := func(l *simsync.SpinLock, p *frontend.Proc, pause uint32, ready func() bool) {
		for {
			for !l.TryLock(p) {
				p.ComputeCycles(8)
			}
			if ready() {
				return
			}
			l.Unlock(p)
			p.ComputeCycles(uint64(pause))
			p.Yield()
		}
	}
	sc := spinScenario{
		rangeScenario: rangeScenario{
			name: "every stop", cpus: 2, procs: 3, setup: newLatched,
			cfg: func(c *Config) { c.Preemptive, c.Quantum = true, 700 },
		},
		body: func(s *Sim, p *frontend.Proc, i int, lockWhen locker, shared any, log func(string)) {
			sh := shared.(*latched)
			if i > 0 {
				p.Block()
				lockWhen(&sh.lock, p, 40, func() bool { return !sh.busy })
				sh.lock.Unlock(p)
				return
			}
			// One iteration is 3+10 cycles of CAS, 3+10 of swap, the pause of
			// 40 and 3 to the next CAS's issue: a task at every cycle of two
			// iterations ends a walk before every step.
			for delay := event.Cycle(1); delay < 150; delay++ {
				p.Call(0, func() any {
					sh.busy = true
					s.ScheduleTask(delay, "clear", false, func() { sh.busy = false })
					return nil
				})
				lockWhen(&sh.lock, p, 40, func() bool { return !sh.busy })
				log(fmt.Sprintf("%d:%d", delay, p.Now()))
				sh.lock.Unlock(p)
			}
			// The others may start now: the latch is found held, and with
			// three processes on two CPUs the yields switch and the quantum
			// preempts.
			sh.busy = true
			p.Call(0, func() any { s.Wake(1, s.CurTime()); s.Wake(2, s.CurTime()); return nil })
			for k := 0; k < 300; k++ {
				lockWhen(&sh.lock, p, 40, func() bool { return true })
				p.Compute(isa.ALU(90))
				sh.busy = k < 299
				sh.lock.Unlock(p)
				p.Compute(isa.ALU(25))
			}
		},
	}
	run := func(lockWhen locker) string {
		out, _, _ := runSpinScenario(t, &sc, rangeModels[0].build, lockWhen, false)
		return out
	}
	if got, want := run(spin), run(loop); got != want {
		t.Fatalf("spin events and the posted loop disagree:\n--- events ---\n%s--- loop ---\n%s", got, want)
	}
	t.Logf("stops: held %d, acquired %d, ready %d, swap next %d, pause next %d, CAS next %d",
		seen[comm.SpinHeld], seen[comm.SpinAcquired], seen[comm.SpinReady],
		seen[comm.SpinSwapNext], seen[comm.SpinPauseNext], seen[comm.SpinCASNext])
	for stop, n := range seen {
		if n == 0 {
			t.Errorf("no spin event was left at stop %d", stop)
		}
	}
}

// A lone process polling for something that never comes posts no second
// event unless something ends its walk; the abort request does, and the
// loop then raises it.
func TestRequestAbortEndsLonePoller(t *testing.T) {
	before := quiet()
	s := New(testConfig(1))
	s.Spawn("forever", func(p *frontend.Proc) {
		lock := simsync.SpinLock{Addr: alloc(s, p, mem.PageSize)}
		lock.LockWhen(p, 400, func() bool { return false })
	})
	asked := make(chan struct{})
	go func() {
		defer close(asked)
		for s.Progress() == 0 {
			time.Sleep(time.Millisecond)
		}
		s.RequestAbort("enough")
	}()
	rec := runRecover(s)
	<-asked
	if ae, ok := rec.(*AbortError); !ok || ae.Reason != "enough" {
		t.Fatalf("recovered %T %v, want the *AbortError requested", rec, rec)
	}
	if posts, _, ranged := s.PortStats(); ranged < 16 || posts > 8 {
		t.Errorf("%d events posted, %d RMWs served past the first: the abort should have interrupted a walk", posts, ranged)
	}
	// The loop checks for the abort at the top of a turn: an event posted
	// after the walk gave way may still get its first step.
	if events, iterations, _ := s.SpinStats(); events > 2 || iterations < 8 {
		t.Errorf("%d spin events carried %d iterations, want one walk, or two, of many", events, iterations)
	}
	if got := settled(before); got > before {
		t.Errorf("%d goroutines after the aborted run, %d before it", got, before)
	}
}

// A condition that panics in the backend's hands surfaces from Run with its
// own value, as a KCall closure's panic does, whether the event was served
// in place or from the loop, and the run's frontends are unwound.
func TestSpinReadyPanicSurfacesFromRun(t *testing.T) {
	for _, procs := range []int{1, 2} { // alone: in place; in lockstep with a sibling: from the loop
		for _, viaCall := range []bool{false, true} {
			t.Run(fmt.Sprintf("procs=%d/call=%v", procs, viaCall), func(t *testing.T) {
				before := quiet()
				s := New(testConfig(procs))
				for i := 0; i < procs; i++ {
					s.Spawn(fmt.Sprint("p", i), func(p *frontend.Proc) {
						lock := simsync.SpinLock{Addr: alloc(s, p, mem.PageSize)}
						if viaCall {
							p.Call(3, func() any { panic("boom") })
						}
						lock.LockWhen(p, 400, func() bool { panic("boom") })
					})
				}
				if rec := runRecover(s); rec != "boom" {
					t.Errorf("recovered %v, want the condition's own panic value", rec)
				}
				if got := settled(before); got > before {
					t.Errorf("%d goroutines after the run, %d before it", got, before)
				}
			})
		}
	}
}

// BenchmarkLonePoller is one iteration of a lock-poll loop — CAS, condition,
// swap, pause, yield — walked inside a spin event: three of
// BenchmarkLoneRMW's posts by the loop.
func BenchmarkLonePoller(b *testing.B) {
	s := New(testConfig(1))
	s.Spawn("solo", func(p *frontend.Proc) {
		lock := simsync.SpinLock{Addr: alloc(s, p, 4096)}
		left := b.N
		b.ResetTimer()
		lock.LockWhen(p, 400, func() bool { left--; return left <= 0 })
		lock.Unlock(p)
	})
	s.Run()
}
