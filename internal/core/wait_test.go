package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"compass/internal/comm"
	"compass/internal/event"
	"compass/internal/frontend"
	"compass/internal/isa"
	"compass/internal/mem"
	"compass/internal/memsys"
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
		// A wait the length of a disk access: more than ten thousand
		// iterations with nothing in the machine but the completion they wait
		// for, and a second one cut by an interrupt on the way. The counts —
		// RMWs, yields, steps posted or walked — are as large as the loop's.
		rangeScenario: rangeScenario{name: "lone poller, a wait of ten thousand iterations", cpus: 1, procs: 1, walks: true, setup: newLatched},
		body: func(s *Sim, p *frontend.Proc, _ int, lockWhen locker, shared any, log func(string)) {
			sh := shared.(*latched)
			for _, intr := range []event.Cycle{0, 1234567} {
				p.Call(0, func() any {
					sh.busy = true
					s.ScheduleTask(4500000, "disk", false, func() {
						sh.busy = false
						log(fmt.Sprintf("task cleared at %d after %d RMWs", s.CurTime(), s.rmws))
					})
					if intr != 0 {
						s.ScheduleTask(intr, "dev-intr", false, func() {
							s.RaiseInterrupt(0, s.CurTime(), 250, []KernelTouch{{Addr: sh.lock.Addr + 128, Write: true}})
						})
					}
					return nil
				})
				lockWhen(&sh.lock, p, 400, func() bool { return !sh.busy })
				log(fmt.Sprintf("in at %d intr=%d", p.Now(), p.Account().Cycles(stats.ModeInterrupt)))
				sh.lock.Unlock(p)
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
			busy := true
			p.Call(0, func() any {
				s.ScheduleTask(5600, "clear", false, func() { busy = false })
				return nil
			})
			lockWhen(&lock, p, 250, func() bool { return !busy })
			log(fmt.Sprintf("in at %d", p.Now()))
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
		rangeScenario: rangeScenario{name: "HostWork set", cpus: 3, procs: 3, setup: newLatched, hostWork: 0.01},
		body:          loaderAndPollers,
	},
}

// runSpinScenario runs sc with the given locker and renders what the two
// ways of waiting must agree on (runBodies); steps is how many references
// and yields were handled, posted or walked.
func runSpinScenario(t *testing.T, sc *spinScenario, model func(*Config), lockWhen locker, threaded bool) (out string, posts, steps uint64) {
	t.Helper()
	out, s := runBodies(t, &sc.rangeScenario, model, threaded,
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
	spin := func(l *simsync.SpinLock, p *frontend.Proc, pause uint32, ready func() bool) {
		spinTo(l, p, pause, ready, func(stop comm.SpinStop) { seen[stop]++ })
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
				block(s, p)
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

// A lone process polling for something that comes later than anybody will
// wait posts no second event unless something ends its walk; the abort
// request does, and the loop then raises it. The walk is taken step by step
// (the ECC sampler is on, at no cost in cycles); with the iterations
// accounted in one go there is no walk left to interrupt, and with no task
// queued at all the wait is a deadlock (TestLonePollerNobodyToWakeIsDeadlock).
func TestRequestAbortEndsLonePoller(t *testing.T) {
	before := quiet()
	s := New(testConfig(1))
	s.SetECC(mem.NewECC(1, 0.5, 0))
	s.Spawn("forever", func(p *frontend.Proc) {
		lock := simsync.SpinLock{Addr: alloc(s, p, mem.PageSize)}
		p.Call(0, func() any {
			s.ScheduleTask(1<<50, "too late", false, func() {})
			return nil
		})
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

// stepped makes every walk of s take its steps one by one: an ECC sampler
// that every reference draws from and that never costs a cycle.
func stepped(s *Sim) { s.SetECC(mem.NewECC(1, 0.5, 0)) }

// spinTo is LockWhen with a note made after every spin event, and a lock found
// held retried every eight cycles.
func spinTo(l *simsync.SpinLock, p *frontend.Proc, pause uint32, ready func() bool, note func(comm.SpinStop)) {
	for {
		stop := p.Spin(l.Addr, l.Kernel, pause, ready)
		note(stop)
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

// The walks' bulk paths — the run of a page's references handed to the model
// whole (handleMem), the iterations of a wait accounted in one go (spinAhead)
// — multiply the steps and move nothing the steps would not have moved. On
// every model a lone process ranges over pages and waits on a latch, with
// queue tasks due at every offset into a page's run and into an iteration,
// once as it comes and once with every walk taken step by step (stepped);
// after every event the two agree on the process's time and on where the
// event left the backend's clock and the watchdog gauge, and at the end on
// everything a run can say: end cycle, counters, accounts, what the tasks saw,
// PortStats and SpinStats.
func TestBulkWalksMatchSteps(t *testing.T) {
	body := func(s *Sim, p *frontend.Proc, _ int, shared any, log func(string)) {
		sh := shared.(*latched)
		note := func(what any) {
			log(fmt.Sprintf("%v: t=%d clock=%d gauge=%d", what, p.Now(), s.curTime, s.iter))
		}
		base := alloc(s, p, 4*mem.PageSize)
		for k := 0; k < 40; k++ {
			p.Call(0, func() any {
				s.ScheduleTask(event.Cycle(37*k*k+k), "probe", false, func() {
					log(fmt.Sprintf("task at %d after %d references", s.CurTime(), modelRefs(s)))
				})
				return nil
			})
			p.TouchRange(base+mem.VirtAddr(100*k), 2*mem.PageSize+300, k%3 == 0)
			note("range")
		}
		for delay := event.Cycle(1); delay < 30000; delay += 1 + delay/9 {
			p.Call(0, func() any {
				sh.busy = true
				s.ScheduleTask(delay, "clear", false, func() {
					sh.busy = false
					log(fmt.Sprintf("task cleared at %d after %d RMWs", s.CurTime(), s.rmws))
				})
				return nil
			})
			spinTo(&sh.lock, p, 400, func() bool { return !sh.busy }, func(stop comm.SpinStop) { note(stop) })
			sh.lock.Unlock(p)
		}
	}
	for _, m := range rangeModels {
		t.Run(m.name, func(t *testing.T) {
			run := func(setup func(*Sim)) (string, [6]uint64) {
				sc := rangeScenario{cpus: 1, procs: 1, setup: func(s *Sim) any {
					setup(s)
					return newLatched(s)
				}}
				out, s := runBodies(t, &sc, m.build, false, body)
				var figures [6]uint64
				figures[0], figures[1], figures[2] = s.PortStats()
				figures[3], figures[4], figures[5] = s.SpinStats()
				return out, figures
			}
			want, steps := run(stepped)
			got, bulk := run(func(*Sim) {})
			if got != want {
				t.Fatalf("walks in bulk and walks step by step disagree:\n--- bulk ---\n%s--- steps ---\n%s", got, want)
			}
			if bulk != steps {
				t.Errorf("PortStats and SpinStats %v in bulk, %v step by step", bulk, steps)
			}
			if bulk[2] < 10000 || bulk[4] < 500 {
				t.Errorf("%d references walked, %d iterations carried: the scenario should walk", bulk[2], bulk[4])
			}
		})
	}
}

// watchedFixed is the zero-cost model with a hook called for every reference
// it serves by itself, those of a run included; Rehit's are accounted by
// number and go unseen.
type watchedFixed struct {
	memsys.Fixed
	onAccess func()
}

func (m *watchedFixed) Access(now event.Cycle, cpu int, pa mem.PhysAddr, write bool) event.Cycle {
	m.onAccess()
	return m.Fixed.Access(now, cpu, pa, write)
}

func (m *watchedFixed) AccessRun(now event.Cycle, cpu int, pa, stride mem.PhysAddr, n int, issue, until event.Cycle, write bool) (int, event.Cycle, event.Cycle) {
	return memsys.RunByAccess(m, now, cpu, pa, stride, n, issue, until, write)
}

// spinAhead carries every whole iteration there is room for: what it leaves
// the steps is the partial one the wait ends in, whose CAS, issued at or
// past the bound, is not served. So a spin event costs the model two calls
// at most, its first CAS and one swap, however long the wait and wherever
// in an iteration the bound falls.
func TestSpinAheadLeavesTheStepsOnePartialIteration(t *testing.T) {
	cfg := testConfig(1)
	calls := 0
	cfg.NewModel = func(*mem.Physical, int) memsys.Model {
		return &watchedFixed{Fixed: memsys.Fixed{Latency: 10}, onAccess: func() { calls++ }}
	}
	s := New(cfg)
	sh := newLatched(s).(*latched)
	s.Spawn("poller", func(p *frontend.Proc) {
		for delay := event.Cycle(3000); delay < 3000+2*426; delay++ { // an iteration is 2·(3+10)+400 cycles
			p.Call(0, func() any {
				sh.busy = true
				s.ScheduleTask(delay, "clear", false, func() { sh.busy = false })
				return nil
			})
			events, before := 0, calls
			spinTo(&sh.lock, p, 400, func() bool { return !sh.busy }, func(comm.SpinStop) { events++ })
			if got := calls - before; got > 2*events {
				t.Errorf("task %d cycles away: %d spin events made %d calls of the model, want two an event at most", delay, events, got)
			}
			sh.lock.Unlock(p)
		}
	})
	s.Run()
	if _, iterations, _ := s.SpinStats(); iterations < 2*426*7 {
		t.Errorf("%d iterations carried, want seven or more a wait", iterations)
	}
}

// A lone poller whose condition is false with nothing left that could change
// it — no other process posted or running, no task queued, nobody waiting
// for the CPU — would spin the host inside its walk for ever. The backend
// knows (the condition reads only what others change, and there are no
// others), and raises the deadlock it has proved, naming the poller, on
// either kind of port; the run's frontends are unwound.
func TestLonePollerNobodyToWakeIsDeadlock(t *testing.T) {
	for _, threaded := range []bool{false, true} {
		t.Run(fmt.Sprintf("threaded=%v", threaded), func(t *testing.T) {
			before := quiet()
			s := New(testConfig(2))
			s.hub.SetSpinWait(threaded)
			gone := false
			s.Spawn("sibling", func(p *frontend.Proc) {
				p.Compute(isa.ALU(5000))
			})
			s.Spawn("poller", func(p *frontend.Proc) {
				lock := simsync.SpinLock{Addr: alloc(s, p, mem.PageSize)}
				// While the sibling lives the wait is only a wait.
				p.Call(0, func() any {
					s.ScheduleTask(20000, "last task", false, func() { gone = true })
					return nil
				})
				lock.LockWhen(p, 400, func() bool { return gone })
				lock.Unlock(p)
				lock.LockWhen(p, 400, func() bool { return !gone })
			})
			rec := runRecover(s)
			de, ok := rec.(*DeadlockError)
			if !ok {
				t.Fatalf("recovered %T %v, want a *DeadlockError", rec, rec)
			}
			if !strings.Contains(de.Detail, `"poller"`) || strings.Contains(de.Detail, `"sibling"`) {
				t.Errorf("the deadlock should name the poller and nobody else: %s", de.Detail)
			}
			if de.Cycle < 20000 {
				t.Errorf("deadlock at cycle %d, before the last task ran", de.Cycle)
			}
			if threaded {
				// The poller's goroutine is left blocked on its port, as after
				// any abandoned run on threaded ports (RequestAbort).
				return
			}
			if got := settled(before); got > before {
				t.Errorf("%d goroutines after the run, %d before it", got, before)
			}
		})
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
				// Raised in place it left its frames behind: the handler that
				// called the closure is among them.
				handler := map[bool]string{false: "handleSpin", true: "handleCall"}[viaCall]
				if stack := string(s.PanicStack()); procs == 1 && !strings.Contains(stack, handler) {
					t.Errorf("the stack kept of the panic does not name %s:\n%s", handler, stack)
				}
				if got := settled(before); got > before {
					t.Errorf("%d goroutines after the run, %d before it", got, before)
				}
			})
		}
	}
}

// BenchmarkLonePoller is one iteration of a lock-poll loop — CAS, condition,
// swap, pause, yield — in waits of sixteen iterations, about the length of
// oltp_simple's (14.9 a spin event), each for a queue task that clears the
// flag: the figure includes a sixteenth of what arming and ending a wait
// costs (a KCall, the task's turn of the loop, the posts of the last
// iteration).
func BenchmarkLonePoller(b *testing.B) {
	s := New(testConfig(1))
	s.Spawn("solo", func(p *frontend.Proc) {
		lock := simsync.SpinLock{Addr: alloc(s, p, 4096)}
		busy := false
		clear := func() { busy = false }
		arm := func() any {
			busy = true
			s.ScheduleTask(16*426, "clear", false, clear) // an iteration is 2·(3+10)+400 cycles
			return nil
		}
		ready := func() bool { return !busy }
		b.ResetTimer()
		for k := 0; k < b.N; k += 16 {
			p.Call(0, arm)
			lock.LockWhen(p, 400, ready)
			lock.Unlock(p)
		}
	})
	s.Run()
}
