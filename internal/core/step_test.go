package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"compass/internal/event"
	"compass/internal/frontend"
	"compass/internal/isa"
	"compass/internal/mem"
	"compass/internal/memsys"
	"compass/internal/stats"
)

// scanner issues the loop "reference a line of [va, va+n), compute for
// step() cycles" for a process: as one stepped range event, or as the loop.
type scanner func(p *frontend.Proc, va mem.VirtAddr, n int, write bool, step func() event.Cycle)

func scanByEvent(p *frontend.Proc, va mem.VirtAddr, n int, write bool, step func() event.Cycle) {
	p.TouchStepped(va, n, write, step)
}

// scanByLoop is what TouchStepped means: every reference posted by itself,
// every step run by the process between two posts.
func scanByLoop(p *frontend.Proc, va mem.VirtAddr, n int, write bool, step func() event.Cycle) {
	for off := 0; off < n; off += 32 {
		if a, size := va+mem.VirtAddr(off), min(32, n-off); write {
			p.Store(a, size)
		} else {
			p.Load(a, size)
		}
		p.ComputeCycles(uint64(step()))
	}
}

// stepScenario is a rangeScenario (machine, cast, set-up; walks says the
// event run should serve references past the first of their event) whose
// body is written against a scanner.
type stepScenario struct {
	rangeScenario
	body func(s *Sim, p *frontend.Proc, i int, scan scanner, shared any, log func(string))
}

// table is host state a scan's steps read — rows, as a scan reads the bytes
// of a pinned page — and others change: a loader's KCalls and queue tasks.
type table struct {
	rows  [64]uint32
	kbase mem.VirtAddr // a kernel page for interrupt handlers to touch
}

func newRows() *table {
	tb := &table{}
	for k := range tb.rows {
		tb.rows[k] = uint32(k*k*7 + 3*k)
	}
	return tb
}

func newTable(s *Sim) any {
	tb := newRows()
	var err error
	if tb.kbase, err = s.KernelSbrk(mem.PageSize); err != nil {
		panic(err)
	}
	return tb
}

// rowsStep returns the step of a scan over tb's rows from row `from` on, and
// the tally it keeps: the cycles a row costs depend on what the row holds
// when the step gets to it — nothing for one row in five — and the tally
// takes in every row in the order of the calls, so that a step called twice,
// left out, or run before or after a change to its row shows.
func rowsStep(tb *table, from int) (step func() event.Cycle, tally *stepTally) {
	tally = &stepTally{}
	k := from
	return func() event.Cycle {
		v := tb.rows[k%len(tb.rows)]
		k++
		tally.calls++
		tally.sum = tally.sum*31 + uint64(v)
		if v%5 == 0 {
			return 0
		}
		return event.Cycle(20 + v%61)
	}, tally
}

type stepTally struct {
	calls int
	sum   uint64
}

func (t *stepTally) String() string { return fmt.Sprintf("%d steps sum %#x", t.calls, t.sum) }

// scannersAndLoader: process 0 is a loader that works through its own page
// and now and then changes a row of the table, in backend context; the others
// scan stretches of their pages at different paces, their steps reading the
// table's rows, so that the walks are cut short by the loader's events and
// each other's again and again, and what a step finds in a row depends on
// where in the order of events it runs.
func scannersAndLoader(s *Sim, p *frontend.Proc, i int, scan scanner, shared any, log func(string)) {
	tb := shared.(*table)
	base := alloc(s, p, 4*mem.PageSize)
	if i == 0 {
		for k := 0; k < 60; k++ {
			p.Load(base+mem.VirtAddr(k*32), 4)
			p.Compute(isa.ALU(uint64(150 + 35*(k%7))))
			if k%2 == 1 {
				p.Call(0, func() any { tb.rows[(k*5)%len(tb.rows)] += uint32(k); return nil })
			}
		}
		return
	}
	p.Compute(isa.ALU(uint64(130 * i))) // out of lockstep
	for round := 0; round < 5; round++ {
		step, tally := rowsStep(tb, 11*i+round)
		scan(p, base+mem.VirtAddr((round*52+i*8)%512), mem.PageSize+round*40, round%2 == 1, step)
		log(fmt.Sprintf("proc %d round %d done at %d on cpu %d: %v", i, round, p.Now(), p.CPU(), tally))
		p.Compute(isa.ALU(uint64(40*i + 3*round)))
		if round == 2 {
			p.Yield()
		}
	}
}

// ownScans: every process scans its own pages with steps that read rows
// nobody else writes: on threaded ports a step that is the frontend's to take
// — left to it by the backend, or part of the loop where no event is used —
// runs beside the backend.
func ownScans(s *Sim, p *frontend.Proc, i int, scan scanner, _ any, log func(string)) {
	tb := newRows()
	base := alloc(s, p, 4*mem.PageSize)
	p.Compute(isa.ALU(uint64(90 * i))) // out of lockstep
	for round := 0; round < 6; round++ {
		step, tally := rowsStep(tb, 7*i+round)
		scan(p, base+mem.VirtAddr((round*36+i*8)%256), mem.PageSize+round*72, round%3 == 1, step)
		log(fmt.Sprintf("proc %d round %d done at %d on cpu %d: %v", i, round, p.Now(), p.CPU(), tally))
		p.Compute(isa.ALU(uint64(25*i + round)))
	}
}

var stepScenarios = []stepScenario{
	{
		// Nothing but the queue comes between the references: a task changes
		// the rows, due at every offset into the first iterations of a scan in
		// turn, so that each walk ends after a different step and the steps
		// after it find other rows, and device interrupts land between the
		// references, their cycles stolen from the first one after them.
		rangeScenario: rangeScenario{name: "lone scanner, tasks and interrupts inside the scan", cpus: 1, procs: 1, walks: true, setup: newTable},
		body: func(s *Sim, p *frontend.Proc, _ int, scan scanner, shared any, log func(string)) {
			tb := shared.(*table)
			base := alloc(s, p, 2*mem.PageSize)
			for delay := event.Cycle(1); delay < 260; delay += 1 + delay/60 {
				step, tally := rowsStep(tb, int(delay))
				p.Call(0, func() any {
					s.ScheduleTask(delay, "bump", false, func() {
						for k := range tb.rows {
							tb.rows[k] += uint32(delay)
						}
						log(fmt.Sprintf("task at %d after %d references and %v", s.CurTime(), modelRefs(s), tally))
					})
					if delay%3 == 0 {
						s.ScheduleTask(delay/2, "dev-intr", false, func() {
							s.RaiseInterrupt(0, s.CurTime(), 250, []KernelTouch{{Addr: tb.kbase, Write: true}})
						})
					}
					return nil
				})
				scan(p, base+mem.VirtAddr(delay%7*40), 24*32+int(delay%3)*5, delay%2 == 0, step)
				log(fmt.Sprintf("in at %d intr=%d: %v", p.Now(), p.Account().Cycles(stats.ModeInterrupt), tally))
			}
		},
	},
	{
		rangeScenario: rangeScenario{name: "scanners and a loader on two CPUs", cpus: 2, procs: 2, walks: true, setup: newTable},
		body:          scannersAndLoader,
	},
	{
		rangeScenario: rangeScenario{name: "scanners and a loader on four CPUs", cpus: 4, procs: 4, walks: true, setup: newTable},
		body:          scannersAndLoader,
	},
	{
		// A reference that costs its process the CPU has its reply parked, and
		// the process's code runs after other processes' events: the step has
		// not been called, and the frontend calls it when it runs again.
		rangeScenario: rangeScenario{
			name: "more processes than CPUs under a short quantum", cpus: 2, procs: 5, walks: true,
			cfg: func(c *Config) { c.Preemptive, c.Quantum = true, 1500 },
		},
		body: ownScans,
	},
	{
		// Pages 1 to 3 of the region are mapped lazily: the walk stops short of
		// the line that first reaches each one, the line is posted again, traps
		// at its own cycle and is retried, and the scan goes on with the step's
		// state where it was. Then a store scan runs into a read-only page.
		rangeScenario: rangeScenario{name: "lazy pages and a protection fault in the middle of a scan", cpus: 2, procs: 2, walks: true, setup: newTable},
		body: func(s *Sim, p *frontend.Proc, i int, scan scanner, shared any, log func(string)) {
			tb := shared.(*table)
			lazy := true
			p.SetFaultHandler(func(pp *frontend.Proc, f *mem.Fault) {
				log(fmt.Sprintf("fault %v at %#x t=%d", f.Kind, uint32(f.Addr), pp.Now()))
				pp.Call(200, func() any {
					if lazy {
						if _, err := s.ResolvePresentFault(pp.ID(), f); err != nil {
							panic(err)
						}
					} else {
						s.procs[pp.ID()].space.Lookup(f.Addr).Prot = mem.ProtRead | mem.ProtWrite
					}
					return nil
				})
				pp.ComputeCycles(uint64(35 + i))
			})
			base := p.Call(100, func() any {
				va, err := s.MapFileRegion(p.ID(), 4*mem.PageSize, 1, 0, mem.ProtRead|mem.ProtWrite)
				if err != nil {
					panic(err)
				}
				return va
			}).(mem.VirtAddr)
			p.Load(base, 4)                     // page 0 present before the scan starts
			p.Compute(isa.ALU(uint64(700 * i))) // out of lockstep
			step, tally := rowsStep(tb, i)
			scan(p, base+mem.PageSize-100, 3*mem.PageSize+100, i == 0, step)
			log(fmt.Sprintf("proc %d mapped at %d: %v", i, p.Now(), tally))
			lazy = false
			p.Call(0, func() any {
				s.procs[p.ID()].space.Lookup(base + 2*mem.PageSize).Prot = mem.ProtRead
				return nil
			})
			scan(p, base+20, 4*mem.PageSize-20, false, step) // loads pass
			scan(p, base+20, 4*mem.PageSize-20, true, step)  // the store to page 2 traps
			log(fmt.Sprintf("proc %d done at %d: %v", i, p.Now(), tally))
		},
	},
	{
		rangeScenario: rangeScenario{
			name: "ECC sampling on", cpus: 2, procs: 2, walks: true,
			setup: func(s *Sim) any {
				s.SetECC(mem.NewECC(9, 0.03, 41))
				return newTable(s)
			},
		},
		body: func(s *Sim, p *frontend.Proc, i int, scan scanner, shared any, log func(string)) {
			scannersAndLoader(s, p, i, scan, shared, log)
			log(fmt.Sprintf("proc %d saw %d corrected so far", i, p.Call(0, func() any { return s.ECC().Corrected }).(uint64)))
		},
	},
	{
		rangeScenario: rangeScenario{name: "SetBatch(16)", cpus: 2, procs: 2},
		body: func(s *Sim, p *frontend.Proc, i int, scan scanner, shared any, log func(string)) {
			p.SetBatch(16)
			ownScans(s, p, i, scan, shared, log)
			p.SetBatch(1)
		},
	},
	{
		// Nothing is posted while the switch is off, either way, and the steps
		// are taken all the same; the scans around that stretch walk as usual.
		rangeScenario: rangeScenario{name: "instrumentation off", cpus: 2, procs: 2, walks: true, setup: newTable},
		body: func(s *Sim, p *frontend.Proc, i int, scan scanner, shared any, log func(string)) {
			base := alloc(s, p, mem.PageSize)
			p.Compute(isa.ALU(uint64(500 * i))) // out of lockstep
			step, tally := rowsStep(shared.(*table), 3*i)
			scan(p, base, 200, true, step)
			p.SetInstrumentation(false)
			scan(p, base, mem.PageSize, false, step)
			log(fmt.Sprintf("proc %d off until %d: %v", i, p.Now(), tally))
			p.SetInstrumentation(true)
			scan(p, base+40, 200, false, step)
			log(fmt.Sprintf("proc %d done at %d: %v", i, p.Now(), tally))
		},
	},
	{
		rangeScenario: rangeScenario{name: "HostWork set", cpus: 2, procs: 2, hostWork: 0.01},
		body:          ownScans,
	},
}

// runStepScenario runs sc with the given scanner and renders what the two
// ways of scanning must agree on (runBodies).
func runStepScenario(t *testing.T, sc *stepScenario, model func(*Config), scan scanner, threaded bool) (out string, posts, ranged uint64) {
	t.Helper()
	out, s := runBodies(t, &sc.rangeScenario, model, threaded,
		func(s *Sim, p *frontend.Proc, i int, shared any, log func(string)) {
			sc.body(s, p, i, scan, shared, log)
		})
	posts, _, ranged = s.PortStats()
	return out, posts, ranged
}

// A scan posted as stepped range events must be indistinguishable, in
// simulated terms, from the loop with every reference posted by itself and
// every step run by the process between two posts: the end cycle, the
// counters, every process's time account, and what the steps found in the
// host state they read, call by call — on every model and both kinds of
// port, with other processes' events, queue tasks, interrupts, preemption and
// traps falling between the references. Only the ports' own figures differ:
// fewer events posted for the same references.
func TestSteppedRangeMatchesLoop(t *testing.T) {
	for _, m := range rangeModels {
		for i := range stepScenarios {
			sc := &stepScenarios[i]
			t.Run(m.name+"/"+sc.name, func(t *testing.T) {
				want, loopPosts, loopRanged := runStepScenario(t, sc, m.build, scanByLoop, false)
				if loopRanged != 0 && sc.walks {
					t.Errorf("the loop served %d references past the first of an event", loopRanged)
				}
				for _, threaded := range []bool{false, true} {
					got, posts, ranged := runStepScenario(t, sc, m.build, scanByEvent, threaded)
					if got != want {
						t.Fatalf("threaded=%v: stepped ranges and the posted loop disagree:\n--- events ---\n%s--- loop ---\n%s", threaded, got, want)
					}
					// Every reference is either a post or served past the
					// first of one.
					if posts+ranged != loopPosts+loopRanged {
						t.Errorf("threaded=%v: %d posts + %d ranged references, by the loop %d + %d", threaded, posts, ranged, loopPosts, loopRanged)
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

// A lone process scanning memory forever never posts a second event unless
// something ends a walk; the abort request does, and the loop then raises it.
// Every reference served has had its step, but possibly the last: the step the
// walk left (StepDue) the process takes before it posts again, and a reference
// the loop serves on its way to the abort goes without.
func TestRequestAbortEndsLoneScanner(t *testing.T) {
	before := quiet()
	cfg := testConfig(1)
	cfg.MemFrames = 1 << 16
	refs, steps := 0, 0
	cfg.NewModel = func(*mem.Physical, int) memsys.Model {
		return &watchedFixed{Fixed: memsys.Fixed{Latency: 10}, onAccess: func() { refs++ }}
	}
	s := New(cfg)
	s.Spawn("forever", func(p *frontend.Proc) {
		base := alloc(s, p, 64<<20)
		for {
			p.TouchStepped(base, 64<<20, false, func() event.Cycle { steps++; return 25 })
		}
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
	if posts, _, ranged := s.PortStats(); ranged < 64 || posts > 8 {
		t.Errorf("%d events posted, %d references served past the first: the abort should have interrupted a walk", posts, ranged)
	}
	if steps != refs && steps != refs-1 {
		t.Errorf("%d steps for %d references served", steps, refs)
	}
	if got := settled(before); got != before {
		t.Errorf("%d goroutines after the aborted run, want %d", got, before)
	}
}

// A step that panics in the backend's hands surfaces from Run with its own
// value, as a KCall closure's panic does, whether the event was served in
// place or from the loop, and the run's frontends are unwound. Raised in
// place, on the process's coroutine, it leaves its frames with the simulator.
func TestStepPanicSurfacesFromRun(t *testing.T) {
	for _, procs := range []int{1, 2} { // alone: in place; in lockstep with a sibling: from the loop
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			before := quiet()
			s := New(testConfig(procs))
			for i := 0; i < procs; i++ {
				s.Spawn(fmt.Sprint("p", i), func(p *frontend.Proc) {
					p.TouchStepped(alloc(s, p, mem.PageSize), mem.PageSize, false, explodingStep)
				})
			}
			if rec := runRecover(s); rec != "boom" {
				t.Errorf("recovered %v, want the step's own panic value", rec)
			}
			if stack := string(s.PanicStack()); procs == 1 && !strings.Contains(stack, "explodingStep") {
				t.Errorf("the stack kept of a panic raised in place does not name the step:\n%s", stack)
			}
			if got := settled(before); got > before {
				t.Errorf("%d goroutines after the run, %d before it", got, before)
			}
		})
	}
}

func explodingStep() event.Cycle { panic("boom") }

// BenchmarkLoneStepper is BenchmarkLoneRanger with a row's worth of work
// between two loads — a page of 128 one-line rows, TPC-D Q6's instruction mix
// after each — as one stepped range a page, and as the loop it stands for.
func BenchmarkLoneStepper(b *testing.B) {
	for _, bc := range []struct {
		name string
		scan scanner
	}{{"event", scanByEvent}, {"loop", scanByLoop}} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(testConfig(1))
			s.Spawn("solo", func(p *frontend.Proc) {
				base := alloc(s, p, 4096)
				row := event.Cycle(p.CyclesOf(isa.InstrMix{Int: 260, FPAdd: 20, Branch: 50, IntMul: 6}))
				match := row + event.Cycle(p.CyclesOf(isa.InstrMix{Int: 12, IntMul: 2, FPMul: 4, Branch: 4}))
				k := 0
				step := func() event.Cycle {
					if k++; k%8 == 0 {
						return match
					}
					return row
				}
				b.ResetTimer()
				for n := 0; n < b.N; n += 128 {
					bc.scan(p, base, 4096, false, step)
				}
			})
			s.Run()
		})
	}
}
