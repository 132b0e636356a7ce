package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"compass/internal/coma"
	"compass/internal/comm"
	"compass/internal/directory"
	"compass/internal/event"
	"compass/internal/frontend"
	"compass/internal/isa"
	"compass/internal/mem"
	"compass/internal/memsys"
	"compass/internal/snoop"
	"compass/internal/stats"
)

// toucher issues the references of [va, va+n) for a process: as one range
// event, or one by one.
type toucher func(p *frontend.Proc, va mem.VirtAddr, n int, write, kernel bool)

func touchByRange(p *frontend.Proc, va mem.VirtAddr, n int, write, kernel bool) {
	if kernel {
		p.KTouchRange(va, n, write)
	} else {
		p.TouchRange(va, n, write)
	}
}

// touchByReference is what TouchRange means: a Load or Store per 32-byte
// stride, each posted by itself.
func touchByReference(p *frontend.Proc, va mem.VirtAddr, n int, write, kernel bool) {
	for off := 0; off < n; off += 32 {
		a, size := va+mem.VirtAddr(off), min(32, n-off)
		switch {
		case kernel && write:
			p.KTouchRange(a, size, true)
		case kernel:
			p.KTouchRange(a, size, false)
		case write:
			p.Store(a, size)
		default:
			p.Load(a, size)
		}
	}
}

// rangeModels are the five memory models, each on a machine of cpus CPUs.
var rangeModels = []struct {
	name  string
	build func(cfg *Config)
}{
	{"fixed", func(*Config) {}},
	{"simple", func(cfg *Config) {
		cfg.NewModel = func(_ *mem.Physical, n int) memsys.Model { return snoop.New(snoop.SimpleConfig(n)) }
	}},
	{"smp", func(cfg *Config) {
		cfg.NewModel = func(_ *mem.Physical, n int) memsys.Model { return snoop.New(snoop.SMPConfig(n)) }
	}},
	{"ccnuma", func(cfg *Config) {
		nodes := rangeNodes(cfg)
		cfg.NewModel = func(phys *mem.Physical, n int) memsys.Model {
			return directory.New(directory.DefaultConfig(nodes, n/nodes), func(frame uint64, node int) int { return phys.Touch(frame, node) })
		}
	}},
	{"coma", func(cfg *Config) {
		nodes := rangeNodes(cfg)
		cfg.NewModel = func(_ *mem.Physical, n int) memsys.Model { return coma.New(coma.DefaultConfig(nodes, n/nodes)) }
	}},
}

// rangeNodes splits the machine into two nodes when it has the CPUs.
func rangeNodes(cfg *Config) int {
	nodes := 1
	if cfg.CPUs%2 == 0 {
		nodes = 2
	}
	cfg.CPUsPerNode, cfg.MemNodes = cfg.CPUs/nodes, nodes
	return nodes
}

// rangeScenario is one workload written against a toucher. Its body runs
// as process i of procs; log collects whatever else must come out equal.
type rangeScenario struct {
	name  string
	cpus  int
	procs int
	cfg   func(*Config)
	setup func(s *Sim) any
	body  func(s *Sim, p *frontend.Proc, i int, touch toucher, shared any, log func(string))
	// walks says the range run should serve references past the first of
	// their event (not so under SetBatch or with the switch off).
	walks bool
	// hostWork is the run's Sim.SetHostWork.
	hostWork float64
}

var rangeScenarios = []rangeScenario{
	{
		name: "two CPUs interleaving", cpus: 2, procs: 2, walks: true,
		body: interleavers,
	},
	{
		name: "four CPUs interleaving", cpus: 4, procs: 4, walks: true,
		body: interleavers,
	},
	{
		name: "more processes than CPUs under a short quantum", cpus: 2, procs: 5, walks: true,
		cfg:  func(c *Config) { c.Preemptive, c.Quantum = true, 1500 },
		body: interleavers,
	},
	{
		// The handler's cycles are stolen from the reference that follows
		// the interrupt, which is in the middle of a range: the task ends
		// the walk, and the remainder's first reference takes the theft.
		name: "device interrupt in the middle of a range", cpus: 1, procs: 1, walks: true,
		setup: func(s *Sim) any {
			kbase, err := s.KernelSbrk(mem.PageSize)
			if err != nil {
				panic(err)
			}
			return kbase
		},
		body: func(s *Sim, p *frontend.Proc, _ int, touch toucher, shared any, log func(string)) {
			kbase := shared.(mem.VirtAddr)
			base := alloc(s, p, 4*mem.PageSize)
			for k := 0; k < 4; k++ {
				p.Call(0, func() any {
					s.ScheduleTask(event.Cycle(300+70*k), "dev-intr", false, func() {
						s.RaiseInterrupt(0, s.CurTime(), 900, []KernelTouch{{Addr: kbase, Write: true}, {Addr: kbase + 64}})
					})
					return nil
				})
				touch(p, base+mem.VirtAddr(k*40), 3*mem.PageSize, k%2 == 0, false)
				log(fmt.Sprintf("after range %d: t=%d intr=%d", k, p.Now(), p.Account().Cycles(stats.ModeInterrupt)))
			}
		},
	},
	{
		// Pages 1 and 2 of the region are mapped lazily: the reference that
		// first reaches each one traps at its own cycle, and is retried
		// after the trap path without a second issue cycle.
		name: "lazily mapped pages in the middle of a range", cpus: 2, procs: 2, walks: true,
		body: func(s *Sim, p *frontend.Proc, i int, touch toucher, _ any, log func(string)) {
			p.SetFaultHandler(func(pp *frontend.Proc, f *mem.Fault) {
				log(fmt.Sprintf("fault %v at %#x t=%d", f.Kind, uint32(f.Addr), pp.Now()))
				pp.Call(200, func() any {
					if _, err := s.ResolvePresentFault(pp.ID(), f); err != nil {
						panic(err)
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
			p.Load(base, 4)                     // page 0 present before the range starts
			p.Compute(isa.ALU(uint64(700 * i))) // out of lockstep
			touch(p, base+mem.PageSize-100, 2*mem.PageSize+300, i == 0, false)
			// An atomic counter on page 3, which nothing has touched yet:
			// the instruction traps like a store, is retried after the trap
			// path, and has then counted once.
			for k := 0; k < 3; k++ {
				old := p.RMW(base+3*mem.PageSize+64, 4, comm.RMWAdd, 5, 0, false)
				log(fmt.Sprintf("counter was %d at t=%d", old, p.Now()))
			}
			touch(p, base+8, 4*mem.PageSize-8, false, false)
		},
	},
	{
		// The DSM way of forcing a fault: the page is there but its
		// protection is not. A store range runs into a read-only page.
		name: "protection fault in the middle of a range", cpus: 1, procs: 1, walks: true,
		body: func(s *Sim, p *frontend.Proc, _ int, touch toucher, _ any, log func(string)) {
			p.SetFaultHandler(func(pp *frontend.Proc, f *mem.Fault) {
				log(fmt.Sprintf("fault %v at %#x t=%d", f.Kind, uint32(f.Addr), pp.Now()))
				pp.Call(120, func() any {
					s.procs[pp.ID()].space.Lookup(f.Addr).Prot = mem.ProtRead | mem.ProtWrite
					return nil
				})
			})
			base := alloc(s, p, 3*mem.PageSize)
			p.Call(0, func() any {
				s.procs[p.ID()].space.Lookup(base + mem.PageSize).Prot = mem.ProtRead
				return nil
			})
			touch(p, base+20, 3*mem.PageSize-20, false, false) // loads pass
			touch(p, base+20, 3*mem.PageSize-20, true, false)  // the store to page 1 traps
		},
	},
	{
		// A queue task due between two references of a range runs between
		// them: it sees the model exactly as far as the references before
		// it got.
		name: "queue task due inside a range", cpus: 1, procs: 1, walks: true,
		body: func(s *Sim, p *frontend.Proc, _ int, touch toucher, _ any, log func(string)) {
			base := alloc(s, p, 2*mem.PageSize)
			for _, delay := range []event.Cycle{1, 57, 400, 1333} {
				p.Call(0, func() any {
					s.ScheduleTask(delay, "probe", false, func() {
						log(fmt.Sprintf("task at %d after %d references", s.CurTime(), modelRefs(s)))
					})
					return nil
				})
				touch(p, base, 2*mem.PageSize, delay%2 == 0, false)
			}
		},
	},
	{
		// Each walk takes the rest of a page as one run of the model's
		// (memsys.Model.AccessRun): a range over three pages, from the middle
		// of the first, with tasks due at a spread of cycles that puts one
		// inside the second page's run on every model, the others before,
		// after and on the page boundaries. Each runs between the two
		// references it falls between and sees the model that far.
		name: "queue tasks due inside the runs of a three-page range", cpus: 1, procs: 1, walks: true,
		body: func(s *Sim, p *frontend.Proc, _ int, touch toucher, _ any, log func(string)) {
			base := alloc(s, p, 4*mem.PageSize)
			for round, write := range []bool{false, true, false} {
				p.Call(0, func() any {
					for _, delay := range []event.Cycle{700, 1409, 1410, 1900, 2817, 3100, 4700, 5633, 7600, 9000, 12500, 16897} {
						s.ScheduleTask(delay+event.Cycle(round), "probe", false, func() {
							log(fmt.Sprintf("task at %d after %d references", s.CurTime(), modelRefs(s)))
						})
					}
					return nil
				})
				touch(p, base+mem.PageSize/2+8, 3*mem.PageSize, write, false)
				log(fmt.Sprintf("round %d done at %d", round, p.Now()))
			}
		},
	},
	{
		// With the ECC sampler on every reference draws from it, in order:
		// the walk takes them one by one, and a correctable event's cycles
		// land on the reference that drew it either way.
		name: "ECC sampling on", cpus: 2, procs: 2, walks: true,
		setup: func(s *Sim) any {
			s.SetECC(mem.NewECC(9, 0.03, 41))
			return nil
		},
		body: func(s *Sim, p *frontend.Proc, i int, touch toucher, shared any, log func(string)) {
			interleavers(s, p, i, touch, shared, log)
			log(fmt.Sprintf("proc %d saw %d corrected so far", i, p.Call(0, func() any { return s.ECC().Corrected }).(uint64)))
		},
	},
	{
		// The run that ends a page is followed by the first line of the next
		// one, which is not mapped yet: the walk stops short of it, and the
		// reference traps at its own cycle when the frontend posts it.
		name: "fault on the first line of a later page", cpus: 1, procs: 1, walks: true,
		body: func(s *Sim, p *frontend.Proc, _ int, touch toucher, _ any, log func(string)) {
			p.SetFaultHandler(func(pp *frontend.Proc, f *mem.Fault) {
				log(fmt.Sprintf("fault %v at %#x t=%d after %d references", f.Kind, uint32(f.Addr), pp.Now(), modelRefs(s)))
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
			p.Load(base, 4)
			p.Load(base+mem.PageSize, 4)
			touch(p, base+64, 4*mem.PageSize-64, true, false) // pages 2 and 3 trap on their first line
			touch(p, base+64, 4*mem.PageSize-64, false, false)
		},
	},
	{
		name: "kernel ranges and odd shapes", cpus: 2, procs: 2, walks: true,
		setup: func(s *Sim) any {
			kbase, err := s.KernelSbrk(2 * mem.PageSize)
			if err != nil {
				panic(err)
			}
			return kbase
		},
		body: func(s *Sim, p *frontend.Proc, i int, touch toucher, shared any, _ func(string)) {
			kbase := shared.(mem.VirtAddr)
			base := alloc(s, p, mem.PageSize)
			p.Compute(isa.ALU(uint64(900 * i))) // out of lockstep
			p.PushMode(stats.ModeKernel)
			touch(p, kbase+mem.VirtAddr(i*17), mem.PageSize+5, i == 0, true)
			p.PopMode()
			for _, n := range []int{-4, 0, 1, 31, 32, 33, 64, 65, 1000} {
				touch(p, base+3, n, n%2 == 1, false)
				p.Compute(isa.ALU(uint64(2 + i)))
			}
		},
	},
	{
		name: "SetBatch(16)", cpus: 2, procs: 2,
		body: func(s *Sim, p *frontend.Proc, i int, touch toucher, shared any, log func(string)) {
			p.SetBatch(16)
			interleavers(s, p, i, touch, shared, log)
			p.SetBatch(1)
		},
	},
	{
		// Nothing is posted while the switch is off, either way; the ranges
		// around that stretch walk as usual.
		name: "instrumentation off", cpus: 2, procs: 2, walks: true,
		body: func(s *Sim, p *frontend.Proc, i int, touch toucher, shared any, log func(string)) {
			base := alloc(s, p, mem.PageSize)
			p.Compute(isa.ALU(uint64(500 * i))) // out of lockstep
			touch(p, base, 200, true, false)
			p.SetInstrumentation(false)
			touch(p, base, mem.PageSize, false, false)
			log(fmt.Sprintf("proc %d off until %d", i, p.Now()))
			p.SetInstrumentation(true)
			touch(p, base+40, 200, false, false)
		},
	},
}

// interleavers is a set of processes copying blocks at different paces, so
// that their ranges overlap in time and every walk is cut short by a
// sibling's earlier event again and again.
func interleavers(s *Sim, p *frontend.Proc, i int, touch toucher, _ any, log func(string)) {
	base := alloc(s, p, 4*mem.PageSize)
	for k := 0; k < 6; k++ {
		touch(p, base+mem.VirtAddr((k*52+i*8)%512), mem.PageSize+k*40, k%2 == 1, false)
		p.Compute(isa.ALU(uint64(40*i + 3*k)))
		touch(p, base+2*mem.PageSize, 96+32*i, true, false)
		if k == 3 {
			p.Yield()
		}
	}
	log(fmt.Sprintf("proc %d done at %d", i, p.Now()))
}

// modelRefs is how many references the memory model has seen.
func modelRefs(s *Sim) uint64 {
	var c stats.Counters
	s.model.AddCounters(&c)
	n := c.Get("fixed.accesses")
	for _, m := range []string{"simple", "smp", "ccnuma", "coma"} {
		n += c.Get(m+".loads") + c.Get(m+".stores")
	}
	return n
}

// runRangeScenario runs sc on a fresh simulator and renders everything the
// two ways of issuing a range must agree on: the final cycle, the
// counters, every process's time account mode by mode, and the log.
func runRangeScenario(t *testing.T, sc *rangeScenario, model func(*Config), touch toucher, threaded bool) (out string, posts, ranged uint64) {
	t.Helper()
	out, posts, _, ranged = runScenario(t, sc, model, touch, threaded)
	return out, posts, ranged
}

// runScenario is runRangeScenario that also says how many events were served
// in place.
func runScenario(t *testing.T, sc *rangeScenario, model func(*Config), touch toucher, threaded bool) (out string, posts, inPlace, ranged uint64) {
	t.Helper()
	out, s := runBodies(t, sc, model, threaded, func(s *Sim, p *frontend.Proc, i int, shared any, log func(string)) {
		sc.body(s, p, i, touch, shared, log)
	})
	posts, inPlace, ranged = s.PortStats()
	return out, posts, inPlace, ranged
}

// runBodies runs body as each process of sc's cast on sc's machine (sc's own
// body is the caller's to bind), renders the outcome, and returns the
// simulator for its host-side figures.
func runBodies(t *testing.T, sc *rangeScenario, model func(*Config), threaded bool,
	body func(s *Sim, p *frontend.Proc, i int, shared any, log func(string))) (string, *Sim) {
	t.Helper()
	cfg := testConfig(sc.cpus)
	if sc.cfg != nil {
		sc.cfg(&cfg)
	}
	model(&cfg)
	s := New(cfg)
	s.hub.SetSpinWait(threaded)
	s.SetHostWork(sc.hostWork)
	var shared any
	if sc.setup != nil {
		shared = sc.setup(s)
	}
	logs := make([][]string, sc.procs+1)
	for i := 0; i < sc.procs; i++ {
		s.Spawn(fmt.Sprint("p", i), func(p *frontend.Proc) {
			// A line is logged by the process (its own slot) or by a queue
			// task (the last slot): nothing is shared between goroutines
			// that run at once on threaded ports.
			body(s, p, i, shared, func(line string) {
				slot := i
				if strings.HasPrefix(line, "task") {
					slot = sc.procs
				}
				logs[slot] = append(logs[slot], line)
			})
		})
	}
	end := s.Run()
	var b strings.Builder
	fmt.Fprintf(&b, "end=%d\n%s", end, s.Counters().String())
	for _, p := range s.Procs() {
		a := p.Account()
		fmt.Fprintf(&b, "%s user=%d kernel=%d interrupt=%d\n", p.Name(),
			a.Cycles(stats.ModeUser), a.Cycles(stats.ModeKernel), a.Cycles(stats.ModeInterrupt))
	}
	fmt.Fprintf(&b, "idle interrupt=%d\n", s.IdleInterrupt().Cycles(stats.ModeInterrupt))
	for _, l := range logs {
		for _, line := range l {
			b.WriteString(line + "\n")
		}
	}
	if !threaded {
		// A scenario's daemon is still suspended at its last post.
		s.hub.Lock()
		s.hub.StopFrontends()
		s.hub.Unlock()
	}
	return b.String(), s
}

// A range issued as one event must be indistinguishable, in simulated
// terms, from the same references posted one by one: on every model, with
// processes interleaving, preemption, interrupts, traps and queue tasks
// falling inside the range, on coroutine and threaded ports alike.
func TestRangeMatchesPerReference(t *testing.T) {
	for _, m := range rangeModels {
		for i := range rangeScenarios {
			sc := &rangeScenarios[i]
			t.Run(m.name+"/"+sc.name, func(t *testing.T) {
				want, refPosts, refRanged := runRangeScenario(t, sc, m.build, touchByReference, false)
				if refRanged != 0 && sc.walks {
					t.Errorf("the per-reference run served %d references past the first of an event", refRanged)
				}
				for _, threaded := range []bool{false, true} {
					got, posts, ranged := runRangeScenario(t, sc, m.build, touchByRange, threaded)
					if got != want {
						t.Fatalf("threaded=%v: range events and per-reference posts disagree:\n--- ranges ---\n%s--- per reference ---\n%s", threaded, got, want)
					}
					if !sc.walks {
						if posts != refPosts {
							t.Errorf("threaded=%v: %d events posted, per reference %d: this path should not have changed", threaded, posts, refPosts)
						}
						continue
					}
					// Every reference is either a post or served past the
					// first of one.
					if posts+ranged != refPosts {
						t.Errorf("threaded=%v: %d posts + %d ranged references, want the %d posts of the per-reference run", threaded, posts, ranged, refPosts)
					}
					if ranged == 0 {
						t.Errorf("threaded=%v: no reference was served past the first of its range", threaded)
					}
				}
			})
		}
	}
}

// An abort requested while the model is inside a run is honoured where the
// run ends, at the page's last line at the latest: the next page's first
// reference asks walkOn, the walk ends, and the loop raises the abort.
// Posted one by one, the references end with the one being served. (Either
// way one more is served first: the post that finds the abort pending goes
// to the loop, which is past the check of its turn.)
func TestAbortInsideARunEndsWithThePage(t *testing.T) {
	const at = 8*128 + 50 // the 51st line of the ninth page
	for _, tc := range []struct {
		name  string
		touch toucher
		want  int
	}{
		{"ranges", touchByRange, 9*128 + 1},
		{"per reference", touchByReference, at + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := quiet()
			cfg := testConfig(1)
			var s *Sim
			seen := 0
			cfg.NewModel = func(*mem.Physical, int) memsys.Model {
				return &watchedFixed{Fixed: memsys.Fixed{Latency: 10}, onAccess: func() {
					if seen++; seen == at {
						s.RequestAbort("inside a run")
					}
				}}
			}
			s = New(cfg)
			s.Spawn("forever", func(p *frontend.Proc) {
				base := alloc(s, p, 64*mem.PageSize)
				for {
					tc.touch(p, base, 64*mem.PageSize, true, false)
				}
			})
			rec := runRecover(s)
			if ae, ok := rec.(*AbortError); !ok || ae.Reason != "inside a run" {
				t.Fatalf("recovered %T %v, want the *AbortError requested", rec, rec)
			}
			if seen != tc.want {
				t.Errorf("the model served %d references, want %d", seen, tc.want)
			}
			if got := settled(before); got != before {
				t.Errorf("%d goroutines after the aborted run, want %d", got, before)
			}
		})
	}
}

// The same bound decides in Run's loop and in place: a walk never takes a
// range past a sibling's earlier event. Two processes on the zero-latency
// model range over their pages in lockstep, and every reference of the
// higher id waits for the lower id's reference of the same cycle.
func TestRangeYieldsToEarlierSibling(t *testing.T) {
	s := New(testConfig(2))
	var order []string
	for i := 0; i < 2; i++ {
		s.Spawn(fmt.Sprint("p", i), func(p *frontend.Proc) {
			base := alloc(s, p, mem.PageSize)
			p.TouchRange(base, 8*32, false)
			p.Call(0, func() any { order = append(order, fmt.Sprint(i, "@", s.CurTime())); return nil })
		})
	}
	s.Run()
	if len(order) != 2 || !strings.HasPrefix(order[0], "0@") {
		t.Errorf("order %v, want process 0 first", order)
	}
	// In lockstep no walk gets anywhere: process 1's next reference is due
	// at the cycle process 0's is, and 0 wins the tie; 0's next is due after
	// 1's pending one.
	if _, _, ranged := s.PortStats(); ranged != 0 {
		t.Errorf("%d references served past the first of a range between lockstep processes", ranged)
	}
}

// A lone process ranging over memory forever never posts a second event
// unless something ends a walk; the abort request does, and the loop then
// raises it.
func TestRequestAbortEndsLoneRanger(t *testing.T) {
	before := quiet()
	cfg := testConfig(1)
	cfg.MemFrames = 1 << 16
	s := New(cfg)
	s.Spawn("forever", func(p *frontend.Proc) {
		base := alloc(s, p, 64<<20)
		for {
			p.TouchRange(base, 64<<20, true)
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
	if got := settled(before); got != before {
		t.Errorf("%d goroutines after the aborted run, want %d", got, before)
	}
}

// BenchmarkLoneRanger is BenchmarkLoneLoader with the loads issued as
// page-sized ranges.
func BenchmarkLoneRanger(b *testing.B) {
	s := New(testConfig(1))
	s.Spawn("solo", func(p *frontend.Proc) {
		base := alloc(s, p, 4096)
		b.ResetTimer()
		for k := 0; k < b.N; k += 128 {
			p.TouchRange(base, 4096, false)
		}
	})
	s.Run()
}
