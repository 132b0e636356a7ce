package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"compass/internal/event"
	"compass/internal/frontend"
	"compass/internal/isa"
	"compass/internal/mem"
)

// inPlace returns how many events have been served in place so far. A
// process body may call it between its own events: nothing else runs then.
func inPlace(s *Sim) uint64 {
	_, n, _ := s.PortStats()
	return n
}

// wantInPlace runs one event-posting step of a process body and checks
// that the event was (or was not) answered without a switch to the loop.
// The negative check needs every process that runs meanwhile to post
// nothing but its KExit, which never counts.
func wantInPlace(t *testing.T, s *Sim, want bool, what string, post func()) {
	t.Helper()
	before := inPlace(s)
	post()
	got := inPlace(s) - before
	if want && got != 1 {
		t.Errorf("%s: served in place %d times, want once", what, got)
	}
	if !want && got != 0 {
		t.Errorf("%s: served in place, want a switch to the backend loop", what)
	}
}

// A process with nobody to interleave with never goes back to the loop
// between its first event and its exit: every event is its own next pick.
func TestLoneLoaderServedInPlace(t *testing.T) {
	const loads = 1000
	s := New(testConfig(2))
	spawnLoaders(s, 1, loads)
	s.Run()
	posts, served, _ := s.PortStats()
	if want := uint64(loads + 2); posts != want { // the Sbrk call, the loads, KExit
		t.Errorf("%d events posted, want %d", posts, want)
	}
	// KExit is handled in place too, but the process does not go on.
	if served != posts-1 {
		t.Errorf("%d of %d events served in place, want all but KExit", served, posts)
	}
	if got := s.Counters().Get("fixed.accesses"); got != loads {
		t.Errorf("model saw %d accesses, want %d", got, loads)
	}
	if s.Progress() == 0 {
		t.Error("the watchdog gauge stood still through 1000 events served in place")
	}
}

// A queue task due at the cycle of an event runs before it (tasks win
// ties), so that event goes through the loop; an event before the task's
// cycle does not wait for it.
func TestInPlaceQueueTaskGoesFirst(t *testing.T) {
	s := New(testConfig(1))
	var order []string
	note := func(what string) func() any {
		return func() any { order = append(order, fmt.Sprint(what, "@", s.CurTime())); return nil }
	}
	var due event.Cycle
	s.Spawn("solo", func(p *frontend.Proc) {
		wantInPlace(t, s, true, "call arming the task", func() {
			p.Call(0, func() any {
				due = s.CurTime() + 1000
				s.ScheduleTask(1000, "due", false, func() { note("task")() })
				return nil
			})
		})
		p.ComputeCycles(uint64(due - 200 - p.Now()))
		wantInPlace(t, s, true, "call before the task is due", func() { p.Call(0, note("early")) })
		p.ComputeCycles(uint64(due - p.Now()))
		wantInPlace(t, s, false, "call on the task's cycle", func() { p.Call(0, note("tie")) })
	})
	s.Run()
	want := []string{fmt.Sprint("early@", due-200), fmt.Sprint("task@", due), fmt.Sprint("tie@", due)}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order %v, want %v", order, want)
	}
}

// Two processes posting at the same cycles are picked by id, each time
// through the loop: the higher id is never its own next pick, and the
// lower one is resumed while its sibling's reply is still on its way.
func TestInPlaceNotAheadOfLowerID(t *testing.T) {
	s := New(testConfig(2))
	var order []int
	for i := 0; i < 2; i++ {
		s.Spawn(fmt.Sprint("p", i), func(p *frontend.Proc) {
			for k := 0; k < 5; k++ {
				p.Call(10, func() any { order = append(order, p.ID()); return nil })
			}
		})
	}
	s.Run()
	if want := []int{0, 1, 0, 1, 0, 1, 0, 1, 0, 1}; !reflect.DeepEqual(order, want) {
		t.Errorf("order %v, want %v", order, want)
	}
	if posts, served, _ := s.PortStats(); served != 0 {
		t.Errorf("%d of %d lockstep events served in place, want none", served, posts)
	}
}

// Both processes are resumed by the same ResumeFrontends batch. The first
// one's event is the only one posted when it posts it, but its sibling has
// not run yet and goes on to post an earlier one.
func TestInPlaceWaitsForUnresumedSibling(t *testing.T) {
	s := New(testConfig(2))
	var order []string
	for _, cost := range []uint64{10, 5} {
		s.Spawn(fmt.Sprint("p", cost), func(p *frontend.Proc) {
			p.Call(cost, func() any { order = append(order, fmt.Sprint(p.ID(), "@", s.CurTime())); return nil })
		})
	}
	s.Run()
	if want := []string{"1@605", "0@610"}; !reflect.DeepEqual(order, want) {
		t.Errorf("order %v, want %v", order, want)
	}
	// The second one posts with everybody suspended and the smallest time:
	// that call is served in place, and nothing else is (the first one's
	// call waits for the loop, and exits never count).
	if posts, served, _ := s.PortStats(); posts != 4 || served != 1 {
		t.Errorf("%d of %d events served in place, want 1 of 4", served, posts)
	}
}

// Events whose handler does anything but reply to the poster alone fall
// back to the yield: the poster is parked, blocked or gone, or it has
// company on the runnable list and ResumeFrontends must take them by id.
// Every bystander only exits, so that nothing else is served in place
// between a step's post and its return.
func TestInPlaceFallsBackToYield(t *testing.T) {
	exits := func(*frontend.Proc) {}
	cases := []struct {
		name string
		cpus int
		cfg  func(*Config)
		body func(t *testing.T, s *Sim, p *frontend.Proc)
		// others are spawned after the process under test.
		others int
	}{
		{"yield with a waiter", 1, nil, func(t *testing.T, s *Sim, p *frontend.Proc) {
			wantInPlace(t, s, false, "KYield", p.Yield)
			wantInPlace(t, s, true, "KYield with the ready queue empty", p.Yield)
		}, 1},
		{"blocking call", 1, nil, func(t *testing.T, s *Sim, p *frontend.Proc) {
			wantInPlace(t, s, false, "KCall with BlockCurrent", func() {
				p.Call(0, func() any {
					s.ScheduleTask(500, "wake", false, func() { s.Wake(p.ID(), s.CurTime()) })
					s.BlockCurrent()
					return nil
				})
			})
		}, 0},
		{"call that forks", 2, nil, func(t *testing.T, s *Sim, p *frontend.Proc) {
			wantInPlace(t, s, false, "KCall that spawns a process onto the free CPU", func() {
				p.Call(0, func() any { s.SpawnLocked("child", exits); return nil })
			})
			// The child is resumed after its parent, which therefore posts
			// once more before the child has even started.
			nothing := func() any { return nil }
			wantInPlace(t, s, false, "event posted while the child has yet to run", func() { p.Call(0, nothing) })
			wantInPlace(t, s, true, "event posted after the child has exited", func() { p.Call(0, nothing) })
		}, 0},
		{"call that forks onto the ready queue", 1, nil, func(t *testing.T, s *Sim, p *frontend.Proc) {
			wantInPlace(t, s, true, "KCall whose child has to wait for the CPU", func() {
				p.Call(0, func() any { s.SpawnLocked("child", exits); return nil })
			})
		}, 0},
		{"preempted reference", 1, func(c *Config) { c.Preemptive, c.Quantum = true, 2000 }, func(t *testing.T, s *Sim, p *frontend.Proc) {
			base := alloc(s, p, 4096)
			preempted := 0
			for k := 0; k < 1000 && preempted == 0; k++ {
				was, before := s.preemptions, inPlace(s)
				p.Load(base, 4)
				p.Compute(isa.ALU(20))
				if s.preemptions != was {
					preempted++
					if inPlace(s) != before {
						t.Error("a reference whose reply was parked by the quantum was served in place")
					}
				}
			}
			if preempted == 0 {
				t.Error("never preempted")
			}
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(tc.cpus)
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			s := New(cfg)
			ran := false
			s.Spawn("subject", func(p *frontend.Proc) {
				tc.body(t, s, p)
				ran = true
			})
			for i := 0; i < tc.others; i++ {
				s.Spawn(fmt.Sprint("other", i), exits)
			}
			s.Run()
			if !ran {
				t.Error("the process under test did not finish")
			}
		})
	}
}

// A KCall that wakes a blocked process onto a free CPU makes two ports
// runnable; they are resumed lowest id first whichever of them posted.
func TestInPlaceWakeResumesInIDOrder(t *testing.T) {
	for _, wakerFirst := range []bool{true, false} {
		t.Run(fmt.Sprint("wakerFirst=", wakerFirst), func(t *testing.T) {
			s := New(testConfig(2))
			var order []string
			sleeperID := -1
			sleeper := func(p *frontend.Proc) {
				sleeperID = p.ID()
				block(s, p)
				order = append(order, "sleeper")
				p.Call(0, func() any { return nil })
			}
			waker := func(p *frontend.Proc) {
				p.ComputeCycles(5000) // the sleeper is blocked by now
				wantInPlace(t, s, false, "KCall that wakes the sleeper", func() {
					p.Call(0, func() any { s.Wake(sleeperID, s.CurTime()); return nil })
				})
				order = append(order, "waker")
				p.Call(0, func() any { return nil })
			}
			want := []string{"sleeper", "waker"}
			if wakerFirst {
				s.Spawn("waker", waker)
				s.Spawn("sleeper", sleeper)
				want = []string{"waker", "sleeper"}
			} else {
				s.Spawn("sleeper", sleeper)
				s.Spawn("waker", waker)
			}
			s.Run()
			if !reflect.DeepEqual(order, want) {
				t.Errorf("resumed in order %v, want %v", order, want)
			}
		})
	}
}

// The coroutine port with in-place service and the threaded port, which
// has none, run a scenario mixing every kind of event to the same end.
func TestInPlaceAgreesWithThreadedPorts(t *testing.T) {
	run := func(threaded bool) (string, uint64, uint64) {
		cfg := snoopConfig(2)
		cfg.Preemptive, cfg.Quantum = true, 3000
		s := New(cfg)
		s.hub.SetSpinWait(threaded)
		var log []string
		note := func(p *frontend.Proc, what string) {
			p.Call(5, func() any { log = append(log, fmt.Sprint(p.ID(), what, "@", s.CurTime())); return nil })
		}
		for i := 0; i < 2; i++ {
			s.Spawn(fmt.Sprint("loader", i), func(p *frontend.Proc) {
				base := alloc(s, p, 8192)
				for k := 0; k < 600; k++ {
					p.Store(base+mem.VirtAddr(k*32%8192), 4)
					p.Compute(isa.ALU(uint64(3 + i)))
				}
				note(p, "done")
			})
		}
		s.Spawn("forker", func(p *frontend.Proc) {
			childDone := false
			waiting := false
			p.Call(20, func() any {
				s.SpawnLocked("child", func(c *frontend.Proc) {
					base := alloc(s, c, 4096)
					for k := 0; k < 200; k++ {
						c.Load(base+mem.VirtAddr(k*32%4096), 4)
					}
					c.Call(5, func() any {
						childDone = true
						if waiting {
							s.Wake(p.ID(), s.CurTime())
						}
						return nil
					})
				})
				return nil
			})
			note(p, "forked")
			p.Yield()
			p.Call(5, func() any {
				if !childDone {
					waiting = true
					s.BlockCurrent()
				}
				return nil
			})
			note(p, "joined")
		})
		s.Spawn("sleeper", func(p *frontend.Proc) {
			for k := 0; k < 3; k++ {
				p.Call(5, func() any {
					s.SleepCurrent(4000, "alarm", false)
					return nil
				})
				note(p, "woke")
			}
		})
		// Always ready to run, and one for each CPU: they take every CPU
		// the quantum or an exit frees, the last one included, and the run
		// ends under them. The slow one's next event is far enough away
		// for the quick one's to be the next picks for a while.
		for _, step := range []uint64{7, 20_000} {
			s.SpawnDaemon("flusher", func(p *frontend.Proc) {
				base := alloc(s, p, 4096)
				for k := 0; ; k++ {
					p.Store(base+mem.VirtAddr(k*32%4096), 4)
					p.Compute(isa.ALU(step))
				}
			})
		}
		end := s.Run()
		// A threaded daemon may still be on its way to the post it will
		// wait at for good, where the coroutine ones already are.
		for running := threaded; running; runtime.Gosched() {
			s.hub.Lock()
			_, _, n, _ := s.hub.Scan()
			s.hub.Unlock()
			running = n > 0
		}
		out := fmt.Sprintf("end=%d\n%v\n%s", end, log, s.Counters().String())
		for _, p := range s.Procs() {
			out += fmt.Sprintf("%s total=%d\n", p.Name(), p.Account().Total())
		}
		posts, served, _ := s.PortStats()
		if !threaded {
			s.hub.Lock()
			s.hub.StopFrontends()
			s.hub.Unlock()
		}
		return out, posts, served
	}
	coroutine, posts, served := run(false)
	threaded, tposts, tserved := run(true)
	if coroutine != threaded {
		t.Errorf("port implementations disagree:\n--- coroutine ---\n%s--- threaded ---\n%s", coroutine, threaded)
	}
	if posts != tposts {
		t.Errorf("%d events posted on coroutine ports, %d on threaded ones", posts, tposts)
	}
	if tserved != 0 {
		t.Errorf("%d events served in place on threaded ports", tserved)
	}
	if served == 0 || served == posts {
		t.Errorf("%d of %d events served in place: the scenario should take both paths", served, posts)
	}
}

// The run ends with the exit of the last process that is not a daemon, even
// when that exit hands the CPU to a daemon whose events are then the next
// picks: they wait for the next Run, in the loop and in place alike.
func TestInPlaceStopsAtEndOfRun(t *testing.T) {
	run := func(threaded bool) string {
		s := New(testConfig(1))
		s.hub.SetSpinWait(threaded)
		spawnLoaders(s, 1, 10)
		s.SpawnDaemon("daemon", func(p *frontend.Proc) {
			base := alloc(s, p, 4096)
			for k := 0; k < 10_000; k++ {
				p.Load(base, 4)
				p.Compute(isa.ALU(3))
			}
			block(s, p)
		})
		end := s.Run()
		out := fmt.Sprintf("end=%d\n%s", end, s.Counters().String())
		if got := s.Counters().Get("fixed.accesses"); got != 10 {
			t.Errorf("threaded=%v: model saw %d accesses, want the loader's 10", threaded, got)
		}
		if !threaded {
			s.hub.Lock()
			s.hub.StopFrontends()
			s.hub.Unlock()
		}
		return out
	}
	if coroutine, threaded := run(false), run(true); coroutine != threaded {
		t.Errorf("port implementations disagree:\n--- coroutine ---\n%s--- threaded ---\n%s", coroutine, threaded)
	}
}

// A process that never gives the loop a turn — it loads forever and every
// load is served in place — is still ended by an abort request: the check
// is part of the in-place test, and the loop raises the error.
func TestRequestAbortEndsLoneLoader(t *testing.T) {
	before := quiet()
	s := New(testConfig(1))
	s.Spawn("forever", func(p *frontend.Proc) {
		base := alloc(s, p, 4096)
		for {
			p.Load(base, 4)
			p.Compute(isa.ALU(3))
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
	if posts, served, _ := s.PortStats(); served+2 < posts {
		t.Errorf("%d of %d events served in place: the loader should not have seen the loop", served, posts)
	}
	if got := settled(before); got != before {
		t.Errorf("%d goroutines after the aborted run, want %d", got, before)
	}
}

// BenchmarkLoneLoader is the reference path with every event served in
// place: one process, the zero-cost model.
func BenchmarkLoneLoader(b *testing.B) {
	s := New(testConfig(1))
	s.Spawn("solo", func(p *frontend.Proc) {
		base := alloc(s, p, 4096)
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			p.Load(base+mem.VirtAddr(k*32%4096), 4)
		}
	})
	s.Run()
}

// BenchmarkLockstepLoaders is the same path with no event served in place:
// two processes on two CPUs post at the same cycles, so each one's event is
// picked while the other's is pending.
func BenchmarkLockstepLoaders(b *testing.B) {
	s := New(testConfig(2))
	for i := 0; i < 2; i++ {
		s.Spawn(fmt.Sprint("p", i), func(p *frontend.Proc) {
			base := alloc(s, p, 4096)
			for k := 0; k < b.N/2; k++ {
				p.Load(base+mem.VirtAddr(k*32%4096), 4)
			}
		})
	}
	b.ResetTimer()
	s.Run()
}
