package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"compass/internal/frontend"
	"compass/internal/isa"
	"compass/internal/mem"
)

// settled reports the goroutine count once goroutines that have been told
// to end are gone (a finished coroutine's goroutine exits a moment after
// the switch back).
func settled(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// quiet returns the goroutine count once it has held still for a few
// milliseconds, so that a goroutine an earlier test left winding down is
// not counted into a later test's baseline.
func quiet() int {
	n, still := runtime.NumGoroutine(), 0
	for i := 0; i < 200 && still < 3; i++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

func spawnLoaders(s *Sim, procs, loads int) {
	for i := 0; i < procs; i++ {
		s.Spawn(fmt.Sprintf("p%d", i), func(p *frontend.Proc) {
			base := alloc(s, p, 4096)
			for k := 0; k < loads; k++ {
				p.Load(base+mem.VirtAddr(k*32%4096), 4)
				p.Compute(isa.ALU(3))
			}
		})
	}
}

// Frontends live exactly as long as their processes: a goroutine each from
// Spawn, none left when Run returns, over several phases on one machine.
func TestRunLeavesNoGoroutines(t *testing.T) {
	before := quiet()
	s := New(testConfig(2))
	for phase := 0; phase < 3; phase++ {
		spawnLoaders(s, 5, 50) // more processes than CPUs: some start late
		if got := runtime.NumGoroutine(); got != before+5 {
			t.Errorf("phase %d: %d goroutines after spawning 5 processes, want %d", phase, got, before+5)
		}
		s.Run()
		if got := settled(before); got != before {
			t.Errorf("phase %d: %d goroutines after Run, want %d", phase, got, before)
		}
	}
}

// A daemon process outlives Run (suspended, waiting for the next phase) and
// is the one goroutine a finished machine still holds.
func TestDaemonIsTheOnlySurvivor(t *testing.T) {
	before := quiet()
	s := New(testConfig(1))
	pid := -1
	s.SpawnDaemon("tick", func(p *frontend.Proc) {
		pid = p.ID()
		for {
			p.Call(10, func() any {
				s.ScheduleTask(1000, "tick", true, func() { s.Wake(pid, s.CurTime()) })
				s.BlockCurrent()
				return nil
			})
		}
	})
	spawnLoaders(s, 2, 200)
	s.Run()
	if got := settled(before + 1); got != before+1 {
		t.Errorf("%d goroutines after Run, want %d (the daemon)", got, before+1)
	}
	spawnLoaders(s, 2, 200)
	s.Run()
	if got := settled(before + 1); got != before+1 {
		t.Errorf("%d goroutines after the second Run, want %d", got, before+1)
	}
}

// Every way out of Run other than returning unwinds the live frontends.
func TestAbortedRunUnwindsFrontends(t *testing.T) {
	stuck := func(s *Sim) {
		s.Spawn("stuck", func(p *frontend.Proc) {
			p.Call(0, func() any { s.BlockCurrent(); return nil })
		})
	}
	var inPlace *Sim // the simulator of the "call panic in place" case
	cases := []struct {
		name string
		// loads is how long the bystanders run: past the abort, except for
		// the deadlock, which is proved only once they have exited. Zero
		// means no bystanders.
		loads int
		setup func(s *Sim)
		check func(t *testing.T, rec any)
	}{
		{"deadlock", 100, stuck, func(t *testing.T, rec any) {
			if _, ok := rec.(*DeadlockError); !ok {
				t.Errorf("recovered %T %v, want *DeadlockError", rec, rec)
			}
		}},
		{"abort", 1_000_000, func(s *Sim) {
			stuck(s)
			s.hub.Lock()
			s.ScheduleTask(500, "watchdog", false, func() { s.RequestAbort("test abort") })
			s.hub.Unlock()
		}, func(t *testing.T, rec any) {
			if _, ok := rec.(*AbortError); !ok {
				t.Errorf("recovered %T %v, want *AbortError", rec, rec)
			}
		}},
		{"task panic", 1_000_000, func(s *Sim) {
			stuck(s)
			s.hub.Lock()
			s.ScheduleTask(500, "boom", false, func() { panic("task bug") })
			s.hub.Unlock()
		}, func(t *testing.T, rec any) {
			if rec != "task bug" {
				t.Errorf("recovered %v, want the task's panic", rec)
			}
		}},
		{"frontend panic", 1_000_000, func(s *Sim) {
			stuck(s)
			s.Spawn("buggy", func(p *frontend.Proc) {
				p.Compute(isa.ALU(10))
				p.Load(alloc(s, p, 4096), 4)
				panic("workload bug")
			})
		}, func(t *testing.T, rec any) {
			// Raised on the frontend's coroutine, recovered on ours.
			if rec != "workload bug" {
				t.Errorf("recovered %v, want the body's panic", rec)
			}
		}},
		{"call panic", 1_000_000, func(s *Sim) {
			stuck(s)
			s.Spawn("buggy", func(p *frontend.Proc) {
				p.Call(0, func() any { panic("kcall bug") })
			})
		}, func(t *testing.T, rec any) {
			if rec != "kcall bug" {
				t.Errorf("recovered %v, want the call's panic", rec)
			}
		}},
		// The same bug in a call served in place (with no bystanders the
		// process is its own next pick): raised on the process's coroutine,
		// it leaves Run with the same value, and the process's deferred
		// calls — one of which posts — run when the run is abandoned, not
		// under the panic. Run's own stack names the communicator that
		// carried the value over; the frames that raised it are kept aside.
		{"call panic in place", 0, func(s *Sim) {
			inPlace = s
			stuck(s)
			s.Spawn("buggy", func(p *frontend.Proc) {
				base := alloc(s, p, 4096)
				defer p.Load(base, 4)
				p.Load(base, 4)
				p.Call(0, buggyCall)
			})
		}, func(t *testing.T, rec any) {
			if rec != "kcall bug" {
				t.Errorf("recovered %v, want the call's panic", rec)
			}
			if stack := string(inPlace.PanicStack()); !strings.Contains(stack, "buggyCall") {
				t.Errorf("the stack kept of the panic does not name the call that raised it:\n%s", stack)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := quiet()
			s := New(testConfig(2))
			tc.setup(s) // first, so the culprits get the two CPUs
			if tc.loads > 0 {
				spawnLoaders(s, 3, tc.loads)
			}
			rec := runRecover(s)
			if rec == nil {
				t.Fatal("Run returned")
			}
			tc.check(t, rec)
			if got := settled(before); got != before {
				t.Errorf("%d goroutines after the aborted run, want %d", got, before)
			}
		})
	}
}

// buggyCall is a KCall closure that panics, and says so if it is not being
// served in place.
func buggyCall() any {
	if !strings.Contains(string(debug.Stack()), "servedInPlace") {
		panic("the call was not served in place")
	}
	panic("kcall bug")
}

// The threaded port's backend wait (Table 3's SpinPorts) must not lose a
// wake-up: four processes posting back to back keep landing posts in the
// window where the loop polls with the lock dropped. A lost wake-up hangs
// Run; the deadline turns that into a failure.
func TestSpinPortsBackToBackPosters(t *testing.T) {
	loads := 250_000
	if testing.Short() {
		loads = 25_000
	}
	s := New(testConfig(4))
	s.hub.SetSpinWait(true)
	spawnLoaders(s, 4, loads)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Run()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("Run hung: a post or publish went unnoticed by the sleeping backend")
	}
	if got := s.Counters().Get("fixed.accesses"); got != uint64(4*loads) {
		t.Errorf("model saw %d accesses, want %d", got, 4*loads)
	}
}
