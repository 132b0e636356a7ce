package memsys_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"compass/internal/cache"
	"compass/internal/coma"
	"compass/internal/directory"
	"compass/internal/event"
	"compass/internal/mem"
	"compass/internal/memsys"
	"compass/internal/snoop"
	"compass/internal/stats"
)

// subject is one instance of a memory model under the differential tests:
// the model, everything it can say about its state, and its own invariant
// on a line, if it has one.
type subject struct {
	memsys.Model
	snapshot func() any
	check    func(pa mem.PhysAddr) error
}

func (s subject) counters() string {
	var c stats.Counters
	s.AddCounters(&c)
	return c.String()
}

const testCPUs = 4

// models builds the five models on four CPUs (two nodes of two where there
// are nodes), contention on wherever the model has any. With small the
// caches are shrunk until a few pages overflow them: victims at every level,
// the attraction memory's displacements and the directory's replacement
// traffic become the common case instead of the rare one.
func models(small bool) map[string]func() subject {
	shrink := func(c *cache.Config, size int) {
		if small {
			c.Size = size
		}
	}
	return map[string]func() subject{
		"fixed": func() subject {
			f := &memsys.Fixed{Latency: 10}
			return subject{Model: f, snapshot: func() any { return *f }}
		},
		"simple": func() subject {
			cfg := snoop.SimpleConfig(testCPUs)
			cfg.Contention = true
			shrink(&cfg.L1, 1<<10)
			s := snoop.New(cfg)
			return subject{Model: s, snapshot: func() any { return s.Snapshot() }, check: s.CheckCoherence}
		},
		"smp": func() subject {
			cfg := snoop.SMPConfig(testCPUs)
			shrink(&cfg.L1, 1<<10)
			shrink(&cfg.L2, 4<<10)
			s := snoop.New(cfg)
			return subject{Model: s, snapshot: func() any { return s.Snapshot() }, check: s.CheckCoherence}
		},
		"ccnuma": func() subject {
			cfg := directory.DefaultConfig(2, testCPUs/2)
			shrink(&cfg.L1, 1<<10)
			shrink(&cfg.L2, 4<<10)
			s := directory.New(cfg, nil)
			return subject{Model: s, snapshot: func() any { return s.Snapshot() }, check: s.CheckCoherence}
		},
		"coma": func() subject {
			cfg := coma.DefaultConfig(2, testCPUs/2)
			shrink(&cfg.L1, 1<<10)
			shrink(&cfg.AM, 8<<10)
			s := coma.New(cfg)
			return subject{Model: s, snapshot: func() any { return s.Snapshot() }, check: s.CheckInvariant}
		},
	}
}

// same fails the test unless the two subjects agree on everything they can
// say about themselves: their counters and, if deep, their whole snapshots.
func same(t *testing.T, step int, what string, a, b subject, deep bool) {
	t.Helper()
	if ca, cb := a.counters(), b.counters(); ca != cb {
		t.Fatalf("step %d, %s: counters\n%s\nand\n%s", step, what, ca, cb)
	}
	if deep && !reflect.DeepEqual(a.snapshot(), b.snapshot()) {
		t.Fatalf("step %d, %s: the snapshots differ", step, what)
	}
}

// A run is its references taken one by one, on all five models: random
// streams per CPU — a private region each, a shared one with stores in it —
// in runs of 1 to 128 lines starting at any byte, with the bound falling
// before any reference of the run (before the second included, the first
// being served whatever it is) or nowhere. One instance is driven by Access,
// in the loop AccessRun is defined as, the other by AccessRun; they agree on
// served, issued and done and on every counter after every run, on the whole
// snapshot after every run too (every 50th with full-size caches, whose
// snapshot is 40 000 lines), and the lines a run touched satisfy the model's
// invariant.
func TestAccessRunMatchesAccess(t *testing.T) {
	for _, small := range []bool{true, false} {
		for name, mk := range models(small) {
			t.Run(fmt.Sprintf("%s/small=%v", name, small), func(t *testing.T) {
				rng := rand.New(rand.NewSource(17))
				byAccess, byRun := mk(), mk()
				var clock [testCPUs]event.Cycle
				runs, cut, whole := 1000, 0, 0
				if !small {
					runs = 500
				}
				for i := 0; i < runs; i++ {
					cpu := rng.Intn(testCPUs)
					var pa mem.PhysAddr
					write := rng.Intn(2) == 0
					if rng.Intn(3) == 0 {
						pa = mem.PhysAddr(rng.Intn(4 << mem.PageShift)) // shared
						write = rng.Intn(4) == 0
					} else {
						pa = mem.PhysAddr(8+4*cpu)<<mem.PageShift + mem.PhysAddr(rng.Intn(3<<mem.PageShift))
					}
					n := 1 + rng.Intn(128)
					if rng.Intn(4) == 0 {
						n = 1 + rng.Intn(4)
					}
					issue := event.Cycle(rng.Intn(4))
					const stride = 32
					// The bound: none, or one that reference stop of the run
					// just misses (odd draws) or just makes.
					stop, slack := -1, event.Cycle(rng.Intn(2))
					if rng.Intn(3) > 0 {
						stop = rng.Intn(n + 1)
					}
					until := ^event.Cycle(0)
					if stop == 0 {
						until = clock[cpu] // the first reference is served all the same
					}

					now := clock[cpu]
					served, issued, done := 0, now, event.Cycle(0)
					for a := pa; ; a += stride {
						done = byAccess.Access(issued, cpu, a, write)
						served++
						next := done + issue
						if served == stop {
							until = next + slack
						}
						if served >= n || next >= until {
							break
						}
						issued = next
					}
					s2, i2, d2 := byRun.AccessRun(now, cpu, pa, stride, n, issue, until, write)
					if s2 != served || i2 != issued || d2 != done {
						t.Fatalf("run %d (cpu %d, %#x, %d lines, write=%v, until %d): AccessRun served %d, issued %d, done %d; by Access %d, %d, %d",
							i, cpu, uint64(pa), n, write, until, s2, i2, d2, served, issued, done)
					}
					same(t, i, "after the run", byAccess, byRun, small || i%50 == 0 || i == runs-1)
					if byRun.check != nil {
						for k := 0; k < served; k++ {
							if err := byRun.check(pa + mem.PhysAddr(k*stride)); err != nil {
								t.Fatalf("run %d: %v", i, err)
							}
						}
					}
					if served < n {
						cut++
					} else {
						whole++
					}
					clock[cpu] = done + event.Cycle(rng.Intn(40))
				}
				if cut == 0 || whole == 0 {
					t.Errorf("%d runs cut short by the bound and %d whole: want both", cut, whole)
				}
			})
		}
	}
}

// Rehit(n) is n stores that hit the line where it sits Modified in the CPU's
// first-level cache: same latency each, same counters, same snapshot as n
// calls of Access. A line that is anything else — Shared, Exclusive, absent,
// or Modified in a peer's cache — is refused and nothing is accounted.
func TestRehitMatchesStores(t *testing.T) {
	const line = mem.PhysAddr(5<<mem.PageShift + 7*32)
	prepare := map[string]func(m memsys.Model){
		"modified": func(m memsys.Model) { m.Access(0, 1, line, true) },
		"modified after a load": func(m memsys.Model) {
			m.Access(0, 1, line, false)
			m.Access(90, 1, line+4, true)
		},
		"absent": func(m memsys.Model) {},
		"shared": func(m memsys.Model) {
			m.Access(0, 1, line, false)
			m.Access(200, 2, line, false)
		},
		"exclusive": func(m memsys.Model) { m.Access(0, 1, line, false) },
		"modified in a peer": func(m memsys.Model) {
			m.Access(0, 1, line, true)
			m.Access(300, 3, line, true)
		},
		"shared again after a peer's load": func(m memsys.Model) {
			m.Access(0, 1, line, true)
			m.Access(300, 2, line, false)
		},
	}
	for name, mk := range models(true) {
		for state, prep := range prepare {
			t.Run(name+"/"+state, func(t *testing.T) {
				stores, rehit := mk(), mk()
				prep(stores.Model)
				prep(rehit.Model)
				want := name == "fixed" || state == "modified" || state == "modified after a load"
				for i, n := range []uint64{0, 1, 2, 7, 0, 1000} {
					lat, ok := rehit.Rehit(1, line+8, n)
					if ok != want {
						t.Fatalf("Rehit(%d) says %v of a line that is %s", n, ok, state)
					}
					if ok {
						now := event.Cycle(1000 * (i + 1))
						for k := uint64(0); k < n; k++ {
							done := stores.Access(now, 1, line+8, true)
							if done != now+lat {
								t.Fatalf("store %d of %d took %d cycles, Rehit says %d", k, n, done-now, lat)
							}
							now = done + 3
						}
					}
					same(t, i, fmt.Sprintf("after Rehit(%d)", n), stores, rehit, true)
				}
			})
		}
	}
}
