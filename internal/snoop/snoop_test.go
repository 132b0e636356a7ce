package snoop

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"compass/internal/cache"
	"compass/internal/event"
	"compass/internal/mem"
	"compass/internal/stats"
)

func TestReadMissThenHit(t *testing.T) {
	s := New(SimpleConfig(2))
	t0 := s.Access(0, 0, 0x1000, false)
	want := event.Cycle(s.cfg.L1.Latency) + s.cfg.BusCycles + s.cfg.MemCycles
	if t0 != want {
		t.Fatalf("cold miss completes at %d, want %d", t0, want)
	}
	t1 := s.Access(t0, 0, 0x1000, false)
	if t1-t0 != event.Cycle(s.cfg.L1.Latency) {
		t.Fatalf("hit latency %d, want %d", t1-t0, s.cfg.L1.Latency)
	}
	if s.CacheState(0, 0x1000) != cache.Exclusive {
		t.Errorf("sole reader state = %v, want E", s.CacheState(0, 0x1000))
	}
}

func TestSecondReaderGetsShared(t *testing.T) {
	s := New(SimpleConfig(2))
	now := s.Access(0, 0, 0x2000, false)
	now = s.Access(now, 1, 0x2000, false)
	if s.CacheState(0, 0x2000) != cache.Shared || s.CacheState(1, 0x2000) != cache.Shared {
		t.Errorf("states after two readers: %v %v",
			s.CacheState(0, 0x2000), s.CacheState(1, 0x2000))
	}
	_ = now
}

func TestWriteInvalidatesPeers(t *testing.T) {
	s := New(SimpleConfig(4))
	var now event.Cycle
	for cpu := 0; cpu < 4; cpu++ {
		now = s.Access(now, cpu, 0x3000, false)
	}
	now = s.Access(now, 2, 0x3000, true)
	if s.CacheState(2, 0x3000) != cache.Modified {
		t.Fatalf("writer state = %v, want M", s.CacheState(2, 0x3000))
	}
	for _, cpu := range []int{0, 1, 3} {
		if s.CacheState(cpu, 0x3000) != cache.Invalid {
			t.Errorf("cpu %d not invalidated: %v", cpu, s.CacheState(cpu, 0x3000))
		}
	}
	if s.invalidations == 0 {
		t.Error("no invalidations counted")
	}
	if err := s.CheckCoherence(0x3000); err != nil {
		t.Error(err)
	}
}

func TestDirtyLineSuppliedCacheToCache(t *testing.T) {
	s := New(SimpleConfig(2))
	now := s.Access(0, 0, 0x4000, true) // CPU0 owns dirty
	before := s.snoopsSupplied
	now = s.Access(now, 1, 0x4000, false) // CPU1 read: intervention
	if s.snoopsSupplied != before+1 {
		t.Fatal("dirty supply not counted")
	}
	if s.CacheState(0, 0x4000) != cache.Shared || s.CacheState(1, 0x4000) != cache.Shared {
		t.Errorf("post-intervention states: %v %v",
			s.CacheState(0, 0x4000), s.CacheState(1, 0x4000))
	}
	_ = now
}

func TestWriteToSharedUpgrades(t *testing.T) {
	s := New(SimpleConfig(2))
	now := s.Access(0, 0, 0x5000, false)
	now = s.Access(now, 1, 0x5000, false) // both Shared
	now = s.Access(now, 0, 0x5000, true)  // upgrade
	if s.CacheState(0, 0x5000) != cache.Modified {
		t.Fatalf("after upgrade: %v", s.CacheState(0, 0x5000))
	}
	if s.CacheState(1, 0x5000) != cache.Invalid {
		t.Fatal("peer survived upgrade")
	}
	_ = now
}

func TestTwoLevelHierarchy(t *testing.T) {
	s := New(SMPConfig(2))
	now := s.Access(0, 0, 0x6000, false)
	// Evict from tiny L1 by touching many conflicting lines, then re-access:
	// should hit in L2, not go to the bus.
	memReadsBefore := s.memReads
	l2HitsBefore := s.l2Hits
	// L1: 32KB 2-way 32B lines → 512 sets, stride 16KB conflicts.
	for i := 1; i <= 3; i++ {
		now = s.Access(now, 0, mem.PhysAddr(0x6000+i*16384), false)
	}
	now = s.Access(now, 0, 0x6000, false)
	if s.l2Hits != l2HitsBefore+1 {
		t.Errorf("expected an L2 hit (got %d→%d)", l2HitsBefore, s.l2Hits)
	}
	if s.memReads != memReadsBefore+3 {
		t.Errorf("mem reads %d→%d, want +3 (only the conflict fills)", memReadsBefore, s.memReads)
	}
	_ = now
}

func TestBusContentionSerializes(t *testing.T) {
	cfg := SMPConfig(2)
	s := New(cfg)
	// Two misses issued at the same cycle from different CPUs must serialize
	// on the bus: the second completes at least BusCycles later.
	d0 := s.Access(0, 0, 0x10000, false)
	d1 := s.Access(0, 1, 0x20000, false)
	if d1 < d0+cfg.BusCycles {
		t.Errorf("no serialization: first done %d, second done %d", d0, d1)
	}

	// With contention off, identical requests complete identically.
	cfg2 := SimpleConfig(2)
	s2 := New(cfg2)
	e0 := s2.Access(0, 0, 0x10000, false)
	e1 := s2.Access(0, 1, 0x20000, false)
	if e0 != e1 {
		t.Errorf("ideal bus still serialized: %d vs %d", e0, e1)
	}
}

func TestCountersPopulated(t *testing.T) {
	s := New(SMPConfig(2))
	now := s.Access(0, 0, 0x1000, true)
	s.Access(now, 1, 0x1000, false)
	var c stats.Counters
	s.AddCounters(&c)
	if c.Get("smp.loads") != 1 || c.Get("smp.stores") != 1 {
		t.Errorf("loads/stores: %s", c.String())
	}
	if s.Name() != "smp" {
		t.Errorf("Name = %q", s.Name())
	}
	if New(SimpleConfig(1)).Name() != "simple" {
		t.Error("simple name wrong")
	}
}

// Property: after any random access sequence, every touched line satisfies
// the single-writer/multiple-reader invariant, in both 1- and 2-level
// configurations.
func TestQuickCoherenceInvariant(t *testing.T) {
	for _, mk := range []func(int) Config{SimpleConfig, SMPConfig} {
		mk := mk
		f := func(seed int64, n uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			s := New(mk(4))
			var now event.Cycle
			touched := map[mem.PhysAddr]bool{}
			for i := 0; i < int(n)+16; i++ {
				// 32 hot lines to force heavy sharing and eviction.
				pa := mem.PhysAddr(rng.Intn(32)) * 64
				cpu := rng.Intn(4)
				write := rng.Intn(3) == 0
				now = s.Access(now, cpu, pa, write)
				touched[pa] = true
			}
			for pa := range touched {
				if err := s.CheckCoherence(pa); err != nil {
					t.Log(err)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Error(err)
		}
	}
}

// Property: completion times returned by Access never precede the issue
// time plus the L1 latency, and time is monotone per CPU when issued in
// nondecreasing order.
func TestQuickLatencyLowerBound(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(SMPConfig(2))
		var now event.Cycle
		for i := 0; i < int(n); i++ {
			pa := mem.PhysAddr(rng.Intn(4096)) * 32
			done := s.Access(now, rng.Intn(2), pa, rng.Intn(2) == 0)
			if done < now+event.Cycle(s.cfg.L1.Latency) {
				return false
			}
			now = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// counters renders every counter of the system.
func counters(s *System) string {
	var c stats.Counters
	s.AddCounters(&c)
	return c.String()
}

// recounted is the resident table as a count of the cache arrays gives it,
// frame by frame for the frames below limit.
func recounted(s *System, limit uint64) [][]uint8 {
	fresh := New(s.cfg)
	fresh.cpus = s.cpus
	fresh.recount()
	return rows(fresh, limit)
}

func rows(s *System, limit uint64) [][]uint8 {
	out := make([][]uint8, limit)
	for f := range out {
		out[f] = append([]uint8(nil), s.residentRow(uint64(f))...)
	}
	return out
}

// The resident counts only say whom not to probe: a random stream of reads
// and writes, with enough lines to evict and few enough to share, returns
// the same cycles, leaves the same counters and keeps every line coherent
// whether snoopPeers skips the peers that hold nothing of the frame or
// probes them all, on the one-level and the two-level machine with 2 to 8
// CPUs. The counts themselves always equal a recount of the arrays, and a
// system restored from a snapshot taken in mid-stream rebuilds them and goes
// on in step.
func TestResidentSkipMatchesProbingAll(t *testing.T) {
	const frames = 64
	for _, mk := range []func(int) Config{SimpleConfig, SMPConfig} {
		for _, cpus := range []int{2, 3, 4, 8} {
			t.Run(fmt.Sprintf("%s/%d", New(mk(cpus)).Name(), cpus), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(cpus)))
				skip, all := New(mk(cpus)), New(mk(cpus))
				all.probeAll = true
				systems := []*System{skip, all}
				var now event.Cycle
				skipped := false
				for i := 0; i < 60000; i++ {
					// A hot shared region, a private region per CPU, and a
					// long tail that evicts both.
					cpu := rng.Intn(cpus)
					var pa mem.PhysAddr
					switch rng.Intn(4) {
					case 0:
						pa = mem.PhysAddr(rng.Intn(64)) * 32
					case 1, 2:
						pa = mem.PhysAddr(8+cpus+cpu)<<mem.PageShift + mem.PhysAddr(rng.Intn(128))*32
					default:
						pa = mem.PhysAddr(rng.Intn(frames<<mem.PageShift)) &^ 3
					}
					write := rng.Intn(3) == 0
					var done event.Cycle
					for k, s := range systems {
						d := s.Access(now, cpu, pa, write)
						if k > 0 && d != done {
							t.Fatalf("step %d: cpu %d %#x write=%v done at %d, probing all at %d", i, cpu, uint64(pa), write, done, d)
						}
						done = d
					}
					now += event.Cycle(rng.Intn(4))
					if err := skip.CheckCoherence(pa); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
					for c, n := range skip.residentRow(pa.Frame()) {
						skipped = skipped || n == 0 && c != cpu
					}
					if i == 30000 {
						// A third system joins from a snapshot of the first.
						restored := New(mk(cpus))
						if err := restored.Restore(skip.Snapshot()); err != nil {
							t.Fatal(err)
						}
						if got, want := rows(restored, frames), recounted(skip, frames); !reflect.DeepEqual(got, want) {
							t.Fatalf("the restored system counts\n%v\nthe arrays hold\n%v", got, want)
						}
						systems = append(systems, restored)
					}
					if i%5000 == 0 || i == 59999 {
						for k, s := range systems {
							if got, want := rows(s, frames), recounted(s, frames); !reflect.DeepEqual(got, want) {
								t.Fatalf("step %d, system %d: the table counts\n%v\nthe arrays hold\n%v", i, k, got, want)
							}
						}
					}
				}
				for k, s := range systems[1:] {
					if got, want := counters(s), counters(skip); got != want {
						t.Errorf("system %d's counters:\n%s\nwith the skip:\n%s", k+1, got, want)
					}
				}
				if !skipped {
					t.Error("no peer ever had a count of zero: the skip was not exercised")
				}
				if skip.invalidations == 0 || skip.snoopsSupplied == 0 {
					t.Errorf("%d invalidations, %d lines supplied by a peer: the stream should share", skip.invalidations, skip.snoopsSupplied)
				}
			})
		}
	}
}
