package snoop

import (
	"fmt"
	"math/bits"
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
	want := event.Cycle(s.cfg.L1.Latency) + BusCycles + MemCycles
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
	if d1 < d0+BusCycles {
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

// filterErr holds the holder filter of s to the cache arrays, frame by frame
// below limit: a shared frame's masks name exactly the CPUs that hold each of
// its lines, a private frame's lines are all its owner's, and the record
// counts every line held.
func filterErr(s *System, limit uint64) error {
	for f := uint64(0); f < limit; f++ {
		h := s.frame(f)
		held := 0
		for l := 0; l < 1<<s.slotShift; l++ {
			pa := mem.PhysAddr(f)<<mem.PageShift | mem.PhysAddr(l)<<s.lineShift
			var by uint64
			for i := range s.cpus {
				if s.CacheState(i, pa) != cache.Invalid {
					by |= 1 << i
				}
			}
			held += bits.OnesCount64(by)
			if h.slot != 0 && s.masks[s.line(h, pa)] != by {
				return fmt.Errorf("frame %d line %d: the mask says %b, the arrays %b", f, l, s.masks[s.line(h, pa)], by)
			}
			if h.slot == 0 && by&^(1<<h.owner) != 0 {
				return fmt.Errorf("frame %d, private to CPU %d: line %d is held by %b", f, h.owner, l, by)
			}
		}
		if held != int(h.lines) {
			return fmt.Errorf("frame %d: the record counts %d lines, the arrays hold %d", f, h.lines, held)
		}
	}
	return nil
}

// perCPU is how many lines of each frame below limit every CPU holds, as the
// filter of s says.
func perCPU(s *System, limit uint64) [][]int {
	out := make([][]int, limit)
	for f := range out {
		h := s.frame(uint64(f))
		out[f] = make([]int, len(s.cpus))
		if h.slot == 0 {
			out[f][h.owner] = int(h.lines)
			continue
		}
		base := int(h.slot-1) << s.slotShift
		for _, m := range s.masks[base : base+1<<s.slotShift] {
			for ; m != 0; m &= m - 1 {
				out[f][bits.TrailingZeros64(m)]++
			}
		}
	}
	return out
}

// rebuiltErr is filterErr, and then the comparison of the filter of s with
// one rebuilt from the arrays, which may have made private again a frame that
// s keeps shared but holds the same lines of every frame for every CPU.
func rebuiltErr(s *System, limit uint64) error {
	if err := filterErr(s, limit); err != nil {
		return err
	}
	fresh := New(s.cfg)
	fresh.cpus = s.cpus
	fresh.rebuild()
	if err := filterErr(fresh, limit); err != nil {
		return fmt.Errorf("rebuilt: %v", err)
	}
	if got, want := perCPU(s, limit), perCPU(fresh, limit); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("the filter counts\n%v\na rebuilt one\n%v", got, want)
	}
	return nil
}

// tally is every counter of the system, for a comparison at every step.
func tally(s *System) [10]uint64 {
	return [...]uint64{s.loads, s.stores, s.l1Hits, s.l2Hits, s.snoopsSupplied, s.invalidations,
		s.memReads, s.memWrites, s.bus.Requests, uint64(s.bus.Waits)}
}

// The holder filter is exact: a random stream of reads and writes, with
// enough lines to evict and few enough to share, returns the same cycles and
// leaves the same counters at every step whether snoopPeers probes the peers
// the filter names or every peer, on the one-level and the two-level machine
// with 2 to 64 CPUs — and every probe the filter makes finds the line, while
// probing every peer finds nothing often. The filter always says what the
// arrays hold and what a filter rebuilt from them says, and a system restored
// from a snapshot taken in mid-stream rebuilds it and goes on in step. The
// stream has frames change private owners, become shared, lines of shared
// frames lose their last holder, and writes invalidate several holders.
func TestHolderFilterIsExact(t *testing.T) {
	// The handed-on frames are swept a line at a time, turn frames in a row
	// by one CPU and then by the next, of handed in rotation: by the time a
	// frame comes round again its last sweeper has swept turn-1 others since,
	// which evicts it even at the first level.
	const frames, steps, handed, turn = 64, 60000, 5, 4
	for _, mk := range []func(int) Config{SimpleConfig, SMPConfig} {
		for _, cpus := range []int{2, 3, 4, 8, 64} {
			cfg := tiny(mk(cpus))
			t.Run(fmt.Sprintf("%s/%d", New(cfg).Name(), cpus), func(t *testing.T) {
				base := max(frames, 8+2*cpus)
				limit := uint64(base + handed)
				rng := rand.New(rand.NewSource(int64(cpus)))
				filter, all := New(cfg), New(cfg)
				all.probeAll = true
				systems := []*System{filter, all}
				var now event.Cycle

				// What the stream has exercised, read off the records (every
				// step) and the masks (every check) of the frames below limit.
				var ownerChanged, madeShared, lineEmptied, multiInvalidated bool
				before := make([]frameHolders, limit)
				lastOwner := map[uint64]int{} // of frames held privately, until shared
				masks := map[uint64][]uint64{}
				sweep := 0
				for i := 0; i < steps; i++ {
					// A hot shared region, a private region per CPU, a long
					// tail that evicts both, and the frames handed on.
					cpu := rng.Intn(cpus)
					var pa mem.PhysAddr
					switch rng.Intn(5) {
					case 0:
						pa = mem.PhysAddr(rng.Intn(64)) * 32
					case 1, 2:
						pa = mem.PhysAddr(8+cpus+cpu)<<mem.PageShift + mem.PhysAddr(rng.Intn(128))*32
					case 3:
						pa = mem.PhysAddr(rng.Intn(frames<<mem.PageShift)) &^ 3
					default:
						cpu = sweep / (128 * turn) % cpus
						pa = mem.PhysAddr(base+sweep/128%handed)<<mem.PageShift + mem.PhysAddr(sweep%128)*32
						sweep++
					}
					write := rng.Intn(3) == 0
					if write {
						peers := 0
						for c := 0; c < cpus; c++ {
							if c != cpu && filter.CacheState(c, pa) != cache.Invalid {
								peers++
							}
						}
						multiInvalidated = multiInvalidated || peers > 1
					}
					for f := range before {
						before[f] = *filter.frame(uint64(f))
					}

					var done event.Cycle
					for k, s := range systems {
						d := s.Access(now, cpu, pa, write)
						if k > 0 && d != done {
							t.Fatalf("step %d: cpu %d %#x write=%v done at %d, system %d at %d", i, cpu, uint64(pa), write, done, k, d)
						}
						if k > 0 && tally(s) != tally(filter) {
							t.Fatalf("step %d: system %d counts %v, the filter's %v", i, k, tally(s), tally(filter))
						}
						done = d
					}
					now += event.Cycle(rng.Intn(4))
					if err := filter.CheckCoherence(pa); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
					for k, s := range systems {
						if s.vain != 0 && !s.probeAll {
							t.Fatalf("step %d: system %d's filter named a peer without the line %d times", i, k, s.vain)
						}
					}

					for f := range before {
						was, h := before[f], *filter.frame(uint64(f))
						madeShared = madeShared || was.slot == 0 && h.slot != 0
						switch {
						case h.slot != 0:
							delete(lastOwner, uint64(f))
						case h.lines > 0:
							if o, ok := lastOwner[uint64(f)]; ok && o != int(h.owner) {
								ownerChanged = true
							}
							lastOwner[uint64(f)] = int(h.owner)
						}
					}
					if i%50 == 0 {
						for f := uint64(0); f < limit; f++ {
							h := filter.frame(f)
							if h.slot == 0 {
								delete(masks, f)
								continue
							}
							base := int(h.slot-1) << filter.slotShift
							cur := filter.masks[base : base+1<<filter.slotShift]
							for l, m := range masks[f] {
								lineEmptied = lineEmptied || m != 0 && cur[l] == 0
							}
							masks[f] = append(masks[f][:0], cur...)
						}
					}

					if i == steps/2 {
						// A third system joins from a snapshot of the first.
						restored := New(cfg)
						if err := restored.Restore(filter.Snapshot()); err != nil {
							t.Fatal(err)
						}
						if err := rebuiltErr(restored, limit); err != nil {
							t.Fatalf("the restored system: %v", err)
						}
						systems = append(systems, restored)
					}
					if i%5000 == 0 || i == steps-1 {
						for k, s := range systems {
							if err := rebuiltErr(s, limit); err != nil {
								t.Fatalf("step %d, system %d: %v", i, k, err)
							}
						}
					}
				}
				for k, s := range systems[1:] {
					if got, want := counters(s), counters(filter); got != want {
						t.Errorf("system %d's counters:\n%s\nwith the filter:\n%s", k+1, got, want)
					}
				}
				if all.vain == 0 {
					t.Error("probing every peer never found a line missing: the filter skipped nothing")
				}
				for what, seen := range map[string]bool{
					"a private frame changing owner":       ownerChanged,
					"a private frame becoming shared":      madeShared,
					"a shared line losing its last holder": lineEmptied,
					"a write invalidating several holders": multiInvalidated || cpus == 2, // one peer to invalidate
				} {
					if !seen {
						t.Errorf("the stream never had %s", what)
					}
				}
				if filter.invalidations == 0 || filter.snoopsSupplied == 0 {
					t.Errorf("%d invalidations, %d lines supplied by a peer: the stream should share", filter.invalidations, filter.snoopsSupplied)
				}
			})
		}
	}
}

// tiny shrinks a configuration's caches until a few frames overflow them, so
// that victims at both levels are the common case.
func tiny(cfg Config) Config {
	cfg.L1.Size = 1 << 10
	if cfg.L2.Size > 0 {
		cfg.L2.Size = 4 << 10
	}
	return cfg
}

// upgrade makes the Shared line containing pa Modified and moves no stamp, as
// the two-walk path's cache.Upgrade did: by way of a snapshot, the array not
// being this package's to write.
func upgrade(c *cache.Cache, pa mem.PhysAddr) {
	cfg, sn := c.Config(), c.Snapshot()
	sets := uint64(cfg.Size / (cfg.LineSize * cfg.Assoc))
	num := uint64(pa) / uint64(cfg.LineSize)
	set := sn.Lines[num%sets*uint64(cfg.Assoc):][:cfg.Assoc]
	for i := range set {
		if set[i].State == uint8(cache.Shared) && set[i].Tag == num/sets {
			set[i].State = uint8(cache.Modified)
			if err := c.Restore(sn); err != nil {
				panic(err)
			}
			return
		}
	}
	panic(fmt.Sprintf("upgrade: no Shared line at %#x", uint64(pa)))
}

// twoWalks is Access as it was before a lookup named the way its fill would
// take: every level looked up (cache.Access) and then, at the end, filled by
// another walk of its set (cache.Fill, or the upgrade of the Shared line a
// write found), the holder filter asked again at every step and the
// inclusion probe spelled out. It is the definition reference is held to.
func twoWalks(s *System, now event.Cycle, cpu int, pa mem.PhysAddr, write bool) event.Cycle {
	if write {
		s.stores++
	} else {
		s.loads++
	}
	me := &s.cpus[cpu]
	install := func(level *cache.Cache, st, have cache.State) {
		if have != cache.Invalid {
			if write && have != cache.Modified {
				upgrade(level, pa)
			}
			return
		}
		v := level.Fill(pa, st)
		coherent := level == s.coherenceCache(me)
		if coherent {
			s.gain(s.frame(pa.Frame()), cpu, pa)
		}
		if !v.Valid {
			return
		}
		if coherent {
			s.lose(s.frame(v.Addr.Frame()), cpu, v.Addr)
		}
		if level == me.l2 {
			for off := 0; off < s.cfg.L2.LineSize; off += s.cfg.L1.LineSize {
				if me.l1.Probe(v.Addr+mem.PhysAddr(off), true) == cache.Modified {
					v.Dirty = true
				}
			}
		}
		s.writeback(v)
	}
	t := now + event.Cycle(s.cfg.L1.Latency)
	l1, hit := me.l1.Access(pa, write)
	if hit && (!write || l1 == cache.Modified || l1 == cache.Exclusive) {
		s.l1Hits++
		return t
	}
	l2 := cache.Invalid
	if me.l2 != nil {
		t += event.Cycle(s.cfg.L2.Latency)
		l2, hit = me.l2.Access(pa, write)
		if hit && (!write || l2 == cache.Modified || l2 == cache.Exclusive) {
			s.l2Hits++
			if write {
				l2 = cache.Modified
			}
			install(me.l1, l2, l1)
			return t
		}
	}
	t = s.busAcquire(t)
	st := s.snoopPeers(cpu, pa, write, &t, s.frame(pa.Frame()))
	if me.l2 != nil {
		install(me.l2, st, l2)
	}
	install(me.l1, st, l1)
	return t
}

// reference — one walk a level, the fill going to the way the lookup named,
// the filter's records in hand — leaves the system exactly as twoWalks does:
// same cycles, counters and cache arrays over a random stream, reference by
// reference and in runs, on caches small enough that most fills evict. On
// the two-level machine the second-level victim's inclusion probe then keeps
// emptying ways of the first-level set about to be filled, where the way
// named no longer stands.
func TestOneWalkMatchesTwo(t *testing.T) {
	for _, mk := range []func(int) Config{SimpleConfig, SMPConfig} {
		cfg := tiny(mk(3))
		t.Run(New(cfg).Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			one, two := New(cfg), New(cfg)
			var now event.Cycle
			for i := 0; i < 60000; i++ {
				cpu := rng.Intn(3)
				pa := mem.PhysAddr(rng.Intn(6 << mem.PageShift))
				if rng.Intn(2) == 0 {
					pa = mem.PhysAddr(8+cpu)<<mem.PageShift + pa%(2<<mem.PageShift)
				}
				write := rng.Intn(3) == 0
				n := 1
				if rng.Intn(8) == 0 {
					n += rng.Intn(200) // across a frame boundary or two
				}
				_, _, done := one.AccessRun(now, cpu, pa, 32, n, 1, ^event.Cycle(0), write)
				at := now
				for k := 0; k < n; k++ {
					at = twoWalks(two, at, cpu, pa+mem.PhysAddr(32*k), write) + 1
				}
				if at-1 != done {
					t.Fatalf("step %d: cpu %d, %d lines from %#x, write=%v done at %d, by two walks at %d", i, cpu, n, uint64(pa), write, done, at-1)
				}
				now += event.Cycle(rng.Intn(4))
				if err := one.CheckCoherence(pa); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if i%500 == 0 || i == 59999 {
					if !reflect.DeepEqual(one.Snapshot(), two.Snapshot()) {
						t.Fatalf("step %d: the systems differ", i)
					}
					if err := rebuiltErr(one, 16); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
				}
			}
			if got, want := counters(one), counters(two); got != want {
				t.Errorf("counters:\n%s\nby two walks:\n%s", got, want)
			}
		})
	}
}

// peek is the filter's record of frame f, or nil while its chunk is not
// allocated: a look that allocates nothing.
func peek(s *System, f uint64) *frameHolders {
	if c := f / holderFrames; c < uint64(len(s.holders)) && s.holders[c] != nil {
		return &s.holders[c][f%holderFrames]
	}
	return nil
}

// A fixed sequence crosses, one step at a time, each boundary between what a
// miss does in reference itself and what it leaves to a call: the first line
// of a frame nobody holds, the owner's further lines, a frame whose chunk of
// the filter is not allocated yet, a second CPU's miss making a frame shared,
// a victim from a shared frame, and a shared frame's last line going, which
// gives its slot back and leaves the frame to the next CPU to miss on it
// privately. Before every step the frame's record says which side the miss
// is on, after it what the step made of the record, and a twin that probes
// every peer (probeAll, which never takes the private path) agrees on the
// completion time, the counters and every CPU's state of every line touched.
func TestHolderFilterFastPaths(t *testing.T) {
	const cpus = 4
	for _, mk := range []func(int) Config{SimpleConfig, SMPConfig} {
		cfg := mk(cpus)
		t.Run(New(cfg).Name(), func(t *testing.T) {
			filter, all := New(cfg), New(cfg)
			all.probeAll = true
			co := cfg.L1
			if cfg.L2.Size > 0 {
				co = cfg.L2
			}
			// Lines this far apart share a set of the coherence-level cache.
			stride := mem.PhysAddr(co.Size / co.Assoc)
			line := func(f uint64, l int) mem.PhysAddr {
				return mem.PhysAddr(f)<<mem.PageShift + mem.PhysAddr(l*co.LineSize)
			}
			var now event.Cycle
			var touched []mem.PhysAddr
			ref := func(what string, cpu int, pa mem.PhysAddr, write bool) {
				t.Helper()
				touched = append(touched, pa)
				d1 := filter.Access(now, cpu, pa, write)
				d2 := all.Access(now, cpu, pa, write)
				if d1 != d2 {
					t.Fatalf("%s: cpu %d %#x done at %d, probing every peer at %d", what, cpu, uint64(pa), d1, d2)
				}
				if tally(filter) != tally(all) {
					t.Fatalf("%s: the filter counts %v, probing every peer %v", what, tally(filter), tally(all))
				}
				for _, a := range touched {
					for c := 0; c < cpus; c++ {
						if got, want := filter.CacheState(c, a), all.CacheState(c, a); got != want {
							t.Fatalf("%s: cpu %d holds %#x %v, probing every peer %v", what, c, uint64(a), got, want)
						}
					}
					if err := filter.CheckCoherence(a); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
				}
				if filter.vain != 0 {
					t.Fatalf("%s: the filter named a peer without the line", what)
				}
				now = d1 + 1
			}
			// evict makes cpu's coherence-level cache drop pa's line: as many
			// reads of other lines of its set as the set has ways.
			evict := func(what string, cpu int, pa mem.PhysAddr) {
				t.Helper()
				for k := 1; k <= co.Assoc; k++ {
					ref(what, cpu, pa+mem.PhysAddr(k)*stride, false)
				}
				if st := filter.CacheState(cpu, pa); st != cache.Invalid {
					t.Fatalf("%s: cpu %d still holds %#x %v", what, cpu, uint64(pa), st)
				}
			}
			record := func(what string, f uint64, slot bool, lines int, owner int) {
				t.Helper()
				h := peek(filter, f)
				switch {
				case h == nil:
					t.Fatalf("%s: frame %d has no record", what, f)
				case (h.slot != 0) != slot || int(h.lines) != lines || !slot && lines > 0 && int(h.owner) != owner:
					t.Fatalf("%s: frame %d's record is %+v, want shared=%v lines=%d owner=%d", what, f, *h, slot, lines, owner)
				}
			}
			// mine says whether cpu's miss on frame f takes the private path.
			mine := func(what string, f uint64, cpu int, want bool) {
				t.Helper()
				h := peek(filter, f)
				if got := h == nil || h.mine(cpu); got != want {
					t.Fatalf("%s: before it, cpu %d alone on frame %d is %v, want %v", what, cpu, f, got, want)
				}
			}

			const frame, far = 10, 3*holderFrames + 5 // in chunks 0 and 3

			mine("first line", frame, 0, true)
			ref("first line", 0, line(frame, 0), false)
			record("first line", frame, false, 1, 0)
			if st := filter.CacheState(0, line(frame, 0)); st != cache.Exclusive {
				t.Fatalf("first line: installed %v, want E", st)
			}

			for l := 1; l < 4; l++ {
				mine("owner's further lines", frame, 0, true)
				ref("owner's further lines", 0, line(frame, l), l%2 == 0)
			}
			record("owner's further lines", frame, false, 4, 0)

			if peek(filter, far) != nil {
				t.Fatalf("frame %d's chunk is allocated before anybody asked", far)
			}
			ref("unallocated chunk", 0, line(far, 0), false)
			record("unallocated chunk", far, false, 1, 0)

			mine("second CPU", frame, 1, false)
			ref("second CPU", 1, line(frame, 0), false)
			record("second CPU", frame, true, 5, 0)
			if st := filter.CacheState(0, line(frame, 0)); st != cache.Shared {
				t.Fatalf("second CPU: the owner's copy is %v, want S", st)
			}

			evict("victim from a shared frame", 1, line(frame, 0))
			record("victim from a shared frame", frame, true, 4, 0)
			if m := filter.masks[filter.line(peek(filter, frame), line(frame, 0))]; m != 1 {
				t.Fatalf("victim from a shared frame: line 0's holders are %b, want CPU 0's alone", m)
			}

			mine("sharing the far frame", far, 2, false)
			ref("sharing the far frame", 2, line(far, 0), false)
			record("sharing the far frame", far, true, 2, 0)
			free := len(filter.free)
			evict("the far frame's shared line", 2, line(far, 0))
			record("the far frame's shared line", far, true, 1, 0)
			evict("the far frame's last line", 0, line(far, 0))
			record("the far frame's last line", far, false, 0, 0)
			if len(filter.free) != free+1 {
				t.Fatalf("the far frame's last line: %d free slots, want %d", len(filter.free), free+1)
			}

			mine("private again", far, 3, true)
			ref("private again", 3, line(far, 0), true)
			record("private again", far, false, 1, 3)
			if st := filter.CacheState(3, line(far, 0)); st != cache.Modified {
				t.Fatalf("private again: installed %v, want M", st)
			}

			if err := rebuiltErr(filter, far+1); err != nil {
				t.Fatal(err)
			}
			if got, want := counters(filter), counters(all); got != want {
				t.Errorf("counters:\n%s\nprobing every peer:\n%s", got, want)
			}
		})
	}
}
