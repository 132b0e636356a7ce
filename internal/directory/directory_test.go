package directory

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

func sys() *System { return New(DefaultConfig(4, 1), nil) }

func TestLocalVsRemoteMissLatency(t *testing.T) {
	s := sys()
	// Frame 0 homes at node 0 (address interleave). CPU 0 is node 0.
	tLocal := s.Access(0, 0, mem.PhysAddr(0), false)
	s2 := sys()
	// Frame 1 homes at node 1; access from CPU 0 → remote.
	tRemote := s2.Access(0, 0, mem.PhysAddr(1)<<mem.PageShift, false)
	if tRemote <= tLocal {
		t.Errorf("remote miss (%d) not slower than local (%d)", tRemote, tLocal)
	}
	if s.localMiss != 1 || s2.remoteMiss != 1 {
		t.Error("miss locality counters wrong")
	}
}

func TestExclusiveGrantAndSilentUpgrade(t *testing.T) {
	s := sys()
	now := s.Access(0, 0, 0x100, false)
	if s.CacheState(0, 0x100) != cache.Exclusive {
		t.Fatalf("sole reader got %v, want E", s.CacheState(0, 0x100))
	}
	// A write hit on the Exclusive line must not touch the network.
	msgs := s.net.Messages
	now = s.Access(now, 0, 0x100, true)
	if s.net.Messages != msgs {
		t.Error("E→M upgrade went to the network")
	}
	if s.CacheState(0, 0x100) != cache.Modified {
		t.Fatalf("after write: %v", s.CacheState(0, 0x100))
	}
	_ = now
}

func TestThreeHopForwarding(t *testing.T) {
	s := sys()
	now := s.Access(0, 1, mem.PhysAddr(2)<<mem.PageShift, true) // CPU1 dirties line homed at node 2
	if s.CacheState(1, mem.PhysAddr(2)<<mem.PageShift) != cache.Modified {
		t.Fatal("writer does not own line")
	}
	now = s.Access(now, 3, mem.PhysAddr(2)<<mem.PageShift, false) // CPU3 reads: home 2, owner 1
	if s.threeHop != 1 {
		t.Errorf("threeHop = %d, want 1", s.threeHop)
	}
	la := mem.PhysAddr(2) << mem.PageShift
	if s.CacheState(1, la) != cache.Shared || s.CacheState(3, la) != cache.Shared {
		t.Errorf("post-forward states: %v %v", s.CacheState(1, la), s.CacheState(3, la))
	}
	if s.writebacks == 0 {
		t.Error("dirty forward did not write back to home")
	}
	if err := s.CheckCoherence(la); err != nil {
		t.Error(err)
	}
}

func TestWriteInvalidatesAllSharers(t *testing.T) {
	s := New(DefaultConfig(4, 2), nil) // 8 CPUs
	var now event.Cycle
	pa := mem.PhysAddr(0x40)
	for cpu := 0; cpu < 8; cpu++ {
		now = s.Access(now, cpu, pa, false)
	}
	now = s.Access(now, 5, pa, true)
	for cpu := 0; cpu < 8; cpu++ {
		want := cache.Invalid
		if cpu == 5 {
			want = cache.Modified
		}
		if got := s.CacheState(cpu, pa); got != want {
			t.Errorf("cpu %d: %v, want %v", cpu, got, want)
		}
	}
	if err := s.CheckCoherence(pa); err != nil {
		t.Error(err)
	}
	_ = now
}

func TestFirstTouchHomeFunc(t *testing.T) {
	phys := mem.NewPhysical(64, 4, mem.PlaceFirstTouch)
	for i := 0; i < 8; i++ {
		phys.AllocFrame()
	}
	home := func(frame uint64, node int) int { return phys.Touch(frame, node) }
	s := New(DefaultConfig(4, 1), home)
	// CPU 3 (node 3) touches frame 5 first → node 3 becomes its home; a
	// later access from CPU 3 is a local miss.
	pa := mem.PhysAddr(5) << mem.PageShift
	s.Access(0, 3, pa, false)
	if phys.Home(5) != 3 {
		t.Fatalf("first-touch home = %d, want 3", phys.Home(5))
	}
	if s.localMiss != 1 || s.remoteMiss != 0 {
		t.Errorf("first touch not local: local=%d remote=%d", s.localMiss, s.remoteMiss)
	}
}

func TestCountersAndName(t *testing.T) {
	s := sys()
	s.Access(0, 0, 0x0, true)
	var c stats.Counters
	s.AddCounters(&c)
	if c.Get("ccnuma.stores") != 1 {
		t.Error("stores counter missing")
	}
	if s.Name() != "ccnuma" || len(s.cpus) != 4 {
		t.Error("identity wrong")
	}
	if s.NodeOf(3) != 3 {
		t.Error("NodeOf wrong")
	}
	if s.Net() == nil {
		t.Error("Net() nil")
	}
}

func TestTopologyValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("65-CPU config accepted")
		}
	}()
	New(DefaultConfig(65, 1), nil)
}

func TestPageMigration(t *testing.T) {
	phys := mem.NewPhysical(64, 4, mem.PlaceRoundRobin)
	for i := 0; i < 16; i++ {
		phys.AllocFrame()
	}
	cfg := DefaultConfig(4, 1)
	cfg.MigrateThreshold = 4
	cfg.MigrateCost = 5000
	home := func(frame uint64, node int) int { return phys.Touch(frame, node) }
	s := New(cfg, home)
	s.SetMigrator(func(frame uint64, node int) { phys.SetHome(frame, node) })

	// Frame 1 homes at node 1 (round-robin). CPU 3 hammers it: after the
	// threshold the page must move to node 3 and later misses go local.
	pa := mem.PhysAddr(1) << mem.PageShift
	var now event.Cycle
	// Evict between accesses by touching conflicting lines so every access
	// is an L2 miss (single CPU cache would otherwise absorb them).
	for i := 0; i < 12; i++ {
		now = s.Access(now, 3, pa+mem.PhysAddr((i%64)*64), false)
	}
	if s.migrations != 1 {
		t.Fatalf("migrations = %d, want 1", s.migrations)
	}
	if phys.Home(1) != 3 {
		t.Fatalf("frame 1 homed at %d, want 3", phys.Home(1))
	}
	localBefore := s.localMiss
	now = s.Access(now, 3, pa+50*64, false) // fresh line, now local
	_ = now
	if s.localMiss != localBefore+1 {
		t.Error("post-migration miss not local")
	}
	// Invariants must hold for the flushed lines.
	for off := 0; off < mem.PageSize; off += 64 {
		if err := s.CheckCoherence(pa + mem.PhysAddr(off)); err != nil {
			t.Error(err)
		}
	}
}

// Property: after any access sequence over a small hot set, every line
// satisfies SWMR and directory-cache agreement.
func TestQuickDirectoryCoherence(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(DefaultConfig(4, 2), nil)
		var now event.Cycle
		touched := map[mem.PhysAddr]bool{}
		for i := 0; i < int(n)+32; i++ {
			// Hot lines spread over several frames → different homes.
			pa := mem.PhysAddr(rng.Intn(16))*mem.PageSize + mem.PhysAddr(rng.Intn(4))*64
			cpu := rng.Intn(8)
			now = s.Access(now, cpu, pa, rng.Intn(3) == 0)
			touched[s.lineAddr(pa)] = true
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

// Property: access completion time is strictly after issue time and the
// model is deterministic under replay.
func TestQuickDeterministicTiming(t *testing.T) {
	f := func(seed int64) bool {
		run := func() event.Cycle {
			rng := rand.New(rand.NewSource(seed))
			s := New(DefaultConfig(4, 1), nil)
			var now event.Cycle
			for i := 0; i < 64; i++ {
				pa := mem.PhysAddr(rng.Intn(2048)) * 32
				done := s.Access(now, rng.Intn(4), pa, rng.Intn(2) == 0)
				if done <= now {
					return 0
				}
				now = done
			}
			return now
		}
		a, b := run(), run()
		return a != 0 && a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// A line can outlive its frame: munmap frees a region's private frames with
// their lines still cached, and the home function then answers
// mem.HomeUnassigned for them. When such a line falls out of the L2 there is
// no directory to tell and nothing worth writing back; the L1 copy goes with
// it all the same (inclusion).
func TestEvictingALineOfAFreedFrame(t *testing.T) {
	for _, freed := range []bool{false, true} {
		gone := ^uint64(0)
		s := New(DefaultConfig(2, 1), func(frame uint64, _ int) int {
			if frame == gone {
				return mem.HomeUnassigned
			}
			return int(frame % 2)
		})
		const x = mem.PhysAddr(6)<<mem.PageShift + 0x140
		now := s.Access(0, 0, x, true)
		if freed {
			gone = x.Frame()
		}
		// Four more lines of x's L2 set push it out, oldest first; a hit in
		// the L1 between them keeps x there (its set is theirs too) without
		// making it any younger in the L2.
		setStride := mem.PhysAddr(s.cfg.L2.Size / s.cfg.L2.Assoc)
		for k := 1; k <= s.cfg.L2.Assoc; k++ {
			if s.CacheState(0, x) != cache.Modified {
				t.Fatalf("freed=%v: x left the caches before conflict %d", freed, k)
			}
			now = s.Access(now, 0, x, false)
			now = s.Access(now, 0, x+mem.PhysAddr(k)*setStride, false)
		}
		if got := s.cpus[0].l2.Lookup(x); got != cache.Invalid {
			t.Fatalf("freed=%v: x is still %v in the L2", freed, got)
		}
		if got := s.cpus[0].l1.Lookup(x); got != cache.Invalid {
			t.Errorf("freed=%v: x is still %v in the L1 after its L2 line was evicted", freed, got)
		}
		want := uint64(1)
		if freed {
			want = 0
		}
		if s.writebacks != want {
			t.Errorf("freed=%v: %d write-backs, want %d", freed, s.writebacks, want)
		}
	}
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

// twoWalks drives a system by Access as it was before a lookup named the way
// its fill would take, and keeps count of what its stream made it do.
type twoWalks struct {
	s *System
	// upgrades counts the Shared lines a store made Modified, lost the
	// references whose page migrated and took with it a line the lookups had
	// found, flushed the migrations that emptied ways of the requester's own
	// caches between its lookups and its fills.
	upgrades, lost, flushed int
}

// install is what cache.Install was: a fill of the absent line, the upgrade of
// a Shared line written to, by a walk of the set either way.
func (r *twoWalks) install(c *cache.Cache, pa mem.PhysAddr, st, have cache.State, write bool) cache.Victim {
	if have == cache.Invalid {
		return c.Fill(pa, st)
	}
	if write && have != cache.Modified {
		upgrade(c, pa)
		r.upgrades++
	}
	return cache.Victim{}
}

// access is that Access: both levels looked up (cache.Access) and, at the
// end, filled by another walk of their sets, the two looked up once more
// after a migration, whose flush spares no cache. It is the definition
// System.Access is held to.
func (r *twoWalks) access(now event.Cycle, cpu int, pa mem.PhysAddr, write bool) event.Cycle {
	s := r.s
	if write {
		s.stores++
	} else {
		s.loads++
	}
	me := &s.cpus[cpu]
	t := now + event.Cycle(s.cfg.L1.Latency)
	l1, hit := me.l1.Access(pa, write)
	if hit && (!write || l1 == cache.Modified || l1 == cache.Exclusive) {
		s.l1Hits++
		return t
	}
	t += event.Cycle(s.cfg.L2.Latency)
	l2, hit := me.l2.Access(pa, write)
	if hit && (!write || l2 == cache.Modified || l2 == cache.Exclusive) {
		s.l2Hits++
		r.install(me.l1, pa, l2, l1, write)
		return t
	}

	node := s.NodeOf(cpu)
	line := s.lineAddr(pa)
	homeNode := s.home(pa.Frame(), node)
	t = s.busses[node].Acquire(t, BusCycles)
	if homeNode == node {
		s.localMiss++
	} else {
		s.remoteMiss++
		t = s.net.Send(t, node, homeNode, CtrlBytes)
		if s.cfg.MigrateThreshold > 0 && s.migrate != nil {
			held := me.l1.Occupancy() + me.l2.Occupancy()
			t, homeNode = s.maybeMigrate(t, pa.Frame(), node, homeNode)
			if me.l1.Occupancy()+me.l2.Occupancy() < held {
				r.flushed++
			}
			if was := l1; me.l1.Lookup(pa) != was {
				r.lost++
			}
			l1, l2 = me.l1.Lookup(pa), me.l2.Lookup(pa)
		}
	}
	t += DirCycles
	e := s.entry(homeNode, line)
	t = s.protocol(t, e, cpu, node, homeNode, line, write)

	st := cache.Shared
	if write {
		st = cache.Modified
	} else if e.state == dirOwned && e.owner == cpu {
		st = cache.Exclusive
	}
	if v := r.install(me.l2, pa, st, l2, write); l2 == cache.Invalid {
		s.evict(cpu, v)
	}
	r.install(me.l1, pa, st, l1, write)
	return t
}

// Access — one walk a level, the fills going to the ways the lookups named
// unless lines were invalidated under them — leaves the system exactly as
// twoWalks does: same completion cycle reference by reference, same counters
// and snapshots, every touched line coherent, over a random stream of four
// CPUs on two nodes with private regions, a shared one and a few hot lines
// everybody reads and writes, on caches small enough that most fills evict:
// the second-level victim's inclusion probe keeps emptying ways of the
// first-level set about to be filled. With migration on, pages keep moving to
// the node that misses on them, and the flush takes lines out of the
// requester's own sets between its lookups and its fills, now and then the
// Shared line it is about to upgrade.
func TestOneWalkMatchesTwo(t *testing.T) {
	for _, threshold := range []int{0, 6} {
		t.Run(fmt.Sprintf("migrate=%d", threshold), func(t *testing.T) {
			const cpus, frames = 4, 32
			mk := func() *System {
				phys := mem.NewPhysical(frames, 2, mem.PlaceRoundRobin)
				for i := 0; i < frames; i++ {
					phys.AllocFrame()
				}
				cfg := DefaultConfig(2, cpus/2)
				cfg.L1.Size, cfg.L2.Size = 1<<10, 4<<10
				cfg.MigrateThreshold, cfg.MigrateCost = threshold, 5000
				s := New(cfg, func(frame uint64, node int) int { return phys.Touch(frame, node) })
				s.SetMigrator(func(frame uint64, node int) { phys.SetHome(frame, node) })
				return s
			}
			rng := rand.New(rand.NewSource(5))
			one, two := mk(), &twoWalks{s: mk()}
			touched := map[mem.PhysAddr]bool{}
			var now event.Cycle
			for i := 0; i < 60000; i++ {
				cpu := rng.Intn(cpus)
				pa := mem.PhysAddr(rng.Intn(6 << mem.PageShift))
				switch rng.Intn(4) {
				case 0: // a few hot lines of two pages, read by all and written to
					pa = mem.PhysAddr(6)<<mem.PageShift + pa%8*1024
				case 1, 2:
					pa = mem.PhysAddr(8+2*cpu)<<mem.PageShift + pa%(2<<mem.PageShift)
				}
				write := rng.Intn(3) == 0
				done, want := one.Access(now, cpu, pa, write), two.access(now, cpu, pa, write)
				if done != want {
					t.Fatalf("step %d: cpu %d %#x write=%v done at %d, by two walks at %d", i, cpu, uint64(pa), write, done, want)
				}
				now += event.Cycle(rng.Intn(4))
				touched[one.lineAddr(pa)] = true
				for _, s := range []*System{one, two.s} { // both: a check leaves a directory entry behind
					if err := s.CheckCoherence(pa); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
				}
				if (i%500 == 0 || i == 59999) && !reflect.DeepEqual(one.Snapshot(), two.s.Snapshot()) {
					t.Fatalf("step %d: the systems differ", i)
				}
			}
			for pa := range touched {
				if err := one.CheckCoherence(pa); err != nil {
					t.Error(err)
				}
			}
			var c1, c2 stats.Counters
			one.AddCounters(&c1)
			two.s.AddCounters(&c2)
			if c1.String() != c2.String() {
				t.Errorf("counters:\n%s\nby two walks:\n%s", &c1, &c2)
			}
			var evictions uint64
			for _, c := range one.cpus {
				evictions += c.l2.Evictions
			}
			if evictions == 0 || one.writebacks == 0 || two.upgrades == 0 {
				t.Errorf("%d second-level evictions, %d writebacks, %d upgrades of Shared lines: the stream should do all of these", evictions, one.writebacks, two.upgrades)
			}
			if threshold > 0 && (one.migrations == 0 || two.flushed == 0 || two.lost == 0) {
				t.Errorf("%d migrations, %d that flushed lines of the requester's, %d that took a line its lookups had found: the stream should do all of these", one.migrations, two.flushed, two.lost)
			}
			t.Logf("%d evictions, %d upgrades, %d migrations (%d flushed the requester's lines, %d took the line)", evictions, two.upgrades, one.migrations, two.flushed, two.lost)
		})
	}
}
