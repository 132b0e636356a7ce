package coma

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

func sys() *System { return New(DefaultConfig(4, 1)) }

func TestColdFetchThenAttraction(t *testing.T) {
	s := sys()
	pa := mem.PhysAddr(0x1000)
	s.Access(0, 0, pa, false)
	if s.coldFetch != 1 {
		t.Fatalf("coldFetch = %d, want 1", s.coldFetch)
	}
	if s.Holders(pa) != 1 {
		t.Fatalf("holders = %#x, want node 0 only", s.Holders(pa))
	}
	// L1 was filled too; evict nothing, second access is an L1 hit.
	before := s.l1Hits
	s.Access(100, 0, pa, false)
	if s.l1Hits != before+1 {
		t.Error("second access not an L1 hit")
	}
}

func TestLineMigratesViaRemoteFetch(t *testing.T) {
	s := sys()
	pa := mem.PhysAddr(0x2000)
	now := s.Access(0, 0, pa, false)  // node 0 attracts the line
	now = s.Access(now, 2, pa, false) // node 2 fetches from node 0's AM
	if s.remoteFetch != 1 {
		t.Fatalf("remoteFetch = %d, want 1", s.remoteFetch)
	}
	if s.Holders(pa) != (1 | 1<<2) {
		t.Fatalf("holders = %#x, want nodes 0 and 2", s.Holders(pa))
	}
	if err := s.CheckInvariant(pa); err != nil {
		t.Error(err)
	}
}

func TestWriteInvalidatesOtherAMs(t *testing.T) {
	s := sys()
	pa := mem.PhysAddr(0x3000)
	var now event.Cycle
	for n := 0; n < 4; n++ {
		now = s.Access(now, n, pa, false)
	}
	if s.Holders(pa) != 0xF {
		t.Fatalf("holders before write = %#x", s.Holders(pa))
	}
	now = s.Access(now, 1, pa, true)
	if s.Holders(pa) != 1<<1 {
		t.Fatalf("holders after write = %#x, want node 1 only", s.Holders(pa))
	}
	if s.invalidations == 0 {
		t.Error("no invalidations recorded")
	}
	if err := s.CheckInvariant(pa); err != nil {
		t.Error(err)
	}
	_ = now
}

func TestDirtyReadDowngradesSupplier(t *testing.T) {
	s := sys()
	pa := mem.PhysAddr(0x4000)
	now := s.Access(0, 0, pa, true)   // node 0 owns dirty
	now = s.Access(now, 3, pa, false) // node 3 reads
	if err := s.CheckInvariant(pa); err != nil {
		t.Error(err)
	}
	if s.Holders(pa) != (1 | 1<<3) {
		t.Errorf("holders = %#x", s.Holders(pa))
	}
	_ = now
}

func TestSiblingL1Invalidation(t *testing.T) {
	s := New(DefaultConfig(2, 2)) // 2 nodes × 2 CPUs
	pa := mem.PhysAddr(0x5000)
	now := s.Access(0, 0, pa, false)  // CPU0 (node 0) reads
	now = s.Access(now, 1, pa, false) // CPU1 (node 0) reads: AM hit
	inv := s.invalidations
	now = s.Access(now, 0, pa, true) // CPU0 writes: CPU1's L1 must go
	if s.invalidations <= inv {
		t.Error("sibling L1 not invalidated")
	}
	// CPU1's next read must miss L1 (and hit the AM).
	l1h := s.l1Hits
	s.Access(now, 1, pa, false)
	if s.l1Hits != l1h {
		t.Error("CPU1 read stale L1 line after sibling write")
	}
}

func TestCounters(t *testing.T) {
	s := sys()
	s.Access(0, 0, 0x10, true)
	var c stats.Counters
	s.AddCounters(&c)
	if c.Get("coma.stores") != 1 || s.Name() != "coma" {
		t.Error("counters or name wrong")
	}
}

func TestBadTopologyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(DefaultConfig(0, 1))
}

// The span loops assume an attraction-memory line at least as wide as an L1
// line, and lines are homed by their number whatever their width.
func TestAMLineWidth(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	cfg.AM.LineSize = 128
	s := New(cfg)
	for i := 0; i < 8; i++ {
		if got := s.homeOf(mem.PhysAddr(i * 128)); got != i%4 {
			t.Errorf("128-byte line %d homed at node %d, want %d", i, got, i%4)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a 16-byte attraction-memory line under a 32-byte L1 line was accepted")
		}
	}()
	cfg.AM.LineSize = 16
	New(cfg)
}

// Property: holder-set and single-owner invariants survive any random
// access mix, and holders are always a subset of the directory's view.
func TestQuickComaInvariant(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(DefaultConfig(4, 2))
		var now event.Cycle
		touched := map[mem.PhysAddr]bool{}
		for i := 0; i < int(n)+32; i++ {
			pa := mem.PhysAddr(rng.Intn(64)) * 64
			now = s.Access(now, rng.Intn(8), pa, rng.Intn(3) == 0)
			touched[pa] = true
		}
		for pa := range touched {
			if err := s.CheckInvariant(pa); err != nil {
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

// Property: repeated access from one node converges to L1/AM hits — the
// line is "attracted" (no network traffic in steady state).
func TestQuickAttractionSteadyState(t *testing.T) {
	f := func(addr uint16) bool {
		s := sys()
		pa := mem.PhysAddr(addr) * 64
		now := s.Access(0, 1, pa, false)
		msgs := s.net.Messages
		for i := 0; i < 5; i++ {
			now = s.Access(now, 1, pa, false)
		}
		return s.net.Messages == msgs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
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
// its fill would take, and keeps count of what its stream made it do:
// upgrades of Shared lines at either level, and displacements that emptied
// ways of the requester's own L1 between its lookup and its fill.
type twoWalks struct {
	s                 *System
	upgrades, emptied int
}

// access is that Access: the L1 and the attraction memory looked up
// (cache.Access) and then filled, or the Shared line a store found upgraded,
// by another walk of their sets. It is the definition System.Access is held
// to.
func (r *twoWalks) access(now event.Cycle, cpu int, pa mem.PhysAddr, write bool) event.Cycle {
	s := r.s
	if write {
		s.stores++
	} else {
		s.loads++
	}
	node := s.NodeOf(cpu)
	l1 := s.l1s[cpu]
	t := now + event.Cycle(s.cfg.L1.Latency)
	have, hit := l1.Access(pa, write)
	if hit && (!write || have == cache.Modified || have == cache.Exclusive) {
		s.l1Hits++
		return t
	}

	line := s.lineAddr(pa)
	am := s.ams[node]
	t += AMCycles
	e := s.entry(line)

	amState, amHit := am.Access(line, write)
	switch {
	case amHit && (!write || amState == cache.Modified || amState == cache.Exclusive):
		s.amHits++
	case amHit && write:
		t = s.invalidateOthers(t, e, node, line)
		upgrade(am, line)
		r.upgrades++
		e.holders = 1 << uint(node)
		e.owner = node
	default:
		home := s.homeOf(line)
		if home != node {
			t = s.net.Send(t, node, home, CtrlBytes)
		}
		t += DirCycles
		supplier := s.pickSupplier(e, node)
		if supplier >= 0 {
			s.remoteFetch++
			if supplier != home {
				t = s.net.Send(t, home, supplier, CtrlBytes)
			}
			t += AMCycles
			t = s.net.Send(t, supplier, node, s.cfg.AM.LineSize+CtrlBytes)
			if !write {
				s.ams[supplier].Probe(line, false)
				for c := supplier * s.cfg.CPUsPerNode; c < (supplier+1)*s.cfg.CPUsPerNode; c++ {
					for off := 0; off < s.cfg.AM.LineSize; off += s.cfg.L1.LineSize {
						s.l1s[c].Probe(line+mem.PhysAddr(off), false)
					}
				}
			}
		} else {
			s.coldFetch++
			t = s.memc[home].Acquire(t, MemCycles)
			if home != node {
				t = s.net.Send(t, home, node, s.cfg.AM.LineSize+CtrlBytes)
			}
		}
		st := cache.Shared
		if write {
			t = s.invalidateOthers(t, e, node, line)
			st = cache.Modified
			e.holders = 0
			e.owner = node
		}
		if v := am.Fill(line, st); v.Valid {
			held := l1.Occupancy()
			s.displace(node, v.Addr)
			if l1.Occupancy() < held {
				r.emptied++
			}
		}
		e.holders |= 1 << uint(node)
	}

	if write {
		for c := node * s.cfg.CPUsPerNode; c < (node+1)*s.cfg.CPUsPerNode; c++ {
			if c != cpu && s.l1s[c].Probe(pa, true) != cache.Invalid {
				s.invalidations++
			}
		}
	}

	switch {
	case have != cache.Invalid:
		upgrade(l1, pa)
		r.upgrades++
	case write:
		l1.Fill(pa, cache.Modified)
	default:
		l1.Fill(pa, cache.Shared)
	}
	return t
}

// Access — one walk a level, the fills going to the ways the lookups named
// unless lines were invalidated under them — leaves the system exactly as
// twoWalks does: same completion cycle reference by reference, same counters
// and snapshots, the invariant on every touched line, over a random stream
// of four CPUs on two nodes with private regions, a shared one and a few hot
// lines everybody reads and writes. The attraction memories hold 64 lines
// each, so that nearly every fill of one displaces a line, and the
// displacement invalidates that line's copies in the L1 of every CPU of the
// node, the requester's included, between its lookup and its fill.
func TestOneWalkMatchesTwo(t *testing.T) {
	const cpus = 4
	cfg := DefaultConfig(2, cpus/2)
	cfg.L1.Size, cfg.AM.Size = 1<<10, 4<<10
	rng := rand.New(rand.NewSource(5))
	one, two := New(cfg), &twoWalks{s: New(cfg)}
	touched := map[mem.PhysAddr]bool{}
	var now event.Cycle
	for i := 0; i < 60000; i++ {
		cpu := rng.Intn(cpus)
		pa := mem.PhysAddr(rng.Intn(6 << mem.PageShift))
		switch rng.Intn(4) {
		case 0:
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
		for _, s := range []*System{one, two.s} { // both: a check may leave a directory entry behind
			if err := s.CheckInvariant(pa); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		if (i%500 == 0 || i == 59999) && !reflect.DeepEqual(one.Snapshot(), two.s.Snapshot()) {
			t.Fatalf("step %d: the systems differ", i)
		}
	}
	for pa := range touched {
		if err := one.CheckInvariant(pa); err != nil {
			t.Error(err)
		}
	}
	var c1, c2 stats.Counters
	one.AddCounters(&c1)
	two.s.AddCounters(&c2)
	if c1.String() != c2.String() {
		t.Errorf("counters:\n%s\nby two walks:\n%s", &c1, &c2)
	}
	displaced := one.ams[0].Evictions + one.ams[1].Evictions
	if displaced == 0 || two.emptied == 0 || two.upgrades == 0 || one.remoteFetch == 0 {
		t.Errorf("%d displacements, %d that emptied ways of the requester's L1, %d upgrades of Shared lines, %d remote fetches: the stream should do all of these", displaced, two.emptied, two.upgrades, one.remoteFetch)
	}
	t.Logf("%d displacements, %d that emptied ways of the requester's L1, %d upgrades of Shared lines, %d remote fetches", displaced, two.emptied, two.upgrades, one.remoteFetch)
}
