package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"compass/internal/mem"
)

func small() *Cache {
	return New(Config{Size: 1024, LineSize: 32, Assoc: 2, Latency: 1}) // 16 sets
}

func TestConfigCheck(t *testing.T) {
	bad := []Config{
		{Size: 1024, LineSize: 33, Assoc: 2}, // line not pow2
		{Size: 1024, LineSize: 32, Assoc: 0}, // zero assoc
		{Size: 1000, LineSize: 32, Assoc: 2}, // sets not pow2
		{Size: 16, LineSize: 32, Assoc: 2},   // zero sets
	}
	for i, cfg := range bad {
		if err := cfg.Check(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	good := Config{Size: 1024, LineSize: 32, Assoc: 2}
	if err := good.Check(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted bad config")
		}
	}()
	New(Config{Size: 100, LineSize: 7, Assoc: 1})
}

func TestMissFillHit(t *testing.T) {
	c := small()
	pa := mem.PhysAddr(0x1040)
	if st, hit := c.Access(pa, false); hit || st != Invalid {
		t.Fatalf("cold access hit: %v %v", st, hit)
	}
	v := c.Fill(pa, Exclusive)
	if v.Valid {
		t.Fatal("fill into empty set evicted")
	}
	if st, hit := c.Access(pa, false); !hit || st != Exclusive {
		t.Fatalf("after fill: %v %v", st, hit)
	}
	// Same line, different offset, still hits.
	if _, hit := c.Access(pa+31, false); !hit {
		t.Fatal("same-line offset missed")
	}
	// Next line misses.
	if _, hit := c.Access(pa+32, false); hit {
		t.Fatal("adjacent line hit")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestWriteHitPromotesExclusive(t *testing.T) {
	c := small()
	pa := mem.PhysAddr(0x40)
	c.Fill(pa, Exclusive)
	if st, _ := c.Access(pa, true); st != Exclusive {
		t.Fatalf("state before write = %v", st)
	}
	if got := c.Lookup(pa); got != Modified {
		t.Fatalf("E not promoted to M on write: %v", got)
	}
}

func TestWriteHitSharedReportsShared(t *testing.T) {
	c := small()
	pa := mem.PhysAddr(0x40)
	c.Fill(pa, Shared)
	st, hit := c.Access(pa, true)
	if !hit || st != Shared {
		t.Fatalf("shared write: st=%v hit=%v", st, hit)
	}
	// Still shared until the protocol has ownership and places the line.
	if c.Lookup(pa) != Shared {
		t.Fatal("shared line silently promoted")
	}
	st, w := c.Touch(pa, true)
	if st != Shared || st.Serves(true) || !st.Serves(false) {
		t.Fatalf("Touch of the shared line for a write: %v", st)
	}
	if v := c.Place(w, pa, Modified, st, true); v.Valid || c.Lookup(pa) != Modified {
		t.Fatalf("Place left %v and evicted %+v", c.Lookup(pa), v)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 2-way, 16 sets, 32B lines: set stride is 512B
	base := mem.PhysAddr(0)
	a, b, d := base, base+512, base+1024 // all map to set 0
	c.Fill(a, Exclusive)
	c.Fill(b, Exclusive)
	c.Access(a, false) // a is now MRU
	v := c.Fill(d, Exclusive)
	if !v.Valid || v.Addr != b {
		t.Fatalf("victim = %+v, want b=%#x", v, uint64(b))
	}
	if c.Lookup(a) == Invalid || c.Lookup(d) == Invalid {
		t.Fatal("wrong lines evicted")
	}
	if c.Lookup(b) != Invalid {
		t.Fatal("b still present")
	}
}

func TestDirtyVictimWriteback(t *testing.T) {
	c := small()
	a, b, d := mem.PhysAddr(0), mem.PhysAddr(512), mem.PhysAddr(1024)
	c.Fill(a, Modified)
	c.Fill(b, Exclusive)
	c.Access(b, false)
	v := c.Fill(d, Exclusive) // evicts a (LRU), which is dirty
	if !v.Dirty || v.Addr != a {
		t.Fatalf("dirty victim = %+v", v)
	}
	if c.Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Writebacks)
	}
}

func TestProbe(t *testing.T) {
	c := small()
	pa := mem.PhysAddr(0x80)
	c.Fill(pa, Modified)
	if prev := c.Probe(pa, false); prev != Modified {
		t.Fatalf("downgrade probe found %v", prev)
	}
	if c.Lookup(pa) != Shared {
		t.Fatal("downgrade did not leave Shared")
	}
	if prev := c.Probe(pa, true); prev != Shared {
		t.Fatalf("invalidate probe found %v", prev)
	}
	if c.Lookup(pa) != Invalid {
		t.Fatal("invalidate did not leave Invalid")
	}
	if prev := c.Probe(0xFF000, true); prev != Invalid {
		t.Fatalf("probe of absent line found %v", prev)
	}
}

// ProbeSpan probes every line under a wider line, wherever in it pa points,
// and no other; it says whether one of them was Modified.
func TestProbeSpan(t *testing.T) {
	c := small() // 32-byte lines
	c.Fill(0x100, Shared)
	c.Fill(0x120, Modified)
	c.Fill(0x160, Exclusive)
	c.Fill(0x180, Modified) // the next 128-byte line
	c.Fill(0x0e0, Modified) // the one before
	if !c.ProbeSpan(0x164, 128, false) {
		t.Error("the downgrade did not report the Modified line of the span")
	}
	for _, pa := range []mem.PhysAddr{0x100, 0x120, 0x160} {
		if got := c.Lookup(pa); got != Shared {
			t.Errorf("%#x is %v after the downgrade", uint64(pa), got)
		}
	}
	if c.ProbeSpan(0x100, 128, true) {
		t.Error("the invalidation found a Modified line after the downgrade")
	}
	if c.Occupancy() != 2 || c.Lookup(0x180) != Modified || c.Lookup(0x0e0) != Modified {
		t.Errorf("%d lines left, the neighbours %v and %v", c.Occupancy(), c.Lookup(0x0e0), c.Lookup(0x180))
	}
}

func TestServes(t *testing.T) {
	for _, s := range []State{Invalid, Shared, Exclusive, Modified} {
		if got, want := s.Serves(false), s != Invalid; got != want {
			t.Errorf("%v serves a load: %v", s, got)
		}
		if got, want := s.Serves(true), s == Exclusive || s == Modified; got != want {
			t.Errorf("%v serves a store: %v", s, got)
		}
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Modified.String() != "M" || Shared.String() != "S" || Exclusive.String() != "E" {
		t.Error("MESI names wrong")
	}
}

// Property: occupancy never exceeds capacity, and a fill always makes the
// filled line present.
func TestQuickFillInvariant(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := small()
		capacity := 1024 / 32
		for i := 0; i < int(n); i++ {
			pa := mem.PhysAddr(rng.Intn(1 << 16))
			pa &^= 31 // line-aligned
			if _, hit := c.Access(pa, rng.Intn(2) == 0); !hit {
				c.Fill(pa, Exclusive)
			}
			if c.Lookup(pa) == Invalid {
				return false
			}
			if c.Occupancy() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the cache is a function of its access history — replaying the
// same sequence gives identical hit/miss counters (determinism).
func TestQuickDeterministicReplay(t *testing.T) {
	f := func(addrs []uint16) bool {
		run := func() (uint64, uint64) {
			c := small()
			for _, a := range addrs {
				pa := mem.PhysAddr(a)
				if _, hit := c.Access(pa, false); !hit {
					c.Fill(pa, Shared)
				}
			}
			return c.Hits, c.Misses
		}
		h1, m1 := run()
		h2, m2 := run()
		return h1 == h2 && m1 == m2 && h1+m1 == uint64(len(addrs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: with a working set smaller than one way per set, nothing is
// ever evicted (LRU never thrashes a fitting working set).
func TestQuickNoEvictionWhenFits(t *testing.T) {
	f := func(rounds uint8) bool {
		c := small() // 16 sets × 2 ways
		// One line per set: 16 lines, fits trivially.
		for r := 0; r < int(rounds%8)+2; r++ {
			for set := 0; set < 16; set++ {
				pa := mem.PhysAddr(set * 32)
				if _, hit := c.Access(pa, false); !hit {
					if v := c.Fill(pa, Shared); v.Valid {
						return false
					}
				}
			}
		}
		return c.Evictions == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// upgrade makes the line containing pa Modified and moves no stamp: what the
// protocol did between an Access that found the line Shared and a second walk.
func upgrade(c *Cache, pa mem.PhysAddr) { c.find(pa).state = Modified }

// Touch and Place — one walk of the set for the lookup and the way the fill
// will take — leave the cache exactly as Access followed by a Lookup and then
// Fill or an upgrade does and return the same victims, under random fills,
// probes that downgrade and invalidate (so that sets have holes at every way)
// and stamps that tie: same victim on a tie, same Hits, Misses, Evictions,
// Writebacks and clock. That holds with lines invalidated between a Touch and
// its Place as well — lines of the set (a way ahead of the one named comes
// free), the line itself (a hit is gone), everything (Flush), or nothing that
// matters (a line elsewhere, a Restore of the cache's own snapshot) — which is
// what an inclusion probe or a page migration does to a processor's cache in
// mid-reference. Rehit is so many write hits, or nothing at all.
func TestOneWalkMatchesAccessThenFill(t *testing.T) {
	four := func() *Cache { return New(Config{Size: 2048, LineSize: 32, Assoc: 4, Latency: 1}) }
	for name, mk := range map[string]func() *Cache{"2-way": small, "4-way": four} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			one, two := mk(), mk()
			// Lines that tie on their stamp, as a restored snapshot may hold
			// them: the victim is the lowest way.
			for _, c := range []*Cache{one, two} {
				for i := range c.sets {
					c.sets[i] = line{tag: uint64(i % c.cfg.Assoc), state: Shared, lru: 5}
				}
				c.clock = 5
			}
			setStride := mem.PhysAddr(one.numSets) * 32
			rehits, refused, upgrades, lost, moved, stood := 0, 0, 0, 0, 0, 0
			for i := 0; i < 40000; i++ {
				pa := mem.PhysAddr(rng.Intn(160))*32 + mem.PhysAddr(rng.Intn(32))
				switch op := rng.Intn(10); {
				case op < 6:
					write := rng.Intn(3) == 0
					st := State(1 + rng.Intn(3))
					if write {
						st = Modified
					}
					have, w := one.Touch(pa, write)
					have2, hit2 := two.Access(pa, write)
					if have != have2 || hit2 != (have != Invalid) {
						t.Fatalf("step %d: Touch reports %v, Access %v/%v", i, have, have2, hit2)
					}
					if have.Serves(write) {
						break
					}
					// Between the lookup and the fill, one time in four.
					switch rng.Intn(16) {
					case 0: // lines of the set, the line itself among them
						for k := rng.Intn(4); k >= 0; k-- {
							at := pa + mem.PhysAddr(rng.Intn(10))*setStride
							if a, b := one.Probe(at, true), two.Probe(at, true); a != b {
								t.Fatalf("step %d: probes found %v and %v", i, a, b)
							}
						}
					case 1: // a line of another set
						one.Probe(pa+32, true)
						two.Probe(pa+32, true)
					case 3:
						if err := one.Restore(one.Snapshot()); err != nil {
							t.Fatal(err)
						}
					}
					var v2 Victim
					switch cur := two.Lookup(pa); {
					case cur == Invalid:
						v2 = two.Fill(pa, st)
						if have != Invalid {
							lost++
						}
					case write:
						upgrade(two, pa)
						upgrades++
					}
					stale := w.gone != one.gone
					if v := one.Place(w, pa, st, have, write); v != v2 {
						t.Fatalf("step %d: victims %+v and %+v", i, v, v2)
					}
					if at := one.find(pa); at != &one.sets[w.at] {
						moved++
					} else if stale {
						stood++
					}
				case op < 8:
					inv := rng.Intn(2) == 0
					if a, b := one.Probe(pa, inv), two.Probe(pa, inv); a != b {
						t.Fatalf("step %d: probes found %v and %v", i, a, b)
					}
				default:
					n := uint64(rng.Intn(4))
					ok := one.Rehit(pa, n)
					if want := two.Lookup(pa) == Modified; ok != want {
						t.Fatalf("step %d: Rehit says %v of a line that is %v", i, ok, two.Lookup(pa))
					}
					if ok {
						rehits++
						for ; n > 0; n-- {
							two.Access(pa, true)
						}
					} else {
						refused++
					}
				}
				if a, b := one.Snapshot(), two.Snapshot(); !reflect.DeepEqual(a, b) {
					t.Fatalf("step %d (%#x): the caches differ", i, uint64(pa))
				}
			}
			if one.Evictions == 0 || one.Writebacks == 0 || rehits == 0 || refused == 0 || upgrades == 0 {
				t.Errorf("%d evictions, %d writebacks, %d rehits, %d refused, %d upgrades: the stream should do all of these", one.Evictions, one.Writebacks, rehits, refused, upgrades)
			}
			if lost == 0 || moved == 0 || stood == 0 {
				t.Errorf("between a Touch and its Place %d hits lost their line, %d fills went to another way than the one named and %d second walks ended at it: the stream should do all of these", lost, moved, stood)
			}
		})
	}
}

// EachLine visits every valid line once, by its address.
func TestEachLine(t *testing.T) {
	c := small()
	want := map[mem.PhysAddr]bool{}
	for _, pa := range []mem.PhysAddr{0, 32, 512, 1024 + 32, 4096 + 64} {
		c.Fill(pa, Shared)
		want[pa] = true
	}
	c.Probe(512, true)
	delete(want, 512)
	got := map[mem.PhysAddr]bool{}
	c.EachLine(func(pa mem.PhysAddr) {
		if got[pa] {
			t.Errorf("line %#x visited twice", uint64(pa))
		}
		got[pa] = true
	})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("visited %v, want %v", got, want)
	}
}
