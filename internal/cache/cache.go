// Package cache implements set-associative write-back cache arrays with
// MESI line states and true-LRU replacement. It provides the mechanism
// (lookup, fill, victimize, probe); coherence protocols in internal/snoop
// and internal/directory provide the policy.
//
// The paper's backend models "several levels of caches"; its simple backend
// is a single level per processor, its complex backend two levels per
// processor inside a CC-NUMA system (§2, §5).
package cache

import (
	"fmt"
	"math/bits"

	"compass/internal/mem"
)

// State is a MESI coherence state.
type State uint8

const (
	// Invalid: the line holds no valid data.
	Invalid State = iota
	// Shared: clean, possibly present in other caches.
	Shared
	// Exclusive: clean, guaranteed in no other cache.
	Exclusive
	// Modified: dirty, guaranteed in no other cache.
	Modified
)

// String returns the one-letter MESI name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", s)
	}
}

// Config sizes a cache level.
type Config struct {
	Size     int    // total bytes
	LineSize int    // bytes per line (power of two)
	Assoc    int    // ways per set
	Latency  uint64 // hit latency in cycles
}

// Check validates the geometry.
func (c Config) Check() error {
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineSize)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cache: associativity %d", c.Assoc)
	}
	sets := c.Size / (c.LineSize * c.Assoc)
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache: %d bytes / (%dB line × %d ways) = %d sets, need a power of two",
			c.Size, c.LineSize, c.Assoc, sets)
	}
	return nil
}

type line struct {
	tag   uint64
	state State
	lru   uint64
}

// Victim describes a line evicted by a fill.
type Victim struct {
	Addr  mem.PhysAddr // line-aligned address of the evicted line
	Dirty bool         // true when the line was Modified (needs writeback)
	Valid bool         // false when the fill used an invalid way
}

// Cache is one cache array. It is not safe for concurrent use; the backend
// owns all caches.
type Cache struct {
	cfg      Config //ckpt:skip cfg rebuilt by New from the same Config the snapshot was taken under
	sets     []line // sets*assoc lines, row-major
	numSets  uint64 //ckpt:skip geometry derived from cfg; Restore verifies by line count
	lineBits uint   //ckpt:skip geometry derived from cfg
	setBits  uint   //ckpt:skip geometry derived from cfg: log2(numSets), a power of two by Config.Check
	clock    uint64

	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// New builds a cache from cfg, panicking on invalid geometry (configuration
// is programmer input, not runtime input).
func New(cfg Config) *Cache {
	if err := cfg.Check(); err != nil {
		panic(err)
	}
	numSets := uint64(cfg.Size / (cfg.LineSize * cfg.Assoc))
	return &Cache{
		cfg:      cfg,
		sets:     make([]line, numSets*uint64(cfg.Assoc)),
		numSets:  numSets,
		lineBits: uint(bits.TrailingZeros64(uint64(cfg.LineSize))),
		setBits:  uint(bits.TrailingZeros64(numSets)),
	}
}

// Config returns the geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns the line-aligned address containing pa.
func (c *Cache) LineAddr(pa mem.PhysAddr) mem.PhysAddr {
	return pa &^ mem.PhysAddr(c.cfg.LineSize-1)
}

func (c *Cache) index(pa mem.PhysAddr) (set uint64, tag uint64) {
	lineNum := uint64(pa) >> c.lineBits
	return lineNum & (c.numSets - 1), lineNum >> c.setBits
}

func (c *Cache) set(i uint64) []line {
	a := uint64(c.cfg.Assoc)
	return c.sets[i*a : (i+1)*a]
}

// Lookup returns the state of the line containing pa without touching LRU.
func (c *Cache) Lookup(pa mem.PhysAddr) State {
	si, tag := c.index(pa)
	set := c.set(si)
	for i := range set {
		l := &set[i]
		if l.state != Invalid && l.tag == tag {
			return l.state
		}
	}
	return Invalid
}

// Access performs a processor-side lookup: on hit it updates LRU, promotes
// E→M on writes, and returns (state-before-access, true). On miss it
// returns (Invalid, false) and the caller runs the protocol, then Fill.
// A write hit in Shared state is NOT a full hit (needs an upgrade); it is
// reported as (Shared, true) and the protocol layer decides.
func (c *Cache) Access(pa mem.PhysAddr, write bool) (State, bool) {
	si, tag := c.index(pa)
	set := c.set(si)
	for i := range set {
		l := &set[i]
		if l.state != Invalid && l.tag == tag {
			c.clock++
			l.lru = c.clock
			prev := l.state
			if write && l.state == Exclusive {
				l.state = Modified
			}
			c.Hits++
			return prev, true
		}
	}
	c.Misses++
	return Invalid, false
}

// Upgrade moves a Shared line to Modified after the protocol has obtained
// ownership. It panics if the line is not present.
func (c *Cache) Upgrade(pa mem.PhysAddr) {
	si, tag := c.index(pa)
	set := c.set(si)
	for i := range set {
		l := &set[i]
		if l.state != Invalid && l.tag == tag {
			l.state = Modified
			return
		}
	}
	panic(fmt.Sprintf("cache: Upgrade of absent line %#x", uint64(pa)))
}

// Fill installs the line containing pa in the given state, evicting the LRU
// way if the set is full. The victim (if any) is returned so the protocol
// can write back dirty data and invalidate inclusive lower levels.
func (c *Cache) Fill(pa mem.PhysAddr, st State) Victim {
	si, tag := c.index(pa)
	s := c.set(si)
	victimIdx, oldest := 0, ^uint64(0)
	for i := range s {
		if s[i].state == Invalid {
			victimIdx = i
			oldest = 0
			break
		}
		if s[i].lru < oldest {
			oldest = s[i].lru
			victimIdx = i
		}
	}
	return c.replace(&s[victimIdx], si, tag, st)
}

// replace puts the line of the given set and tag into way old in state st
// and returns what was there as the victim.
func (c *Cache) replace(old *line, si, tag uint64, st State) Victim {
	v := Victim{}
	if old.state != Invalid {
		v.Valid = true
		v.Dirty = old.state == Modified
		v.Addr = c.addrOf(si, old.tag)
		c.Evictions++
		if v.Dirty {
			c.Writebacks++
		}
	}
	c.clock++
	*old = line{tag: tag, state: st, lru: c.clock}
	return v
}

// Install puts the line containing pa into the cache of a processor whose
// Access has just gone past it, given what that Access reported: have is the
// state it returned, Invalid after a miss. An absent line is filled in state
// st and the victim returned; a line that is there — Access reports a write
// to a Shared line as a hit and leaves the upgrade to the protocol — is made
// Modified. It is Lookup followed by Fill or Upgrade without walking the set
// for what the caller already knows; the caller vouches that nothing has
// removed or added the line since its Access.
func (c *Cache) Install(pa mem.PhysAddr, st, have State, write bool) Victim {
	if have == Invalid {
		return c.Fill(pa, st)
	}
	if write && have != Modified {
		c.Upgrade(pa)
	}
	return Victim{}
}

// Way is a position in the cache array, as Touch reports it and Place takes
// it.
type Way int32

// Touch is Access that has, after a miss, also found the way Fill would take
// for the line — the first invalid way of the set, else the one with the
// oldest stamp, the lowest on a tie — in the same walk of the set. After a
// hit the way is the line's own. Either is good for Place as long as nothing
// has removed, added or touched a line of the set since.
func (c *Cache) Touch(pa mem.PhysAddr, write bool) (State, bool, Way) {
	si, tag := c.index(pa)
	base := si * uint64(c.cfg.Assoc)
	set := c.sets[base : base+uint64(c.cfg.Assoc)]
	free, victim, oldest := -1, 0, ^uint64(0)
	for i := range set {
		l := &set[i]
		switch {
		case l.state == Invalid:
			if free < 0 {
				free = i
			}
		case l.tag == tag:
			c.clock++
			l.lru = c.clock
			prev := l.state
			if write && prev == Exclusive {
				l.state = Modified
			}
			c.Hits++
			return prev, true, Way(base + uint64(i))
		case l.lru < oldest:
			oldest, victim = l.lru, i
		}
	}
	c.Misses++
	if free >= 0 {
		victim = free
	}
	return Invalid, false, Way(base + uint64(victim))
}

// Place is Install at the way w that the caller's Touch of pa reported,
// have being the state it returned: the fill, or the upgrade of a Shared
// line written to, without a second walk of the set.
func (c *Cache) Place(w Way, pa mem.PhysAddr, st, have State, write bool) Victim {
	l := &c.sets[w]
	if have != Invalid {
		if write {
			l.state = Modified
		}
		return Victim{}
	}
	si, tag := c.index(pa)
	return c.replace(l, si, tag, st)
}

// Rehit accounts n further writes by the processor to the line containing pa
// if the line is there Modified — what n calls of Access(pa, true) would do to
// the clock, the line's stamp and Hits — and reports whether it is. With any
// other state, or the line absent, nothing is accounted; n = 0 only asks.
func (c *Cache) Rehit(pa mem.PhysAddr, n uint64) bool {
	si, tag := c.index(pa)
	set := c.set(si)
	for i := range set {
		l := &set[i]
		if l.state != Invalid && l.tag == tag {
			if l.state != Modified {
				return false
			}
			if n > 0 {
				c.clock += n
				l.lru = c.clock
				c.Hits += n
			}
			return true
		}
	}
	return false
}

// EachLine calls fn with the address of every valid line, in storage order
// (rebuilding state derived from the array after a Restore).
func (c *Cache) EachLine(fn func(pa mem.PhysAddr)) {
	a := uint64(c.cfg.Assoc)
	for i := range c.sets {
		if c.sets[i].state != Invalid {
			fn(c.addrOf(uint64(i)/a, c.sets[i].tag))
		}
	}
}

func (c *Cache) addrOf(set, tag uint64) mem.PhysAddr {
	return mem.PhysAddr((tag<<c.setBits | set) << c.lineBits)
}

// Probe applies an external coherence action to the line containing pa and
// reports the state it found. If invalidate is set the line is invalidated,
// otherwise it is downgraded to Shared. The caller uses the returned state
// to know whether dirty data was flushed.
func (c *Cache) Probe(pa mem.PhysAddr, invalidate bool) State {
	si, tag := c.index(pa)
	set := c.set(si)
	for i := range set {
		l := &set[i]
		if l.state != Invalid && l.tag == tag {
			prev := l.state
			if invalidate {
				l.state = Invalid
			} else if l.state != Shared {
				l.state = Shared
			}
			return prev
		}
	}
	return Invalid
}

// Flush invalidates every line, returning the dirty line addresses
// (context-switch / shootdown support and test hook).
func (c *Cache) Flush() []mem.PhysAddr {
	var dirty []mem.PhysAddr
	for si := uint64(0); si < c.numSets; si++ {
		s := c.set(si)
		for i := range s {
			if s[i].state == Modified {
				dirty = append(dirty, c.addrOf(si, s[i].tag))
			}
			s[i].state = Invalid
		}
	}
	return dirty
}

// Occupancy returns the number of valid lines (test/diagnostic hook).
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.sets {
		if c.sets[i].state != Invalid {
			n++
		}
	}
	return n
}
