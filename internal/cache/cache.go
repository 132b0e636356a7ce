// Package cache implements set-associative write-back cache arrays with
// MESI line states and true-LRU replacement. It provides the mechanism
// (lookup, fill, victimize, probe); coherence protocols in internal/snoop,
// internal/directory and internal/coma provide the policy.
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

// Serves reports whether a copy in state s serves the reference by itself:
// any valid copy serves a load, an owned one (Modified or Exclusive) a store.
// A store that finds the line Shared goes on to the protocol for ownership.
func (s State) Serves(write bool) bool {
	return s > Shared || s == Shared && !write
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
	// gone counts the lines invalidated under the processor (Probe, Flush,
	// Restore): a Way is good for Place while it has not moved.
	gone uint32 //ckpt:skip derived: compared only with the stamp of a Way inside one reference

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

func (c *Cache) index(pa mem.PhysAddr) (set uint64, tag uint64) {
	lineNum := uint64(pa) >> c.lineBits
	return lineNum & (c.numSets - 1), lineNum >> c.setBits
}

func (c *Cache) set(i uint64) []line {
	a := uint64(c.cfg.Assoc)
	return c.sets[i*a : (i+1)*a]
}

// find returns the line containing pa, nil when it is not there.
func (c *Cache) find(pa mem.PhysAddr) *line {
	si, tag := c.index(pa)
	set := c.set(si)
	for i := range set {
		if l := &set[i]; l.state != Invalid && l.tag == tag {
			return l
		}
	}
	return nil
}

// Lookup returns the state of the line containing pa without touching LRU.
func (c *Cache) Lookup(pa mem.PhysAddr) State {
	if l := c.find(pa); l != nil {
		return l.state
	}
	return Invalid
}

// Access performs a processor-side lookup: on hit it updates LRU, promotes
// E→M on writes, and returns (state-before-access, true). On miss it
// returns (Invalid, false) and the caller runs the protocol, then Fill.
// A write hit in Shared state is NOT a full hit (needs an upgrade); it is
// reported as (Shared, true) and the protocol layer decides. Access and Fill
// are two walks of the set: the definition Touch and Place, which the memory
// models use, are held to.
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

// Way is a position in the cache array as Touch reports it and Place takes
// it, stamped with the cache's count of invalidated lines at the time.
type Way struct {
	at   int32
	gone uint32
}

// Touch is Access that has, after a miss, also found the way Fill would take
// for the line — the first invalid way of the set, else the one with the
// oldest stamp, the lowest on a tie — in the same walk of the set. After a
// hit, which is any state but Invalid, the way is the line's own.
func (c *Cache) Touch(pa mem.PhysAddr, write bool) (State, Way) {
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
			return prev, Way{int32(base) + int32(i), c.gone}
		case l.lru < oldest:
			oldest, victim = l.lru, i
		}
	}
	c.Misses++
	if free >= 0 {
		victim = free
	}
	return Invalid, Way{int32(base) + int32(victim), c.gone}
}

// Place ends what the Touch of pa that reported have and w began, once the
// protocol has the line in state st: an absent line is filled at w and the
// victim returned, a Shared line written to is made Modified. Nothing fills
// or touches a processor's cache inside one of its references but this, so
// the set is as Touch left it unless a line has been invalidated since, which
// the stamp of w tells: then the line may be gone or a way ahead of w free,
// and Place walks the set again — Touch has counted and stamped already, only
// the fill ticks the clock.
func (c *Cache) Place(w Way, pa mem.PhysAddr, st, have State, write bool) Victim {
	l := &c.sets[w.at]
	if w.gone != c.gone {
		if l = c.find(pa); l == nil {
			return c.Fill(pa, st)
		}
		have = l.state
	}
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

// ProbeSpan applies Probe to every line of this cache under the width-byte
// line containing pa — a wider level's line, whose copies here go with it
// (inclusion) — and reports whether any of them was Modified.
func (c *Cache) ProbeSpan(pa mem.PhysAddr, width int, invalidate bool) bool {
	base := pa &^ mem.PhysAddr(width-1)
	dirty := false
	for off := 0; off < width; off += c.cfg.LineSize {
		if c.Probe(base+mem.PhysAddr(off), invalidate) == Modified {
			dirty = true
		}
	}
	return dirty
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
				c.gone++
			} else if l.state != Shared {
				l.state = Shared
			}
			return prev
		}
	}
	return Invalid
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
