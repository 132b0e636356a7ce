package cache

import "fmt"

// LineSnap is one cache line's serializable state.
type LineSnap struct {
	Tag   uint64
	State uint8
	LRU   uint64
}

// Snapshot is a Cache's full serializable state. Geometry is not included:
// a snapshot may only be restored into a cache built from the same Config,
// which Restore verifies by length.
type Snapshot struct {
	Lines      []LineSnap // sets*assoc entries, row-major storage order
	Clock      uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// Snapshot captures every line, the LRU clock, and the counters.
func (c *Cache) Snapshot() Snapshot {
	s := Snapshot{
		Lines:      make([]LineSnap, len(c.sets)),
		Clock:      c.clock,
		Hits:       c.Hits,
		Misses:     c.Misses,
		Evictions:  c.Evictions,
		Writebacks: c.Writebacks,
	}
	for i, l := range c.sets {
		s.Lines[i] = LineSnap{Tag: l.tag, State: uint8(l.state), LRU: l.lru}
	}
	return s
}

// Restore overwrites the cache's state from a snapshot taken from a cache
// of identical geometry.
func (c *Cache) Restore(s Snapshot) error {
	if len(s.Lines) != len(c.sets) {
		return fmt.Errorf("cache: snapshot has %d lines, cache has %d (geometry mismatch)", len(s.Lines), len(c.sets))
	}
	for i, l := range s.Lines {
		c.sets[i] = line{tag: l.Tag, state: State(l.State), lru: l.LRU}
	}
	c.clock = s.Clock
	c.gone++
	c.Hits = s.Hits
	c.Misses = s.Misses
	c.Evictions = s.Evictions
	c.Writebacks = s.Writebacks
	return nil
}
