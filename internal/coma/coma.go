// Package coma models a Cache-Only Memory Architecture target: each node's
// local memory is an "attraction memory" (AM) — a giant set-associative
// cache with no fixed data homes — so data migrates to the nodes that use
// it. A flat directory (interleaved by address) tracks which AMs currently
// hold each line. The paper lists COMA among the shared-memory
// architectures studied with COMPASS (§5).
//
// The model is timing-only: functional data always lives in the backend's
// physical memory, so AM replacement never loses data — evicting the last
// copy simply means the next access pays the (home) memory fetch cost,
// which models master-copy relocation without recursive displacement.
package coma

import (
	"fmt"

	"compass/internal/cache"
	"compass/internal/event"
	"compass/internal/mem"
	"compass/internal/memsys"
	"compass/internal/noc"
	"compass/internal/stats"
)

const (
	AMCycles  event.Cycle = 25 // attraction-memory access time
	DirCycles event.Cycle = 6  // flat-directory lookup
	MemCycles event.Cycle = 60 // fetch when no AM holds the line
	CtrlBytes int         = 16
)

// Config describes the COMA target.
type Config struct {
	Nodes       int
	CPUsPerNode int
	L1          cache.Config
	// AM is the per-node attraction memory geometry (a very large cache).
	AM  cache.Config
	Net noc.Config
}

// DefaultConfig sizes a small COMA: 32KB L1s and 4MB attraction memories.
func DefaultConfig(nodes, cpusPerNode int) Config {
	return Config{
		Nodes:       nodes,
		CPUsPerNode: cpusPerNode,
		L1:          cache.Config{Size: 32 << 10, LineSize: 32, Assoc: 2, Latency: 1},
		AM:          cache.Config{Size: 4 << 20, LineSize: 64, Assoc: 8, Latency: 0},
		Net:         noc.DefaultConfig(nodes),
	}
}

type holderEntry struct {
	holders uint64 // node bitmask
	owner   int    // last writer (preferred supplier)
}

// System is the COMA memory system; it implements memsys.Model.
type System struct {
	cfg  Config //ckpt:skip rebuilt by New from the machine's Config
	l1s  []*cache.Cache
	ams  []*cache.Cache
	net  *noc.Network
	dir  map[mem.PhysAddr]*holderEntry
	memc []*event.Resource

	loads, stores uint64
	l1Hits        uint64
	amHits        uint64
	remoteFetch   uint64
	coldFetch     uint64
	invalidations uint64
}

// New builds the system.
func New(cfg Config) *System {
	if cfg.Nodes < 1 || cfg.Nodes > 64 {
		panic(fmt.Sprintf("coma: %d nodes unsupported", cfg.Nodes))
	}
	if cfg.AM.LineSize < cfg.L1.LineSize {
		panic(fmt.Sprintf("coma: %d-byte attraction-memory line under a %d-byte L1 line", cfg.AM.LineSize, cfg.L1.LineSize))
	}
	cfg.Net.Nodes = cfg.Nodes
	s := &System{cfg: cfg, net: noc.New(cfg.Net), dir: make(map[mem.PhysAddr]*holderEntry)}
	for i := 0; i < cfg.Nodes*cfg.CPUsPerNode; i++ {
		s.l1s = append(s.l1s, cache.New(cfg.L1))
	}
	for n := 0; n < cfg.Nodes; n++ {
		s.ams = append(s.ams, cache.New(cfg.AM))
		s.memc = append(s.memc, new(event.Resource))
	}
	return s
}

// Name implements memsys.Model.
func (s *System) Name() string { return "coma" }

// NodeOf returns the node owning a CPU.
func (s *System) NodeOf(cpu int) int { return cpu / s.cfg.CPUsPerNode }

func (s *System) lineAddr(pa mem.PhysAddr) mem.PhysAddr {
	return pa &^ mem.PhysAddr(s.cfg.AM.LineSize-1)
}

func (s *System) homeOf(line mem.PhysAddr) int {
	return int(uint64(line) / uint64(s.cfg.AM.LineSize) % uint64(s.cfg.Nodes))
}

func (s *System) entry(line mem.PhysAddr) *holderEntry {
	e, ok := s.dir[line]
	if !ok {
		e = &holderEntry{owner: -1}
		s.dir[line] = e
	}
	return e
}

// Access implements memsys.Model.
func (s *System) Access(now event.Cycle, cpu int, pa mem.PhysAddr, write bool) event.Cycle {
	if write {
		s.stores++
	} else {
		s.loads++
	}
	node := s.NodeOf(cpu)
	l1 := s.l1s[cpu]
	t := now + event.Cycle(s.cfg.L1.Latency)
	// One walk a level: what the lookups find (Invalid on a miss; a hit that
	// goes on is a write to a Shared line) and the ways they name are what the
	// fills at the end go by. Nothing in between invalidates a line of this
	// node's attraction memory; displacing its victim does invalidate lines of
	// this CPU's L1, which Place notices.
	have, w1 := l1.Touch(pa, write)
	if have.Serves(write) {
		s.l1Hits++
		return t
	}

	line := s.lineAddr(pa)
	am := s.ams[node]
	t += AMCycles
	e := s.entry(line)

	amState, wAM := am.Touch(line, write)
	switch {
	case amState.Serves(write):
		s.amHits++
	case amState != cache.Invalid:
		// Upgrade: invalidate other AM holders via the flat directory.
		t = s.invalidateOthers(t, e, node, line)
		am.Place(wAM, line, cache.Modified, amState, write)
		e.holders = 1 << uint(node)
		e.owner = node
	default:
		// AM miss: consult the flat directory at the line's home.
		home := s.homeOf(line)
		if home != node {
			t = s.net.Send(t, node, home, CtrlBytes)
		}
		t += DirCycles
		supplier := s.pickSupplier(e, node)
		if supplier >= 0 {
			s.remoteFetch++
			// Forward to the supplier AM and stream the line back.
			if supplier != home {
				t = s.net.Send(t, home, supplier, CtrlBytes)
			}
			t += AMCycles
			t = s.net.Send(t, supplier, node, s.cfg.AM.LineSize+CtrlBytes)
			if !write {
				// A read fetch leaves the supplier with a Shared copy.
				s.ams[supplier].Probe(line, false)
				s.probeL1s(supplier, line, false)
			}
		} else {
			// No AM holds it (cold, or last copy was displaced): fetch
			// from backing memory at the home node.
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
		if v := am.Place(wAM, line, st, amState, write); v.Valid {
			s.displace(node, v.Addr)
		}
		e.holders |= 1 << uint(node)
	}

	if write {
		// Invalidate sibling L1 copies on the same node (the AM is shared
		// within a node, L1s are per CPU): the line written, not the span.
		for c := node * s.cfg.CPUsPerNode; c < (node+1)*s.cfg.CPUsPerNode; c++ {
			if c == cpu {
				continue
			}
			if s.l1s[c].Probe(pa, true) != cache.Invalid {
				s.invalidations++
			}
		}
	}

	l1st := cache.Shared
	if write {
		l1st = cache.Modified
	}
	l1.Place(w1, pa, l1st, have, write)
	return t
}

// AccessRun implements memsys.Model.
func (s *System) AccessRun(now event.Cycle, cpu int, pa, stride mem.PhysAddr, n int, issue, until event.Cycle, write bool) (int, event.Cycle, event.Cycle) {
	return memsys.RunByAccess(s, now, cpu, pa, stride, n, issue, until, write)
}

// Rehit implements memsys.Model.
func (s *System) Rehit(cpu int, pa mem.PhysAddr, n uint64) (event.Cycle, bool) {
	if !s.l1s[cpu].Rehit(pa, n) {
		return 0, false
	}
	s.stores += n
	s.l1Hits += n
	return event.Cycle(s.cfg.L1.Latency), true
}

// pickSupplier chooses an AM to supply the line: the last writer if it
// still holds it, else any holder. Returns -1 when none.
func (s *System) pickSupplier(e *holderEntry, requester int) int {
	if e.owner >= 0 && e.owner != requester && e.holders>>uint(e.owner)&1 == 1 {
		return e.owner
	}
	for n := 0; n < s.cfg.Nodes; n++ {
		if n != requester && e.holders>>uint(n)&1 == 1 {
			return n
		}
	}
	return -1
}

// invalidateOthers removes every other node's AM (and its CPUs' L1) copy.
func (s *System) invalidateOthers(t event.Cycle, e *holderEntry, node int, line mem.PhysAddr) event.Cycle {
	latest := t
	for n := 0; n < s.cfg.Nodes; n++ {
		if n == node || e.holders>>uint(n)&1 == 0 {
			continue
		}
		s.invalidations++
		ti := s.net.Send(t, node, n, CtrlBytes)
		s.ams[n].Probe(line, true)
		s.probeL1s(n, line, true)
		e.holders &^= 1 << uint(n)
		if ti > latest {
			latest = ti
		}
	}
	return latest
}

// displace handles an AM victim: drop the node from the holder set and
// invalidate the node's L1 copies (the data survives in backing memory).
func (s *System) displace(node int, victim mem.PhysAddr) {
	line := s.lineAddr(victim)
	if e, ok := s.dir[line]; ok {
		e.holders &^= 1 << uint(node)
		if e.owner == node {
			e.owner = -1
		}
	}
	s.probeL1s(node, line, true)
}

// probeL1s applies a coherence action to the first-level copies of an
// attraction-memory line on every CPU of a node (inclusion).
func (s *System) probeL1s(node int, line mem.PhysAddr, invalidate bool) {
	for c := node * s.cfg.CPUsPerNode; c < (node+1)*s.cfg.CPUsPerNode; c++ {
		s.l1s[c].ProbeSpan(line, s.cfg.AM.LineSize, invalidate)
	}
}

// AddCounters implements memsys.Model.
func (s *System) AddCounters(c *stats.Counters) {
	c.Inc("coma.loads", s.loads)
	c.Inc("coma.stores", s.stores)
	c.Inc("coma.l1.hits", s.l1Hits)
	c.Inc("coma.am.hits", s.amHits)
	c.Inc("coma.fetch.remote", s.remoteFetch)
	c.Inc("coma.fetch.cold", s.coldFetch)
	c.Inc("coma.invalidations", s.invalidations)
	c.Inc("coma.net.messages", s.net.Messages)
	c.Inc("coma.net.bytes", s.net.Bytes)
}

// Holders returns the AM holder bitmask for the line containing pa
// (test hook).
func (s *System) Holders(pa mem.PhysAddr) uint64 {
	if e, ok := s.dir[s.lineAddr(pa)]; ok {
		return e.holders
	}
	return 0
}

// CheckInvariant verifies holder-set agreement for the line containing pa:
// every AM that holds the line is in the directory's holder set, and a
// Modified AM copy is the only copy.
func (s *System) CheckInvariant(pa mem.PhysAddr) error {
	line := s.lineAddr(pa)
	var actual uint64
	owners := 0
	for n := 0; n < s.cfg.Nodes; n++ {
		st := s.ams[n].Lookup(line)
		if st == cache.Invalid {
			continue
		}
		actual |= 1 << uint(n)
		if st == cache.Modified || st == cache.Exclusive {
			owners++
		}
	}
	e := s.entry(line)
	if actual&^e.holders != 0 {
		return fmt.Errorf("coma: AMs %#x hold %#x but directory says %#x", actual, uint64(line), e.holders)
	}
	if owners > 1 {
		return fmt.Errorf("coma: %d owning AMs for %#x", owners, uint64(line))
	}
	if owners == 1 && actual&(actual-1) != 0 {
		return fmt.Errorf("coma: owned line %#x replicated (%#x)", uint64(line), actual)
	}
	return nil
}
