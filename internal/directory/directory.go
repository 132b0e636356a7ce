// Package directory implements the CC-NUMA flavour of the paper's complex
// backend: two cache levels per processor, a bus and memory controller per
// node, a full-map directory at each line's home node, and coherence
// messages carried over the internal/noc interconnect.
//
// The home node of a physical frame comes from the backend VM manager's
// placement policy (round-robin / block / first-touch, §3.3.1), injected as
// a HomeFunc so the same protocol serves every placement experiment.
package directory

import (
	"fmt"

	"compass/internal/cache"
	"compass/internal/event"
	"compass/internal/mem"
	"compass/internal/memsys"
	"compass/internal/noc"
	"compass/internal/stats"
)

// HomeFunc resolves the home node of a physical frame; node is the
// referencing node so first-touch placement can bind on first use. For a
// frame that is no longer allocated it answers mem.HomeUnassigned: only the
// victim of a replacement can name one (evict).
type HomeFunc func(frame uint64, node int) int

const (
	BusCycles event.Cycle = 12 // local split-transaction bus occupancy
	MemCycles event.Cycle = 30 // DRAM array access
	DirCycles event.Cycle = 6  // directory lookup/update
	CtrlBytes int         = 16 // size of a control message (request, inval, ack)
)

// Config describes the CC-NUMA target.
type Config struct {
	Nodes       int
	CPUsPerNode int
	L1, L2      cache.Config
	Net         noc.Config

	// MigrateThreshold, when nonzero, enables dynamic page migration (the
	// "page movement in distributed memory systems" of §3.3.1): after a
	// frame takes this many remote misses from one node it is re-homed
	// there, after invalidating its cached lines and copying the page.
	MigrateThreshold int
	// MigrateCost is the software + copy cost of one migration.
	MigrateCost event.Cycle
}

// DefaultConfig is a 1998-plausible CC-NUMA: 32KB L1, 512KB L2, 8-cycle
// hops. Total CPUs = nodes × cpusPerNode.
func DefaultConfig(nodes, cpusPerNode int) Config {
	return Config{
		Nodes:       nodes,
		CPUsPerNode: cpusPerNode,
		L1:          cache.Config{Size: 32 << 10, LineSize: 32, Assoc: 2, Latency: 1},
		L2:          cache.Config{Size: 512 << 10, LineSize: 64, Assoc: 4, Latency: 8},
		Net:         noc.DefaultConfig(nodes),
	}
}

type dirState uint8

const (
	dirUncached dirState = iota
	dirShared
	dirOwned
)

type dirEntry struct {
	state   dirState
	owner   int    // valid when dirOwned
	sharers uint64 // CPU bitmask, valid when dirShared
}

type cpuCaches struct {
	l1 *cache.Cache
	l2 *cache.Cache
}

// System is the CC-NUMA memory system. It implements memsys.Model.
type System struct {
	cfg    Config //ckpt:skip rebuilt by New from the machine's Config
	cpus   []cpuCaches
	busses []*event.Resource
	memctl []*event.Resource
	net    *noc.Network
	dirs   []map[mem.PhysAddr]*dirEntry
	home   HomeFunc //ckpt:skip placement policy function, re-created by New

	loads, stores         uint64
	l1Hits, l2Hits        uint64
	localMiss, remoteMiss uint64
	threeHop              uint64
	invalidations         uint64
	writebacks            uint64
	migrations            uint64

	// migration bookkeeping: consecutive remote-miss streaks per frame.
	migrate func(frame uint64, node int) //ckpt:skip migration hook, re-created by New
	heat    map[uint64]*frameHeat
}

type frameHeat struct {
	node   int
	streak int
}

// New builds the system. home may be nil, in which case frames are homed by
// address interleaving (frame mod nodes).
func New(cfg Config, home HomeFunc) *System {
	if cfg.CPUsPerNode < 1 || cfg.Nodes < 1 {
		panic(fmt.Sprintf("directory: bad topology %d×%d", cfg.Nodes, cfg.CPUsPerNode))
	}
	if cfg.Nodes*cfg.CPUsPerNode > 64 {
		panic("directory: more than 64 CPUs not supported by the sharer bitmask")
	}
	if home == nil {
		n := cfg.Nodes
		home = func(frame uint64, _ int) int { return int(frame % uint64(n)) }
	}
	cfg.Net.Nodes = cfg.Nodes
	s := &System{cfg: cfg, net: noc.New(cfg.Net), home: home, heat: make(map[uint64]*frameHeat)}
	for i := 0; i < cfg.Nodes*cfg.CPUsPerNode; i++ {
		s.cpus = append(s.cpus, cpuCaches{l1: cache.New(cfg.L1), l2: cache.New(cfg.L2)})
	}
	for n := 0; n < cfg.Nodes; n++ {
		s.busses = append(s.busses, new(event.Resource))
		s.memctl = append(s.memctl, new(event.Resource))
		s.dirs = append(s.dirs, make(map[mem.PhysAddr]*dirEntry))
	}
	return s
}

// Name implements memsys.Model.
func (s *System) Name() string { return "ccnuma" }

// NodeOf returns the node owning a CPU.
func (s *System) NodeOf(cpu int) int { return cpu / s.cfg.CPUsPerNode }

// Net exposes the interconnect (for traffic statistics).
func (s *System) Net() *noc.Network { return s.net }

func (s *System) lineAddr(pa mem.PhysAddr) mem.PhysAddr {
	return pa &^ mem.PhysAddr(s.cfg.L2.LineSize-1)
}

func (s *System) entry(homeNode int, line mem.PhysAddr) *dirEntry {
	d := s.dirs[homeNode]
	e, ok := d[line]
	if !ok {
		e = &dirEntry{state: dirUncached}
		d[line] = e
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
	me := &s.cpus[cpu]
	t := now + event.Cycle(s.cfg.L1.Latency)

	// One walk a level: what the lookups find (Invalid on a miss; a hit that
	// goes on is a write to a Shared line) and the ways they name are what the
	// fills at the end go by. Where something has invalidated lines of this
	// CPU's in between — the inclusion probe of the second-level victim, a
	// migration of the page — Place notices and looks again.
	l1, w1 := me.l1.Touch(pa, write)
	if l1.Serves(write) {
		s.l1Hits++
		return t
	}
	t += event.Cycle(s.cfg.L2.Latency)
	l2, w2 := me.l2.Touch(pa, write)
	if l2.Serves(write) {
		s.l2Hits++
		// In the state found: an Exclusive line stays Exclusive here under a
		// store. L1 victims are covered by L2 (inclusion).
		me.l1.Place(w1, pa, l2, l1, write)
		return t
	}

	// Miss or upgrade: local bus, then the directory protocol.
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
			t, homeNode = s.maybeMigrate(t, pa.Frame(), node, homeNode)
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
	s.evict(cpu, me.l2.Place(w2, pa, st, l2, write))
	me.l1.Place(w1, pa, st, l1, write)
	return t
}

// AccessRun implements memsys.Model.
func (s *System) AccessRun(now event.Cycle, cpu int, pa, stride mem.PhysAddr, n int, issue, until event.Cycle, write bool) (int, event.Cycle, event.Cycle) {
	return memsys.RunByAccess(s, now, cpu, pa, stride, n, issue, until, write)
}

// Rehit implements memsys.Model.
func (s *System) Rehit(cpu int, pa mem.PhysAddr, n uint64) (event.Cycle, bool) {
	if !s.cpus[cpu].l1.Rehit(pa, n) {
		return 0, false
	}
	s.stores += n
	s.l1Hits += n
	return event.Cycle(s.cfg.L1.Latency), true
}

// protocol resolves the directory transaction and returns the cycle at
// which the data (or ownership) reaches the requesting node.
func (s *System) protocol(t event.Cycle, e *dirEntry, cpu, node, homeNode int, line mem.PhysAddr, write bool) event.Cycle {
	lineBytes := s.cfg.L2.LineSize
	dataBack := func(from event.Cycle) event.Cycle {
		return s.net.Send(from, homeNode, node, lineBytes+CtrlBytes)
	}
	switch e.state {
	case dirUncached:
		t = s.memctl[homeNode].Acquire(t, MemCycles)
		t = dataBack(t)
		e.state, e.owner, e.sharers = dirOwned, cpu, 0 // a load is granted Exclusive
	case dirShared:
		if write {
			// Invalidate every sharer (in parallel); requester waits for
			// the slowest ack.
			t = s.invalidateSharers(t, e, cpu, node, homeNode, line)
			if e.sharers>>uint(cpu)&1 == 1 {
				// Upgrade: requester already has the data.
			} else {
				m := s.memctl[homeNode].Acquire(t, MemCycles)
				t = dataBack(m)
			}
			e.state, e.owner, e.sharers = dirOwned, cpu, 0
		} else {
			t = s.memctl[homeNode].Acquire(t, MemCycles)
			t = dataBack(t)
			e.sharers |= 1 << uint(cpu)
		}
	case dirOwned:
		o := e.owner
		if o == cpu {
			// Our own L2 evicted silently? Precise replacement hints make
			// this unreachable; treat as memory fetch for robustness.
			t = s.memctl[homeNode].Acquire(t, MemCycles)
			t = dataBack(t)
			break
		}
		ownerNode := s.NodeOf(o)
		s.threeHop++
		// Forward to owner, owner supplies to requester and writes back.
		t = s.net.Send(t, homeNode, ownerNode, CtrlBytes)
		t = s.busses[ownerNode].Acquire(t, BusCycles)
		prev := s.probeCPU(o, line, write)
		if prev == cache.Modified {
			s.writebacks++
			// Owner writes the line back to home memory (off critical path).
			wb := s.net.Send(t, ownerNode, homeNode, lineBytes+CtrlBytes)
			s.memctl[homeNode].Acquire(wb, MemCycles)
		}
		t = s.net.Send(t, ownerNode, node, lineBytes+CtrlBytes)
		if write {
			s.invalidations++
			e.state, e.owner, e.sharers = dirOwned, cpu, 0
		} else {
			e.state = dirShared
			e.sharers = 1<<uint(o) | 1<<uint(cpu)
			e.owner = 0
		}
	}
	return t
}

// SetMigrator installs the callback that re-homes a frame (the VM
// manager's page-table/home-map update).
func (s *System) SetMigrator(fn func(frame uint64, node int)) { s.migrate = fn }

// maybeMigrate tracks remote-miss streaks and, past the threshold,
// migrates the frame to the missing node: every cached line of the frame
// is invalidated (TLB-shootdown analogue), dirty data written back, the
// page copied to the new home, and the home map updated. It returns the
// frame's home, old or new. The flush spares no cache, the requester's
// included.
func (s *System) maybeMigrate(t event.Cycle, frame uint64, node, homeNode int) (event.Cycle, int) {
	h := s.heat[frame]
	if h == nil {
		h = &frameHeat{}
		s.heat[frame] = h
	}
	if h.node != node {
		h.node = node
		h.streak = 0
	}
	h.streak++
	if h.streak < s.cfg.MigrateThreshold {
		return t, homeNode
	}
	delete(s.heat, frame)
	s.migrations++
	// Flush every line of the frame from all caches and its old directory.
	base := mem.PhysAddr(frame) << mem.PageShift
	oldDir := s.dirs[homeNode]
	for off := 0; off < mem.PageSize; off += s.cfg.L2.LineSize {
		line := base + mem.PhysAddr(off)
		e, ok := oldDir[line]
		if !ok {
			continue
		}
		switch e.state {
		case dirOwned:
			if s.probeCPU(e.owner, line, true) == cache.Modified {
				s.writebacks++
			}
			s.invalidations++
		case dirShared:
			for c := 0; c < len(s.cpus); c++ {
				if e.sharers>>uint(c)&1 == 1 {
					s.probeCPU(c, line, true)
					s.invalidations++
				}
			}
		}
		delete(oldDir, line)
	}
	// Page copy over the network plus the software cost.
	t = s.net.Send(t, homeNode, node, mem.PageSize+CtrlBytes)
	t += s.cfg.MigrateCost
	s.migrate(frame, node)
	return t, s.home(frame, node)
}

// invalidateSharers sends invalidations to every sharer other than the
// requester and returns the time the last ack reaches the requester.
func (s *System) invalidateSharers(t event.Cycle, e *dirEntry, cpu, node, homeNode int, line mem.PhysAddr) event.Cycle {
	latest := t
	for c := 0; c < len(s.cpus); c++ {
		if e.sharers>>uint(c)&1 == 0 || c == cpu {
			continue
		}
		s.invalidations++
		ti := s.net.Send(t, homeNode, s.NodeOf(c), CtrlBytes)
		s.probeCPU(c, line, true)
		if ti > latest {
			latest = ti
		}
	}
	// Acks return to the requester (modelled as one control hop).
	return s.net.Send(latest, homeNode, node, CtrlBytes)
}

// probeCPU applies a coherence action (invalidate or downgrade) to both
// cache levels of one CPU, returning the L2 state found.
func (s *System) probeCPU(cpu int, line mem.PhysAddr, invalidate bool) cache.State {
	c := &s.cpus[cpu]
	prev := c.l2.Probe(line, invalidate)
	if c.l1.ProbeSpan(line, s.cfg.L2.LineSize, invalidate) {
		prev = cache.Modified
	}
	return prev
}

// evict processes an L2 victim: maintain L1 inclusion, write dirty data
// back to the home memory, and update the home directory precisely.
//
// A victim whose frame has been freed meanwhile (munmap gives a region's
// private frames back with their lines still cached: nothing flushes at
// free) has no home to tell and nothing worth writing back; only inclusion
// is kept. The frame's directory entries stay behind, as they do for every
// freed frame.
func (s *System) evict(cpu int, v cache.Victim) {
	if !v.Valid {
		return
	}
	dirty := s.cpus[cpu].l1.ProbeSpan(v.Addr, s.cfg.L2.LineSize, true) || v.Dirty
	node := s.NodeOf(cpu)
	homeNode := s.home(v.Addr.Frame(), node)
	if homeNode == mem.HomeUnassigned {
		return
	}
	e := s.entry(homeNode, s.lineAddr(v.Addr))
	switch e.state {
	case dirOwned:
		if e.owner == cpu {
			e.state, e.owner = dirUncached, 0
		}
	case dirShared:
		e.sharers &^= 1 << uint(cpu)
		if e.sharers == 0 {
			e.state = dirUncached
		}
	}
	if dirty {
		s.writebacks++
		// Off the critical path: occupy network and memory asynchronously.
		wb := s.net.Send(s.busses[node].NextFree(), node, homeNode, s.cfg.L2.LineSize+CtrlBytes)
		s.memctl[homeNode].Acquire(wb, MemCycles)
	}
}

// AddCounters implements memsys.Model.
func (s *System) AddCounters(c *stats.Counters) {
	c.Inc("ccnuma.loads", s.loads)
	c.Inc("ccnuma.stores", s.stores)
	c.Inc("ccnuma.l1.hits", s.l1Hits)
	c.Inc("ccnuma.l2.hits", s.l2Hits)
	c.Inc("ccnuma.miss.local", s.localMiss)
	c.Inc("ccnuma.miss.remote", s.remoteMiss)
	c.Inc("ccnuma.threehop", s.threeHop)
	c.Inc("ccnuma.invalidations", s.invalidations)
	c.Inc("ccnuma.writebacks", s.writebacks)
	c.Inc("ccnuma.migrations", s.migrations)
	c.Inc("ccnuma.net.messages", s.net.Messages)
	c.Inc("ccnuma.net.bytes", s.net.Bytes)
}

// CacheState reports the effective state of pa on a CPU: the L2 state,
// except that a line silently promoted to Modified in the L1 reports
// Modified (test hook).
func (s *System) CacheState(cpu int, pa mem.PhysAddr) cache.State {
	if s.cpus[cpu].l1.Lookup(pa) == cache.Modified {
		return cache.Modified
	}
	return s.cpus[cpu].l2.Lookup(pa)
}

// CheckCoherence verifies that cache states and the directory agree for the
// line containing pa: at most one owner; owner implies no other holders;
// the directory's sharer set is a superset of actual holders.
func (s *System) CheckCoherence(pa mem.PhysAddr) error {
	line := s.lineAddr(pa)
	homeNode := s.home(pa.Frame(), 0)
	e := s.entry(homeNode, line)
	owners, holders := 0, uint64(0)
	for i := range s.cpus {
		st := s.cpus[i].l2.Lookup(line)
		if st == cache.Invalid {
			continue
		}
		holders |= 1 << uint(i)
		if st == cache.Modified || st == cache.Exclusive {
			owners++
		}
	}
	if owners > 1 {
		return fmt.Errorf("ccnuma: %d owners of %#x", owners, uint64(line))
	}
	switch e.state {
	case dirUncached:
		if holders != 0 {
			return fmt.Errorf("ccnuma: dir uncached but held by %#x", holders)
		}
	case dirOwned:
		if holders&^(1<<uint(e.owner)) != 0 {
			return fmt.Errorf("ccnuma: dir owned by %d but held by %#x", e.owner, holders)
		}
	case dirShared:
		if holders&^e.sharers != 0 {
			return fmt.Errorf("ccnuma: holders %#x not in sharer set %#x", holders, e.sharers)
		}
		if owners != 0 {
			return fmt.Errorf("ccnuma: dir shared but an owner exists")
		}
	}
	return nil
}
