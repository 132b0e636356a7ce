// Package snoop implements a bus-based shared-memory multiprocessor with
// MESI snooping coherence over one or two cache levels per processor.
//
// With a single cache level and contention disabled this is the paper's
// "simple backend" ("only a one-level cache per processor"); with two
// levels and a contended split-transaction bus it is the SMP flavour of the
// complex backend.
package snoop

import (
	"fmt"
	"math/bits"

	"compass/internal/cache"
	"compass/internal/event"
	"compass/internal/mem"
	"compass/internal/stats"
)

// Config describes the SMP target.
type Config struct {
	CPUs int
	L1   cache.Config
	// L2 is optional; a zero Size disables the second level.
	L2 cache.Config
	// Contention enables bus occupancy modelling; when false the bus is
	// treated as infinitely wide (the simple backend's idealization).
	Contention bool
}

const (
	// BusCycles is the bus occupancy of one address+data transaction.
	BusCycles event.Cycle = 12
	// MemCycles is the DRAM access time beyond the bus.
	MemCycles event.Cycle = 30
	// CacheToCache is the extra cost of an intervention (dirty line
	// supplied by a peer cache).
	CacheToCache event.Cycle = 18
)

// DefaultL1 is a 1998-vintage 32 KB 2-way 32 B-line L1.
func DefaultL1() cache.Config {
	return cache.Config{Size: 32 << 10, LineSize: 32, Assoc: 2, Latency: 1}
}

// DefaultL2 is a 512 KB 4-way 64 B-line L2.
func DefaultL2() cache.Config {
	return cache.Config{Size: 512 << 10, LineSize: 64, Assoc: 4, Latency: 8}
}

// SimpleConfig is the paper's simple backend: one cache level, ideal bus.
func SimpleConfig(cpus int) Config {
	return Config{
		CPUs: cpus, L1: DefaultL1(),
		Contention: false,
	}
}

// SMPConfig is the two-level contended-bus SMP target.
func SMPConfig(cpus int) Config {
	return Config{
		CPUs: cpus, L1: DefaultL1(), L2: DefaultL2(),
		Contention: true,
	}
}

type cpuCaches struct {
	l1 *cache.Cache
	l2 *cache.Cache // nil when single-level
}

// MaxCPUs is the most processors a snooping system has: the holder filter
// keeps a line's holders in one 64-bit mask.
const MaxCPUs = 64

// holderFrames is how many frames one chunk of the holder filter covers.
const holderFrames = 64

// frameHolders is the holder filter's record of one physical frame. While at
// most one CPU caches lines of the frame it is private: owner is that CPU and
// lines how many it holds (owner means nothing while lines is 0). When a
// second CPU is about to cache one, the frame becomes shared: slot, one more
// than its place in the mask slab, names a holder mask for each of its
// coherence-level lines, and lines counts the bits set in them. A shared frame
// whose last line goes gives its slot back and is private again.
type frameHolders struct {
	slot  uint32
	lines uint16
	owner uint8
}

// System is the snooping SMP memory system.
type System struct {
	cfg  Config //ckpt:skip rebuilt by New from the machine's Config
	cpus []cpuCaches
	bus  *event.Resource
	// holders is the exact holder filter: which CPUs hold each line at the
	// coherence level, so that a miss probes exactly the peers that have the
	// line. Chunks of holderFrames records, allocated when a CPU first misses
	// on a line of the chunk; a chunk never moves once allocated.
	holders [][]frameHolders //ckpt:skip derived from the cache arrays; Restore rebuilds it
	// masks is the slab of shared frames' holder masks, a slot of a word per
	// line each, and free the slots given back. Sharing a frame can append to
	// the slab and move it: hold an index into it, never a pointer.
	masks []uint64 //ckpt:skip derived from the cache arrays; Restore rebuilds it
	free  []uint32 //ckpt:skip derived from the cache arrays; Restore rebuilds it
	// lineShift is log2 of the coherence-level line size, slotShift log2 of
	// the lines in a frame.
	lineShift, slotShift uint //ckpt:skip geometry derived from cfg by New
	// cur is the reference being served and the records of holders the last
	// ones used (run): records outlive their run, the chunks never moving.
	cur run //ckpt:skip views into holders; rebuild drops them
	// probeAll is a test hook: snoopPeers probes every peer, the reference
	// the filter is held to, and vain counts the probes that found nothing.
	probeAll bool   //ckpt:skip test hook, never set outside tests
	vain     uint64 //ckpt:skip test hook: nonzero only with probeAll, or the filter is not exact

	loads, stores       uint64
	l1Hits, l2Hits      uint64
	snoopsSupplied      uint64
	invalidations       uint64
	memReads, memWrites uint64
}

// New builds the system. It panics on more than MaxCPUs processors.
func New(cfg Config) *System {
	if cfg.CPUs > MaxCPUs {
		panic(fmt.Sprintf("snoop: %d CPUs, at most %d", cfg.CPUs, MaxCPUs))
	}
	s := &System{cfg: cfg, bus: new(event.Resource)}
	for i := 0; i < cfg.CPUs; i++ {
		cc := cpuCaches{l1: cache.New(cfg.L1)}
		if cfg.L2.Size > 0 {
			cc.l2 = cache.New(cfg.L2)
		}
		s.cpus = append(s.cpus, cc)
	}
	co := cfg.L1
	if cfg.L2.Size > 0 {
		co = cfg.L2
	}
	s.lineShift = uint(bits.TrailingZeros(uint(co.LineSize)))
	s.slotShift = mem.PageShift - s.lineShift
	return s
}

// frame returns the filter's record of frame f; its chunk is allocated if
// this is the first anyone asks about it.
func (s *System) frame(f uint64) *frameHolders {
	c := f / holderFrames
	if c >= uint64(len(s.holders)) {
		s.holders = append(s.holders, make([][]frameHolders, c+1-uint64(len(s.holders)))...)
	}
	if s.holders[c] == nil {
		s.holders[c] = make([]frameHolders, holderFrames)
	}
	return &s.holders[c][f%holderFrames]
}

// frameRef is the record of the frame a run last asked about: looked up once,
// in hand for the references that follow.
type frameRef struct {
	next uint64 // one more than the frame: 0 before anybody asked
	h    *frameHolders
}

// recordOf returns the record of pa's frame: the one in hand if it is that,
// else the one lookUp puts in hand.
func (s *System) recordOf(ref *frameRef, pa mem.PhysAddr) *frameHolders {
	if pa.Frame()+1 != ref.next {
		return s.lookUp(ref, pa)
	}
	return ref.h
}

// lookUp puts the record of pa's frame in hand and returns it. It stays a
// call (go:noinline): inlined, it would put recordOf over the inlining
// budget.
//
//go:noinline
func (s *System) lookUp(ref *frameRef, pa mem.PhysAddr) *frameHolders {
	ref.next, ref.h = pa.Frame()+1, s.frame(pa.Frame())
	return ref.h
}

// mine reports whether no CPU but cpu holds a line of h's frame: the frame is
// private to cpu, or nobody holds a line of it.
func (h *frameHolders) mine(cpu int) bool {
	return h.slot == 0 && (h.lines == 0 || int(h.owner) == cpu)
}

// line is the index in masks of the holder mask of pa's line, h being the
// record of its frame, which is shared.
func (s *System) line(h *frameHolders, pa mem.PhysAddr) int {
	return int(h.slot-1)<<s.slotShift | int(pa&mem.PageMask)>>s.lineShift
}

// share makes h, the record of frame f, shared: it takes a slot of masks and
// sets the owner's bit on the lines of f the owner holds, which Lookup finds
// without moving a stamp.
func (s *System) share(h *frameHolders, f uint64) {
	var slot uint32
	if n := len(s.free); n > 0 {
		slot, s.free = s.free[n-1], s.free[:n-1]
	} else {
		slot = uint32(len(s.masks) >> s.slotShift)
		s.masks = append(s.masks, make([]uint64, 1<<s.slotShift)...)
	}
	h.slot = slot + 1
	owner, bit := s.coherenceCache(&s.cpus[h.owner]), uint64(1)<<h.owner
	base, left := mem.PhysAddr(f)<<mem.PageShift, h.lines
	for i := 0; left > 0; i++ {
		if pa := base + mem.PhysAddr(i)<<s.lineShift; owner.Lookup(pa) != cache.Invalid {
			s.masks[s.line(h, pa)] = bit
			left--
		}
	}
}

// gain records that cpu now holds pa's line, h being the record of its
// frame. A line of a frame another CPU holds lines of makes the frame shared;
// on a miss snoopPeers has seen to that already.
func (s *System) gain(h *frameHolders, cpu int, pa mem.PhysAddr) {
	if h.mine(cpu) {
		h.own(cpu)
		return
	}
	if h.slot == 0 {
		s.share(h, pa.Frame())
	}
	s.masks[s.line(h, pa)] |= 1 << cpu
	h.lines++
}

// own counts a line cpu now holds of h's frame, which no other CPU holds a
// line of (mine).
func (h *frameHolders) own(cpu int) {
	h.owner = uint8(cpu)
	h.lines++
}

// lose records that cpu no longer holds pa's line (a victim, or an
// invalidating probe), h being the record of its frame.
func (s *System) lose(h *frameHolders, cpu int, pa mem.PhysAddr) {
	h.lines--
	if h.slot == 0 {
		return
	}
	s.masks[s.line(h, pa)] &^= 1 << cpu
	if h.lines == 0 {
		s.free = append(s.free, h.slot-1)
		h.slot = 0
	}
}

// rebuild makes the holder filter anew from the cache arrays.
func (s *System) rebuild() {
	s.holders, s.masks, s.free, s.cur = nil, nil, nil, run{}
	for i := range s.cpus {
		s.coherenceCache(&s.cpus[i]).EachLine(func(pa mem.PhysAddr) { s.gain(s.frame(pa.Frame()), i, pa) })
	}
}

// Name implements memsys.Model.
func (s *System) Name() string {
	if s.cpus[0].l2 == nil {
		return "simple"
	}
	return "smp"
}

// busAcquire charges one bus transaction and returns its completion time.
func (s *System) busAcquire(now event.Cycle) event.Cycle {
	if !s.cfg.Contention {
		return now + BusCycles
	}
	return s.bus.Acquire(now, BusCycles)
}

// coherenceLine is the granularity at which the protocol operates: the
// largest line size present (L2 if configured, else L1).
func (s *System) coherenceCache(c *cpuCaches) *cache.Cache {
	if c.l2 != nil {
		return c.l2
	}
	return c.l1
}

// Access implements memsys.Model.
func (s *System) Access(now event.Cycle, cpu int, pa mem.PhysAddr, write bool) event.Cycle {
	s.count(write, 1)
	return s.reference(s.begin(cpu, write), now, pa)
}

// AccessRun implements memsys.Model. The references are served one after the
// other by the one body there is (reference), as Access serves its own; what
// a run saves is the model's caller a call per reference, and the counting.
func (s *System) AccessRun(now event.Cycle, cpu int, pa, stride mem.PhysAddr, n int, issue, until event.Cycle, write bool) (served int, issued, done event.Cycle) {
	r := s.begin(cpu, write)
	for issued = now; ; pa += stride {
		done = s.reference(r, issued, pa)
		served++
		if served >= n || done+issue >= until {
			break
		}
		issued = done + issue
	}
	s.count(write, uint64(served))
	return served, issued, done
}

// count counts n loads or stores.
func (s *System) count(write bool, n uint64) {
	if write {
		s.stores += n
	} else {
		s.loads += n
	}
}

// begin sets cur up for references by cpu.
func (s *System) begin(cpu int, write bool) *run {
	r := &s.cur
	r.cpu, r.me, r.write = cpu, &s.cpus[cpu], write
	return r
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

// run is what consecutive references have in common: who makes them, and the
// two records of the holder filter their misses keep coming back to — the
// record of the frame the lines are in and that of the frame their victims are
// from (a copy streaming through a set evicts an older page line by line).
type run struct {
	cpu          int
	me           *cpuCaches
	write        bool
	row, victims frameRef
}

// reference takes one reference of a run through the hierarchy and the bus
// and returns its completion time. Each level is walked once: the lookup
// names the way a fill will take (cache.Touch), and the fill at the end goes
// there (cache.Place), which sees for itself when the inclusion probe of a
// second-level victim has emptied a way of the first-level set meanwhile.
//
// One body serves one level and two. A bus miss on a frame no other CPU
// holds a line of (mine) has no peer to probe: memory supplies the line
// (supply) and the requester's record counts it (own), with no call on the
// way when the frame's record is in hand (recordOf). Probing the peers
// (snoopPeers) and sharing a frame (gain) are calls, taken only when
// another CPU holds lines of the frame or probeAll asks for every peer.
func (s *System) reference(r *run, now event.Cycle, pa mem.PhysAddr) event.Cycle {
	me, write := r.me, r.write
	t := now + event.Cycle(s.cfg.L1.Latency)

	l1, w1 := me.l1.Touch(pa, write)
	if l1.Serves(write) {
		s.l1Hits++
		return t
	}
	// A hit that gets here is a write to a Shared line: upgrade via the bus
	// below (invalidation).

	// co is the coherence-level cache, w its way and have its state of pa.
	co, w, have := me.l1, w1, l1
	if me.l2 != nil {
		t += event.Cycle(s.cfg.L2.Latency)
		l2, w2 := me.l2.Touch(pa, write)
		if l2.Serves(write) {
			s.l2Hits++
			st := l2
			if write {
				st = cache.Modified
			}
			s.writeback(me.l1.Place(w1, pa, st, l1, write))
			return t
		}
		co, w, have = me.l2, w2, l2
	}

	// Miss (or upgrade): one bus transaction. The peers are probed only when
	// another CPU holds lines of the frame, or probeAll asks for all of them.
	t = s.busAcquire(t)
	h := s.recordOf(&r.row, pa)
	var st cache.State
	if h.mine(r.cpu) && !s.probeAll {
		st = s.supply(&t, write, false, false)
		if have == cache.Invalid {
			h.own(r.cpu)
		}
	} else {
		st = s.snoopPeers(r.cpu, pa, write, &t, h)
		if have == cache.Invalid {
			s.gain(h, r.cpu, pa)
		}
	}
	if v := co.Place(w, pa, st, have, write); v.Valid {
		// The CPU holds a line less of the victim's frame. A second-level
		// victim's first-level copies go with it (inclusion), and make it
		// dirty if any of them was.
		s.lose(s.recordOf(&r.victims, v.Addr), r.cpu, v.Addr)
		if me.l2 != nil && me.l1.ProbeSpan(v.Addr, s.cfg.L2.LineSize, true) {
			v.Dirty = true
		}
		s.writeback(v)
	}
	if me.l2 != nil {
		s.writeback(me.l1.Place(w1, pa, st, l1, write))
	}
	return t
}

// snoopPeers probes the other caches that hold the line (h is the record of
// its frame, which cpu is about to cache a line of: a frame private to another
// CPU becomes shared first) and returns the state the requester's caches
// install. It also accounts memory or cache-to-cache supply time.
func (s *System) snoopPeers(cpu int, pa mem.PhysAddr, write bool, t *event.Cycle, h *frameHolders) cache.State {
	var peers uint64
	if !h.mine(cpu) {
		if h.slot == 0 {
			s.share(h, pa.Frame())
		}
		peers = s.masks[s.line(h, pa)]
	}
	if s.probeAll {
		peers = ^uint64(0) >> (64 - len(s.cpus))
	}
	shared := false
	dirtySupply := false
	for peers &^= 1 << cpu; peers != 0; peers &= peers - 1 {
		i := bits.TrailingZeros64(peers)
		peer := &s.cpus[i]
		prev := s.coherenceCache(peer).Probe(pa, write)
		if prev == cache.Invalid {
			s.vain++
			continue
		}
		if write {
			s.lose(h, i, pa)
		}
		// Keep L1 consistent with the coherence level (inclusion). The L2
		// line may span several L1 lines; probe each of them.
		if peer.l2 != nil {
			peer.l1.ProbeSpan(pa, s.cfg.L2.LineSize, write)
		}
		if write {
			s.invalidations++
		}
		shared = true
		if prev == cache.Modified {
			dirtySupply = true
		}
	}
	return s.supply(t, write, shared, dirtySupply)
}

// supply accounts the supply of a missed line, by a peer's Modified copy
// when dirty (and a reflective write of it to memory), else by memory, and
// returns the state the requester's caches install: Modified for a write,
// else Shared when a peer holds the line and Exclusive when none does.
func (s *System) supply(t *event.Cycle, write, shared, dirty bool) cache.State {
	if dirty {
		s.snoopsSupplied++
		*t += CacheToCache
		s.memWrites++
	} else {
		s.memReads++
		*t += MemCycles
	}
	switch {
	case write:
		return cache.Modified
	case shared:
		return cache.Shared
	}
	return cache.Exclusive
}

// writeback accounts the writeback of a victim if there is one and it is
// dirty: an extra bus and memory charge folded into occupancy.
func (s *System) writeback(v cache.Victim) {
	if v.Dirty {
		s.memWrites++
		if s.cfg.Contention {
			// Writeback occupies the bus but the processor does not wait.
			s.bus.Acquire(s.bus.NextFree(), BusCycles)
		}
	}
}

// AddCounters implements memsys.Model.
func (s *System) AddCounters(c *stats.Counters) {
	p := s.Name()
	c.Inc(p+".loads", s.loads)
	c.Inc(p+".stores", s.stores)
	c.Inc(p+".l1.hits", s.l1Hits)
	c.Inc(p+".l2.hits", s.l2Hits)
	c.Inc(p+".cache2cache", s.snoopsSupplied)
	c.Inc(p+".invalidations", s.invalidations)
	c.Inc(p+".mem.reads", s.memReads)
	c.Inc(p+".mem.writes", s.memWrites)
	c.Inc(p+".bus.requests", s.bus.Requests)
	c.Inc(p+".bus.waitcycles", uint64(s.bus.Waits))
	var h1, m1 uint64
	for i := range s.cpus {
		h1 += s.cpus[i].l1.Hits
		m1 += s.cpus[i].l1.Misses
	}
	c.Inc(p+".l1.lookups", h1+m1)
}

// CacheState reports the coherence-level state of pa in cpu's caches
// (test hook).
func (s *System) CacheState(cpu int, pa mem.PhysAddr) cache.State {
	return s.coherenceCache(&s.cpus[cpu]).Lookup(pa)
}

// CheckCoherence verifies the single-writer/multiple-reader invariant for
// the line containing pa: at most one cache in M or E, and if any is M or E
// then no other cache holds the line at all. It returns an error describing
// the violation, or nil. Used by property tests.
func (s *System) CheckCoherence(pa mem.PhysAddr) error {
	owners, holders := 0, 0
	for i := range s.cpus {
		st := s.coherenceCache(&s.cpus[i]).Lookup(pa)
		if st == cache.Invalid {
			continue
		}
		holders++
		if st == cache.Modified || st == cache.Exclusive {
			owners++
		}
	}
	if owners > 1 {
		return fmt.Errorf("snoop: %d owners of line %#x", owners, uint64(pa))
	}
	if owners == 1 && holders > 1 {
		return fmt.Errorf("snoop: owned line %#x also held by %d others", uint64(pa), holders-1)
	}
	return nil
}
