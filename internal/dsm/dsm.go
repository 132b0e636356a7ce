// Package dsm implements a page-grained software distributed-shared-memory
// protocol (the "software DSM multiprocessors" target of the paper's §5).
//
// Unlike the hardware models, software DSM does its coherence work in page
// faults: the backend VM manager downgrades page protections, and on a
// fault this protocol fetches or invalidates whole pages over the network.
// Between faults every access is node-local, so the per-access model is
// whatever local memory system the node has.
//
// The protocol is single-writer/multiple-reader with an owner per page and
// a copyset, in the style of Li & Hudak's IVY, which matches the era.
package dsm

import (
	"fmt"

	"compass/internal/event"
	"compass/internal/mem"
	"compass/internal/noc"
	"compass/internal/stats"
)

// Access rights a node holds on a page.
type Access uint8

const (
	// None: any reference faults.
	None Access = iota
	// Read: loads succeed, stores fault.
	Read
	// Write: all references succeed; this node is the owner.
	Write
)

// String names the right.
func (a Access) String() string {
	switch a {
	case None:
		return "none"
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("Access(%d)", a)
	}
}

const (
	FaultCycles event.Cycle = 500 // software fault-handler overhead per fault
	CtrlBytes   int         = 64
)

// Config describes the DSM cluster.
type Config struct {
	Nodes int
	Net   noc.Config
}

// DefaultConfig uses a slower network than the hardware targets (software
// DSM historically ran over commodity interconnects).
func DefaultConfig(nodes int) Config {
	cfg := noc.DefaultConfig(nodes)
	cfg.HopLatency = 400 // ~microseconds at 1998 LAN speed, in CPU cycles
	cfg.InjectCost = 200
	return Config{Nodes: nodes, Net: cfg}
}

type pageState struct {
	owner   int
	copyset uint64 // node bitmask including owner
	rights  []Access
}

// Protocol is the DSM coherence engine, keyed by virtual page number of a
// shared region (all nodes map the region at the same base).
type Protocol struct {
	cfg   Config
	net   *noc.Network
	pages map[uint32]*pageState

	ReadFaults    uint64
	WriteFaults   uint64
	PageMoves     uint64
	Invalidations uint64
}

// New builds the protocol; pages initially belong to node 0 with write
// access (the "first allocator owns" convention).
func New(cfg Config) *Protocol {
	cfg.Net.Nodes = cfg.Nodes
	return &Protocol{cfg: cfg, net: noc.New(cfg.Net), pages: make(map[uint32]*pageState)}
}

// Net exposes the interconnect for statistics.
func (p *Protocol) Net() *noc.Network { return p.net }

func (p *Protocol) page(vpn uint32) *pageState {
	ps, ok := p.pages[vpn]
	if !ok {
		rights := make([]Access, p.cfg.Nodes)
		rights[0] = Write
		ps = &pageState{owner: 0, copyset: 1, rights: rights}
		p.pages[vpn] = ps
	}
	return ps
}

// Rights returns node's current access to vpn. The VM manager mirrors this
// into the page-table protection bits.
func (p *Protocol) Rights(vpn uint32, node int) Access {
	return p.page(vpn).rights[node]
}

// ReadFault serves a load fault on vpn by node at cycle now: the owner
// sends a page copy; the faulting node joins the copyset with Read rights.
// The owner's right degrades to Read. Returns the completion cycle and the
// set of (node, newRight) changes for the VM manager to apply.
func (p *Protocol) ReadFault(now event.Cycle, vpn uint32, node int) event.Cycle {
	p.ReadFaults++
	ps := p.page(vpn)
	t := now + FaultCycles
	if ps.rights[node] != None {
		return t // spurious fault (already readable): just handler cost
	}
	// Request to owner, page back.
	t = p.net.Send(t, node, ps.owner, CtrlBytes)
	t = p.net.Send(t, ps.owner, node, mem.PageSize+CtrlBytes)
	p.PageMoves++
	if ps.rights[ps.owner] == Write {
		ps.rights[ps.owner] = Read
	}
	ps.rights[node] = Read
	ps.copyset |= 1 << uint(node)
	return t
}

// WriteFault serves a store fault on vpn by node: every other copy is
// invalidated, ownership transfers, and the faulting node gets Write.
func (p *Protocol) WriteFault(now event.Cycle, vpn uint32, node int) event.Cycle {
	p.WriteFaults++
	ps := p.page(vpn)
	t := now + FaultCycles
	if ps.rights[node] == Write {
		return t
	}
	// Fetch the page from the owner if we have no copy at all.
	if ps.rights[node] == None {
		t = p.net.Send(t, node, ps.owner, CtrlBytes)
		t = p.net.Send(t, ps.owner, node, mem.PageSize+CtrlBytes)
		p.PageMoves++
	}
	// Invalidate every other copy (parallel; wait for slowest ack).
	latest := t
	for n := 0; n < p.cfg.Nodes; n++ {
		if n == node || ps.copyset>>uint(n)&1 == 0 {
			continue
		}
		p.Invalidations++
		ti := p.net.RoundTrip(t, node, n, CtrlBytes, CtrlBytes)
		ps.rights[n] = None
		if ti > latest {
			latest = ti
		}
	}
	ps.owner = node
	ps.copyset = 1 << uint(node)
	ps.rights[node] = Write
	return latest
}

// Owner returns the current owner of vpn (test hook).
func (p *Protocol) Owner(vpn uint32) int { return p.page(vpn).owner }

// Copyset returns the copyset bitmask of vpn (test hook).
func (p *Protocol) Copyset(vpn uint32) uint64 { return p.page(vpn).copyset }

// AddCounters dumps protocol statistics.
func (p *Protocol) AddCounters(c *stats.Counters) {
	c.Inc("dsm.faults.read", p.ReadFaults)
	c.Inc("dsm.faults.write", p.WriteFaults)
	c.Inc("dsm.pagemoves", p.PageMoves)
	c.Inc("dsm.invalidations", p.Invalidations)
	c.Inc("dsm.net.messages", p.net.Messages)
	c.Inc("dsm.net.bytes", p.net.Bytes)
}

// CheckInvariant verifies SWMR at page granularity for vpn: either one
// writer and no readers, or any number of readers and no writer; the
// copyset covers every node with rights; the owner always has rights if
// anyone does.
func (p *Protocol) CheckInvariant(vpn uint32) error {
	ps := p.page(vpn)
	writers, readers := 0, 0
	for n, r := range ps.rights {
		switch r {
		case Write:
			writers++
			if ps.owner != n {
				return fmt.Errorf("dsm: page %d writable at %d but owned by %d", vpn, n, ps.owner)
			}
		case Read:
			readers++
		}
		if r != None && ps.copyset>>uint(n)&1 == 0 {
			return fmt.Errorf("dsm: page %d node %d has %v but not in copyset", vpn, n, r)
		}
	}
	if writers > 1 {
		return fmt.Errorf("dsm: page %d has %d writers", vpn, writers)
	}
	if writers == 1 && readers > 0 {
		return fmt.Errorf("dsm: page %d has a writer and %d readers", vpn, readers)
	}
	return nil
}
