// Package noc models the point-to-point interconnection network of the
// paper's complex backend: a 2D mesh of nodes with per-link latency and
// occupancy-based contention, used by the CC-NUMA directory protocol, the
// COMA attraction-memory model and the software-DSM page transport.
package noc

import "compass/internal/event"

// FlitBytes is the bytes transferred per link cycle.
const FlitBytes int = 8

// Config describes the network.
type Config struct {
	Nodes      int         // number of nodes
	HopLatency event.Cycle // router + wire latency per hop
	InjectCost event.Cycle // fixed cost to enter/exit the network
}

// DefaultConfig is a modest 1998-era mesh: 8-cycle hops, 8-byte links.
func DefaultConfig(nodes int) Config {
	return Config{Nodes: nodes, HopLatency: 8, InjectCost: 4}
}

// Network is a 2D mesh (as square as possible) with one occupancy resource
// per node's injection and ejection port. Link-level contention is
// approximated at the endpoints, which captures hot-spot behaviour without
// per-hop queue simulation.
type Network struct {
	cfg    Config //ckpt:skip rebuilt by New from the machine's Config
	width  int    //ckpt:skip geometry derived from cfg
	inject []*event.Resource
	eject  []*event.Resource

	Messages uint64
	Bytes    uint64
	HopsSum  uint64
}

// New builds the network.
func New(cfg Config) *Network {
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	w := 1
	for w*w < cfg.Nodes {
		w++
	}
	n := &Network{cfg: cfg, width: w}
	for i := 0; i < cfg.Nodes; i++ {
		n.inject = append(n.inject, new(event.Resource))
		n.eject = append(n.eject, new(event.Resource))
	}
	return n
}

// Hops returns the Manhattan distance between two nodes on the mesh.
func (n *Network) Hops(from, to int) int {
	if from == to {
		return 0
	}
	fx, fy := from%n.width, from/n.width
	tx, ty := to%n.width, to/n.width
	dx, dy := fx-tx, fy-ty
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Send models a message of size bytes from node `from` to node `to`,
// issued at cycle now, and returns the arrival cycle. Same-node sends are
// free (the protocol layer should normally special-case them anyway).
func (n *Network) Send(now event.Cycle, from, to, size int) event.Cycle {
	if from == to {
		return now
	}
	hops := n.Hops(from, to)
	flits := (size + FlitBytes - 1) / FlitBytes
	if flits < 1 {
		flits = 1
	}
	serial := event.Cycle(flits) // pipeline: one flit per cycle per link
	t := n.inject[from].Acquire(now, serial)
	t += n.cfg.InjectCost + n.cfg.HopLatency*event.Cycle(hops)
	t = n.eject[to].Acquire(t, serial)
	n.Messages++
	n.Bytes += uint64(size)
	n.HopsSum += uint64(hops)
	return t
}

// RoundTrip models a request of reqSize and a reply of respSize.
func (n *Network) RoundTrip(now event.Cycle, from, to, reqSize, respSize int) event.Cycle {
	t := n.Send(now, from, to, reqSize)
	return n.Send(t, to, from, respSize)
}
