// Wire is the client half of the simulated Ethernet: everything an
// external client population needs to talk to the simulated host —
// connection-id allocation, SYN/GET/quit frame construction, and the
// link-level ARQ discipline under fault plans. The closed-loop trace
// player and the open-loop load generator (internal/loadgen) both drive
// the NIC through one Wire, so the two client models stay protocol-
// identical and a machine restored from a checkpoint re-attaches either
// the same way.
package trace

import (
	"compass/internal/core"
	"compass/internal/dev"
	"compass/internal/event"
	"compass/internal/fault"
	"compass/internal/netstack"
)

// clientConnBase keeps client-assigned connection ids clear of any
// server-assigned ids.
const clientConnBase = 1 << 16

// Wire owns the client side of the NIC. Backend-owned: every method
// past construction must run in backend context (or pre-Run setup).
type Wire struct {
	sim *core.Sim
	nic *dev.NIC

	nextConn int

	// syn is the SYN payload and gets the request bytes for each path, built
	// once and shared by every frame that carries them: nobody writes to a
	// received payload.
	syn  []byte
	gets map[string][]byte

	// arq, when non-nil, runs the client half of the link-level ARQ
	// (fault-injected configurations).
	arq *netstack.Endpoint

	// OnPacket receives server→client traffic after ARQ filtering.
	OnPacket func(pkt dev.Packet, at event.Cycle)
	// OnFail reports a connection whose frames exhausted their
	// retransmits (ARQ configurations only).
	OnFail func(conn int)
}

// NewWire attaches the client side to the NIC (setup context).
func NewWire(sim *core.Sim, nic *dev.NIC, port int) *Wire {
	w := &Wire{
		sim: sim, nic: nic, nextConn: clientConnBase,
		syn:  []byte{byte(port >> 8), byte(port)},
		gets: make(map[string][]byte),
	}
	nic.OnTransmit = w.deliver
	return w
}

func (w *Wire) deliver(pkt dev.Packet, at event.Cycle) {
	if w.OnPacket != nil {
		w.OnPacket(pkt, at)
	}
}

func (w *Wire) fail(conn int) {
	if w.OnFail != nil {
		w.OnFail(conn)
	}
}

// EnableARQ gives the client population the same link-level reliability
// the host stack runs under fault injection (setup context): server
// frames are acknowledged and deduplicated, client frames retransmitted
// on timeout.
func (w *Wire) EnableARQ(cfg fault.NetConfig) {
	w.arq = netstack.NewEndpoint(w.sim, cfg, w.inject, w.fail)
	w.nic.OnTransmit = w.arqDeliver
}

func (w *Wire) inject(pkt dev.Packet) { w.nic.Inject(pkt, 0) }

// arqDeliver is the receive path with ARQ on: ACKs go to the sender
// state, data frames are acknowledged/deduplicated before delivery.
func (w *Wire) arqDeliver(pkt dev.Packet, at event.Cycle) {
	if pkt.Flags&dev.FlagACK != 0 {
		w.arq.OnAck(pkt)
		return
	}
	if !w.arq.Accept(pkt) {
		return
	}
	w.deliver(pkt, at)
}

// ARQ returns the client endpoint, or nil.
func (w *Wire) ARQ() *netstack.Endpoint { return w.arq }

// NewConn allocates the next client connection id.
func (w *Wire) NewConn() int {
	c := w.nextConn
	w.nextConn++
	return c
}

// NextConnID exposes the allocator position (checkpoint state: a
// resumed client population must not reuse ids).
func (w *Wire) NextConnID() int { return w.nextConn }

// SetNextConnID restores the allocator position after a checkpoint
// restore. Values below the client id base are ignored.
func (w *Wire) SetNextConnID(n int) {
	if n >= clientConnBase {
		w.nextConn = n
	}
}

// Send puts a client frame on the wire after delay, through the ARQ
// when enabled (backend context or pre-Run setup).
func (w *Wire) Send(pkt dev.Packet, delay event.Cycle) {
	if w.arq == nil {
		w.nic.Inject(pkt, delay)
		return
	}
	if delay == 0 {
		w.arq.Send(pkt)
		return
	}
	w.sim.ScheduleTask(delay, "client-send", false, func() { w.arq.Send(pkt) })
}

// Open injects the SYN that opens conn toward the server port.
func (w *Wire) Open(conn int, delay event.Cycle) {
	w.Send(dev.Packet{Conn: conn, Flags: dev.FlagSYN, Payload: w.syn}, delay)
}

// Get injects an HTTP/1.0 GET for path on conn.
func (w *Wire) Get(conn int, path string, delay event.Cycle) {
	req, ok := w.gets[path]
	if !ok {
		req = []byte("GET " + path + " HTTP/1.0\r\n\r\n")
		w.gets[path] = req
	}
	w.Send(dev.Packet{Conn: conn, Payload: req}, delay)
}
