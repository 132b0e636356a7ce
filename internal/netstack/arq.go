// Link-level ARQ: stop-and-wait retransmission with exponential backoff
// and duplicate suppression, shared by the host stack and the external
// client (the trace player). Real TCP recovers lost segments end to end;
// this simplified stack keeps connection payloads implicit frames, so
// reliability lives one layer down — every wire frame carries a
// per-connection sequence number, the receiver acknowledges in-order
// frames and suppresses duplicates, and the sender retransmits on a
// timer that doubles per attempt. All of it runs in backend context on
// simulated time, so the recovery cost lands in the simulated run.
package netstack

import (
	"compass/internal/core"
	"compass/internal/dev"
	"compass/internal/event"
	"compass/internal/fault"
)

// txState tracks the send side of one connection: stop-and-wait, so at
// most one frame is unacknowledged; later frames queue behind it.
type txState struct {
	nextSeq  uint32
	inflight *dev.Packet
	attempts int
	epoch    uint64 // invalidates pending retransmit timers
	queue    []dev.Packet
}

// Endpoint is one side's ARQ state over the wire. Backend-owned: every
// method must run in backend context.
type Endpoint struct {
	sim  *core.Sim
	cfg  fault.NetConfig
	send func(pkt dev.Packet)
	fail func(conn int)

	tx map[int]*txState
	rx map[int]uint32 // next expected seq per connection

	Retransmits   uint64
	DupSuppressed uint64
	AcksSent      uint64
	Failures      uint64
}

// NewEndpoint builds an ARQ endpoint. send puts a frame on the wire
// (nic.Transmit for the host, nic.Inject for the client); fail reports a
// connection whose frame exhausted MaxRetransmits.
func NewEndpoint(sim *core.Sim, cfg fault.NetConfig, send func(pkt dev.Packet), fail func(conn int)) *Endpoint {
	return &Endpoint{
		sim: sim, cfg: cfg, send: send, fail: fail,
		tx: make(map[int]*txState),
		rx: make(map[int]uint32),
	}
}

// Send assigns the next sequence number and transmits the frame, or
// queues it while an earlier frame is still unacknowledged.
func (e *Endpoint) Send(pkt dev.Packet) {
	ts := e.tx[pkt.Conn]
	if ts == nil {
		ts = &txState{}
		e.tx[pkt.Conn] = ts
	}
	pkt.Seq = ts.nextSeq
	ts.nextSeq++
	if ts.inflight != nil {
		ts.queue = append(ts.queue, pkt)
		return
	}
	p := pkt
	ts.inflight = &p
	ts.attempts = 0
	e.xmit(pkt.Conn, ts)
}

// xmit puts the inflight frame on the wire and arms its retransmit
// timer. The event queue cannot cancel a task, so a stale timer
// recognizes itself by epoch and does nothing.
func (e *Endpoint) xmit(conn int, ts *txState) {
	ts.attempts++
	ts.epoch++
	epoch := ts.epoch
	e.send(*ts.inflight)
	shift := ts.attempts - 1
	if shift > 10 {
		shift = 10 // cap the backoff at 1024x
	}
	rto := event.Cycle(e.cfg.RetransmitTimeout) << shift
	e.sim.ScheduleTask(rto, "arq-rto", false, func() {
		if e.tx[conn] != ts || ts.epoch != epoch || ts.inflight == nil {
			return // acknowledged or superseded meanwhile
		}
		if ts.attempts > e.cfg.MaxRetransmits {
			e.Failures++
			delete(e.tx, conn)
			if e.fail != nil {
				e.fail(conn)
			}
			return
		}
		e.Retransmits++
		e.xmit(conn, ts)
	})
}

// OnAck processes an acknowledgment: clears the inflight frame and
// starts the next queued one. Stale or duplicated ACKs are ignored.
func (e *Endpoint) OnAck(pkt dev.Packet) {
	ts := e.tx[pkt.Conn]
	if ts == nil || ts.inflight == nil || ts.inflight.Seq != pkt.Seq {
		return
	}
	finAcked := ts.inflight.Flags&dev.FlagFIN != 0
	ts.inflight = nil
	ts.epoch++ // disarm the pending timer
	if len(ts.queue) > 0 {
		next := ts.queue[0]
		ts.queue = ts.queue[1:]
		p := next
		ts.inflight = &p
		ts.attempts = 0
		e.xmit(pkt.Conn, ts)
		return
	}
	if finAcked {
		delete(e.tx, pkt.Conn) // FIN is the last frame of a connection
	}
}

// Accept decides whether a received frame goes up the stack. In-order
// frames are acknowledged and delivered; duplicates are re-acknowledged
// (the first ACK may have been lost) and suppressed. A frame for an
// unknown connection with a nonzero sequence is a late retransmit for a
// connection already torn down: acknowledge so the sender stops, but
// deliver nothing.
func (e *Endpoint) Accept(pkt dev.Packet) bool {
	exp, known := e.rx[pkt.Conn]
	if !known && pkt.Seq != 0 {
		e.ack(pkt)
		e.DupSuppressed++
		return false
	}
	switch {
	case pkt.Seq == exp:
		e.rx[pkt.Conn] = exp + 1
		e.ack(pkt)
		if pkt.Flags&dev.FlagFIN != 0 {
			delete(e.rx, pkt.Conn) // peer sends nothing after its FIN
		}
		return true
	case pkt.Seq < exp:
		e.ack(pkt)
		e.DupSuppressed++
		return false
	default:
		// Future frame: cannot happen under stop-and-wait (the sender
		// serializes); a corrupted-but-delivered seq would land here.
		return false
	}
}

func (e *Endpoint) ack(pkt dev.Packet) {
	e.AcksSent++
	e.send(dev.Packet{Conn: pkt.Conn, Flags: dev.FlagACK, Seq: pkt.Seq})
}

// DropRx forgets the receive state of a closed connection, so a reused
// connection id starts a fresh sequence space.
func (e *Endpoint) DropRx(conn int) { delete(e.rx, conn) }

// Busy reports whether any connection still has unacknowledged or
// undelivered state (used by the quiescence check before a checkpoint).
func (e *Endpoint) Busy() bool { return len(e.tx) > 0 || len(e.rx) > 0 }
