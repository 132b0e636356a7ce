// Wire is the client half of the simulated Ethernet and the lifecycle of
// every request an external client population sends the simulated host:
// connection ids, SYN/GET frames, the link-level ARQ under fault plans,
// the in-flight table of pooled request records, response framing (the
// header stripped, the body counted), the dispatch of a FIN or an ARQ
// give-up to the population that owns the request, and the /quit
// handshake that shuts the server workers down. The populations own only
// their arrival policies and tallies: the closed-loop trace player here,
// the open-loop load generator in internal/loadgen. Both therefore speak
// one protocol, and a machine restored from a checkpoint re-attaches
// either the same way.
package trace

import (
	"bytes"

	"compass/internal/core"
	"compass/internal/dev"
	"compass/internal/event"
	"compass/internal/fault"
	"compass/internal/netstack"
)

// clientConnBase keeps client-assigned connection ids clear of any
// server-assigned ids.
const clientConnBase = 1 << 16

// quitRetryGap is how long a lost quit waits before re-opening (cycles):
// a fraction of a flap window, so a drain blocked by link-down recovers
// within a bounded number of retries after the window closes.
const quitRetryGap = 250_000

// Flight is one request on the wire. Records are pooled: the live count
// tracks requests in flight, never the client population.
type Flight struct {
	// Start is when the request's SYN leaves, the origin of its latency.
	Start event.Cycle
	// Body is the response body bytes received so far; Size is what the
	// owner expects it to reach.
	Body, Size int
	// Class and Left are the owner's, kept across requests on one record:
	// the load generator's traffic class and the requests left in the
	// session, the current one included.
	Class, Left int

	conn      int
	sawHeader bool
	quit      bool
}

// Owner is the population a wire's requests end in. Done is called when
// the server closes a request's connection, Lost when its frames exhaust
// their retransmits. The record is out of the in-flight table by then;
// the owner either sends its next request on it or releases it, and
// releases it before it checks whether the population has drained.
type Owner struct {
	Done func(f *Flight, at event.Cycle)
	Lost func(f *Flight)
}

// Wire owns the client side of the NIC. Backend-owned: every method
// past construction must run in backend context (or pre-Run setup).
type Wire struct {
	sim   *core.Sim
	nic   *dev.NIC
	owner Owner

	nextConn int

	// syn is the SYN payload and gets the request bytes for each path, built
	// once and shared by every frame that carries them: nobody writes to a
	// received payload.
	syn  []byte
	gets map[string][]byte

	// arq, when non-nil, runs the client half of the link-level ARQ
	// (fault-injected configurations).
	arq *netstack.Endpoint

	inflight map[int]*Flight
	free     []*Flight
	// allocs, live and maxLive are the pool's diagnostics.
	allocs, live, maxLive int

	// workers is the quit fan-out; quitting latches the handshake.
	workers  int
	quitting bool
}

// NewWire attaches the client side to the NIC (setup context). workers
// is how many server workers Quit shuts down.
func NewWire(sim *core.Sim, nic *dev.NIC, port, workers int, owner Owner) *Wire {
	w := &Wire{
		sim: sim, nic: nic, owner: owner, nextConn: clientConnBase,
		syn:      []byte{byte(port >> 8), byte(port)},
		gets:     make(map[string][]byte),
		inflight: make(map[int]*Flight),
		workers:  workers,
	}
	nic.OnTransmit = w.deliver
	return w
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

// InFlight is how many requests are on the wire.
func (w *Wire) InFlight() int { return len(w.inflight) }

// Allocs reports how many request records were ever allocated — the
// pool high-water mark.
func (w *Wire) Allocs() int { return w.allocs }

// MaxLive reports the peak simultaneous records out of the pool.
func (w *Wire) MaxLive() int { return w.maxLive }

// Take hands out a cleared record, growing the pool only when every
// record is out.
func (w *Wire) Take() *Flight {
	var f *Flight
	if n := len(w.free); n > 0 {
		f = w.free[n-1]
		w.free = w.free[:n-1]
	} else {
		f = &Flight{}
		w.allocs++
	}
	w.live++
	if w.live > w.maxLive {
		w.maxLive = w.live
	}
	return f
}

// Release returns a record that is no longer in flight to the pool.
func (w *Wire) Release(f *Flight) {
	*f = Flight{}
	w.free = append(w.free, f)
	w.live--
}

// Request sends f's next request on a new connection: the SYN after
// delay, then an HTTP/1.0 GET for path, whose response body should be
// size bytes. f stays in flight until the owner hears of it.
func (w *Wire) Request(f *Flight, path string, size int, delay event.Cycle) {
	f.conn = w.nextConn
	w.nextConn++
	f.Start = w.sim.CurTime() + delay
	f.Body, f.Size, f.sawHeader = 0, size, false
	w.inflight[f.conn] = f
	w.send(dev.Packet{Conn: f.conn, Flags: dev.FlagSYN, Payload: w.syn}, delay)
	req, ok := w.gets[path]
	if !ok {
		req = []byte("GET " + path + " HTTP/1.0\r\n\r\n")
		w.gets[path] = req
	}
	w.send(dev.Packet{Conn: f.conn, Payload: req}, delay+2000)
}

// send puts a client frame on the wire after delay, through the ARQ
// when enabled.
func (w *Wire) send(pkt dev.Packet, delay event.Cycle) {
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

// Quit sends one /quit per server worker, the i-th (from 1) at
// delay+3000i. The first call latches: later ones do nothing.
func (w *Wire) Quit(delay event.Cycle) {
	if w.quitting {
		return
	}
	w.quitting = true
	for i := 1; i <= w.workers; i++ {
		w.sendQuit(delay + event.Cycle(i)*3000)
	}
}

func (w *Wire) sendQuit(delay event.Cycle) {
	f := w.Take()
	f.quit = true
	w.Request(f, "/quit", 0, delay)
}

// requit re-opens one quit after an earlier one exhausted its
// retransmits: a lost quit would strand its server worker in the accept
// loop forever. One retry per loss keeps the fan-out count exact.
func (w *Wire) requit() { w.sendQuit(1) }

// headerEnd ends an HTTP response header.
var headerEnd = []byte("\r\n\r\n")

// deliver handles server→client traffic: body bytes are counted past
// the header, and a FIN ends the request.
func (w *Wire) deliver(pkt dev.Packet, at event.Cycle) {
	f, ok := w.inflight[pkt.Conn]
	if !ok {
		return
	}
	if pkt.Flags&dev.FlagFIN == 0 {
		payload := pkt.Payload
		if !f.sawHeader {
			i := bytes.Index(payload, headerEnd)
			if i < 0 {
				return
			}
			payload = payload[i+len(headerEnd):]
			f.sawHeader = true
		}
		f.Body += len(payload)
		return
	}
	delete(w.inflight, pkt.Conn)
	if f.quit {
		w.Release(f)
		return
	}
	w.owner.Done(f, at)
}

// fail handles a connection whose frames exhausted their retransmits.
func (w *Wire) fail(conn int) {
	f, ok := w.inflight[conn]
	if !ok {
		return
	}
	delete(w.inflight, conn)
	if f.quit {
		w.sim.ScheduleTask(quitRetryGap, "client-requit", false, w.requit)
		w.Release(f)
		return
	}
	w.owner.Lost(f)
}
