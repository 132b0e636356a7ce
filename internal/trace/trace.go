// Package trace implements the HTTP request trace format and the trace
// player of §4.2: because a live SPECWeb96 load generator "will simply
// time out and drop connections to the server, because the server under
// simulation is too slow", the paper records an intermediate request trace
// and feeds it to the simulated server with a player. Our player drives
// the simulated Ethernet from backend context as a closed-loop client
// population: each virtual client keeps one request outstanding and issues
// the next after the server closes the previous connection.
package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"

	"compass/internal/core"
	"compass/internal/dev"
	"compass/internal/event"
	"compass/internal/fault"
	"compass/internal/netstack"
	"compass/internal/stats"
)

// Request is one trace entry.
type Request struct {
	Path string
	Size int // expected response body bytes (for validation)
}

// Trace is an ordered request list.
type Trace []Request

// Save writes the trace in its text format (`GET "<path>" <size>`). Paths
// are Go-quoted so that spaces, empty paths and control characters survive
// the round trip — Load(Save(t)) == t for any trace.
func (t Trace) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, r := range t {
		if _, err := fmt.Fprintf(bw, "GET %q %d\n", r.Path, r.Size); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load parses the text format. It accepts both the quoted-path form Save
// writes and the legacy unquoted form ("GET <path> <size>") of traces
// recorded before paths were quoted.
func Load(r io.Reader) (Trace, error) {
	var t Trace
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var path string
		var size int
		format := "GET %s %d"
		if strings.HasPrefix(line, `GET "`) {
			format = "GET %q %d"
		}
		if _, err := fmt.Sscanf(line, format, &path, &size); err != nil {
			return nil, fmt.Errorf("trace: bad line %q: %v", line, err)
		}
		t = append(t, Request{Path: path, Size: size})
	}
	return t, sc.Err()
}

// PlayerConfig shapes the client population.
type PlayerConfig struct {
	// Concurrency is the number of virtual clients (connections in
	// flight).
	Concurrency int
	// ThinkCycles is the pause between a completed request and the next
	// one on the same virtual client.
	ThinkCycles event.Cycle
	// Workers is how many server workers to shut down with /quit requests
	// once the trace drains.
	Workers int
	// Port is the server port.
	Port int
}

// Player replays a trace through the NIC.
type Player struct {
	cfg   PlayerConfig
	sim   *core.Sim
	wire  *Wire
	trace Trace

	next     int
	inflight map[int]*flight
	quits    int

	Completed uint64
	BadBytes  uint64
	// ClientFailures counts requests abandoned after the ARQ gave up.
	ClientFailures uint64
	Latency        stats.Histogram
}

type flight struct {
	req     Request
	start   event.Cycle
	body    int
	sawData bool
	quit    bool
}

// NewPlayer attaches a player to the NIC (setup context; call Start to
// begin injecting).
func NewPlayer(sim *core.Sim, nic *dev.NIC, t Trace, cfg PlayerConfig) *Player {
	p := &Player{
		cfg: cfg, sim: sim, trace: t,
		wire:     NewWire(sim, nic, cfg.Port),
		inflight: make(map[int]*flight),
	}
	p.wire.OnPacket = p.onPacket
	p.wire.OnFail = p.arqFail
	return p
}

// EnableARQ gives the client population the same link-level reliability
// the host stack runs under fault injection (setup context, before
// Start): server frames are acknowledged and deduplicated, client frames
// retransmitted on timeout.
func (p *Player) EnableARQ(cfg fault.NetConfig) { p.wire.EnableARQ(cfg) }

// ARQ returns the client endpoint, or nil.
func (p *Player) ARQ() *netstack.Endpoint { return p.wire.ARQ() }

// arqFail abandons a request whose frames exhausted their retransmits,
// keeping the closed loop alive (backend context).
func (p *Player) arqFail(conn int) {
	p.ClientFailures++
	f, ok := p.inflight[conn]
	if !ok {
		return
	}
	delete(p.inflight, conn)
	if f.quit {
		return
	}
	if p.next < len(p.trace) {
		p.launchNext(p.cfg.ThinkCycles)
	} else if len(p.inflight) == 0 {
		p.scheduleQuits(1)
	}
}

// Start launches the initial window of clients. Call before Sim.Run (it
// schedules backend tasks).
func (p *Player) Start() {
	n := p.cfg.Concurrency
	if n > len(p.trace) {
		n = len(p.trace)
	}
	if n == 0 {
		// Empty trace: go straight to shutdown.
		p.scheduleQuits(1)
		return
	}
	for i := 0; i < n; i++ {
		p.launchNext(event.Cycle(1000 * (i + 1)))
	}
}

// launchNext injects the SYN + request for the next trace entry after
// delay. Backend context (or pre-Run setup).
func (p *Player) launchNext(delay event.Cycle) {
	if p.next >= len(p.trace) {
		return
	}
	req := p.trace[p.next]
	p.next++
	conn := p.wire.NewConn()
	p.inflight[conn] = &flight{req: req}
	p.wire.Open(conn, delay)
	p.wire.Get(conn, req.Path, delay+2000)
	if f := p.inflight[conn]; f != nil {
		f.start = p.sim.CurTime() + delay
	}
}

// headerEnd ends an HTTP response header.
var headerEnd = []byte("\r\n\r\n")

// onPacket handles server→client traffic (backend context).
func (p *Player) onPacket(pkt dev.Packet, at event.Cycle) {
	f, ok := p.inflight[pkt.Conn]
	if !ok {
		return
	}
	if pkt.Flags&dev.FlagFIN != 0 {
		// Connection complete.
		delete(p.inflight, pkt.Conn)
		if f.quit {
			return
		}
		p.Completed++
		p.Latency.Observe(uint64(at - f.start))
		// Strip the header from the byte count: body bytes must match.
		if f.body != f.req.Size {
			p.BadBytes++
		}
		if p.next < len(p.trace) {
			p.launchNext(p.cfg.ThinkCycles)
		} else if len(p.inflight) == 0 {
			p.scheduleQuits(1)
		}
		return
	}
	payload := pkt.Payload
	if !f.sawData {
		// First data packet carries the HTTP header; drop it from the
		// body count.
		if i := bytes.Index(payload, headerEnd); i >= 0 {
			payload = payload[i+4:]
			f.sawData = true
		} else {
			return
		}
	}
	f.body += len(payload)
}

// scheduleQuits sends one /quit request per server worker.
func (p *Player) scheduleQuits(delay event.Cycle) {
	for p.quits < p.cfg.Workers {
		p.quits++
		conn := p.wire.NewConn()
		p.inflight[conn] = &flight{quit: true}
		d := delay + event.Cycle(p.quits)*3000
		p.wire.Open(conn, d)
		p.wire.Get(conn, "/quit", d+2000)
	}
}
