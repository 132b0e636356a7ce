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
	"fmt"
	"io"
	"math"
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
// recorded before paths were quoted. Lines have no length limit: quoting
// can make a saved line up to four times as long as the line it was read
// from.
func Load(r io.Reader) (Trace, error) {
	var t Trace
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, math.MaxInt)
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

// Player replays a trace through the NIC: the closed-loop arrival
// policy. Each virtual client's next request leaves when its previous
// one ends; the Wire carries the requests and shuts the workers down.
type Player struct {
	cfg   PlayerConfig
	wire  *Wire
	trace Trace
	next  int

	Completed uint64
	BadBytes  uint64
	Latency   stats.Histogram
}

// NewPlayer attaches a player to the NIC (setup context; call Start to
// begin injecting).
func NewPlayer(sim *core.Sim, nic *dev.NIC, t Trace, cfg PlayerConfig) *Player {
	p := &Player{cfg: cfg, trace: t}
	p.wire = NewWire(sim, nic, cfg.Port, cfg.Workers, Owner{Done: p.done, Lost: p.proceed})
	return p
}

// EnableARQ gives the client population the same link-level reliability
// the host stack runs under fault injection (setup context, before
// Start): server frames are acknowledged and deduplicated, client frames
// retransmitted on timeout.
func (p *Player) EnableARQ(cfg fault.NetConfig) { p.wire.EnableARQ(cfg) }

// ARQ returns the client endpoint, or nil.
func (p *Player) ARQ() *netstack.Endpoint { return p.wire.ARQ() }

// Start launches the initial window of clients. Call before Sim.Run (it
// schedules backend tasks).
func (p *Player) Start() {
	n := min(p.cfg.Concurrency, len(p.trace))
	if n == 0 {
		// Empty trace: go straight to shutdown.
		p.wire.Quit(1)
		return
	}
	for i := 0; i < n; i++ {
		p.launchNext(event.Cycle(1000 * (i + 1)))
	}
}

// launchNext sends the next trace entry after delay (backend context or
// pre-Run setup).
func (p *Player) launchNext(delay event.Cycle) {
	req := p.trace[p.next]
	p.next++
	p.wire.Request(p.wire.Take(), req.Path, req.Size, delay)
}

// done tallies a completed request (backend context).
func (p *Player) done(f *Flight, at event.Cycle) {
	p.Completed++
	p.Latency.Observe(uint64(at - f.Start))
	if f.Body != f.Size {
		p.BadBytes++
	}
	p.proceed(f)
}

// proceed releases an ended request's record and puts its virtual
// client on the next trace entry, or shuts the server down once the
// trace has drained. It is also the owner's Lost: a request whose frames
// exhausted their retransmits is abandoned, and the closed loop goes on.
func (p *Player) proceed(f *Flight) {
	p.wire.Release(f)
	if p.next < len(p.trace) {
		p.launchNext(p.cfg.ThinkCycles)
	} else if p.wire.InFlight() == 0 {
		p.wire.Quit(1)
	}
}
