// Package loadgen is the open-loop traffic generator: the workload
// frontend COMPASS §4.2 deliberately left out. The paper replays a
// captured trace because a live closed-loop generator "will simply time
// out and drop connections to the server"; the trace player reproduces
// that design, but it cannot model production-scale populations whose
// arrival rate does not slow down when the server does. This package
// models millions of simulated clients in O(traffic-classes) memory:
// each class is an aggregate arrival process (Poisson, thinned through
// flash-crowd windows and a periodic MMPP modulation) with heavy-tailed
// think times and Zipf object popularity, and only the in-flight
// requests own records, pooled by the wire.
//
// The generator owns arrivals and tallies, nothing else: every request
// it offers travels through a trace.Wire, which owns the request's
// lifecycle (in-flight record, response framing, link-level ARQ under
// fault plans, the /quit handshake) for the closed-loop player too, so
// the two client models are protocol-identical. It is deterministic
// (seeded counter-based streams, never wall clock) and checkpoint-safe
// (snapshot.go captures every draw counter and tally).
//
// Each class's arrival process runs on a backend lane (core.Sim.Lane
// keyed by class index), so a sharded backend thins the client
// population in parallel. That lane side — the gap draws, the thinning
// envelope, the budget share and the lane→home batch ring — is package
// arrival; this package is the home side: the wire, the in-flight
// table, the object and think draws and the tallies. The split is the
// isolation rule, not a convention: arrival imports only internal/event
// and internal/fault, so a lane tick cannot name anything here
// (DESIGN.md §15). A surviving arrival reaches the home side one
// lookahead later, through Lane.Send, in serial and sharded mode alike,
// so the schedule is byte-identical at every shard count.
package loadgen

import (
	"fmt"

	"compass/internal/arrival"
	"compass/internal/core"
	"compass/internal/dev"
	"compass/internal/event"
	"compass/internal/fault"
	"compass/internal/stats"
	"compass/internal/trace"
)

// Generator is the open-loop client population. Construct with New,
// optionally EnableARQ, then Start before Sim.Run; the simulation
// drains once the request budget is offered, every in-flight request
// resolves, and the server workers have been shut down.
type Generator struct {
	//ckpt:skip the plan; a resumed generator is reconstructed from the same spec
	cfg     Config
	wire    *trace.Wire
	classes []*class

	//ckpt:skip live tick bookkeeping; zero at quiescence by construction
	liveTicks int
}

// class is one traffic class's aggregate state: O(1) in the client
// population. The arrival side runs on the class's lane in package
// arrival; the launch side (wire, zipf and think draws, tallies) is
// owned by the home lane. The two sides meet only through the arrival
// process's batch ring, whose producer and consumer are ordered by the
// engine's window barriers.
type class struct {
	g       *Generator
	idx     int
	cfg     ClassConfig
	catalog Catalog
	zipf    zipfTable

	arrivals *arrival.Process // inter-arrival gaps and thinning (lane side)
	object   arrival.Stream   // catalog picks (home side)
	think    arrival.Stream   // intra-session think gaps (home side)

	offered, completed, failed, badBytes uint64
	lat                                  stats.Histogram
}

// New attaches a generator to the NIC (setup context; call Start to
// begin offering). One catalog per class; workers is how many server
// workers to shut down with /quit once the budget drains; port is the
// server port.
func New(sim *core.Sim, nic *dev.NIC, cfg Config, catalogs []Catalog, workers, port int) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(catalogs) != len(cfg.Classes) {
		return nil, fmt.Errorf("loadgen: %d catalogs for %d classes", len(catalogs), len(cfg.Classes))
	}
	g := &Generator{cfg: cfg}
	g.wire = trace.NewWire(sim, nic, port, workers, trace.Owner{Done: g.done, Lost: g.lost})
	for i, cc := range cfg.Classes {
		if len(catalogs[i]) == 0 {
			return nil, fmt.Errorf("loadgen: class %q has an empty catalog", cc.Name)
		}
		cl := &class{
			g: g, idx: i, cfg: cc, catalog: catalogs[i],
			zipf:   newZipfTable(len(catalogs[i]), cc.Zipf),
			object: arrival.NewStream(cfg.Seed, siteObject, i),
			think:  arrival.NewStream(cfg.Seed, siteThink, i),
		}
		// The launch and retire method values are bound once here, so
		// the scheduler call sites stay closure-free
		// (TestAllocationBudgets holds the request path to it).
		cl.arrivals = arrival.New(sim.Lane(i), arrival.NewStream(cfg.Seed, siteArrival, i),
			cc.sessionsPerCycle(), cc.Burst, cc.Flash, cc.MMPP, cl.launchBatch, cl.retire)
		g.classes = append(g.classes, cl)
	}
	return g, nil
}

// EnableARQ gives the population the link-level reliability the host
// stack runs under fault injection (setup context, before Start).
func (g *Generator) EnableARQ(cfg fault.NetConfig) { g.wire.EnableARQ(cfg) }

// Allocs reports how many request records were ever allocated — the
// pool high-water mark, proportional to in-flight requests, never to
// the client population.
func (g *Generator) Allocs() int { return g.wire.Allocs() }

// MaxLive reports the peak simultaneous in-flight requests.
func (g *Generator) MaxLive() int { return g.wire.MaxLive() }

// Offered/Completed/Failed aggregate the per-class tallies.
func (g *Generator) Offered() uint64 {
	var n uint64
	for _, cl := range g.classes {
		n += cl.offered
	}
	return n
}

// Completed counts requests whose response fully arrived.
func (g *Generator) Completed() uint64 {
	var n uint64
	for _, cl := range g.classes {
		n += cl.completed
	}
	return n
}

// Failed counts requests abandoned by the ARQ or orphaned when a
// session's connection died.
func (g *Generator) Failed() uint64 {
	var n uint64
	for _, cl := range g.classes {
		n += cl.failed
	}
	return n
}

// BadBytes counts responses whose body length disagreed with the
// catalog.
func (g *Generator) BadBytes() uint64 {
	var n uint64
	for _, cl := range g.classes {
		n += cl.badBytes
	}
	return n
}

// Rows renders the per-class offered/completed/latency table rows.
func (g *Generator) Rows() []stats.LoadRow {
	rows := make([]stats.LoadRow, len(g.classes))
	for i, cl := range g.classes {
		rows[i] = stats.LoadRow{
			Class: cl.cfg.Name, Offered: cl.offered,
			Completed: cl.completed, Failed: cl.failed,
			Latency: &cl.lat,
		}
	}
	return rows
}

// Start apportions the remaining request budget across the classes by
// base arrival rate and schedules the first arrival tick of every class
// that got a share. Call before Sim.Run (it schedules backend tasks).
// The shares sum to the remaining budget exactly, so each class retires
// its own tick stream without ever reading another class's tallies —
// the property that lets each stream run on its own backend lane.
func (g *Generator) Start() {
	offered := g.Offered()
	if offered >= g.cfg.Requests {
		// Restored generator with an exhausted budget: straight to drain.
		g.maybeQuit()
		return
	}
	weights := make([]float64, len(g.classes))
	for i, cl := range g.classes {
		weights[i] = cl.cfg.sessionsPerCycle()
	}
	shares := apportion(g.cfg.Requests-offered, weights)
	for i, cl := range g.classes {
		if shares[i] > 0 {
			g.liveTicks++
			cl.arrivals.Start(shares[i])
		}
	}
	if g.liveTicks == 0 {
		g.maybeQuit()
	}
}

// retire retires one class's tick stream (home context, via Send).
func (cl *class) retire() {
	cl.g.liveTicks--
	cl.g.maybeQuit()
}

// launchBatch opens the first request of a forwarded session (home
// context); the remaining burst requests follow completions with think
// gaps.
func (cl *class) launchBatch() {
	n := cl.arrivals.Pop()
	cl.offered += uint64(n)
	f := cl.g.wire.Take()
	f.Class = cl.idx
	f.Left = n
	cl.launch(f, 1)
}

// launch sends the session's next request, for a Zipf-drawn object,
// after delay.
func (cl *class) launch(f *trace.Flight, delay event.Cycle) {
	obj := cl.catalog[cl.zipf.draw(&cl.object)]
	cl.g.wire.Request(f, obj.Path, obj.Size, delay)
}

// done tallies a completed request and continues its session after a
// think gap (home context).
func (g *Generator) done(f *trace.Flight, at event.Cycle) {
	cl := g.classes[f.Class]
	cl.completed++
	cl.lat.Observe(uint64(at - f.Start))
	if f.Body != f.Size {
		cl.badBytes++
	}
	f.Left--
	if f.Left > 0 {
		gap := boundedPareto(&cl.think, float64(cl.cfg.ThinkMin), float64(cl.cfg.ThinkMax), cl.cfg.ThinkAlpha)
		cl.launch(f, event.Cycle(gap))
		return
	}
	g.wire.Release(f)
	g.maybeQuit()
}

// lost abandons a session whose frames exhausted their retransmits: the
// whole remaining session is lost with its connection (home context).
func (g *Generator) lost(f *trace.Flight) {
	g.classes[f.Class].failed += uint64(f.Left)
	g.wire.Release(f)
	g.maybeQuit()
}

// maybeQuit shuts the server down once the budget is offered and the
// population has drained.
func (g *Generator) maybeQuit() {
	if g.liveTicks > 0 || g.wire.InFlight() > 0 || g.Offered() < g.cfg.Requests {
		return
	}
	g.wire.Quit(0)
}
