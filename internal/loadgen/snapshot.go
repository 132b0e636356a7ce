package loadgen

import (
	"fmt"

	"compass/internal/stats"
)

// State is the generator's checkpoint section: every draw counter, every
// tally, the latency histograms, and the connection-id allocator. A
// generator restored from a State continues the exact random sequences
// and reporting of the uninterrupted run — including mid-flash-crowd,
// because flash windows are absolute simulated cycles, not offsets.
type State struct {
	// NextConn is the client connection-id allocator position; a resumed
	// population must not reuse ids.
	NextConn int
	Classes  []ClassState
}

// ClassState is one class's aggregate state.
type ClassState struct {
	Name string
	// Draw counters of the class's three streams.
	ArrivalDraws, ObjectDraws, ThinkDraws uint64
	// Tallies (Offered counts against the global budget on resume).
	Offered, Completed, Failed, BadBytes uint64
	Latency                              stats.HistogramState
}

// Snapshot captures the generator at a quiescent point. Snapshotting
// with requests still in flight is an error: a connection record's
// protocol state cannot be serialized, so checkpoints are only taken
// between phases, when the population has drained.
func (g *Generator) Snapshot() (State, error) {
	if n := g.wire.InFlight(); n != 0 {
		return State{}, fmt.Errorf("loadgen: snapshot with %d requests in flight", n)
	}
	st := State{NextConn: g.wire.NextConnID()}
	for _, cl := range g.classes {
		st.Classes = append(st.Classes, ClassState{
			Name:         cl.cfg.Name,
			ArrivalDraws: cl.arrivals.Draws(),
			ObjectDraws:  cl.object.Draws,
			ThinkDraws:   cl.think.Draws,
			Offered:      cl.offered,
			Completed:    cl.completed,
			Failed:       cl.failed,
			BadBytes:     cl.badBytes,
			Latency:      cl.lat.State(),
		})
	}
	return st, nil
}

// Restore overwrites the generator's aggregate state. The receiving
// generator must be freshly constructed from the same class list (names
// are cross-checked); call Start afterwards to resume offering against
// the configured budget.
func (g *Generator) Restore(st State) error {
	if len(st.Classes) != len(g.classes) {
		return fmt.Errorf("loadgen: restore has %d classes, generator has %d", len(st.Classes), len(g.classes))
	}
	for i, cs := range st.Classes {
		cl := g.classes[i]
		if cl.cfg.Name != cs.Name {
			return fmt.Errorf("loadgen: restore class %d is %q, generator has %q", i, cs.Name, cl.cfg.Name)
		}
		cl.arrivals.SetDraws(cs.ArrivalDraws)
		cl.object.Draws = cs.ObjectDraws
		cl.think.Draws = cs.ThinkDraws
		cl.offered = cs.Offered
		cl.completed = cs.Completed
		cl.failed = cs.Failed
		cl.badBytes = cs.BadBytes
		cl.lat.SetState(cs.Latency)
	}
	g.wire.SetNextConnID(st.NextConn)
	return nil
}
