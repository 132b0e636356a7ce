// Package loadgen is the lanescope fixture's home side: it owns
// home-lane state and wires lanes, but never names Lane.AfterKeep, so
// it is no lane package and the rule does not apply to it.
package loadgen

import (
	"fixture/internal/core"
	"fixture/internal/event"
	"fixture/lanescope/internal/arrival"
)

var offered uint64

type generator struct {
	sim  *core.Sim
	done func()
}

func (g *generator) start(e *event.Sharded) {
	lane := e.Lane(1)
	arrival.New(lane, g.launch, g.done).Start()
	lane.Send("launch", g.launch)
	g.done()
}

func (g *generator) launch() {
	offered++
	core.Publish(offered)
	g.sim.ScheduleTask(1, "retire", false, g.done)
}
