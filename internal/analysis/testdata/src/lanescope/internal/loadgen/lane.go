// Package loadgen is the lanescope fixture: a miniature lane tenant
// whose tick stream is bound with Lane.AfterKeep. Everything the tick
// reaches runs in lane context, where touching home-lane simulation
// state (core.Sim here) or shared package-level variables is a finding
// unless routed through Lane.Send or annotated //lane:home. The path
// nests under lanescope/ so its import path still ends in
// internal/loadgen and the analyzers classify it as the real lane
// tenant package.
package loadgen

import (
	"fixture/internal/core"
	"fixture/internal/event"
)

// tally is package-level: shared across every lane by definition.
var tally uint64

type client struct {
	lane   *event.Lane
	q      *event.Queue
	eng    *event.Sharded
	sim    *core.Sim
	tickFn func()
	doneFn func()
	local  uint64
}

func newClient(lane *event.Lane, sim *core.Sim) *client {
	c := &client{lane: lane, sim: sim}
	c.tickFn = c.tick
	c.doneFn = c.done
	return c
}

// start binds the tick stream onto the lane (setup context: the binder
// itself runs home-side and is not walked).
func (c *client) start() {
	c.lane.AfterKeep(1, "tick", c.tickFn)
}

// tick is lane context: lane-local fields and the lane handle are the
// legal vocabulary, and a home touch must go through Send.
func (c *client) tick() {
	c.local++
	if c.local == 10 {
		c.lane.Send("done", c.doneFn)
		return
	}
	c.badHomeField()
	c.badHomeMethod()
	c.badHomeCall()
	c.badSharedVar()
	c.badQueueBypass()
	c.badEmptyWhy()
	c.goodExemptLine()
	c.goodExemptFunc()
	c.badEmptyFuncWhy()
	c.lane.AfterKeep(1, "tick", c.tickFn)
}

// done runs on the home lane (it was routed through Send), so home
// state is legal there: lanescope must not walk Send targets.
func (c *client) done() {
	c.sim.ScheduleTask(1, "retire", false, c.tickFn)
	core.Publish(c.local)
	tally += c.local
}

func (c *client) badHomeField() {
	_ = c.sim.Q // want `access to field Q of home-lane type core\.Sim in lane-scheduled`
}

func (c *client) badHomeMethod() {
	c.sim.ScheduleTask(1, "steal", false, c.tickFn) // want `call to Sim\.ScheduleTask on home-lane type core\.Sim in lane-scheduled`
}

func (c *client) badHomeCall() {
	core.Publish(c.local) // want `call to home-lane function core\.Publish in lane-scheduled`
}

func (c *client) badSharedVar() {
	tally++ // want `use of package-level variable "tally" from simulation package loadgen in lane-scheduled`
}

// badQueueBypass schedules through the global engine handles instead of
// the task's own lane.
func (c *client) badQueueBypass() {
	c.q.After(1, "bypass", c.tickFn) // want `call to global Queue\.After bypasses the lane handle in lane-scheduled`
	_ = c.eng.Lookahead()            // want `call to global Sharded\.Lookahead bypasses the lane handle in lane-scheduled`
}

// badEmptyWhy annotates without saying why: the hatch demands a
// justification.
func (c *client) badEmptyWhy() {
	//lane:home
	_ = c.sim.Q // want `//lane:home annotation with no justification`
}

// goodExemptLine carries a reviewed line-level justification.
func (c *client) goodExemptLine() {
	_ = c.sim.Q //lane:home read-only monitor peek; a torn read only skews a gauge
}

// goodExemptFunc is exempted wholesale by a function-level annotation.
//
//lane:home drain path, runs after the last window has closed
func (c *client) goodExemptFunc() {
	core.Publish(c.local)
	tally++
}

//lane:home
func (c *client) badEmptyFuncWhy() { // want `has a //lane:home annotation with no justification`
	tally++
}
