// Package arrival is the lanescope fixture's lane package: it binds lane
// tasks with Lane.AfterKeep, so its own source must show the lane rule.
// The legal forms (a prebound tick, a literal and a method value as lane
// tasks, a home task handed to Send, static calls into fault and the
// standard library) stay silent; each clause's breach carries a want.
package arrival

import (
	"math"

	"fixture/internal/core" // want `arrival imports fixture/internal/core: a lane package imports only internal/event and internal/fault`
	"fixture/internal/event"
	"fixture/internal/fault"
)

// tally would be shared by every lane: clause (b).
var tally uint64 // want `lane package declares package-level variable tally`

type drawer interface{ Next() uint64 }

// wrapped's promoted Next is an interface call: clause (d).
type wrapped struct {
	drawer // want `lane package embeds interface drawer`
}

// queued reaches the global queue's methods by promotion.
type queued struct{ *event.Queue }

// Process is one lane's state.
type Process struct {
	lane   *event.Lane
	q      *event.Queue
	qd     queued
	draws  uint64
	tickFn func() // prebound from its own method value: a legal target
	stepFn func() // also set from a parameter: not prebound
	doneFn func() // set from a method value, and from a parameter below
	launch func() // a home task: handed to Send, never called here
	hook   func()
	source drawer
}

// New wires a process (setup context, called by the home side).
func New(lane *event.Lane, launch, step func()) *Process {
	p := &Process{lane: lane, launch: launch, stepFn: step}
	p.tickFn = p.tick
	p.doneFn = p.tick
	_ = []*Process{{doneFn: launch}} // an elided &Process literal
	return p
}

// Start binds the process's lane tasks.
func (p *Process) Start() {
	p.lane.AfterKeep(1, "tick", p.tickFn)
	p.lane.AfterKeep(2, "literal", func() { p.draws++ })
	p.lane.AfterKeep(3, "method", p.tick)
	p.lane.AfterKeep(4, "step", p.stepFn) // want `lane package binds AfterKeep target p\.stepFn, which it does not declare`
	p.lane.AfterKeep(5, "done", p.doneFn) // want `lane package binds AfterKeep target p\.doneFn`
}

func (p *Process) tick() {
	now := uint64(p.lane.Now())
	p.draws += fault.Mix(now) + uint64(math.Sqrt(float64(now)))
	p.lane.Send("launch", p.launch)
	_ = p.q.Now()         // want `lane package calls Queue\.Now: a lane schedules only through its Lane`
	_ = p.qd.Now()        // want `lane package calls Queue\.Now`
	p.hook()              // want `lane package calls p\.hook through a func value or an interface`
	_ = p.source.Next()   // want `lane package calls p\.source\.Next through a func value or an interface`
	keep(p.launch)        // want `lane package hands p\.launch to keep: only Lane\.Send and Lane\.AfterKeep take func values`
	core.Publish(p.draws) // the import above is the finding
	tally++
}

func keep(fn func()) { _ = fn }
