// Package loadgen is the lookaheadfloor fixture: every Lane.Send delay
// must be provably at or above the shard quantum (5000 cycles, the NIC
// wire latency) — a constant at the floor, an expression derived from
// SendLatency(), or a dynamic value dominated by an explicit floor
// check. The analyzer turns the engine's panic-at-cycle-N into a
// finding here.
package loadgen

import "fixture/internal/event"

const quantum = 5000

type sender struct {
	lane *event.Lane
	fn   func()
}

// goodLatency uses the canonical floor expression.
func (s *sender) goodLatency() {
	s.lane.Send(s.lane.SendLatency(), "done", s.fn)
}

// goodConst: constants at or above the quantum are provable.
func (s *sender) goodConst() {
	s.lane.Send(5000, "done", s.fn)
	s.lane.Send(quantum+1, "done", s.fn)
}

// goodDerived: sums keep the bound (Cycle is unsigned) and scaling by a
// constant >= 1 keeps it too, directly or through a local variable.
func (s *sender) goodDerived(extra event.Cycle) {
	s.lane.Send(s.lane.SendLatency()+extra, "done", s.fn)
	s.lane.Send(2*s.lane.SendLatency(), "done", s.fn)
	d := s.lane.SendLatency() + 7
	s.lane.Send(d, "done", s.fn)
}

// goodGuardedClamp clamps the delay up to the floor before sending.
func (s *sender) goodGuardedClamp(delay event.Cycle) {
	if delay < s.lane.SendLatency() {
		delay = s.lane.SendLatency()
	}
	s.lane.Send(delay, "done", s.fn)
}

// goodGuardedReturn refuses sub-floor delays instead of clamping; the
// comparison against SendLatency() is the dominating floor check.
func (s *sender) goodGuardedReturn(delay event.Cycle) {
	if delay < s.lane.SendLatency() {
		return
	}
	s.lane.Send(delay, "done", s.fn)
}

func (s *sender) badConst() {
	s.lane.Send(100, "done", s.fn)  // want `Lane\.Send delay 100 is below the shard lookahead \(5000 cycles\)`
	s.lane.Send(4999, "done", s.fn) // want `Lane\.Send delay 4999 is below the shard lookahead`
}

func (s *sender) badDynamic(delay event.Cycle) {
	s.lane.Send(delay, "done", s.fn) // want `Lane\.Send delay delay is not provably >= the shard lookahead`
}

// badScaled halves a proven term, which does not keep the bound.
func (s *sender) badScaled() {
	s.lane.Send(s.lane.SendLatency()/2, "done", s.fn) // want `not provably >= the shard lookahead`
}

// goodExempt takes written responsibility for the delay.
func (s *sender) goodExempt(delay event.Cycle) {
	s.lane.Send(delay, "done", s.fn) //lookahead:ok serial harness only; the engine floor is zero without -shards
}

func (s *sender) badEmptyWhy(delay event.Cycle) {
	//lookahead:ok
	s.lane.Send(delay, "done", s.fn) // want `//lookahead:ok annotation with no justification`
}
