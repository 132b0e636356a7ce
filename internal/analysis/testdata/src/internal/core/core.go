// Package core is the detwallclock fixture: a simulation package that
// reads the host clock and the global rand source in the banned ways,
// next to the seeded alternatives that must stay legal. It is also the
// home-lane state the lanescope fixture's lane package must not import.
package core

import (
	"math/rand"
	"time"

	"fixture/internal/event"
)

// Sim is a miniature stand-in for the simulator core.
type Sim struct {
	Q    *event.Queue
	rng  *rand.Rand
	last time.Time
}

// ScheduleTask forwards to the queue like the real core wrapper; the
// function value is passed through, so the wrapper itself never builds
// a closure.
func (s *Sim) ScheduleTask(delay event.Cycle, label string, keep bool, fn func()) {
	if keep {
		s.Q.AtKeep(s.Q.Now()+delay, label, fn)
		return
	}
	s.Q.At(s.Q.Now()+delay, label, fn)
}

func (s *Sim) wallClockAbuse() {
	s.last = time.Now()          // want `time\.Now in simulation package core`
	_ = time.Since(s.last)       // want `time\.Since in simulation package core`
	time.Sleep(time.Millisecond) // want `time\.Sleep in simulation package core`
}

func (s *Sim) globalRandAbuse() int {
	return rand.Intn(8) // want `global rand\.Intn in simulation package core`
}

func (s *Sim) seededRandIsLegal() int {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(42))
	}
	// Method calls on a seeded generator and time constants are fine:
	// neither touches host state.
	d := 5 * time.Second
	return s.rng.Intn(int(d / time.Second))
}

// Publish mimics a package-level home-side helper.
func Publish(v uint64) { _ = v }
