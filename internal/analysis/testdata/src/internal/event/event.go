// Package event is a miniature stand-in for the simulator's event
// scheduler, with the real engine's method names and nothing more. The
// fixtures import it so the analyzers' receiver checks (methods of
// Queue, Lane and Sharded in a package whose internal leaf is "event")
// resolve exactly as they do against the real module.
package event

// Cycle is a simulated timestamp.
type Cycle uint64

// Queue mimics the global scheduler's entry points.
type Queue struct{ now Cycle }

// Now returns the current simulated time.
func (q *Queue) Now() Cycle { return q.now }

// At schedules fn at an absolute cycle.
func (q *Queue) At(when Cycle, label string, fn func()) {
	q.now = when
	fn()
}

// AtKeep schedules a keep-alive task at an absolute cycle.
func (q *Queue) AtKeep(when Cycle, label string, fn func()) {
	q.At(when, label, fn)
}

// After schedules fn a relative number of cycles from now.
func (q *Queue) After(delay Cycle, label string, fn func()) {
	q.At(q.now+delay, label, fn)
}

// Lane mimics the sharded engine's per-lane scheduling handle
// (internal/event/shard.go): AfterKeep runs on the lane, Send crosses
// back to the home lane one lookahead later.
type Lane struct{ q *Queue }

// Now returns the lane's local clock.
func (l *Lane) Now() Cycle { return l.q.Now() }

// AfterKeep schedules a keep-alive lane task.
func (l *Lane) AfterKeep(delay Cycle, label string, fn func()) {
	l.q.After(delay, label, fn)
}

// Send schedules fn on the home lane one lookahead away.
func (l *Lane) Send(label string, fn func()) {
	l.q.After(1, label, fn)
}

// Sharded mimics the engine handle that owns the lanes.
type Sharded struct{ q *Queue }

// Lane returns a lane handle.
func (e *Sharded) Lane(i int) *Lane { return &Lane{q: e.q} }
