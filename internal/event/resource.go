package event

// Resource models a unit-capacity hardware resource (a bus, a memory bank,
// a network link) with first-come-first-served occupancy. Instead of
// scheduling explicit queueing tasks, callers ask when the resource can
// serve a request issued at a given cycle; the resource tracks its
// next-free time. This is the standard "busy-until" contention
// approximation for execution-driven simulators.
type Resource struct {
	nextFree Cycle

	// Busy accumulates total occupied cycles (utilization statistics).
	Busy Cycle
	// Waits accumulates total cycles requests spent waiting.
	Waits Cycle
	// Requests counts Acquire calls.
	Requests uint64
}

// Acquire reserves the resource for hold cycles for a request issued at
// now. It returns the cycle at which the request completes (start + hold),
// where start is max(now, next-free). The wait (start - now) is recorded.
func (r *Resource) Acquire(now Cycle, hold Cycle) (done Cycle) {
	start := now
	if r.nextFree > start {
		start = r.nextFree
	}
	r.Waits += start - now
	r.Busy += hold
	r.Requests++
	r.nextFree = start + hold
	return r.nextFree
}

// NextFree returns the cycle at which the resource becomes idle.
func (r *Resource) NextFree() Cycle { return r.nextFree }
