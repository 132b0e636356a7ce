package event

import "fmt"

// QueueState is the serializable scheduler clock state. Pending tasks are
// deliberately NOT part of it: checkpoints are taken at a quiescent point
// where the only queued tasks are re-armable daemon timers. A restore
// empties the queue (Clear) and their owners re-schedule them.
type QueueState struct {
	Now        Cycle
	Seq        uint64
	Dispatched uint64
}

// State captures the clock, tie-break sequence, and dispatch counter.
func (q *Queue) State() QueueState {
	return QueueState{Now: q.now, Seq: q.seq, Dispatched: q.dispatched}
}

// Clear empties the queue, recycling every pending task without running
// it. A restore calls it before re-arming: the construction-time timers of
// a freshly built machine are not part of the snapshot, and their owners
// re-arm them from restored state.
func (q *Queue) Clear() {
	for _, t := range q.heap {
		q.recycle(t)
	}
	clear(q.heap)
	q.heap = q.heap[:0]
	q.keepAlive = 0
}

// SetState overwrites the clock state. It panics if a task is queued before
// the restored Now: such a task would make time regress. Tasks queued at or
// after Now (re-armed daemon timers) stay queued with the seq they have.
// Callers empty the queue first, re-arm their timers, and call SetState
// last so re-arming does not perturb the tie-break sequence shared with the
// uninterrupted run.
func (q *Queue) SetState(st QueueState) {
	if len(q.heap) > 0 && q.heap[0].when < st.Now {
		t := q.heap[0]
		panic(fmt.Sprintf("event: SetState(now=%d) with task %q pending at %d", st.Now, t.label, t.when))
	}
	q.now = st.Now
	q.seq = st.Seq
	q.dispatched = st.Dispatched
}

// ResourceState is the serializable busy-until state of a Resource.
type ResourceState struct {
	NextFree Cycle
	Busy     Cycle
	Waits    Cycle
	Requests uint64
}

// State captures the resource's occupancy state.
func (r *Resource) State() ResourceState {
	return ResourceState{NextFree: r.nextFree, Busy: r.Busy, Waits: r.Waits, Requests: r.Requests}
}

// SetState overwrites the resource's occupancy state.
func (r *Resource) SetState(st ResourceState) {
	r.nextFree = st.NextFree
	r.Busy = st.Busy
	r.Waits = st.Waits
	r.Requests = st.Requests
}
