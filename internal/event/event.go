// Package event implements the backend's global event scheduler: a
// deterministic discrete-event task queue ordered by simulation cycle.
//
// The paper's backend creates a task for every frontend event and inserts it
// into a "global event scheduler with a time stamp indicating at which global
// simulation cycle the task is to be dispatched"; tasks may spawn further
// tasks (bus transactions, directory messages, disk completions). This
// package is that scheduler. Ties are broken by insertion sequence so a
// simulation is reproducible regardless of host scheduling.
//
// The queue is one binary min-heap of pooled tasks: the backend only queues
// what can interleave, so it never holds more than a few dozen. Tasks come
// from a free list and are recycled after dispatch. Nothing takes a task
// back out once scheduled, so a caller gets no handle to one.
//
// Determinism argument: the heap pops in ascending (when, seq) order, and
// seq increases monotonically across all schedules.
package event

import "fmt"

// Cycle is a point in simulated time, measured in target-processor cycles.
type Cycle uint64

type taskState uint8

const (
	stateFree taskState = iota
	// stateQueued marks a task in the global queue's heap.
	stateQueued
	// statePending marks a window-born task buffered in its birth lane: it
	// has no global sequence number yet; the barrier merge either places it
	// into the queue (future / cross-shard) or finds it already run.
	statePending
	// stateLane marks a task drained out of the queue into a shard lane's
	// run list for the current window.
	stateLane
	// stateDone marks a lane task that ran inside a window; the barrier
	// recycles it.
	stateDone
)

// Task is a unit of backend work dispatched at a fixed simulation cycle.
// Tasks are pooled: after dispatch the struct returns to the queue's free
// list.
type Task struct {
	when  Cycle
	seq   uint64
	fn    func()
	label string
	state taskState
	keep  bool

	// shard is the lane that owns dispatching this task; 0 is the home
	// (coordinator) lane. Only the sharded engine reads it — serial
	// dispatch ignores shards entirely.
	shard int32
	// bornParent/bornIdx record the schedule moment of a window-born task:
	// the task whose fn scheduled it and the birth order within that lane.
	// The barrier merge sorts births by this record to assign the exact
	// sequence numbers a serial run would have handed out. Cleared when the
	// task gains a global sequence number (or is recycled).
	bornParent *Task
	bornIdx    uint32
}

// Queue is the global event scheduler. It is not safe for concurrent use;
// the backend owns it exclusively.
type Queue struct {
	now        Cycle
	seq        uint64
	dispatched uint64

	// heap is a binary min-heap on (when, seq) of every pending task.
	heap []*Task

	// keepAlive counts pending tasks scheduled via AtKeep (the backend's
	// non-daemon tasks, which keep the simulation running).
	keepAlive int //ckpt:skip checkpoints are quiescent (KeepAlive == 0); restore re-arms daemons with At

	free []*Task //ckpt:skip task free list, host-side recycling scratch

	// trace, when enabled, records the last len(trace) dispatched tasks for
	// post-mortem diagnosis (the guard layer's livelock classifier). It is
	// host-side observability only: recording never changes dispatch order,
	// and a disabled ring costs one nil check per dispatch.
	trace    []DispatchRecord //ckpt:skip host-side post-mortem diagnostics, no simulation effect
	tracePos int              //ckpt:skip host-side post-mortem diagnostics, no simulation effect
	traceLen int              //ckpt:skip host-side post-mortem diagnostics, no simulation effect
}

// DispatchRecord is one entry of the post-mortem dispatch ring: which task
// label ran at which cycle.
type DispatchRecord struct {
	When  Cycle
	Label string
}

// EnableTrace starts recording the last k dispatched tasks into a ring
// buffer. k <= 0 disables tracing. The ring is diagnostic state only: it is
// excluded from snapshots and has no effect on scheduling.
func (q *Queue) EnableTrace(k int) {
	if k <= 0 {
		q.trace, q.tracePos, q.traceLen = nil, 0, 0
		return
	}
	q.trace = make([]DispatchRecord, k)
	q.tracePos, q.traceLen = 0, 0
}

// RecentDispatches returns the ring's contents oldest-first (at most the
// trace capacity). The queue is single-owner; call only when the backend is
// not running (post-abort or post-run).
func (q *Queue) RecentDispatches() []DispatchRecord {
	if q.trace == nil || q.traceLen == 0 {
		return nil
	}
	out := make([]DispatchRecord, 0, q.traceLen)
	start := 0
	if q.traceLen == len(q.trace) {
		start = q.tracePos
	}
	for i := 0; i < q.traceLen; i++ {
		out = append(out, q.trace[(start+i)%len(q.trace)])
	}
	return out
}

// NewQueue returns an empty scheduler starting at cycle 0.
func NewQueue() *Queue { return &Queue{} }

// Now returns the current global simulation cycle, i.e. the timestamp of the
// most recently dispatched task.
func (q *Queue) Now() Cycle { return q.now }

// Len reports the number of pending tasks.
func (q *Queue) Len() int { return len(q.heap) }

// Dispatched reports how many tasks have been executed so far.
func (q *Queue) Dispatched() uint64 { return q.dispatched }

// KeepAlive reports how many pending tasks were scheduled with AtKeep.
func (q *Queue) KeepAlive() int { return q.keepAlive }

func (q *Queue) alloc() *Task {
	if n := len(q.free); n > 0 {
		t := q.free[n-1]
		q.free = q.free[:n-1]
		return t
	}
	return &Task{}
}

// recycle returns a task to the free list.
func (q *Queue) recycle(t *Task) {
	t.fn = nil
	t.label = ""
	t.state = stateFree
	t.shard = 0
	t.bornParent = nil
	t.bornIdx = 0
	q.free = append(q.free, t)
}

// At schedules fn to run at absolute cycle when. Scheduling in the past
// (before Now) is a simulator bug and panics.
func (q *Queue) At(when Cycle, label string, fn func()) {
	q.schedule(when, 0, label, false, fn)
}

// AtKeep is At for tasks that participate in keep-alive accounting: the
// backend runs until every process has exited and KeepAlive is zero.
// Dispatch releases the count.
func (q *Queue) AtKeep(when Cycle, label string, fn func()) {
	q.schedule(when, 0, label, true, fn)
}

// After schedules fn to run delay cycles from now.
func (q *Queue) After(delay Cycle, label string, fn func()) {
	q.At(q.now+delay, label, fn)
}

func (q *Queue) schedule(when Cycle, shard int32, label string, keep bool, fn func()) {
	if when < q.now {
		panic(fmt.Sprintf("event: task %q scheduled at %d, before now %d (next seq %d, %d pending)",
			label, when, q.now, q.seq, q.Len()))
	}
	t := q.alloc()
	t.when = when
	t.fn = fn
	t.label = label
	t.keep = keep
	t.shard = shard
	q.push(t)
}

// scheduleExisting inserts a lane-pool task whose when/shard/fn are already
// set, assigning the next global sequence number — the barrier-merge path
// that makes window-born futures get exactly the sequence numbers a serial
// run would have assigned at the same schedule moments.
func (q *Queue) scheduleExisting(t *Task) {
	if t.when < q.now {
		panic(fmt.Sprintf("event: window task %q scheduled at %d, before now %d", t.label, t.when, q.now))
	}
	q.push(t)
}

// push gives t the next sequence number and inserts it into the heap.
func (q *Queue) push(t *Task) {
	t.seq = q.seq
	q.seq++
	if t.keep {
		q.keepAlive++
	}
	t.state = stateQueued
	q.heap = append(q.heap, t)
	q.up(len(q.heap) - 1)
}

func taskLess(a, b *Task) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (q *Queue) up(i int) {
	h := q.heap
	for i > 0 {
		p := (i - 1) / 2
		if !taskLess(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q *Queue) down(i int) {
	h := q.heap
	n := len(h)
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < n && taskLess(h[l], h[s]) {
			s = l
		}
		if r < n && taskLess(h[r], h[s]) {
			s = r
		}
		if s == i {
			return
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}

// nextLive returns the earliest pending task without dispatching it, or nil
// when the queue is empty.
func (q *Queue) nextLive() *Task {
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0]
}

// NextTime returns the timestamp of the earliest pending task. ok is false
// when the queue is empty.
func (q *Queue) NextTime() (when Cycle, ok bool) {
	t := q.nextLive()
	if t == nil {
		return 0, false
	}
	return t.when, true
}

// popNext removes the earliest pending task from the queue, advancing the
// clock to its timestamp, and returns it without running or recycling it —
// the shared removal path of Step and the sharded engine's window drain.
// Keep-alive is released here (the task is committed to run or be merged).
func (q *Queue) popNext() *Task {
	t := q.nextLive()
	if t == nil {
		return nil
	}
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap[n] = nil
	q.heap = q.heap[:n]
	q.down(0)
	q.now = t.when
	if t.keep {
		q.keepAlive--
	}
	return t
}

// Step dispatches the earliest task, advancing the clock to its timestamp.
// It reports false when the queue is empty.
func (q *Queue) Step() bool {
	t := q.popNext()
	if t == nil {
		return false
	}
	q.dispatched++
	if q.trace != nil {
		q.traceRecord(t.when, t.label)
	}
	fn := t.fn
	q.recycle(t)
	fn()
	return true
}

// traceRecord appends one entry to the post-mortem dispatch ring. The
// caller has checked q.trace != nil.
func (q *Queue) traceRecord(when Cycle, label string) {
	q.trace[q.tracePos] = DispatchRecord{When: when, Label: label}
	q.tracePos = (q.tracePos + 1) % len(q.trace)
	if q.traceLen < len(q.trace) {
		q.traceLen++
	}
}

// Advance moves the clock forward to when without dispatching anything.
// It panics if tasks are pending before when, or when is in the past.
func (q *Queue) Advance(when Cycle) {
	if when < q.now {
		panic(fmt.Sprintf("event: Advance to %d, before now %d", when, q.now))
	}
	if t := q.nextLive(); t != nil && t.when < when {
		panic(fmt.Sprintf("event: Advance to %d would skip task %q at %d", when, t.label, t.when))
	}
	q.now = when
}
