// Sharded execution: a conservative parallel discrete-event backend layered
// over the serial Queue.
//
// The machine is partitioned into shards ("lanes"): lane 0 is the home lane
// — the coordinator's own serial context, where the kernel, devices, memory
// models and every untagged task live — and lanes 1..N-1 own shard-affine
// task streams (per-class open-loop traffic generators today; any component
// whose tasks touch only shard-private state can opt in). A window opens
// only when the earliest pending tasks form a serially-consecutive run of
// lane tasks: the coordinator drains that run — exactly the tasks a serial
// backend would dispatch next, in exactly its order — hands each lane its
// slice, runs the lanes in parallel, and parks at the barrier.
//
// Determinism is by construction, not by repair. Because the drained run is
// the serial dispatch prefix, every global counter the serial engine would
// have produced (clock, dispatch count, keep-alive) is reproduced at the
// barrier; and because window-born tasks are merged in schedule-moment
// order — (parent's dispatch order, birth index), the order a serial run
// would have called schedule() in — they receive exactly the sequence
// numbers the serial run would have assigned. A -shards N run is therefore
// byte-identical to a serial run, including checkpoint bytes.
//
// The conservative quantum is the lookahead: the minimum latency of any
// cross-shard interaction (for the client-side lanes, the NIC wire time).
// A lane task schedules into its own lane (AfterKeep) or onto the home lane
// (Send); Send always lands exactly one lookahead after the sender's now,
// which is at or beyond the window's end, so the bound holds by the
// signature rather than by a check.
package event

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Sharded runs windows of shard-affine tasks in parallel over a Queue. It
// is created once per simulation; with fewer than two lanes (or zero
// lookahead) it never opens a window and the queue behaves exactly as the
// serial engine. The engine holds no simulation state of its own between
// windows: at any quiescent point everything lives in the Queue, which is
// why snapshots are shard-count-invariant.
type Sharded struct {
	q         *Queue
	lookahead Cycle
	lanes     []*Lane

	// abortCheck, when non-nil, is polled by lanes every 64 dispatches; it
	// panics (with the host supervisor's typed abort error) to tear down a
	// window whose coordinator is parked at the barrier.
	abortCheck func(now Cycle)

	// progress is a host-visible activity gauge for watchdogs: it advances
	// with lane dispatches while the coordinator waits at a barrier.
	progress atomic.Uint64

	// windows / parallelWindows / drained are diagnostic totals.
	windows         uint64
	parallelWindows uint64
	drained         uint64

	active []*Lane // drain scratch
	births []*Task // barrier-merge scratch
}

// NewSharded builds an engine with the given lane count over q. lookahead
// is the conservative quantum: the minimum cross-shard latency. A lane
// count below 1 is treated as 1 (home lane only, serial behaviour).
func NewSharded(q *Queue, lanes int, lookahead Cycle, abortCheck func(now Cycle)) *Sharded {
	if lanes < 1 {
		lanes = 1
	}
	e := &Sharded{q: q, lookahead: lookahead, abortCheck: abortCheck}
	e.lanes = make([]*Lane, lanes)
	for i := range e.lanes {
		e.lanes[i] = &Lane{eng: e, q: q, shard: int32(i)}
	}
	return e
}

// Lanes returns the lane count (including the home lane 0).
func (e *Sharded) Lanes() int { return len(e.lanes) }

// Lane returns lane i. Lane handles are valid for the life of the engine;
// components capture them at setup and use them from their own tasks.
func (e *Sharded) Lane(i int) *Lane { return e.lanes[i] }

// Progress returns the lane-dispatch activity gauge (monotone; safe from
// any goroutine).
func (e *Sharded) Progress() uint64 { return e.progress.Load() }

// Windows returns how many windows ran, how many ran multi-lane, and how
// many tasks were drained into windows in total.
func (e *Sharded) Windows() (windows, parallel, tasks uint64) {
	return e.windows, e.parallelWindows, e.drained
}

// RunWindow attempts one conservative window: if the earliest pending task
// belongs to a non-home lane and lies before limit, it drains the maximal
// serially-consecutive run of lane tasks closer than one lookahead, runs
// the involved lanes (in parallel when more than one), and merges births
// back in schedule-moment order. It reports whether a window ran; when it
// returns false the queue is untouched and the caller dispatches serially.
//
// limit is exclusive: the window may dispatch tasks strictly before it.
// Callers pass min(frontend activity)+1 so that tasks tied with a frontend
// event still dispatch first, matching the serial loop's tie rule.
func (e *Sharded) RunWindow(limit Cycle) bool {
	if len(e.lanes) < 2 || e.lookahead == 0 {
		return false
	}
	q := e.q
	t0 := q.nextLive()
	if t0 == nil || t0.shard == 0 || t0.when >= limit {
		return false
	}
	end := limit
	if w := t0.when + e.lookahead; w < end {
		end = w
	}

	// Drain the maximal prefix of lane tasks before end: exactly the tasks
	// the serial engine would dispatch next, in its order. The clock
	// advances with the drain just as serial dispatch would advance it.
	active := e.active[:0]
	count := 0
	for {
		t := q.nextLive()
		if t == nil || t.shard == 0 || t.when >= end {
			break
		}
		q.popNext()
		t.state = stateLane
		l := e.lanes[t.shard]
		if len(l.run) == 0 {
			active = append(active, l)
		}
		l.run = append(l.run, t)
		count++
	}
	e.active = active
	if count == 0 {
		return false
	}

	// Window-born tasks may run inside the window only if they dispatch
	// before the first undrained task — at its timestamp the serial engine
	// would run that task first (it holds an earlier sequence number).
	localLimit := end
	if n := q.nextLive(); n != nil && n.when < localLimit {
		localLimit = n.when
	}
	for _, l := range active {
		l.begin(localLimit)
	}
	if len(active) == 1 {
		active[0].exec()
	} else {
		e.parallelWindows++
		var wg sync.WaitGroup
		for _, l := range active[1:] {
			wg.Add(1)
			go func(l *Lane) {
				defer wg.Done()
				l.exec()
			}(l)
		}
		active[0].exec()
		wg.Wait()
	}
	e.windows++
	e.drained += uint64(count)

	// Barrier: contain panics first (a torn window is terminal, like a
	// panic mid-dispatch in the serial engine — typed panic values reach
	// the supervisor unchanged).
	for _, l := range active {
		if l.panicked {
			v := l.panicVal
			e.reset(active)
			panic(v)
		}
	}

	// Merge the post-mortem dispatch trace in global dispatch order before
	// any task is recycled (labels and birth records must still be live).
	if q.trace != nil {
		e.mergeTrace(active)
	}

	// Assign global sequence numbers to every window birth in schedule-
	// moment order — the order the serial engine would have called
	// schedule() in. Births that already ran burn their number; survivors
	// are placed into the queue.
	births := e.births[:0]
	for _, l := range active {
		births = append(births, l.births...)
	}
	slices.SortFunc(births, momentCmp)
	for _, t := range births {
		if t.state == statePending {
			q.scheduleExisting(t)
		} else {
			q.seq++
		}
	}
	e.births = births[:0]

	// Fold lane results into the global counters and clock, then recycle.
	maxNow := q.now
	for _, l := range active {
		q.dispatched += l.dispatched
		if l.now > maxNow {
			maxNow = l.now
		}
		l.finish()
	}
	if maxNow > q.now {
		q.Advance(maxNow)
	}
	return true
}

// reset clears lane window state after a contained panic so the engine's
// scratch does not hold torn tasks (the run is terminal; no further
// windows will open, but the supervisor may still inspect the queue).
func (e *Sharded) reset(active []*Lane) {
	for _, l := range active {
		l.run = l.run[:0]
		l.births = l.births[:0]
		l.ran = l.ran[:0]
		l.lheap = l.lheap[:0]
		l.inWindow = false
		l.cur = nil
	}
}

// mergeTrace writes the window's dispatches into the queue's trace ring in
// global dispatch order (a k-way merge of the lanes' ordered run logs).
func (e *Sharded) mergeTrace(active []*Lane) {
	idx := make([]int, len(active))
	for {
		var best *Task
		bi := -1
		for i, l := range active {
			if idx[i] < len(l.ran) {
				t := l.ran[idx[i]]
				if best == nil || dispatchLess(t, best) {
					best, bi = t, i
				}
			}
		}
		if best == nil {
			return
		}
		idx[bi]++
		e.q.traceRecord(best.when, best.label)
	}
}

// dispatchLess orders two window tasks by serial dispatch order: ascending
// timestamp; at equal timestamps, tasks holding global sequence numbers
// (drained before the window opened) precede window-born tasks, global
// sequence numbers compare directly, and window-born tasks compare by
// schedule moment.
func dispatchLess(a, b *Task) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	ab, bb := a.bornParent != nil, b.bornParent != nil
	if !ab && !bb {
		return a.seq < b.seq
	}
	if ab != bb {
		// The pre-window task was scheduled earlier, so it holds the
		// smaller sequence number in the serial run.
		return bb
	}
	return momentLess(a, b)
}

// momentLess orders window-born tasks by schedule moment: the dispatch
// order of their parents, then birth order within a parent. Parent chains
// terminate at drained tasks, which carry global sequence numbers.
//
// On the births of one window it is a strict total order, so any sort puts
// them in the one order a serial run schedules them in: a lane numbers the
// births of a window in one sequence, so two births of one parent differ in
// bornIdx; two parents that both drained differ in seq; a drained parent
// precedes a window-born one at equal time; and two window-born parents
// recurse, down chains that end at drained tasks. No parent is recycled
// before the barrier has sorted.
func momentLess(a, b *Task) bool {
	if a.bornParent != b.bornParent {
		return dispatchLess(a.bornParent, b.bornParent)
	}
	return a.bornIdx < b.bornIdx
}

// momentCmp is momentLess as a three-way comparison. Two births at one
// moment would let the sort pick their order, so they end the run.
func momentCmp(a, b *Task) int {
	switch {
	case momentLess(a, b):
		return -1
	case momentLess(b, a):
		return 1
	case a != b:
		panic(fmt.Sprintf("event: window births %q and %q share a schedule moment", a.label, b.label))
	}
	return 0
}

// Lane is one shard's scheduling context. Components that opt into a shard
// capture their Lane at setup and schedule through it from their own
// tasks; the same handle works identically whether the engine is sharded
// or serial (outside a window every call passes through to the global
// queue, tagged with the lane's shard so future windows can claim it).
//
// The lane-affinity contract: a task scheduled on lane k may touch only
// lane-k-private state; everything shared (kernel, devices, models, wire)
// is reached by Send, which schedules onto the home lane one lookahead in
// the future.
type Lane struct {
	eng   *Sharded
	q     *Queue
	shard int32

	// Window state, owned by the lane's worker goroutine between begin and
	// the barrier; outside a window the coordinator owns it exclusively.
	inWindow   bool
	now        Cycle
	limit      Cycle   // window-born tasks run locally only strictly before this
	run        []*Task // drained tasks, serial dispatch order
	pos        int
	lheap      []*Task // window-born runnable tasks, min-heap by dispatchLess
	births     []*Task // every window-born task, birth order
	ran        []*Task // dispatched tasks, dispatch order (trace merge)
	cur        *Task   // task whose fn is executing (birth parent)
	birthIdx   uint32
	dispatched uint64

	free      []*Task // lane-local task pool
	peakBirth int     // most births of any window: what free is kept at

	panicked bool
	panicVal any
}

// Now returns the lane's current cycle: inside a window, the timestamp of
// the task being dispatched; outside, the global clock.
func (l *Lane) Now() Cycle {
	if l.inWindow {
		return l.now
	}
	return l.q.Now()
}

// AfterKeep schedules fn on this lane delay cycles from the lane's now.
// Every lane task keeps the simulation alive.
func (l *Lane) AfterKeep(delay Cycle, label string, fn func()) {
	l.schedule(delay, l.shard, label, fn)
}

// Send schedules fn on the home lane one lookahead after the lane's now —
// the only way a lane task reaches shared state. The lookahead is the
// minimum latency of a cross-shard interaction, so a Send from a window
// lands at or beyond the window's end by construction.
func (l *Lane) Send(label string, fn func()) {
	l.schedule(l.eng.lookahead, 0, label, fn)
}

func (l *Lane) schedule(delay Cycle, shard int32, label string, fn func()) {
	if !l.inWindow {
		// Passthrough: serial mode, or a home-lane/setup-context call
		// between windows. Tag the shard so a later window can claim it.
		l.q.schedule(l.q.now+delay, shard, label, true, fn)
		return
	}
	when := l.now + delay
	t := l.alloc()
	t.when = when
	t.fn = fn
	t.label = label
	t.keep = true
	t.shard = shard
	t.state = statePending
	t.bornParent = l.cur
	t.bornIdx = l.birthIdx
	l.birthIdx++
	l.births = append(l.births, t)
	if shard == l.shard && when < l.limit {
		l.heapPush(t)
	}
}

func (l *Lane) alloc() *Task {
	if n := len(l.free); n > 0 {
		t := l.free[n-1]
		l.free = l.free[:n-1]
		return t
	}
	return &Task{}
}

func (l *Lane) recycleLocal(t *Task) {
	t.fn = nil
	t.label = ""
	t.state = stateFree
	t.shard = 0
	t.bornParent = nil
	t.bornIdx = 0
	l.free = append(l.free, t)
}

// begin arms the lane for a window. The coordinator has already filled
// l.run with the lane's drained tasks in serial dispatch order.
func (l *Lane) begin(localLimit Cycle) {
	l.inWindow = true
	l.limit = localLimit
	l.now = l.run[0].when
	l.pos = 0
	l.birthIdx = 0
	l.dispatched = 0
	l.panicked = false
	l.panicVal = nil
}

// exec dispatches the lane's window: the drained run list merged with
// window-born local tasks, in serial dispatch order, until both are
// exhausted. Panics are contained for the coordinator to re-raise.
func (l *Lane) exec() {
	defer func() {
		if r := recover(); r != nil {
			l.panicked = true
			l.panicVal = r
		}
	}()
	for {
		var t *Task
		fromHeap := false
		if l.pos < len(l.run) {
			t = l.run[l.pos]
		}
		if len(l.lheap) > 0 && (t == nil || dispatchLess(l.lheap[0], t)) {
			t = l.lheap[0]
			fromHeap = true
		}
		if t == nil {
			return
		}
		if fromHeap {
			l.heapPop()
		} else {
			l.pos++
		}
		l.now = t.when
		t.state = stateDone // refs go non-pending before fn, like serial recycle
		l.cur = t
		l.dispatched++
		l.ran = append(l.ran, t)
		if l.dispatched&63 == 0 {
			l.eng.progress.Add(64)
			if l.eng.abortCheck != nil {
				l.eng.abortCheck(l.now)
			}
		}
		t.fn()
	}
}

// finish recycles the window's consumed tasks and clears birth records.
// Survivor births have just been placed into the queue with fresh global
// sequence numbers; everything else returns to the lane pool.
//
// Tasks cross between the pools: a survivor bound for the home lane (a
// Send) is recycled into the queue's free list when it runs, and a task the
// home lane schedules into this one is recycled here. Left alone, one pool
// allocates while the other grows without bound. At the barrier the
// coordinator owns the queue, so finish balances the lane's pool against
// the queue's: it keeps as many tasks as the most births any window has
// had, and the queue's list holds the rest.
func (l *Lane) finish() {
	l.peakBirth = max(l.peakBirth, len(l.births))
	for _, t := range l.births {
		t.bornParent = nil
		t.bornIdx = 0
		if t.state == stateDone {
			l.recycleLocal(t)
		}
	}
	for _, t := range l.run {
		l.recycleLocal(t) // every drained task has run
	}
	l.run = l.run[:0]
	l.births = l.births[:0]
	l.ran = l.ran[:0]
	l.pos = 0
	l.inWindow = false
	l.cur = nil
	for len(l.free) < l.peakBirth && len(l.q.free) > 0 {
		n := len(l.q.free) - 1
		l.free = append(l.free, l.q.free[n])
		l.q.free = l.q.free[:n]
	}
	for len(l.free) > l.peakBirth {
		n := len(l.free) - 1
		l.q.free = append(l.q.free, l.free[n])
		l.free = l.free[:n]
	}
}

func (l *Lane) heapPush(t *Task) {
	l.lheap = append(l.lheap, t)
	i := len(l.lheap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !dispatchLess(l.lheap[i], l.lheap[p]) {
			break
		}
		l.lheap[i], l.lheap[p] = l.lheap[p], l.lheap[i]
		i = p
	}
}

func (l *Lane) heapPop() *Task {
	t := l.lheap[0]
	n := len(l.lheap) - 1
	l.lheap[0] = l.lheap[n]
	l.lheap[n] = nil
	l.lheap = l.lheap[:n]
	i := 0
	for {
		c, r := 2*i+1, 2*i+2
		if c >= n {
			break
		}
		if r < n && dispatchLess(l.lheap[r], l.lheap[c]) {
			c = r
		}
		if !dispatchLess(l.lheap[c], l.lheap[i]) {
			break
		}
		l.lheap[i], l.lheap[c] = l.lheap[c], l.lheap[i]
		i = c
	}
	return t
}
