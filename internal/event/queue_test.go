package event

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// TestPastAndCancelEdgeCases is the table-driven pass over the scheduling
// edge cases: past scheduling must panic, however far behind the clock,
// and a task at the current cycle is legal.
func TestPastAndCancelEdgeCases(t *testing.T) {
	cases := []struct {
		name      string
		run       func(q *Queue)
		wantPanic bool
	}{
		{
			name: "past-at-panics",
			run: func(q *Queue) {
				q.At(10, "a", func() {})
				q.Step()
				q.At(5, "late", func() {})
			},
			wantPanic: true,
		},
		{
			name: "past-far-behind-window-panics",
			run: func(q *Queue) {
				q.Advance(10 * 4096)
				q.At(1, "ancient", func() {})
			},
			wantPanic: true,
		},
		{
			name: "at-now-is-legal",
			run: func(q *Queue) {
				q.At(10, "a", func() {})
				q.Step()
				ran := false
				q.At(10, "same-cycle", func() { ran = true })
				q.Step()
				if !ran {
					panic("task at the current cycle did not run")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := NewQueue()
			defer func() {
				r := recover()
				if tc.wantPanic && r == nil {
					t.Fatal("expected panic, got none")
				}
				if !tc.wantPanic && r != nil {
					t.Fatalf("unexpected panic: %v", r)
				}
			}()
			tc.run(q)
		})
	}
}

func TestPastPanicMessageHasClockContext(t *testing.T) {
	q := NewQueue()
	q.At(100, "a", func() {})
	q.Step()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		msg := fmt.Sprint(r)
		want := `event: task "late" scheduled at 40, before now 100 (next seq 1, 0 pending)`
		if msg != want {
			t.Fatalf("panic message:\n got %q\nwant %q", msg, want)
		}
	}()
	q.At(40, "late", func() {})
}

// TestKeepAliveAccounting checks that AtKeep's count is released on both
// dispatch and Clear, and that At tasks never contribute.
func TestKeepAliveAccounting(t *testing.T) {
	q := NewQueue()
	q.At(5, "daemon", func() {})
	q.AtKeep(6, "work", func() {})
	q.AtKeep(7, "work2", func() {})
	q.AtKeep(8, "work3", func() {})
	if q.KeepAlive() != 3 {
		t.Fatalf("KeepAlive=%d want 3", q.KeepAlive())
	}
	q.Step()
	q.Step()
	if q.KeepAlive() != 2 {
		t.Fatalf("after dispatch KeepAlive=%d want 2", q.KeepAlive())
	}
	q.Clear()
	if q.KeepAlive() != 0 {
		t.Fatalf("after Clear KeepAlive=%d want 0", q.KeepAlive())
	}
}

// TestClear checks that Clear drops every pending task unrun, leaves the
// clock and counters alone, and returns the tasks to the pool.
func TestClear(t *testing.T) {
	q := NewQueue()
	q.At(3, "a", func() {})
	q.Step()
	ran := false
	for _, c := range []Cycle{9, 4, 7} {
		q.AtKeep(c, "doomed", func() { ran = true })
	}
	st := q.State()
	q.Clear()
	if q.Len() != 0 || q.KeepAlive() != 0 || q.State() != st {
		t.Fatalf("after Clear: len=%d keep=%d state=%+v, want 0, 0, %+v", q.Len(), q.KeepAlive(), q.State(), st)
	}
	if q.Step() || ran {
		t.Fatal("a cleared task ran")
	}
	fn := func() {}
	if avg := testing.AllocsPerRun(100, func() {
		q.After(1, "reused", fn)
		q.Step()
	}); avg != 0 {
		t.Fatalf("schedule after Clear allocates %.2f/op, want the pooled tasks reused", avg)
	}
}

// queueOp is one step of a randomized workload replayed against both queue
// implementations by TestQueueMatchesHeapReference.
type queueOp struct {
	kind  int   // 0 = At, 1 = After, 2 = Step
	delta Cycle // At/After offset
}

// TestQueueMatchesHeapReference is the property test for the pooled queue:
// identical seeded workloads of At/After/Step — with deltas chosen
// to exercise same-cycle FIFO ties, near and far futures, and the deep
// heaps the far deltas build — must produce identical dispatch traces.
func TestQueueMatchesHeapReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]queueOp, 0, 4000)
			for i := 0; i < 4000; i++ {
				op := queueOp{kind: rng.Intn(3)}
				switch rng.Intn(4) {
				case 0:
					op.delta = Cycle(rng.Intn(4)) // heavy same-cycle ties
				case 1:
					op.delta = Cycle(rng.Intn(4096)) // near future
				case 2:
					op.delta = Cycle(4096 + rng.Intn(8*4096)) // far future
				case 3:
					op.delta = Cycle(rng.Intn(64) * 4096) // round spans
				}
				ops = append(ops, op)
			}

			queueTrace := runQueue(ops)
			heapTrace := runHeapRef(ops)
			if len(queueTrace) != len(heapTrace) {
				t.Fatalf("trace lengths differ: queue %d, heap %d", len(queueTrace), len(heapTrace))
			}
			for i := range queueTrace {
				if queueTrace[i] != heapTrace[i] {
					t.Fatalf("traces diverge at %d:\n queue %q\n heap  %q",
						i, queueTrace[i], heapTrace[i])
				}
			}
		})
	}
}

// runQueue replays ops on the pooled Queue. Every dispatched task
// appends "id@now" to the trace and schedules a child task (so dispatch
// nests scheduling, like backend tasks spawning completions).
func runQueue(ops []queueOp) []string {
	q := NewQueue()
	var trace []string
	id := 0
	var mk func(delta Cycle, via int) // via 0 = At, 1 = After
	mk = func(delta Cycle, via int) {
		myID := id
		id++
		fn := func() {
			trace = append(trace, fmt.Sprintf("%d@%d", myID, q.Now()))
			if myID%3 == 0 && id < 100000 {
				mk(Cycle(myID%7), 1) // nested schedule from dispatch context
			}
		}
		if via == 0 {
			q.At(q.Now()+delta, "p", fn)
		} else {
			q.After(delta, "p", fn)
		}
	}
	for _, op := range ops {
		switch op.kind {
		case 0:
			mk(op.delta, 0)
		case 1:
			mk(op.delta, 1)
		case 2:
			q.Step()
		}
	}
	for q.Step() {
	}
	return trace
}

// runHeapRef is runQueue against the reference HeapQueue; the bodies
// must stay in lockstep for the traces to be comparable.
func runHeapRef(ops []queueOp) []string {
	q := NewHeapQueue()
	var trace []string
	id := 0
	var mk func(delta Cycle, via int)
	mk = func(delta Cycle, via int) {
		myID := id
		id++
		fn := func() {
			trace = append(trace, fmt.Sprintf("%d@%d", myID, q.Now()))
			if myID%3 == 0 && id < 100000 {
				mk(Cycle(myID%7), 1)
			}
		}
		if via == 0 {
			q.At(q.Now()+delta, "p", fn)
		} else {
			q.After(delta, "p", fn)
		}
	}
	for _, op := range ops {
		switch op.kind {
		case 0:
			mk(op.delta, 0)
		case 1:
			mk(op.delta, 1)
		case 2:
			q.Step()
		}
	}
	for q.Step() {
	}
	return trace
}

// TestScheduleDispatchIsAllocFree is the pooling regression gate: once the
// free list is warm, a schedule+dispatch round trip on the queue must not
// allocate (the budget is ≤1; it holds at 0).
func TestScheduleDispatchIsAllocFree(t *testing.T) {
	q := NewQueue()
	n := 0
	fn := func() { n++ }
	// Warm the pool and the heap slice.
	for i := 0; i < 64; i++ {
		q.After(Cycle(i%8), "warm", fn)
	}
	for q.Step() {
	}
	avg := testing.AllocsPerRun(1000, func() {
		q.After(3, "hot", fn)
		q.Step()
	})
	if avg > 1 {
		t.Fatalf("schedule+dispatch allocates %.2f/op, want <= 1", avg)
	}
	if avg != 0 {
		t.Logf("schedule+dispatch allocates %.2f/op (0 expected on the pooled path)", avg)
	}
}

// TestOverflowPathIsAllocBounded covers the far-future path: a task 4096
// or more cycles ahead, scheduled and dispatched, stays within the ≤1
// alloc/op budget (the heap slice may grow once, then is reused).
func TestOverflowPathIsAllocBounded(t *testing.T) {
	q := NewQueue()
	n := 0
	fn := func() { n++ }
	for i := 0; i < 64; i++ {
		q.After(Cycle(4096+i), "warm", fn)
	}
	for q.Step() {
	}
	avg := testing.AllocsPerRun(1000, func() {
		q.After(2*4096, "far", fn)
		q.Step()
	})
	if avg > 1 {
		t.Fatalf("far-future schedule+dispatch allocates %.2f/op, want <= 1", avg)
	}
}

// TestQueueSnapshotRoundTrip checks the queue restores byte-identically
// at the queue level: run a workload halfway, capture clock state, rebuild a
// fresh queue with the same re-armable tasks, SetState, and demand the
// continuation trace (ids, times, seq-sensitive tie order) match the
// uninterrupted run.
func TestQueueSnapshotRoundTrip(t *testing.T) {
	// Workload: a periodic timer (the kind of task checkpoint owners
	// re-arm) plus same-cycle bursts that stress tie order.
	build := func(q *Queue, trace *[]string) {
		var tick func()
		tick = func() {
			*trace = append(*trace, fmt.Sprintf("tick@%d", q.Now()))
			q.After(100, "tick", tick)
		}
		q.After(100, "tick", tick)
		for i := 0; i < 3; i++ {
			c := Cycle(70 + 10*i)
			q.At(c, "burst", func() { *trace = append(*trace, fmt.Sprintf("burst@%d", q.Now())) })
		}
	}

	// Uninterrupted run to cycle 1000.
	var full []string
	qa := NewQueue()
	build(qa, &full)
	runUntil(qa, 450)
	st := qa.State()
	runUntil(qa, 1000)

	// Interrupted run: replay to 450 on a fresh queue, snapshot there,
	// then continue on another fresh queue, built as a machine is (its
	// timer armed at construction), emptied, and re-armed at the absolute
	// next-tick cycle (as RTC.Restore does) before SetState runs last — so
	// seq parity matches the uninterrupted run.
	var pre []string
	qb := NewQueue()
	build(qb, &pre)
	runUntil(qb, 450)

	var post []string
	qc := NewQueue()
	var tick func()
	tick = func() {
		post = append(post, fmt.Sprintf("tick@%d", qc.Now()))
		qc.After(100, "tick", tick)
	}
	qc.After(100, "tick", tick)
	qc.Clear()
	qc.At(500, "tick", tick)
	qc.SetState(st)
	if qc.Now() != st.Now || qc.Len() != 1 {
		t.Fatalf("restored queue: now=%d len=%d, want now=%d len=1", qc.Now(), qc.Len(), st.Now)
	}
	runUntil(qc, 1000)

	got := append(append([]string(nil), pre...), post...)
	if len(got) != len(full) {
		t.Fatalf("continuation trace length %d, want %d\n got %v\nwant %v", len(got), len(full), got, full)
	}
	for i := range full {
		if got[i] != full[i] {
			t.Fatalf("continuation diverges at %d: got %q want %q\nfull %v\ngot  %v", i, got[i], full[i], full, got)
		}
	}
}

// runUntil dispatches tasks in time order until the queue is empty or the
// next task lies strictly beyond limit.
func runUntil(q *Queue, limit Cycle) {
	for when, ok := q.NextTime(); ok && when <= limit; when, ok = q.NextTime() {
		q.Step()
	}
}

// TestSetStateKeepsPendingOrder checks tasks queued far ahead of the old
// clock and near the restored one dispatch in (when, seq) order after
// SetState moves the clock.
func TestSetStateKeepsPendingOrder(t *testing.T) {
	q := NewQueue()
	var got []Cycle
	for _, c := range []Cycle{9*4096 + 5, 9*4096 + 5, 10*4096 + 3} {
		c := c
		q.At(c, "t", func() { got = append(got, c) })
	}
	q.SetState(QueueState{Now: 9 * 4096, Seq: q.seq, Dispatched: 0})
	for q.Step() {
	}
	want := []Cycle{9*4096 + 5, 9*4096 + 5, 10*4096 + 3}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

// TestAdvanceAcrossWindow moves the clock far ahead between rounds of near
// and far tasks and checks scheduling still lands correctly.
func TestAdvanceAcrossWindow(t *testing.T) {
	q := NewQueue()
	var got []Cycle
	for hop := 0; hop < 5; hop++ {
		base := q.Now()
		q.At(base+3, "near", func() { got = append(got, q.Now()) })
		q.At(base+4096+7, "far", func() { got = append(got, q.Now()) })
		for q.Step() {
		}
		q.Advance(base + 3*4096)
	}
	if len(got) != 10 {
		t.Fatalf("dispatched %d tasks, want 10", len(got))
	}
	for i := 0; i+1 < len(got); i++ {
		if got[i] > got[i+1] {
			t.Fatalf("clock regressed in %v", got)
		}
	}
}

// TestQueueIsSmall holds the scheduler to a few words: every machine, and
// every one a sweep point restores, allocates one.
func TestQueueIsSmall(t *testing.T) {
	if n := unsafe.Sizeof(Queue{}); n >= 1024 {
		t.Fatalf("Queue is %d bytes, want under 1 KB", n)
	}
}
