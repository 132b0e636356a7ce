// Reference binary-heap scheduler, for two jobs: the property tests replay
// randomized workloads on it and on the pooled Queue and demand identical
// dispatch traces, and the heap legs of bench_test.go price the Queue
// against it. It is container/heap with no pooling: every task is a fresh
// allocation and every operation goes through the heap.Interface methods.
// Nothing outside the tests uses it, so it is a test file.
package event

import (
	"container/heap"
	"fmt"
)

// HeapTask is a pending unit of work in a HeapQueue.
type HeapTask struct {
	when  Cycle
	seq   uint64
	fn    func()
	label string
}

type heapTasks []*HeapTask

func (h heapTasks) Len() int { return len(h) }
func (h heapTasks) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h heapTasks) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *heapTasks) Push(x any)   { *h = append(*h, x.(*HeapTask)) }
func (h *heapTasks) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// HeapQueue is the reference scheduler: container/heap on (when, seq).
type HeapQueue struct {
	now        Cycle
	seq        uint64
	heap       heapTasks
	dispatched uint64
}

// NewHeapQueue returns an empty reference scheduler at cycle 0.
func NewHeapQueue() *HeapQueue { return &HeapQueue{} }

// Now returns the current cycle.
func (q *HeapQueue) Now() Cycle { return q.now }

// Len reports the number of pending tasks.
func (q *HeapQueue) Len() int { return len(q.heap) }

// Dispatched reports how many tasks have run.
func (q *HeapQueue) Dispatched() uint64 { return q.dispatched }

// At schedules fn at absolute cycle when; panics on past scheduling.
func (q *HeapQueue) At(when Cycle, label string, fn func()) {
	if when < q.now {
		panic(fmt.Sprintf("event: task %q scheduled at %d, before now %d (next seq %d, %d pending)",
			label, when, q.now, q.seq, q.Len()))
	}
	t := &HeapTask{when: when, seq: q.seq, fn: fn, label: label}
	q.seq++
	heap.Push(&q.heap, t)
}

// After schedules fn delay cycles from now.
func (q *HeapQueue) After(delay Cycle, label string, fn func()) {
	q.At(q.now+delay, label, fn)
}

// NextTime returns the earliest pending timestamp.
func (q *HeapQueue) NextTime() (Cycle, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].when, true
}

// Step dispatches the earliest task; false when empty.
func (q *HeapQueue) Step() bool {
	if len(q.heap) == 0 {
		return false
	}
	t := heap.Pop(&q.heap).(*HeapTask)
	q.now = t.when
	q.dispatched++
	t.fn()
	return true
}
