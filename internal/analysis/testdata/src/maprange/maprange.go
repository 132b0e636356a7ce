// Package maprange is the detmaprange fixture: every map-range loop is
// a finding unless it carries //det:ordered with its justification —
// order-sensitive bodies, commutative ones and bodies that schedule
// through a helper alike — and the bare annotation is a finding too.
package maprange

import (
	"fmt"
	"sort"
	"strings"

	"fixture/internal/event"
)

type stats struct {
	counts map[string]int
	total  int
	mean   float64
	names  []string
}

func (s *stats) appendUnsorted() {
	for k := range s.counts { // want `iteration over map s\.counts runs in random order`
		s.names = append(s.names, k)
	}
}

func (s *stats) appendThenSort() {
	//det:ordered names are sorted immediately below
	for k := range s.counts {
		s.names = append(s.names, k)
	}
	sort.Strings(s.names)
}

func (s *stats) missingJustification() {
	//det:ordered
	for k := range s.counts { // want `//det:ordered needs a justification: say why the order of map s\.counts cannot matter`
		s.names = append(s.names, k)
	}
	sort.Strings(s.names)
}

// intAccumulate commutes across iterations, but the rule does not
// infer that: the loop states it or is a finding.
func (s *stats) intAccumulate() {
	for _, v := range s.counts { // want `iteration over map s\.counts runs in random order`
		s.total += v
	}
}

func (s *stats) floatAccumulate() {
	for _, v := range s.counts { // want `iteration over map s\.counts runs in random order`
		s.mean += float64(v)
	}
}

func (s *stats) lastWriterWins() string {
	var last string
	for k := range s.counts { // want `iteration over map s\.counts runs in random order`
		last = k
	}
	return last
}

func (s *stats) concat() string {
	joined := ""
	for k := range s.counts { // want `iteration over map s\.counts runs in random order`
		joined += k
	}
	return joined
}

// invert writes into a slot selected by the ranged value: commutative
// unless two keys share a value, which only the author can rule out.
func invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m { // want `iteration over map m runs in random order`
		out[v] = k
	}
	return out
}

func dump(m map[string]int) {
	for k, v := range m { // want `iteration over map m runs in random order`
		fmt.Printf("%s=%d\n", k, v)
	}
}

func render(m map[string]int, b *strings.Builder) {
	for k := range m { // want `iteration over map m runs in random order`
		b.WriteString(k)
	}
}

func noop() {}

func schedule(q *event.Queue, pending map[string]event.Cycle) {
	for _, when := range pending { // want `iteration over map pending runs in random order`
		q.At(when, "wake", noop)
	}
}

// waker schedules through a helper method: the loop body never names
// the queue, yet each iteration queues a task.
type waker struct{ q *event.Queue }

func (w *waker) wake(when event.Cycle) { w.q.At(when, "wake", noop) }

func wakeAll(w *waker, pending map[string]event.Cycle) {
	for _, when := range pending { // want `iteration over map pending runs in random order`
		w.wake(when)
	}
}

// sortedDump is the canonical deterministic idiom: collect keys under
// a justified annotation, sort, then iterate the slice freely.
func sortedDump(m map[string]int, b *strings.Builder) {
	keys := make([]string, 0, len(m))
	//det:ordered keys are sorted immediately below
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "%s=%d\n", k, m[k])
	}
}
