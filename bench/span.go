package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one harness → layer call: the benchmark's own record of when it
// entered a layer's public function and when that call returned. Spans
// inside Sim.Run are a later change; this recorder only sees the program
// from outside.
type span struct {
	ID     int
	Parent int // 0 = root
	Name   string
	Start  time.Duration // since the recorder's origin
	End    time.Duration
	Count  uint64 // work done under the span (references, bytes, calls)
	// Track separates spans that ran concurrently on worker goroutines
	// (0 = the harness goroutine).
	Track int
}

// spans keeps every span in memory until the run ends. A nil *spans
// records nothing and costs one nil check per call, which is how the
// untraced reps run. The recorder is used from the harness goroutine only.
type spans struct {
	workload string
	origin   time.Time
	done     []span
	open     []int // indexes into done of the spans still running
}

func newSpans(workload string) *spans {
	return &spans{workload: workload, origin: time.Now()}
}

// do runs fn under a span; fn returns the span's count.
func (s *spans) do(name string, fn func() uint64) {
	if s == nil {
		fn()
		return
	}
	parent := 0
	if n := len(s.open); n > 0 {
		parent = s.done[s.open[n-1]].ID
	}
	idx := len(s.done)
	s.done = append(s.done, span{ID: idx + 1, Parent: parent, Name: name, Start: time.Since(s.origin)})
	s.open = append(s.open, idx)
	count := fn()
	s.open = s.open[:len(s.open)-1]
	s.done[idx].End = time.Since(s.origin)
	s.done[idx].Count = count
}

// record adds a span that already ran, on a worker goroutine the recorder
// could not follow, as a child of the span currently open.
func (s *spans) record(name string, track int, start, end time.Time, count uint64) {
	if s == nil {
		return
	}
	parent := 0
	if n := len(s.open); n > 0 {
		parent = s.done[s.open[n-1]].ID
	}
	s.done = append(s.done, span{
		ID: len(s.done) + 1, Parent: parent, Name: name, Track: track,
		Start: start.Sub(s.origin), End: end.Sub(s.origin), Count: count,
	})
}

// selfTimes sums, per span name, each span's duration minus the part of
// that interval its direct children cover. Children that ran concurrently
// overlap, so their intervals are merged before they are subtracted.
func (s *spans) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if s == nil {
		return out
	}
	children := make(map[int][]span, len(s.done))
	for _, sp := range s.done {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	for _, sp := range s.done {
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, upto time.Duration
		upto = sp.Start
		for _, k := range kids {
			from, to := max(k.Start, upto), min(k.End, sp.End)
			if to > from {
				covered += to - from
				upto = to
			}
		}
		out[sp.Name] += sp.End - sp.Start - covered
	}
	return out
}

// names lists the distinct span names recorded, sorted.
func (s *spans) names() []string {
	seen := map[string]bool{}
	var out []string
	if s == nil {
		return out
	}
	for _, sp := range s.done {
		if !seen[sp.Name] {
			seen[sp.Name] = true
			out = append(out, sp.Name)
		}
	}
	sort.Strings(out)
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which chrome://tracing and ui.perfetto.dev both open.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   string         `json:"id"` // the workload: shared by every span of the run
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON.
func (s *spans) writeChrome(path string) error {
	events := make([]chromeEvent, 0, len(s.done))
	for _, sp := range s.done {
		events = append(events, chromeEvent{
			Name: sp.Name, Cat: "bench", Ph: "X",
			TS:  float64(sp.Start.Nanoseconds()) / 1e3,
			Dur: float64((sp.End - sp.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: 1 + sp.Track, ID: s.workload,
			Args: map[string]any{"span": sp.ID, "parent": sp.Parent, "count": sp.Count},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
