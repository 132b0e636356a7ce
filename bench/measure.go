package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// hostCost is what one timed section cost the host: wall time, heap
// allocation, and the collector's share of CPU.
type hostCost struct {
	Wall       time.Duration
	Mallocs    uint64
	AllocBytes uint64
	GCCount    uint32
	GCPause    time.Duration
	// GCCPUFrac is collector CPU seconds over all CPU seconds the process
	// had available during the section (runtime/metrics cpu classes).
	GCCPUFrac float64
	// HeapSysMB is heap address space obtained from the OS at the end of
	// the section; the runtime grows it to peak demand and does not shrink
	// it within a run, so it stands in for the peak.
	HeapSysMB float64
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGCCPU() (gc, total float64) {
	metrics.Read(gcSamples)
	if gcSamples[0].Value.Kind() == metrics.KindFloat64 {
		gc = gcSamples[0].Value.Float64()
	}
	if gcSamples[1].Value.Kind() == metrics.KindFloat64 {
		total = gcSamples[1].Value.Float64()
	}
	return gc, total
}

// measureHost times fn with allocation and collector accounting around it.
// The heap is collected first so a section does not pay for garbage left
// by set-up; both MemStats reads sit outside the timed interval.
func measureHost(fn func()) hostCost {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0, cpu0 := readGCCPU()
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	gc1, cpu1 := readGCCPU()
	runtime.ReadMemStats(&after)
	c := hostCost{
		Wall:       wall,
		Mallocs:    after.Mallocs - before.Mallocs,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		GCCount:    after.NumGC - before.NumGC,
		GCPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		HeapSysMB:  float64(after.HeapSys) / 1e6,
	}
	if cpu1 > cpu0 {
		c.GCCPUFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	return c
}

// summary is the five-number description of a small sample. No tail
// percentile is offered: a run holds fewer than ten reps.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// quantile interpolates the way Python's statistics.quantiles(n=4) does
// (exclusive method), so spreads computed here match the acceptance rule.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q*float64(n+1) - 1
	lo := math.Floor(pos)
	i := int(lo)
	if i < 0 {
		return sorted[0]
	}
	if i >= n-1 {
		return sorted[n-1]
	}
	return sorted[i] + (pos-lo)*(sorted[i+1]-sorted[i])
}

func summarize(v []float64) summary {
	if len(v) == 0 {
		return summary{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return summary{
		N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75),
		Min: s[0], Max: s[len(s)-1],
	}
}

func median(v []float64) float64 { return summarize(v).Median }

// iqrFrac is the inter-quartile distance as a share of the median.
func (s summary) iqrFrac() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}
