package stats

import (
	"math"
	"testing"
)

// Histogram edge cases: the empty histogram, the zero sample, and
// samples so large they overflow the last power-of-two bucket.
func TestHistogramEdgeCases(t *testing.T) {
	maxBucket := len(Histogram{}.buckets) - 1
	tests := []struct {
		name       string
		samples    []uint64
		wantCount  uint64
		wantMax    uint64
		wantMean   float64
		wantBucket map[int]uint64
	}{
		{
			name:       "zero observations",
			samples:    nil,
			wantCount:  0,
			wantMax:    0,
			wantMean:   0,
			wantBucket: map[int]uint64{0: 0, maxBucket: 0},
		},
		{
			name:       "zero-valued sample lands in bucket 0",
			samples:    []uint64{0},
			wantCount:  1,
			wantMax:    0,
			wantMean:   0,
			wantBucket: map[int]uint64{0: 1},
		},
		{
			name:       "one lands in bucket 0",
			samples:    []uint64{1},
			wantCount:  1,
			wantMax:    1,
			wantMean:   1,
			wantBucket: map[int]uint64{0: 1},
		},
		{
			name:      "max-bucket overflow clamps to last bucket",
			samples:   []uint64{1 << 40, 1 << 62, math.MaxUint64},
			wantCount: 3,
			wantMax:   math.MaxUint64,
			// Mean is not asserted: the internal sum legitimately wraps
			// with MaxUint64 samples; the clamp is what matters.
			wantMean:   -1,
			wantBucket: map[int]uint64{maxBucket: 3},
		},
		{
			name:       "exact bucket boundaries",
			samples:    []uint64{2, 3, 4},
			wantCount:  3,
			wantMax:    4,
			wantMean:   3,
			wantBucket: map[int]uint64{1: 2, 2: 1},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var h Histogram
			for _, v := range tc.samples {
				h.Observe(v)
			}
			if h.count != tc.wantCount {
				t.Errorf("Count = %d, want %d", h.count, tc.wantCount)
			}
			if h.Max() != tc.wantMax {
				t.Errorf("Max = %d, want %d", h.Max(), tc.wantMax)
			}
			if tc.wantMean >= 0 && math.Abs(h.Mean()-tc.wantMean) > 1e-9 {
				t.Errorf("Mean = %f, want %f", h.Mean(), tc.wantMean)
			}
			for i, want := range tc.wantBucket {
				if got := h.buckets[i]; got != want {
					t.Errorf("Bucket(%d) = %d, want %d", i, got, want)
				}
			}
			// No sample may escape the bucket array.
			var total uint64
			for i := 0; i <= maxBucket; i++ {
				total += h.buckets[i]
			}
			if total != tc.wantCount {
				t.Errorf("bucket sum %d != count %d", total, tc.wantCount)
			}
		})
	}
}

// Mean on the empty histogram must be exactly 0, not NaN — it feeds
// result tables that the determinism test byte-compares.
func TestHistogramMeanEmptyIsZeroNotNaN(t *testing.T) {
	var h Histogram
	if m := h.Mean(); m != 0 || math.IsNaN(m) {
		t.Errorf("Mean on empty = %v, want 0", m)
	}
}

// Counters merges are order-insensitive: merging the same sets in any
// order yields identical values and an identical rendered table. The
// experiment engine's aggregation relies on this only as a backstop —
// it always merges in job-index order — but the property is what makes
// per-point tables stable when points themselves are reordered.
func TestCountersMergeOrdering(t *testing.T) {
	mk := func(pairs map[string]uint64) *Counters {
		var c Counters
		for k, v := range pairs {
			c.Inc(k, v)
		}
		return &c
	}
	sets := []map[string]uint64{
		{"l1.hits": 5, "bus.txns": 2},
		{"l1.hits": 3, "fault.disk.retries": 7},
		{},
		{"noc.flits": 11, "bus.txns": 1},
	}
	tests := []struct {
		name  string
		order []int
	}{
		{name: "forward", order: []int{0, 1, 2, 3}},
		{name: "reverse", order: []int{3, 2, 1, 0}},
		{name: "interleaved", order: []int{2, 0, 3, 1}},
	}
	var want string
	for i, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var agg Counters
			for _, j := range tc.order {
				agg.Add(mk(sets[j]))
			}
			if got := agg.Get("l1.hits"); got != 8 {
				t.Errorf("l1.hits = %d, want 8", got)
			}
			if got := agg.String(); i == 0 {
				want = got
			} else if got != want {
				t.Errorf("order %v rendered differently:\n%s\nwant:\n%s", tc.order, got, want)
			}
		})
	}
}

// Merging into and from zero-value Counters is safe (lazy map init).
func TestCountersZeroValueMerge(t *testing.T) {
	var a, b Counters
	a.Add(&b) // both empty: no panic, still empty
	if len(a.Names()) != 0 {
		t.Errorf("names after empty merge: %v", a.Names())
	}
	b.Inc("x", 1)
	a.Add(&b)
	if a.Get("x") != 1 {
		t.Errorf("x = %d, want 1", a.Get("x"))
	}
}
