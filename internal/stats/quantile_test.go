package stats

import (
	"math"
	"strings"
	"testing"
)

// Quantile edge cases: the empty histogram, a single-bucket population,
// boundary q values, and interpolation inside the overflow bucket, which
// must clamp to the observed maximum instead of extrapolating to 2^32.
func TestHistogramQuantile(t *testing.T) {
	tests := []struct {
		name    string
		samples []uint64
		q       float64
		want    float64
		// tol is the allowed absolute error (interpolated estimates);
		// 0 means exact.
		tol float64
	}{
		{name: "empty histogram", samples: nil, q: 0.5, want: 0},
		{name: "empty histogram q=1", samples: nil, q: 1, want: 0},
		{name: "q below zero clamps", samples: []uint64{8, 8, 8}, q: -3, want: 8, tol: 0.01},
		{name: "q=1 is exact max", samples: []uint64{3, 900, 17}, q: 1, want: 900},
		{name: "q above one is exact max", samples: []uint64{3, 900, 17}, q: 1.5, want: 900},
		{
			// All samples in bucket 3 ([8,16)): every quantile lands inside
			// the bucket, interpolated between 8 and the max+1 clamp.
			name:    "single bucket interpolates within bounds",
			samples: []uint64{8, 10, 12, 14},
			q:       0.5, want: 11, tol: 3.5,
		},
		{
			// 10 samples of value 4 ([4,8) clamped to [4,5)): the median
			// interpolates inside the clamp, within 1 of the true value.
			name:    "identical samples stay near the value",
			samples: repeat(4, 10),
			q:       0.5, want: 4, tol: 1,
		},
		{
			// 90 fast + 10 slow: p50 must read from the fast bucket, p99
			// from the slow one.
			name:    "bimodal p50 reads fast mode",
			samples: append(repeat(16, 90), repeat(1024, 10)...),
			q:       0.5, want: 16, tol: 16,
		},
		{
			name:    "bimodal p99 reads slow mode",
			samples: append(repeat(16, 90), repeat(1024, 10)...),
			q:       0.99, want: 1024, tol: 1024,
		},
		{
			// Overflow bucket: samples beyond 2^31 all land in bucket 31,
			// whose upper bound must clamp to max+1, not 2^32.
			name:    "overflow bucket clamps to observed max",
			samples: []uint64{1 << 40, 1 << 41},
			q:       0.5, want: float64(uint64(1) << 41), tol: float64(uint64(1) << 41),
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var h Histogram
			for _, v := range tc.samples {
				h.Observe(v)
			}
			got := h.Quantile(tc.q)
			if math.IsNaN(got) {
				t.Fatalf("Quantile(%v) = NaN", tc.q)
			}
			if tc.tol == 0 {
				if got != tc.want {
					t.Fatalf("Quantile(%v) = %v, want exactly %v", tc.q, got, tc.want)
				}
				return
			}
			if math.Abs(got-tc.want) > tc.tol {
				t.Fatalf("Quantile(%v) = %v, want %v ± %v", tc.q, got, tc.want, tc.tol)
			}
			if m := float64(h.Max()); got > m {
				t.Fatalf("Quantile(%v) = %v exceeds max %v", tc.q, got, m)
			}
		})
	}
}

// repeat builds n copies of v (test population helper).
func repeat(v uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// Quantiles are monotone in q for any population.
func TestHistogramQuantileMonotone(t *testing.T) {
	var h Histogram
	for i := uint64(1); i < 4000; i += 7 {
		h.Observe(i * i % 65536)
	}
	prev := -1.0
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < previous %v: not monotone", q, v, prev)
		}
		prev = v
	}
}

// State/SetState round-trips the histogram exactly, including the
// overflow bucket, and the restored histogram reports identical
// quantiles — the property checkpoint resume of latency tables needs.
func TestHistogramStateRoundTrip(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 5, 77, 4096, 1 << 40} {
		h.Observe(v)
	}
	var r Histogram
	r.SetState(h.State())
	if r != h {
		t.Fatalf("round trip diverged:\n%+v\nvs\n%+v", r, h)
	}
	for _, q := range []float64{0.5, 0.99, 1} {
		if r.Quantile(q) != h.Quantile(q) {
			t.Fatalf("Quantile(%v) diverged after round trip", q)
		}
	}
	// Restoring an empty state clears a populated histogram.
	r.SetState(HistogramState{})
	if r.count != 0 || r.Max() != 0 {
		t.Fatalf("SetState(zero) left residue: %+v", r)
	}
}

// The load table renders offered/completed counts and quantile columns,
// aggregates a total row for multi-class tables, and renders "" for the
// empty row set (no-generator runs print nothing).
func TestFormatLoadTable(t *testing.T) {
	if got := FormatLoadTable(nil); got != "" {
		t.Fatalf("empty table = %q, want \"\"", got)
	}
	var fast, slow Histogram
	for i := 0; i < 99; i++ {
		fast.Observe(1000)
	}
	fast.Observe(1 << 20)
	slow.Observe(65536)
	rows := []LoadRow{
		{Class: "static", Offered: 100, Completed: 100, Latency: &fast},
		{Class: "dyn", Offered: 2, Completed: 1, Failed: 1, Latency: &slow},
	}
	out := FormatLoadTable(rows)
	for _, want := range []string{"class", "p50", "p999", "static", "dyn", "total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("load table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want header + 2 classes + total = 4 lines, got %d:\n%s", len(lines), out)
	}
	// Single-class tables skip the redundant total row.
	single := FormatLoadTable(rows[:1])
	if strings.Contains(single, "total") {
		t.Fatalf("single-class table should not print a total row:\n%s", single)
	}
}
