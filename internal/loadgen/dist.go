// Distribution machinery for the generator's home side: the stream
// site keys, the bounded Pareto law and a Zipf popularity table over an
// object catalog. The counter-based streams themselves are
// arrival.Stream, shared with the lane side: every draw advances an
// explicit counter that is checkpoint state, so a run resumed from a
// snapshot consumes exactly the random sequence the uninterrupted run
// would have.
package loadgen

import (
	"math"

	"compass/internal/arrival"
)

// Stream site keys. Each class derives its own streams from them
// (arrival.NewStream folds the class index into the site).
const (
	siteArrival uint64 = 0x10adc001
	siteObject  uint64 = 0x10adc002
	siteThink   uint64 = 0x10adc003
	siteSize    uint64 = 0x10adc004
	siteKey     uint64 = 0x10adc005
)

// boundedPareto draws from the bounded Pareto law on [lo, hi] with shape
// alpha by inverse CDF: heavy-tailed think times and object sizes, the
// SURGE/SPECWeb-style workload ingredients.
func boundedPareto(s *arrival.Stream, lo, hi, alpha float64) float64 {
	if hi <= lo {
		return lo
	}
	u := s.U01()
	la := math.Pow(lo, -alpha)
	ha := math.Pow(hi, -alpha)
	v := math.Pow(la-u*(la-ha), -1/alpha)
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// zipfTable is the cumulative popularity table for a catalog of n
// objects with exponent s: weight(i) ∝ 1/(i+1)^s. Built once per class;
// drawing is a binary search, no per-draw allocation.
type zipfTable struct {
	cum []float64
}

func newZipfTable(n int, s float64) zipfTable {
	cum := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	return zipfTable{cum: cum}
}

// draw picks an object index by popularity.
func (z *zipfTable) draw(s *arrival.Stream) int {
	if len(z.cum) == 0 {
		return 0
	}
	x := s.U01() * z.cum[len(z.cum)-1]
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
