// Distribution machinery for the open-loop generator: counter-based
// splitmix64 streams (the internal/fault discipline — seeded, keyed per
// site, never wall clock), inverse-CDF samplers for the exponential and
// bounded Pareto laws, and a Zipf popularity table over an object
// catalog. Every draw advances an explicit counter that is checkpoint
// state, so a run resumed from a snapshot consumes exactly the random
// sequence the uninterrupted run would have.
package loadgen

import (
	"math"

	"compass/internal/fault"
)

// Stream site keys. Each class derives its own streams by folding the
// class index into the site, so classes draw independently.
const (
	siteArrival uint64 = 0x10adc001
	siteObject  uint64 = 0x10adc002
	siteThink   uint64 = 0x10adc003
	siteSize    uint64 = 0x10adc004
	siteKey     uint64 = 0x10adc005
)

// classSite folds a class index into a stream site key.
func classSite(site uint64, class int) uint64 {
	return site ^ uint64(class)*0x632be59bd9b4e019
}

// stream is one deterministic draw sequence. The counter makes draws
// distinct and is the only mutable state — checkpoint it and the stream
// resumes exactly.
type stream struct {
	seed  uint64
	site  uint64
	draws uint64
}

func newStream(seed, site uint64, class int) stream {
	return stream{seed: seed, site: classSite(site, class)}
}

// next yields the stream's next 64-bit value.
func (s *stream) next() uint64 {
	s.draws++
	return fault.Mix(s.seed ^ fault.Mix(s.site) ^ s.draws*0x9e3779b97f4a7c15)
}

// u01 yields a uniform draw in [0,1) with 53 significant bits.
func (s *stream) u01() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// expCycles draws an exponential inter-arrival gap (mean 1/rate cycles),
// clamped to [1, 1<<40] so a pathological rate can neither stall the
// event loop with zero-length gaps nor overflow cycle arithmetic.
func (s *stream) expCycles(rate float64) uint64 {
	g := -math.Log(1-s.u01()) / rate
	if !(g >= 1) { // also catches NaN/Inf from rate<=0 misuse
		return 1
	}
	if g > 1<<40 {
		return 1 << 40
	}
	return uint64(g)
}

// boundedPareto draws from the bounded Pareto law on [lo, hi] with shape
// alpha by inverse CDF: heavy-tailed think times and object sizes, the
// SURGE/SPECWeb-style workload ingredients.
func (s *stream) boundedPareto(lo, hi, alpha float64) float64 {
	if hi <= lo {
		return lo
	}
	u := s.u01()
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
func (z *zipfTable) draw(s *stream) int {
	if len(z.cum) == 0 {
		return 0
	}
	x := s.u01() * z.cum[len(z.cum)-1]
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
