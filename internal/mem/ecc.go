// ECC-correctable memory events: a deterministic sampler that charges a
// small scrub/correction latency on a pseudo-random subset of memory
// references. Real memory controllers correct single-bit upsets inline;
// the visible effect is an occasional slow reference plus a counter the
// OS surfaces in its error logs. The sampler is a countdown over a
// splitmix64 stream keyed by (seed, draw index) — never wall clock — so
// identical configs replay identical event sequences and the state
// checkpoints exactly.
package mem

import "compass/internal/fault"

// ECC samples correctable-error events over a reference stream.
type ECC struct {
	seed    uint64
	meanGap uint64
	cost    uint64
	draws   uint64
	gap     uint64

	// Corrected counts ECC-correctable events charged so far.
	Corrected uint64
}

// NewECC builds a sampler firing at the given per-reference rate, each
// event costing cost cycles. Returns nil when the rate is zero.
func NewECC(seed uint64, rate float64, cost uint64) *ECC {
	if rate <= 0 {
		return nil
	}
	mean := uint64(1 / rate)
	if mean == 0 {
		mean = 1
	}
	e := &ECC{seed: seed, meanGap: mean, cost: cost}
	e.gap = e.nextGap()
	return e
}

// nextGap draws a uniform gap in [1, 2*mean-1], mean references apart on
// average, from the deterministic stream.
func (e *ECC) nextGap() uint64 {
	e.draws++
	return 1 + fault.Mix(e.seed^fault.Mix(e.draws)^0xecc0ecc0ecc0ecc0)%(2*e.meanGap-1)
}

// Sample advances the countdown by one reference and returns the extra
// cycles to charge (zero almost always, cost on an ECC event).
func (e *ECC) Sample() uint64 {
	e.gap--
	if e.gap > 0 {
		return 0
	}
	e.Corrected++
	e.gap = e.nextGap()
	return e.cost
}

// ECCSnap is the checkpointable sampler state.
type ECCSnap struct {
	Draws     uint64
	Gap       uint64
	Corrected uint64
}

// Snapshot captures the sampler state.
func (e *ECC) Snapshot() ECCSnap {
	return ECCSnap{Draws: e.draws, Gap: e.gap, Corrected: e.Corrected}
}

// Restore rewinds the sampler to a snapshot.
func (e *ECC) Restore(s ECCSnap) {
	e.draws = s.Draws
	e.gap = s.Gap
	e.Corrected = s.Corrected
}
