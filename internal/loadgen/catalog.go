package loadgen

import (
	"fmt"

	"compass/internal/arrival"
)

// Object is one request target: a server path and the expected response
// body size (for byte validation, like the trace player's).
type Object struct {
	Path string
	Size int
}

// Catalog is a class's object population. Requests draw objects from it
// by the class's Zipf law; its memory is O(Objects), independent of the
// client population.
type Catalog []Object

// Sizes draws the class's object sizes from its bounded-Pareto size law
// — a pure function of (seed, class index, config), so the caller can
// materialize the same fileset before and after a checkpoint without
// storing it.
func (c ClassConfig) Sizes(seed uint64, class int) []int {
	s := arrival.NewStream(seed, siteSize, class)
	sizes := make([]int, c.Objects)
	for i := range sizes {
		sizes[i] = int(c.boundedSize(&s))
	}
	return sizes
}

func (c ClassConfig) boundedSize(s *arrival.Stream) uint64 {
	return uint64(boundedPareto(s, float64(c.SizeMin), float64(c.SizeMax), c.SizeAlpha))
}

// Keys draws the class's object keys uniformly over [0, space) — the
// dynamic-content analogue of Sizes, used to pin a catalog of /dyn/<key>
// requests against a database tier.
func (c ClassConfig) Keys(seed uint64, class, space int) []int {
	s := arrival.NewStream(seed, siteKey, class)
	keys := make([]int, c.Objects)
	for i := range keys {
		keys[i] = int(s.Next() % uint64(space))
	}
	return keys
}

// ObjectPath is the canonical fileset path of a static catalog member.
func ObjectPath(class string, idx int) string {
	return fmt.Sprintf("load/%s/o%d", class, idx)
}
