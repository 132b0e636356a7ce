package loadgen

import (
	"reflect"
	"strings"
	"testing"

	"compass/internal/arrival"
)

// Streams are deterministic per (seed, site) and independent across
// sites and classes.
func TestStreamDeterminism(t *testing.T) {
	a := arrival.NewStream(42, siteArrival, 0)
	b := arrival.NewStream(42, siteArrival, 0)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("same-keyed streams diverged at draw %d", i)
		}
	}
	c := arrival.NewStream(42, siteArrival, 1)
	d := arrival.NewStream(42, siteObject, 0)
	if x := c.Next(); x == a.Next() || x == d.Next() {
		t.Fatal("differently keyed streams collided on the first draw")
	}
}

// Bounded Pareto draws stay inside their bounds for adversarial shapes.
func TestBoundedParetoBounds(t *testing.T) {
	s := arrival.NewStream(7, siteThink, 0)
	for _, shape := range []struct{ lo, hi, alpha float64 }{
		{5_000, 200_000, 1.5},
		{1, 2, 0.1},
		{256, 65_536, 3},
		{100, 100, 1.2}, // degenerate: constant
	} {
		for i := 0; i < 2000; i++ {
			v := boundedPareto(&s, shape.lo, shape.hi, shape.alpha)
			if v < shape.lo || v > shape.hi {
				t.Fatalf("boundedPareto(%v,%v,%v) = %v outside bounds", shape.lo, shape.hi, shape.alpha, v)
			}
		}
	}
}

// The Zipf table skews draws toward low indices: the head object is
// drawn more often than the tail object, and every draw is in range.
func TestZipfSkew(t *testing.T) {
	z := newZipfTable(64, 1.0)
	s := arrival.NewStream(9, siteObject, 0)
	counts := make([]int, 64)
	for i := 0; i < 20_000; i++ {
		o := z.draw(&s)
		if o < 0 || o >= 64 {
			t.Fatalf("zipf draw %d out of range", o)
		}
		counts[o]++
	}
	if counts[0] <= counts[63]*4 {
		t.Fatalf("zipf head not favored: head=%d tail=%d", counts[0], counts[63])
	}
}

// Exponential gaps respect the [1, 2^40] clamp and track the rate.
func TestExpCycles(t *testing.T) {
	s := arrival.NewStream(11, siteArrival, 0)
	var sum uint64
	const n = 50_000
	for i := 0; i < n; i++ {
		gap := s.ExpCycles(1e-4)
		if gap < 1 || gap > 1<<40 {
			t.Fatalf("exp gap %d outside clamp", gap)
		}
		sum += gap
	}
	mean := float64(sum) / n
	if mean < 8_000 || mean > 12_000 {
		t.Fatalf("exp mean %v far from 10000", mean)
	}
}

// Sizes and Keys are pure functions of (seed, class, config).
func TestCatalogDeterminism(t *testing.T) {
	cc := ClassConfig{Objects: 16, SizeMin: 256, SizeMax: 65_536, SizeAlpha: 1.2}
	if !reflect.DeepEqual(cc.Sizes(3, 0), cc.Sizes(3, 0)) {
		t.Fatal("Sizes not deterministic")
	}
	if reflect.DeepEqual(cc.Sizes(3, 0), cc.Sizes(4, 0)) {
		t.Fatal("Sizes ignores the seed")
	}
	for _, sz := range cc.Sizes(3, 0) {
		if sz < 256 || sz > 65_536 {
			t.Fatalf("size %d outside bounds", sz)
		}
	}
	keys := cc.Keys(3, 0, 100)
	if !reflect.DeepEqual(keys, cc.Keys(3, 0, 100)) {
		t.Fatal("Keys not deterministic")
	}
	for _, k := range keys {
		if k < 0 || k >= 100 {
			t.Fatalf("key %d outside space", k)
		}
	}
}

// ParseSpec happy path: defaults applied, classes parsed, windows read.
func TestParseSpec(t *testing.T) {
	c, err := ParseSpec("seed=42,requests=400;class=static,clients=1000000,interval=1e9,burst=2,flash=2e6:4e6:8;class=dyn,rate=0.5,mmpp=1e6:250000:4")
	if err != nil {
		t.Fatal(err)
	}
	if c.Seed != 42 || c.Requests != 400 || len(c.Classes) != 2 {
		t.Fatalf("bad globals: %+v", c)
	}
	st := c.Classes[0]
	if st.Name != "static" || st.Clients != 1_000_000 || st.Interval != 1e9 || st.Burst != 2 {
		t.Fatalf("bad static class: %+v", st)
	}
	if len(st.Flash) != 1 || st.Flash[0] != (Window{Start: 2_000_000, Dur: 4_000_000, Mult: 8}) {
		t.Fatalf("bad flash window: %+v", st.Flash)
	}
	if st.ThinkAlpha != 1.5 || st.Objects != 32 {
		t.Fatalf("defaults not applied: %+v", st)
	}
	dyn := c.Classes[1]
	if dyn.Rate != 0.5 || dyn.MMPP != (MMPP{Period: 1_000_000, On: 250_000, Mult: 4}) {
		t.Fatalf("bad dyn class: %+v", dyn)
	}
}

// ParseSpec rejects the malformed plans that would poison determinism
// or the arrival process.
func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"class=a",                      // no traffic
		"requests=10",                  // no classes
		"clients=5",                    // class key before class=
		"class=a,clients=NaN",          // NaN count
		"class=a,rate=NaN",             // NaN rate
		"class=a,rate=-1",              // negative rate
		"class=a,rate=+Inf",            // infinite rate
		"class=a,clients=1,interval=0", // zero interval
		"class=a,clients=1,burst=-2",
		"class=a,clients=1,think.min=9,think.max=3",
		"class=a,clients=1,flash=5:0:2",    // zero-length window
		"class=a,clients=1,flash=5:10:NaN", // NaN multiplier
		"class=a,clients=1,flash=5:10",     // short window
		"class=a,clients=1,mmpp=100:200:2", // on longer than period
		"class=a,clients=1;class=a,rate=1", // duplicate name
		"class=a,clients=1,class=b",        // two classes in a section
		"class=a,clients=1,zipf=-0.5",      // negative exponent
		"class=a,clients=1,size.alpha=-1",  // negative shape
		"class=a,clients=1,unknown.key=1",  // unknown key
		"class=a,clients=1,clients",        // bare key
		"seed=9,bogus=1;class=a,clients=1", // unknown global
		"class=,clients=1",                 // empty name
		"class=a,clients=1,size.min=9,size.max=3",
	} {
		c, err := ParseSpec(spec)
		if err == nil {
			t.Fatalf("ParseSpec(%q) accepted: %+v", spec, c)
		}
		if !strings.Contains(err.Error(), "loadgen:") && !strings.Contains(err.Error(), "invalid") {
			t.Fatalf("ParseSpec(%q): unbranded error %v", spec, err)
		}
		if !reflect.DeepEqual(c, Config{}) {
			t.Fatalf("ParseSpec(%q) error returned non-zero config %+v", spec, c)
		}
	}
}

// The canonical rendering re-parses to the identical concrete plan.
func TestSpecRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"class=web,clients=1000000,interval=2.5e8",
		"seed=7,requests=250;class=static,clients=50000,burst=3,flash=1e6:5e5:12,flash=9e6:1e6:3;class=dyn,rate=0.25,mmpp=2e6:5e5:6,zipf=1.1",
	} {
		c, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		c2, err := ParseSpec(c.String())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", c.String(), err)
		}
		if !reflect.DeepEqual(c, c2) {
			t.Fatalf("round trip diverged:\n%+v\nvs\n%+v\nvia %q", c, c2, c.String())
		}
	}
}
