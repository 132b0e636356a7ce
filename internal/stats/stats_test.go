package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeAccountChargeAndTotal(t *testing.T) {
	var a TimeAccount
	a.Charge(ModeUser, 100)
	a.Charge(ModeKernel, 30)
	a.Charge(ModeInterrupt, 20)
	a.Charge(ModeUser, 50)
	if got := a.Cycles(ModeUser); got != 150 {
		t.Errorf("user cycles = %d, want 150", got)
	}
	if got := a.Total(); got != 200 {
		t.Errorf("total = %d, want 200", got)
	}
}

func TestTimeAccountAdd(t *testing.T) {
	var a, b TimeAccount
	a.Charge(ModeUser, 10)
	b.Charge(ModeUser, 5)
	b.Charge(ModeKernel, 7)
	a.Add(&b)
	if a.Cycles(ModeUser) != 15 || a.Cycles(ModeKernel) != 7 {
		t.Errorf("after Add: user=%d kernel=%d", a.Cycles(ModeUser), a.Cycles(ModeKernel))
	}
}

func TestProfilePercentages(t *testing.T) {
	var a TimeAccount
	a.Charge(ModeUser, 149)
	a.Charge(ModeInterrupt, 378)
	a.Charge(ModeKernel, 473)
	p := ProfileOf("SPECWeb/Apache", &a)
	if math.Abs(p.UserPct-14.9) > 0.01 {
		t.Errorf("UserPct = %f, want 14.9", p.UserPct)
	}
	if math.Abs(p.OSPct-85.1) > 0.01 {
		t.Errorf("OSPct = %f, want 85.1", p.OSPct)
	}
	if math.Abs(p.InterruptPct-37.8) > 0.01 {
		t.Errorf("InterruptPct = %f, want 37.8", p.InterruptPct)
	}
	if math.Abs(p.KernelPct-47.3) > 0.01 {
		t.Errorf("KernelPct = %f, want 47.3", p.KernelPct)
	}
	if !strings.Contains(p.String(), "SPECWeb/Apache") {
		t.Errorf("String() missing name: %q", p.String())
	}
}

func TestProfileEmptyAccount(t *testing.T) {
	var a TimeAccount
	p := ProfileOf("empty", &a)
	if p.UserPct != 0 || p.OSPct != 0 || p.TotalCycles != 0 {
		t.Errorf("empty profile nonzero: %+v", p)
	}
}

// Property: percentages always sum to 100 (within fp error) for any nonzero
// charge vector, and OS% = interrupt% + kernel%.
func TestQuickProfileSumsTo100(t *testing.T) {
	f := func(u, k, i uint32) bool {
		if u == 0 && k == 0 && i == 0 {
			return true
		}
		var a TimeAccount
		a.Charge(ModeUser, uint64(u))
		a.Charge(ModeKernel, uint64(k))
		a.Charge(ModeInterrupt, uint64(i))
		p := ProfileOf("q", &a)
		sum := p.UserPct + p.KernelPct + p.InterruptPct
		if math.Abs(sum-100) > 1e-9 {
			return false
		}
		return math.Abs(p.OSPct-(p.KernelPct+p.InterruptPct)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCounters(t *testing.T) {
	var c Counters
	c.Inc("l1.hits", 3)
	c.Inc("l1.misses", 1)
	c.Inc("l1.hits", 2)
	if c.Get("l1.hits") != 5 {
		t.Errorf("l1.hits = %d, want 5", c.Get("l1.hits"))
	}
	if c.Get("nonexistent") != 0 {
		t.Error("missing counter not zero")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "l1.hits" || names[1] != "l1.misses" {
		t.Errorf("Names() = %v", names)
	}
	var d Counters
	d.Inc("l1.hits", 10)
	c.Add(&d)
	if c.Get("l1.hits") != 15 {
		t.Errorf("after Add l1.hits = %d", c.Get("l1.hits"))
	}
	if !strings.Contains(c.String(), "l1.misses") {
		t.Error("String() missing counter")
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{1, 2, 3, 4, 100, 1000} {
		h.Observe(v)
	}
	if h.count != 6 {
		t.Errorf("Count = %d", h.count)
	}
	if h.Max() != 1000 {
		t.Errorf("Max = %d", h.Max())
	}
	wantMean := float64(1+2+3+4+100+1000) / 6
	if math.Abs(h.Mean()-wantMean) > 1e-9 {
		t.Errorf("Mean = %f, want %f", h.Mean(), wantMean)
	}
	// v=1 goes to bucket 0; v=2,3 to bucket 1; v=4 to bucket 2.
	if h.buckets[0] != 1 || h.buckets[1] != 2 || h.buckets[2] != 1 {
		t.Errorf("buckets: %d %d %d", h.buckets[0], h.buckets[1], h.buckets[2])
	}
}

// Property: histogram count equals number of observations and mean*count=sum.
func TestQuickHistogramConsistency(t *testing.T) {
	f := func(vals []uint16) bool {
		var h Histogram
		var sum uint64
		for _, v := range vals {
			h.Observe(uint64(v))
			sum += uint64(v)
		}
		if h.count != uint64(len(vals)) {
			return false
		}
		var bucketSum uint64
		for i := 0; i < 32; i++ {
			bucketSum += h.buckets[i]
		}
		if bucketSum != h.count {
			return false
		}
		if len(vals) > 0 && math.Abs(h.Mean()*float64(len(vals))-float64(sum)) > 1e-6*float64(sum+1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountersDiff(t *testing.T) {
	var a, b Counters
	a.Inc("x", 10)
	a.Inc("y", 5)
	b.Inc("x", 25)
	b.Inc("y", 5)
	b.Inc("z", 3)
	d := b.Diff(&a)
	if d.Get("x") != 15 || d.Get("y") != 0 || d.Get("z") != 3 {
		t.Errorf("diff: %s", d.String())
	}
}
