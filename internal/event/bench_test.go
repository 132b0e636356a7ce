package event

import (
	"math/rand"
	"testing"
)

// The dispatch microbenchmarks drive both queue implementations through the
// same workload shapes the backend generates: steady near-future scheduling
// from dispatch context (device completions), same-cycle bursts (batched
// frontend events), far-future timers that build a deep heap, and rounds
// of random delays. b.ReportAllocs makes the pooling win visible next to
// the ns/op win.

// benchSteady keeps `depth` tasks in flight; every dispatch schedules its
// replacement a short delta ahead — the disk/NIC completion pattern.
func benchQueueSteady(b *testing.B, depth int, delta Cycle) {
	q := NewQueue()
	n := 0
	var fn func()
	fn = func() {
		n++
		q.After(delta, "t", fn)
	}
	for i := 0; i < depth; i++ {
		q.After(Cycle(i)%delta+1, "t", fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Step()
	}
}

func benchHeapSteady(b *testing.B, depth int, delta Cycle) {
	q := NewHeapQueue()
	n := 0
	var fn func()
	fn = func() {
		n++
		q.After(delta, "t", fn)
	}
	for i := 0; i < depth; i++ {
		q.After(Cycle(i)%delta+1, "t", fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Step()
	}
}

func BenchmarkQueueSteady64(b *testing.B)  { benchQueueSteady(b, 64, 800) }
func BenchmarkHeapSteady64(b *testing.B)   { benchHeapSteady(b, 64, 800) }
func BenchmarkQueueSteady1k(b *testing.B)  { benchQueueSteady(b, 1024, 800) }
func BenchmarkHeapSteady1k(b *testing.B)   { benchHeapSteady(b, 1024, 800) }
func BenchmarkQueueOverflow(b *testing.B)  { benchQueueSteady(b, 256, 3*4096) }
func BenchmarkHeapOverflow(b *testing.B)   { benchHeapSteady(b, 256, 3*4096) }
func BenchmarkQueueSameCycle(b *testing.B) { benchQueueSameCycle(b) }
func BenchmarkHeapSameCycle(b *testing.B)  { benchHeapSameCycle(b) }

// benchSameCycle schedules bursts of ties and drains them — the batched
// frontend-event shape where FIFO tie-breaking is exercised hardest.
func benchQueueSameCycle(b *testing.B) {
	q := NewQueue()
	n := 0
	fn := func() { n++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 32 {
		for j := 0; j < 32; j++ {
			q.After(5, "tie", fn)
		}
		for q.Step() {
		}
	}
}

func benchHeapSameCycle(b *testing.B) {
	q := NewHeapQueue()
	n := 0
	fn := func() { n++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 32 {
		for j := 0; j < 32; j++ {
			q.After(5, "tie", fn)
		}
		for q.Step() {
		}
	}
}

// BenchmarkQueueMix schedules 8 tasks at random delays, then drains, per
// round.
func BenchmarkQueueMix(b *testing.B) {
	q := NewQueue()
	rng := rand.New(rand.NewSource(1))
	n := 0
	fn := func() { n++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 8 {
		for j := 0; j < 8; j++ {
			q.After(Cycle(rng.Intn(600)+1), "m", fn)
		}
		for q.Step() {
		}
	}
}

func BenchmarkHeapMix(b *testing.B) {
	q := NewHeapQueue()
	rng := rand.New(rand.NewSource(1))
	n := 0
	fn := func() { n++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 8 {
		for j := 0; j < 8; j++ {
			q.After(Cycle(rng.Intn(600)+1), "m", fn)
		}
		for q.Step() {
		}
	}
}
