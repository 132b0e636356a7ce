package noc

import (
	"testing"
	"testing/quick"

	"compass/internal/event"
)

func TestHopsMesh(t *testing.T) {
	n := New(DefaultConfig(4)) // 2x2 mesh
	cases := []struct{ from, to, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 2, 1}, {0, 3, 2}, {1, 2, 2}, {3, 0, 2},
	}
	for _, c := range cases {
		if got := n.Hops(c.from, c.to); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

func TestSendLatencyScalesWithDistance(t *testing.T) {
	n := New(DefaultConfig(16)) // 4x4
	near := n.Send(0, 0, 1, 8)
	n2 := New(DefaultConfig(16))
	far := n2.Send(0, 0, 15, 8)
	if far <= near {
		t.Errorf("far send (%d) not slower than near (%d)", far, near)
	}
}

func TestSameNodeFree(t *testing.T) {
	n := New(DefaultConfig(4))
	if got := n.Send(100, 2, 2, 4096); got != 100 {
		t.Errorf("same-node send took %d cycles", got-100)
	}
	if n.Messages != 0 {
		t.Error("same-node send counted as a message")
	}
}

func TestLargeMessagesSlower(t *testing.T) {
	a := New(DefaultConfig(4))
	b := New(DefaultConfig(4))
	small := a.Send(0, 0, 3, 8)
	big := b.Send(0, 0, 3, 4096)
	if big <= small {
		t.Errorf("4KB transfer (%d) not slower than 8B (%d)", big, small)
	}
}

func TestInjectionContention(t *testing.T) {
	n := New(DefaultConfig(4))
	t1 := n.Send(0, 0, 3, 4096)
	t2 := n.Send(0, 0, 3, 4096) // same source, same time: must queue
	if t2 <= t1 {
		t.Errorf("no injection contention: %d then %d", t1, t2)
	}
}

func TestRoundTrip(t *testing.T) {
	n := New(DefaultConfig(4))
	rt := n.RoundTrip(0, 0, 3, 16, 64)
	if rt <= 0 || n.Messages != 2 {
		t.Errorf("roundtrip=%d messages=%d", rt, n.Messages)
	}
	if n.HopsSum != 4 {
		t.Errorf("%d hops over two messages, want 4", n.HopsSum)
	}
}

// Property: Hops is a metric — symmetric, zero iff equal, triangle
// inequality holds.
func TestQuickHopsMetric(t *testing.T) {
	n := New(DefaultConfig(16))
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%16, int(b)%16, int(c)%16
		if n.Hops(x, y) != n.Hops(y, x) {
			return false
		}
		if (n.Hops(x, y) == 0) != (x == y) {
			return false
		}
		return n.Hops(x, z) <= n.Hops(x, y)+n.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: arrival time is never before issue time, and total bytes
// accounting matches what was sent.
func TestQuickSendAccounting(t *testing.T) {
	f := func(pairs []uint16) bool {
		n := New(DefaultConfig(8))
		var want uint64
		now := event.Cycle(0)
		for _, p := range pairs {
			from, to := int(p%8), int(p/8)%8
			size := int(p%1000) + 1
			done := n.Send(now, from, to, size)
			if done < now {
				return false
			}
			if from != to {
				want += uint64(size)
			}
		}
		return n.Bytes == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestResource(t *testing.T) {
	r := new(event.Resource)
	if done := r.Acquire(10, 5); done != 15 {
		t.Errorf("first acquire done at %d, want 15", done)
	}
	if done := r.Acquire(11, 5); done != 20 {
		t.Errorf("queued acquire done at %d, want 20", done)
	}
	if r.Waits != 4 {
		t.Errorf("wait cycles = %d, want 4", r.Waits)
	}
	if done := r.Acquire(100, 1); done != 101 {
		t.Errorf("idle acquire done at %d, want 101", done)
	}
	if r.Requests != 3 {
		t.Error("resource bookkeeping wrong")
	}
}
