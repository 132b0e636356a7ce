package event

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestQueueOrdering(t *testing.T) {
	q := NewQueue()
	var got []Cycle
	for _, c := range []Cycle{50, 10, 30, 10, 90, 0} {
		c := c
		q.At(c, "t", func() { got = append(got, c) })
	}
	for q.Step() {
	}
	want := []Cycle{0, 10, 10, 30, 50, 90}
	if len(got) != len(want) {
		t.Fatalf("dispatched %d tasks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
	if q.Now() != 90 {
		t.Errorf("Now() = %d, want 90", q.Now())
	}
}

func TestFIFOAmongTies(t *testing.T) {
	q := NewQueue()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		q.At(7, "tie", func() { got = append(got, i) })
	}
	for q.Step() {
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-broken order got[%d]=%d, want %d", i, v, i)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	q := NewQueue()
	var fired Cycle
	q.At(100, "a", func() {
		q.After(25, "b", func() { fired = q.Now() })
	})
	for q.Step() {
	}
	if fired != 125 {
		t.Errorf("nested After fired at %d, want 125", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	q := NewQueue()
	q.At(10, "a", func() {})
	q.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	q.At(5, "late", func() {})
}

func TestAdvance(t *testing.T) {
	q := NewQueue()
	q.Advance(40)
	if q.Now() != 40 {
		t.Fatalf("Now=%d want 40", q.Now())
	}
	q.At(50, "t", func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("Advance past pending task did not panic")
		}
	}()
	q.Advance(60)
}

// Property: for any random schedule, dispatch order equals the stable sort of
// timestamps, and the clock is monotonically nondecreasing.
func TestQuickDispatchOrderIsStableSort(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 512 {
			raw = raw[:512]
		}
		q := NewQueue()
		var got []Cycle
		for _, r := range raw {
			c := Cycle(r)
			q.At(c, "q", func() { got = append(got, c) })
		}
		last := Cycle(0)
		for q.Step() {
			if q.Now() < last {
				return false
			}
			last = q.Now()
		}
		want := make([]Cycle, len(raw))
		for i, r := range raw {
			want[i] = Cycle(r)
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTaskAccessorsAndQueueStats(t *testing.T) {
	q := NewQueue()
	q.At(42, "diagnostic", func() {})
	if q.Len() != 1 || q.Dispatched() != 0 {
		t.Errorf("len=%d dispatched=%d", q.Len(), q.Dispatched())
	}
	q.Step()
	if q.Len() != 0 || q.Dispatched() != 1 {
		t.Errorf("after step: len=%d dispatched=%d", q.Len(), q.Dispatched())
	}
	if q.Step() {
		t.Error("Step on empty queue returned true")
	}
}
