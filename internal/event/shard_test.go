package event

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

// The sharded engine's contract is byte-identity with serial dispatch. The
// harness below runs one synthetic multi-class workload — self-rescheduling
// lane ticks with random delays, bursts, sends home across the lookahead,
// and home tasks scheduling back into lanes — twice: once stepping the
// queue serially, once through RunWindow. Every observable must match
// exactly: per-class logs, the home log, the clock, the sequence counter,
// the dispatch counter, and the trace ring. Every send also checks that it
// landed exactly one lookahead after its sender's lane time.

const harnessLookahead = 1000

type shardHarness struct {
	t       testing.TB
	q       *Queue
	eng     *Sharded
	classes []*shardClass
	homeLog []uint64
	// onTick, when set, runs at the end of every tick, in its lane's context.
	onTick func(l *Lane)
}

type shardClass struct {
	h        *shardHarness
	id       int
	lane     *Lane
	rng      uint64
	ticks    int
	maxTicks int
	log      []uint64
	// expect holds the cycles this class's pending sends must run at, in
	// send order: the sender's lane time plus the lookahead.
	expect []Cycle

	tickFn  func()
	burstFn func()
	sendFn  func()
	bonusFn func()
}

func newShardHarness(t testing.TB, lanes, classCount, maxTicks int, seed uint64) *shardHarness {
	q := NewQueue()
	h := &shardHarness{t: t, q: q, eng: NewSharded(q, lanes, harnessLookahead, nil)}
	for i := 0; i < classCount; i++ {
		c := &shardClass{h: h, id: i, rng: seed + uint64(i)*0x9e3779b97f4a7c15 + 1, maxTicks: maxTicks}
		if lanes > 1 {
			c.lane = h.eng.Lane(1 + i%(lanes-1))
		} else {
			c.lane = h.eng.Lane(0)
		}
		c.tickFn = c.tick
		c.burstFn = c.burstHit
		c.sendFn = c.send
		c.bonusFn = c.bonus
		h.classes = append(h.classes, c)
		c.lane.AfterKeep(Cycle(10+seed%50+uint64(i)*7), "tick", c.tickFn)
	}
	return h
}

func (c *shardClass) rand() uint64 {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return c.rng
}

func (c *shardClass) tick() {
	c.log = append(c.log, uint64(c.lane.Now())<<8|uint64(c.id))
	c.ticks++
	if c.ticks >= c.maxTicks {
		return
	}
	r := c.rand()
	if r%4 == 0 {
		c.lane.AfterKeep(Cycle(1+r%700), "burst", c.burstFn)
	}
	if r%5 == 0 {
		c.sendHome("send-home")
	}
	if r%31 == 0 {
		// Sometimes a second send from the same tick: both land on one
		// cycle and must run in send order.
		c.sendHome("send-edge")
	}
	c.lane.AfterKeep(Cycle(1+r%500), "tick", c.tickFn)
	if c.h.onTick != nil {
		c.h.onTick(c.lane)
	}
}

func (c *shardClass) burstHit() {
	c.log = append(c.log, uint64(c.lane.Now())<<8|uint64(c.id)|0x40)
}

// sendHome forwards a send to the home lane (lane context).
func (c *shardClass) sendHome(label string) {
	c.expect = append(c.expect, c.lane.Now()+harnessLookahead)
	c.lane.Send(label, c.sendFn)
}

// send runs on the home lane (scheduled via Send), one lookahead after the
// tick that sent it. Home tasks run on the test's goroutine, never in a
// window, so a mismatch can stop the test.
func (c *shardClass) send() {
	h := c.h
	if want := c.expect[0]; h.q.Now() != want {
		h.t.Fatalf("class %d: send ran at cycle %d, want sender's lane time + %d = %d",
			c.id, h.q.Now(), harnessLookahead, want)
	}
	c.expect = c.expect[1:]
	h.homeLog = append(h.homeLog, uint64(h.q.Now())<<8|uint64(c.id)|0x80)
	if c.id == 0 {
		// Home context scheduling back into a lane (passthrough path).
		c.lane.AfterKeep(250, "bonus", c.bonusFn)
	}
}

func (c *shardClass) bonus() {
	c.log = append(c.log, uint64(c.lane.Now())<<8|uint64(c.id)|0xC0)
}

type harnessResult struct {
	classLogs [][]uint64
	homeLog   []uint64
	state     QueueState
	trace     []DispatchRecord
}

func (h *shardHarness) run(windows bool) harnessResult {
	h.q.EnableTrace(48)
	for {
		if windows && h.eng.RunWindow(^Cycle(0)) {
			continue
		}
		if !h.q.Step() {
			break
		}
	}
	res := harnessResult{homeLog: h.homeLog, state: h.q.State(), trace: h.q.RecentDispatches()}
	for _, c := range h.classes {
		res.classLogs = append(res.classLogs, c.log)
		if len(c.expect) != 0 {
			h.t.Errorf("class %d: %d sends never ran", c.id, len(c.expect))
		}
	}
	return res
}

func TestShardedMatchesSerial(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		ref := newShardHarness(t, 4, 3, 300, seed).run(false)
		if ref.state.Dispatched == 0 {
			t.Fatalf("seed %d: reference run dispatched nothing", seed)
		}
		for _, lanes := range []int{1, 2, 4, 7} {
			got := newShardHarness(t, lanes, 3, 300, seed).run(true)
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("seed %d lanes %d: sharded run diverged from serial\nserial: %+v\nsharded: %+v",
					seed, lanes, ref.state, got.state)
			}
		}
		// A windowed run must actually exercise windows for the test to
		// mean anything.
		h := newShardHarness(t, 4, 3, 300, seed)
		h.run(true)
		if w, _, drained := h.eng.Windows(); w == 0 || drained == 0 {
			t.Fatalf("seed %d: no windows ran (windows=%d drained=%d)", seed, w, drained)
		}
	}
}

// The barrier sorts a window's births by schedule moment with an unstable
// sort, which is deterministic only if no two births compare equal: every
// pair of a lane's births so far in a window, births of births among them,
// must be ordered one way exactly.
func TestWindowBirthsAreStrictlyOrdered(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		h := newShardHarness(t, 4, 3, 300, seed)
		var pairs atomic.Int64 // lanes tick in parallel
		h.onTick = func(l *Lane) {
			for i, a := range l.births {
				for _, b := range l.births[i+1:] {
					if momentLess(a, b) == momentLess(b, a) {
						t.Errorf("seed %d: births %q (idx %d) and %q (idx %d) are not strictly ordered",
							seed, a.label, a.bornIdx, b.label, b.bornIdx)
					}
					if a.bornParent != b.bornParent {
						pairs.Add(1)
					}
				}
			}
		}
		h.run(true)
		if pairs.Load() == 0 {
			t.Fatalf("seed %d: no window had births of two parents on one lane", seed)
		}
	}
}

func TestShardedZeroLookaheadNeverWindows(t *testing.T) {
	q := NewQueue()
	eng := NewSharded(q, 4, 0, nil)
	eng.Lane(2).AfterKeep(10, "tick", func() {})
	if eng.RunWindow(^Cycle(0)) {
		t.Fatal("zero-lookahead engine opened a window")
	}
	if !q.Step() {
		t.Fatal("task vanished")
	}
}

func TestShardedWindowLimit(t *testing.T) {
	q := NewQueue()
	eng := NewSharded(q, 2, 1000, nil)
	eng.Lane(1).AfterKeep(500, "tick", func() {})
	if eng.RunWindow(400) {
		t.Fatal("window opened past its limit")
	}
	if !eng.RunWindow(501) {
		t.Fatal("window refused a task strictly before the limit")
	}
}

func TestShardedPanicContainment(t *testing.T) {
	q := NewQueue()
	eng := NewSharded(q, 3, 1000, nil)
	eng.Lane(1).AfterKeep(10, "ok", func() {})
	eng.Lane(2).AfterKeep(11, "boom", func() { panic("boom") })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("lane panic did not propagate to the coordinator")
		}
		if fmt.Sprint(r) != "boom" {
			t.Fatalf("panic value mangled: %v", r)
		}
	}()
	eng.RunWindow(^Cycle(0))
}

// Tasks born in a lane that end on the home queue are recycled into the
// queue's free list, and tasks the home lane schedules into a lane into the
// lane's; the barrier balances the two. Without that one side allocates a
// fresh task for every crossing while the other's list grows by one, without
// bound. At the end of a run every task ever made sits in a free list, so
// their total is what the run allocated: it must stay within a small
// multiple of the peak number of tasks queued, and not grow with the run.
func TestShardedFreeListsStayBounded(t *testing.T) {
	made := 0
	for _, ticks := range []int{300, 6000} {
		h := newShardHarness(t, 4, 3, ticks, 7)
		peak := 0
		for {
			peak = max(peak, h.q.Len())
			if h.eng.RunWindow(^Cycle(0)) {
				continue
			}
			if !h.q.Step() {
				break
			}
		}
		total := len(h.q.free)
		for i := 0; i < h.eng.Lanes(); i++ {
			total += len(h.eng.Lane(i).free)
		}
		t.Logf("%d ticks: %d tasks made, at most %d queued", ticks, total, peak)
		if total > 4*peak {
			t.Errorf("%d ticks: %d tasks in the free lists, want at most four times the peak of %d queued", ticks, total, peak)
		}
		if made > 0 && total > made+peak {
			t.Errorf("%d ticks made %d tasks, %d more than a run of a twentieth the length", ticks, total, total-made)
		}
		made = total
	}
}
