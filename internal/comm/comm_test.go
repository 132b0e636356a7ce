package comm

import (
	"cmp"
	"slices"
	"sync"
	"testing"
	"time"

	"compass/internal/event"
	"compass/internal/mem"
)

func TestScanPicksSmallestPostedTime(t *testing.T) {
	h := NewHub(2)
	a := h.NewPort(StateRunning)
	b := h.NewPort(StateRunning)
	c := h.NewPort(StateRunning)

	var wg sync.WaitGroup
	post := func(p *Port, at event.Cycle) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Post(Event{Kind: KYield, Time: at})
		}()
	}
	post(a, 300)
	post(b, 100)
	post(c, 200)

	// Wait until all three are posted.
	h.Lock()
	for {
		_, _, running, posted := h.Scan()
		if posted == 3 && running == 0 {
			break
		}
		h.WaitBackend()
	}
	pick, minRun, _, _ := h.Scan()
	if pick != b {
		t.Fatalf("picked port %d, want b=%d", pick.ID(), b.ID())
	}
	if minRun != ^event.Cycle(0) {
		t.Fatalf("minRunning = %d with no runners", minRun)
	}
	// Reply in order and confirm the next pick follows time order. After
	// each reply the port re-enters StateRunning and would gate the scan,
	// so the test marks it exited (as the real proc's KExit would).
	pick.Reply(Reply{Done: 100})
	pick.SetState(StateExited)
	pick2, _, _, _ := h.Scan()
	if pick2 != c {
		t.Fatalf("second pick = %v, want c", pick2)
	}
	pick2.Reply(Reply{Done: 200})
	pick2.SetState(StateExited)
	pick3, _, _, _ := h.Scan()
	if pick3 != a {
		t.Fatal("third pick wrong")
	}
	pick3.Reply(Reply{Done: 300})
	h.Unlock()
	wg.Wait()
}

func TestScanGatesOnRunningClock(t *testing.T) {
	h := NewHub(1)
	a := h.NewPort(StateRunning)
	b := h.NewPort(StateRunning)

	done := make(chan Reply, 1)
	go func() {
		done <- a.Post(Event{Kind: KYield, Time: 500})
	}()
	h.Lock()
	for {
		_, _, _, posted := h.Scan()
		if posted == 1 {
			break
		}
		h.WaitBackend()
	}
	// b is still running with published clock 0 < 500: a must not be picked.
	if pick, _, running, _ := h.Scan(); pick != nil || running != 1 {
		t.Fatalf("pick=%v running=%d, want gated", pick, running)
	}
	h.Unlock()

	// b publishes progress past a's event time: a becomes eligible.
	b.Publish(600)
	h.Lock()
	pick, minRun, _, _ := h.Scan()
	if pick != a {
		t.Fatalf("pick = %v after publish, want a", pick)
	}
	if minRun != 600 {
		t.Fatalf("minRunning = %d, want 600", minRun)
	}
	pick.Reply(Reply{Done: 510})
	h.Unlock()
	<-done
}

func TestEqualTimeGatingIsStrict(t *testing.T) {
	h := NewHub(1)
	a := h.NewPort(StateRunning)
	b := h.NewPort(StateRunning)
	go a.Post(Event{Kind: KYield, Time: 100})

	h.Lock()
	for {
		if _, _, _, posted := h.Scan(); posted == 1 {
			break
		}
		h.WaitBackend()
	}
	h.Unlock()
	b.Publish(100) // b could still generate an event at exactly 100
	h.Lock()
	if pick, _, _, _ := h.Scan(); pick != nil {
		t.Fatal("picked despite equal running clock (tie must stay gated)")
	}
	h.Unlock()
	b.Publish(101)
	h.Lock()
	pick, _, _, _ := h.Scan()
	if pick != a {
		t.Fatal("not picked after clock passed event time")
	}
	pick.Reply(Reply{Done: 100})
	h.Unlock()
}

func TestTiesBrokenByID(t *testing.T) {
	h := NewHub(2)
	a := h.NewPort(StateRunning) // id 0
	b := h.NewPort(StateRunning) // id 1
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); b.Post(Event{Kind: KYield, Time: 100}) }()
	go func() { defer wg.Done(); a.Post(Event{Kind: KYield, Time: 100}) }()
	h.Lock()
	for {
		if _, _, _, posted := h.Scan(); posted == 2 {
			break
		}
		h.WaitBackend()
	}
	pick, _, _, _ := h.Scan()
	if pick.ID() != a.ID() {
		t.Fatalf("tie broken toward id %d, want %d", pick.ID(), a.ID())
	}
	pick.Reply(Reply{Done: 100})
	pick.SetState(StateExited)
	p2, _, _, _ := h.Scan()
	p2.Reply(Reply{Done: 100})
	h.Unlock()
	wg.Wait()
}

func TestCPUStateDefaults(t *testing.T) {
	h := NewHub(3)
	if len(h.cpus) != 3 {
		t.Fatalf("%d CPUs", len(h.cpus))
	}
	h.Lock()
	for i := 0; i < 3; i++ {
		if !h.CPU(i).Enabled {
			t.Errorf("CPU %d interrupts disabled at boot", i)
		}
		if h.CPU(i).IRQ != 0 {
			t.Errorf("CPU %d has pending IRQ at boot", i)
		}
	}
	h.Unlock()
}

func TestProcStateString(t *testing.T) {
	for s, want := range map[ProcState]string{
		StateRunning: "running", StatePosted: "posted",
		StateBlocked: "blocked", StateExited: "exited",
	} {
		if s.String() != want {
			t.Errorf("%d = %q", s, s.String())
		}
	}
}

func TestPostInWrongStatePanics(t *testing.T) {
	h := NewHub(1)
	p := h.NewPort(StateBlocked)
	defer func() {
		if recover() == nil {
			t.Fatal("post from blocked state did not panic")
		}
	}()
	p.Post(Event{Kind: KYield})
}

func TestSpinWaitRendezvous(t *testing.T) {
	h := NewHub(1)
	h.SetSpinWait(true)
	if !h.SpinWait() {
		t.Fatal("spin mode not set")
	}
	p := h.NewPort(StateRunning)
	done := make(chan Reply, 1)
	go func() { done <- p.Post(Event{Kind: KYield, Time: 50}) }()
	// Backend side: reply quickly — the frontend should pick it up from
	// the spin window.
	h.Lock()
	for {
		pick, _, _, _ := h.Scan()
		if pick != nil {
			pick.Reply(Reply{Done: 60, CPU: 0})
			break
		}
		h.ArmWait()
		if p2, _, _, _ := h.Scan(); p2 == nil {
			h.WaitBackend()
		}
	}
	h.Unlock()
	r := <-done
	if r.Done != 60 {
		t.Errorf("spin reply Done = %d", r.Done)
	}
}

func TestSpinWaitFallsBackToSleep(t *testing.T) {
	h := NewHub(1)
	h.SetSpinWait(true)
	p := h.NewPort(StateRunning)
	done := make(chan Reply, 1)
	go func() { done <- p.Post(Event{Kind: KYield, Time: 10}) }()
	// Delay the reply far beyond the spin budget so the frontend must
	// fall back to the condition variable.
	h.Lock()
	for {
		pick, _, _, _ := h.Scan()
		if pick != nil {
			h.Unlock()
			time.Sleep(50 * time.Millisecond) // outlast the bounded spin
			h.Lock()
			pick.Reply(Reply{Done: 999})
			break
		}
		h.ArmWait()
		if p2, _, _, _ := h.Scan(); p2 == nil {
			h.WaitBackend()
		}
	}
	h.Unlock()
	if r := <-done; r.Done != 999 {
		t.Errorf("fallback reply Done = %d", r.Done)
	}
}

func TestActivityCounterAdvances(t *testing.T) {
	h := NewHub(1)
	p := h.NewPort(StateRunning)
	a0 := h.Activity()
	p.Publish(5)
	if h.Activity() == a0 {
		t.Error("publish did not bump activity")
	}
}

// Skip(n) is n single steps, whatever the shape of the range: the frontend
// skips what a reply says was served, the backend walks a step at a time,
// and both must arrive at the same event.
func TestEventSkipIsRepeatedSingleStep(t *testing.T) {
	for _, n := range []int{1, 5, 31, 32, 33, 63, 64, 65, 100, 4096, 4099} {
		first := min(n, RangeStride)
		whole := Event{Kind: KMem, Addr: 0x1004, Size: uint8(first), Run: uint32(n - first), Issue: 3, Write: true}
		step, refs := whole, 1
		for step.Skip(1) {
			refs++
		}
		if want := (n + RangeStride - 1) / RangeStride; refs != want {
			t.Errorf("%d bytes walked in %d references, want %d", n, refs, want)
		}
		step = whole
		for k := uint32(1); ; k++ {
			more := step.Skip(1)
			jump := whole
			if jump.Skip(k) != more {
				t.Fatalf("%d bytes: Skip(%d) = %v, %d single steps = %v", n, k, !more, k, more)
			}
			if !more {
				break
			}
			if jump.Addr != step.Addr || jump.Size != step.Size || jump.Run != step.Run {
				t.Fatalf("%d bytes: Skip(%d) = %+v, %d single steps = %+v", n, k, jump, k, step)
			}
			if step.Addr != whole.Addr+0x20*mem.VirtAddr(k) || int(step.Size)+int(step.Run) != n-int(k)*RangeStride {
				t.Fatalf("%d bytes: after %d steps at %#x with %d+%d bytes left", n, k, uint32(step.Addr), step.Size, step.Run)
			}
		}
	}
}

// ScanNext's runner-up is the second posted port in (time, id) order,
// wherever it sits in the port list.
func TestScanNextFindsRunnerUp(t *testing.T) {
	times := [][]event.Cycle{
		{100}, {100, 100}, {200, 100}, {100, 200}, {300, 100, 200}, {100, 300, 200},
		{200, 300, 100}, {100, 100, 100}, {300, 200, 200, 100}, {150, 100, 150, 100},
	}
	for _, ts := range times {
		h := NewHub(1)
		h.NewPort(StateBlocked) // never posted
		var ports []*Port
		for _, at := range ts {
			p := h.NewPort(StateBlocked)
			p.ev.Time = at
			p.SetState(StatePosted)
			ports = append(ports, p)
		}
		sorted := slices.Clone(ports)
		slices.SortStableFunc(sorted, func(a, b *Port) int { return cmp.Compare(a.ev.Time, b.ev.Time) })
		pick, next, _, _, posted := h.ScanNext()
		if pick != sorted[0] || posted != len(ts) {
			t.Errorf("times %v: picked port %d of %d posted, want port %d of %d", ts, pick.ID(), posted, sorted[0].ID(), len(ts))
		}
		if len(ts) == 1 {
			if next != nil {
				t.Errorf("times %v: runner-up port %d, want none", ts, next.ID())
			}
		} else if next != sorted[1] {
			t.Errorf("times %v: runner-up %v, want port %d", ts, next, sorted[1].ID())
		}
	}
}
