package frontend

import (
	"reflect"
	"sync"
	"testing"

	"compass/internal/comm"
	"compass/internal/event"
	"compass/internal/isa"
	"compass/internal/mem"
	"compass/internal/stats"
)

// backendStub answers every event with a fixed-latency reply on a
// dedicated goroutine, recording what it saw.
type backendStub struct {
	hub     *comm.Hub
	latency event.Cycle
	// reply, when set, answers KMem events instead of the fixed latency.
	reply  func(ev comm.Event) comm.Reply
	mu     sync.Mutex
	events []comm.Event
	done   chan struct{}
}

func newStub(latency event.Cycle) *backendStub {
	s := &backendStub{hub: comm.NewHub(1), latency: latency, done: make(chan struct{})}
	return s
}

func (s *backendStub) run() {
	s.hub.Lock()
	defer s.hub.Unlock()
	for {
		pick, _, running, _ := s.hub.Scan()
		if pick != nil {
			ev := *pick.Pending()
			s.mu.Lock()
			s.events = append(s.events, ev)
			s.mu.Unlock()
			if ev.Kind == comm.KExit {
				pick.ReplyExit(comm.Reply{Done: ev.Time})
				close(s.done)
				return
			}
			r := comm.Reply{Done: ev.Time + s.latency}
			if ev.Kind == comm.KCall && ev.Call != nil {
				r.Result = ev.Call()
			}
			if ev.Kind == comm.KMem && s.reply != nil {
				r = s.reply(ev)
			}
			pick.Reply(r)
			continue
		}
		if running > 0 {
			s.hub.ArmWait()
			pick2, _, _, _ := s.hub.Scan()
			if pick2 != nil {
				continue
			}
			s.hub.WaitBackend()
			continue
		}
		s.hub.WaitBackend()
	}
}

// start creates a proc whose events the stub serves; body runs on a
// goroutine and must end with p.Exit (or fall off, Exit is NOT auto).
func (s *backendStub) start(t *testing.T, body func(p *Proc)) *Proc {
	t.Helper()
	port := s.hub.NewPort(comm.StateRunning)
	p := New(port.ID(), "t", port, isa.DefaultTiming())
	go s.run()
	go func() {
		body(p)
		if !p.Exited() {
			p.Exit()
		}
	}()
	<-s.done
	return p
}

func TestComputeChargesCurrentMode(t *testing.T) {
	s := newStub(5)
	p := s.start(t, func(p *Proc) {
		p.ComputeCycles(100)
		p.PushMode(stats.ModeKernel)
		p.ComputeCycles(40)
		p.PushMode(stats.ModeInterrupt)
		p.ComputeCycles(7)
		p.PopMode()
		p.PopMode()
	})
	a := p.Account()
	if a.Cycles(stats.ModeUser) != 100 || a.Cycles(stats.ModeKernel) != 40 || a.Cycles(stats.ModeInterrupt) != 7 {
		t.Errorf("accounts: user=%d kernel=%d intr=%d",
			a.Cycles(stats.ModeUser), a.Cycles(stats.ModeKernel), a.Cycles(stats.ModeInterrupt))
	}
}

func TestModeUnderflowPanics(t *testing.T) {
	s := newStub(1)
	panicked := make(chan bool, 1)
	s.start(t, func(p *Proc) {
		func() {
			defer func() { panicked <- recover() != nil }()
			p.PopMode()
		}()
	})
	if !<-panicked {
		t.Fatal("PopMode on empty stack did not panic")
	}
}

func TestLoadStoreAdvanceTimeByLatency(t *testing.T) {
	s := newStub(25)
	var t0, t1 event.Cycle
	p := s.start(t, func(p *Proc) {
		t0 = p.Now()
		p.Load(0x1000, 4)
		t1 = p.Now()
		p.Store(0x2000, 8)
	})
	// Issue cost 1 + latency 25.
	if t1-t0 != 26 {
		t.Errorf("load advanced %d cycles, want 26", t1-t0)
	}
	if len(s.events) != 3 { // load, store, exit
		t.Fatalf("stub saw %d events", len(s.events))
	}
	if s.events[0].Kind != comm.KMem || s.events[0].Write {
		t.Error("first event not a read")
	}
	if !s.events[1].Write || s.events[1].Size != 8 {
		t.Error("second event not an 8-byte write")
	}
	_ = p
}

func TestInstrumentationOffSkipsEvents(t *testing.T) {
	s := newStub(25)
	s.start(t, func(p *Proc) {
		p.SetInstrumentation(false)
		for i := 0; i < 50; i++ {
			p.Load(0x1000, 4)
		}
		if !p.on {
			p.SetInstrumentation(true)
		}
		p.Load(0x9000, 4)
	})
	if len(s.events) != 2 { // one load + exit
		t.Errorf("stub saw %d events, want 2 (switch off must suppress loads)", len(s.events))
	}
}

func TestBatchingCoalescesEvents(t *testing.T) {
	s := newStub(2)
	s.start(t, func(p *Proc) {
		p.SetBatch(4)
		for i := 0; i < 8; i++ {
			p.Store(mem.VirtAddr(0x1000+i*64), 4)
		}
		p.SetBatch(1)
	})
	memEvents := 0
	batched := 0
	for _, ev := range s.events {
		if ev.Kind == comm.KMem {
			memEvents++
			batched += 1 + len(ev.Batch)
		}
	}
	if memEvents != 2 {
		t.Errorf("8 stores in batches of 4 produced %d events, want 2", memEvents)
	}
	if batched != 8 {
		t.Errorf("total refs %d, want 8", batched)
	}
}

func TestBatchFlushOnRMW(t *testing.T) {
	s := newStub(2)
	s.start(t, func(p *Proc) {
		p.SetBatch(16)
		p.Store(0x40, 4)
		p.Store(0x80, 4)
		p.RMW(0x100, 4, comm.RMWAdd, 1, 0, false) // must flush the partial batch first
	})
	if len(s.events) != 3 { // mem(batch of 2), rmw, exit
		t.Fatalf("events = %d, want 3", len(s.events))
	}
	if s.events[0].Kind != comm.KMem || len(s.events[0].Batch) != 1 {
		t.Error("partial batch not flushed before RMW")
	}
	if s.events[1].Kind != comm.KRMW {
		t.Error("RMW not second")
	}
}

// memRefs lists the KMem events the stub saw as addr/size pairs.
func (s *backendStub) memRefs() (refs [][2]int) {
	for _, ev := range s.events {
		if ev.Kind == comm.KMem {
			refs = append(refs, [2]int{int(ev.Addr), int(ev.Size)})
		}
	}
	return refs
}

// A backend that knows nothing of ranges replies with no served count and
// is posted every reference of a TouchRange by itself, with the addresses
// and sizes of the per-reference loop: line stride from the base as given,
// aligned or not, and a short last one.
func TestTouchRangeGranularity(t *testing.T) {
	cases := []struct {
		va   mem.VirtAddr
		n    int
		want [][2]int
	}{
		{0x1000, 100, [][2]int{{0x1000, 32}, {0x1020, 32}, {0x1040, 32}, {0x1060, 4}}},
		{0x1004, 70, [][2]int{{0x1004, 32}, {0x1024, 32}, {0x1044, 6}}},
		{0x1ffd, 64, [][2]int{{0x1ffd, 32}, {0x201d, 32}}},
		{0x3000, 5, [][2]int{{0x3000, 5}}},
		{0x3000, 0, nil},
		{0x3000, -32, nil},
	}
	for _, kernel := range []bool{false, true} {
		for _, tc := range cases {
			s := newStub(7)
			var t0 event.Cycle
			p := s.start(t, func(p *Proc) {
				t0 = p.Now()
				if kernel {
					p.KTouchRange(tc.va, tc.n, true)
				} else {
					p.TouchRange(tc.va, tc.n, true)
				}
			})
			if got := s.memRefs(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("TouchRange(%#x, %d) posted %v, want %v", uint32(tc.va), tc.n, got, tc.want)
			}
			timing := isa.DefaultTiming()
			issue := event.Cycle(timing.Cycles(isa.OpLoadIssue))
			left := tc.n
			for i, ev := range s.events[:len(tc.want)] {
				left -= int(ev.Size)
				if ev.Kernel != kernel || !ev.Write || int(ev.Run) != left || ev.Issue != issue {
					t.Errorf("TouchRange(%#x, %d) event %d: kernel=%v write=%v run=%d issue=%d, want %v true %d %d",
						uint32(tc.va), tc.n, i, ev.Kernel, ev.Write, ev.Run, ev.Issue, kernel, left, issue)
				}
				if want := t0 + event.Cycle(i)*7 + event.Cycle(i+1)*issue; ev.Time != want {
					t.Errorf("TouchRange(%#x, %d) event %d posted at %d, want %d", uint32(tc.va), tc.n, i, ev.Time, want)
				}
			}
			if want := uint64(len(tc.want)) * uint64(7+issue); p.Account().Total() != want {
				t.Errorf("TouchRange(%#x, %d) charged %d cycles, want %d", uint32(tc.va), tc.n, p.Account().Total(), want)
			}
		}
	}
}

// A backend that serves part of a range says how far it got; the frontend
// posts the rest, an issue cycle after the completion it was told. A fault
// is always the first reference's: it is retried as posted, with no second
// issue cycle.
func TestTouchRangeResumesAfterPartialService(t *testing.T) {
	s := newStub(1)
	const issue = 1 // isa.DefaultTiming().Cycles(isa.OpLoadIssue)
	posts := 0
	s.reply = func(ev comm.Event) comm.Reply {
		posts++
		switch posts {
		case 1: // serve three references: 10 cycles each, an issue cycle between
			return comm.Reply{Done: ev.Time + 10 + 2*(issue+10), Served: 2}
		case 2: // the fourth faults
			return comm.Reply{Done: ev.Time, Fault: &mem.Fault{Kind: mem.FaultNotPresent, Addr: ev.Addr}}
		default: // and everything left is served at the retry
			return comm.Reply{Done: ev.Time + 10 + 3*(issue+10), Served: 3}
		}
	}
	faults := 0
	var t0, faultAt, end event.Cycle
	p := s.start(t, func(p *Proc) {
		p.SetFaultHandler(func(pp *Proc, f *mem.Fault) {
			faults++
			faultAt = pp.Now()
			pp.ComputeCycles(100)
		})
		t0 = p.Now()
		p.TouchRange(0x8000, 7*32, false)
		end = p.Now()
	})
	want := [][2]int{{0x8000, 32}, {0x8060, 32}, {0x8060, 32}}
	if got := s.memRefs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("posted %v, want %v", got, want)
	}
	if s.events[0].Run != 6*32 || s.events[1].Run != 3*32 || s.events[2].Run != 3*32 {
		t.Errorf("runs %d %d %d, want 192 96 96", s.events[0].Run, s.events[1].Run, s.events[2].Run)
	}
	firstDone := t0 + issue + 10 + 2*(issue+10)
	if s.events[1].Time != firstDone+issue {
		t.Errorf("remainder posted at %d, want an issue cycle after %d", s.events[1].Time, firstDone)
	}
	if faults != 1 || faultAt != firstDone+issue {
		t.Errorf("%d faults, the trap at %d; want one at %d", faults, faultAt, firstDone+issue)
	}
	if s.events[2].Time != firstDone+issue+100 {
		t.Errorf("retry posted at %d, want %d: the trap path's cycles and no second issue cycle", s.events[2].Time, firstDone+issue+100)
	}
	if want := firstDone + issue + 100 + 10 + 3*(issue+10); end != want {
		t.Errorf("range done at %d, want %d", end, want)
	}
	a := p.Account()
	if a.Cycles(stats.ModeKernel) != 100 || a.Cycles(stats.ModeUser) != 7*(issue+10) {
		t.Errorf("user=%d kernel=%d, want %d and 100", a.Cycles(stats.ModeUser), a.Cycles(stats.ModeKernel), 7*(issue+10))
	}
}

func TestFaultRetry(t *testing.T) {
	hub := comm.NewHub(1)
	port := hub.NewPort(comm.StateRunning)
	p := New(0, "faulty", port, isa.DefaultTiming())
	faults := 0
	p.SetFaultHandler(func(pp *Proc, f *mem.Fault) {
		faults++
		if pp.Mode() != stats.ModeKernel {
			t.Error("fault handler not in kernel mode")
		}
	})
	done := make(chan struct{})
	go func() {
		p.Load(0x5000, 4)
		p.Exit()
		close(done)
	}()
	// Backend: fault the first attempt, satisfy the second.
	hub.Lock()
	served := 0
	for served < 3 {
		pick, _, _, _ := hub.Scan()
		if pick == nil {
			hub.ArmWait()
			if pick2, _, _, _ := hub.Scan(); pick2 == nil {
				hub.WaitBackend()
			}
			continue
		}
		ev := *pick.Pending()
		served++
		switch {
		case ev.Kind == comm.KExit:
			pick.ReplyExit(comm.Reply{Done: ev.Time})
		case served == 1:
			pick.Reply(comm.Reply{Done: ev.Time, Fault: &mem.Fault{Kind: mem.FaultNotPresent, Addr: ev.Addr}})
		default:
			pick.Reply(comm.Reply{Done: ev.Time + 10})
		}
	}
	hub.Unlock()
	<-done
	if faults != 1 {
		t.Errorf("fault handler ran %d times, want 1", faults)
	}
}

// The batch buffer is lent to the event for as long as the post lasts,
// fault retries included: a fault handler that itself references with
// batching on fills a buffer of its own, and the retried event carries the
// references it carried the first time.
func TestFaultHandlerBatchDoesNotClobberBatchInFlight(t *testing.T) {
	hub := comm.NewHub(1)
	port := hub.NewPort(comm.StateRunning)
	p := New(0, "faulty", port, isa.DefaultTiming())
	p.SetFaultHandler(func(pp *Proc, f *mem.Fault) {
		// Page-table walk of the handler: four kernel stores, which fill
		// and flush one batch at the faulting process's batch size.
		for i := 0; i < 4; i++ {
			pp.KTouchRange(mem.VirtAddr(0x9000+i*8), 8, true)
		}
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.SetBatch(4)
		for round := 0; round < 2; round++ { // the second round reuses a buffer
			for i := 0; i < 4; i++ {
				p.Store(mem.VirtAddr(0x1000*(round+1)+i*64), 4)
			}
		}
		p.Exit()
	}()

	// refsOf flattens an event into the addresses it carries, by value.
	refsOf := func(ev *comm.Event) []mem.VirtAddr {
		out := []mem.VirtAddr{ev.Addr}
		for _, b := range ev.Batch {
			out = append(out, b.Addr)
		}
		return out
	}
	var seen [][]mem.VirtAddr
	hub.Lock()
	for exited := false; !exited; {
		pick, _, _, _ := hub.Scan()
		if pick == nil {
			hub.ArmWait()
			if pick2, _, _, _ := hub.Scan(); pick2 == nil {
				hub.WaitBackend()
			}
			continue
		}
		ev := pick.Pending()
		switch {
		case ev.Kind == comm.KExit:
			pick.ReplyExit(comm.Reply{Done: ev.Time})
			exited = true
		case len(seen) == 0:
			// Fault the very first event, once.
			seen = append(seen, refsOf(ev))
			pick.Reply(comm.Reply{Done: ev.Time, Fault: &mem.Fault{Kind: mem.FaultNotPresent, Addr: ev.Addr}})
		default:
			seen = append(seen, refsOf(ev))
			pick.Reply(comm.Reply{Done: ev.Time + 10})
		}
	}
	hub.Unlock()
	<-done

	user := func(round int) []mem.VirtAddr {
		base := mem.VirtAddr(0x1000 * (round + 1))
		return []mem.VirtAddr{base, base + 64, base + 128, base + 192}
	}
	want := [][]mem.VirtAddr{
		user(0),                          // faults
		{0x9000, 0x9008, 0x9010, 0x9018}, // the handler's own batch
		user(0),                          // the retry, intact
		user(1),
	}
	if len(seen) != len(want) {
		t.Fatalf("backend saw %d memory events, want %d: %x", len(seen), len(want), seen)
	}
	for i := range want {
		for k := range want[i] {
			if len(seen[i]) != len(want[i]) || seen[i][k] != want[i][k] {
				t.Errorf("event %d carried %x, want %x", i, seen[i], want[i])
				break
			}
		}
	}
}

func TestStolenCyclesChargedToInterrupt(t *testing.T) {
	s := newStub(0)
	s.latency = 0
	hub := comm.NewHub(1)
	port := hub.NewPort(comm.StateRunning)
	p := New(0, "victim", port, isa.DefaultTiming())
	done := make(chan struct{})
	go func() {
		p.Load(0x100, 4)
		p.Exit()
		close(done)
	}()
	hub.Lock()
	for n := 0; n < 2; {
		pick, _, _, _ := hub.Scan()
		if pick == nil {
			hub.ArmWait()
			if p2, _, _, _ := hub.Scan(); p2 == nil {
				hub.WaitBackend()
			}
			continue
		}
		ev := *pick.Pending()
		n++
		if ev.Kind == comm.KExit {
			pick.ReplyExit(comm.Reply{Done: ev.Time})
		} else {
			pick.Reply(comm.Reply{Done: ev.Time + 500, Stolen: 300})
		}
	}
	hub.Unlock()
	<-done
	a := p.Account()
	if a.Cycles(stats.ModeInterrupt) != 300 {
		t.Errorf("interrupt cycles = %d, want 300", a.Cycles(stats.ModeInterrupt))
	}
	if a.Cycles(stats.ModeUser) != 1+200 { // issue cost + (500-300)
		t.Errorf("user cycles = %d, want 201", a.Cycles(stats.ModeUser))
	}
}

func TestTimeRegressionPanics(t *testing.T) {
	hub := comm.NewHub(1)
	port := hub.NewPort(comm.StateRunning)
	p := New(0, "x", port, isa.DefaultTiming())
	panicked := make(chan bool, 1)
	go func() {
		defer func() { panicked <- recover() != nil }()
		p.ComputeCycles(1000)
		p.Load(0x10, 4)
	}()
	hub.Lock()
	for {
		pick, _, _, _ := hub.Scan()
		if pick != nil {
			pick.Reply(comm.Reply{Done: 1}) // before the proc's local time
			break
		}
		hub.ArmWait()
		if p2, _, _, _ := hub.Scan(); p2 == nil {
			hub.WaitBackend()
		}
	}
	hub.Unlock()
	if !<-panicked {
		t.Fatal("backward reply did not panic the frontend")
	}
}

// Spin posts the whole lock-poll loop as one event whose first step is the
// CAS an RMW would post: same cycle, same trap and retry without a second
// issue charge. Whatever the backend walked comes back as one stretch of
// time, all the current mode's but the stolen cycles, with the step it
// stopped at; where a step is more than its post — the switch off, a batch
// pending, host work to do — Spin is that CAS as an ordinary RMW.
func TestSpinPostsTheLoopAsOneEvent(t *testing.T) {
	hub := comm.NewHub(1)
	port := hub.NewPort(comm.StateRunning)
	timing := isa.DefaultTiming()
	p := New(0, "poller", port, timing)
	sync := timing.Cycles(isa.OpSync)
	ready := func() bool { return false }
	faults := 0
	p.SetFaultHandler(func(pp *Proc, _ *mem.Fault) {
		faults++
		pp.ComputeCycles(40)
	})
	var stops []comm.SpinStop
	hub.Lock()
	defer hub.Unlock()
	port.Start(func() {
		p.PushMode(stats.ModeKernel)
		stops = append(stops, p.Spin(0x6000, true, 250, ready))
		p.PopMode()
		p.SetBatch(4)
		stops = append(stops, p.Spin(0x6000, true, 250, ready))
		p.SetBatch(1)
		p.SetInstrumentation(false)
		stops = append(stops, p.Spin(0x6000, true, 250, ready))
		p.Exit()
	})
	var events []comm.Event
	for {
		hub.ResumeFrontends()
		pick, _, _, _ := hub.Scan()
		if pick == nil {
			break
		}
		ev := *pick.Pending()
		events = append(events, ev)
		r := pick.Answer()
		switch {
		case ev.Kind == comm.KExit:
			r.Done = ev.Time
			pick.DeliverExit()
			continue
		case len(events) == 1:
			r.Done, r.Fault = ev.Time, &mem.Fault{Kind: mem.FaultNotPresent, Addr: ev.Addr}
		case ev.Kind == comm.KSpin:
			// Many iterations' worth, the first CAS delayed by a handler.
			r.Done, r.Stolen, r.Served, r.Stop = ev.Time+5000, 300, 17, comm.SpinPauseNext
		default:
			r.Done, r.Value = ev.Time+10, uint64(len(events)%2) // held, then free
		}
		pick.Deliver()
	}
	if len(events) != 5 {
		t.Fatalf("%d events posted, want the spin event twice, two RMWs and the exit", len(events))
	}
	for i, ev := range events[:2] {
		if ev.Kind != comm.KSpin || ev.Time != event.Cycle(sync)+event.Cycle(40*i) ||
			ev.Addr != 0x6000 || !ev.Kernel || ev.Size != 4 || ev.Op != comm.RMWCAS || ev.Operand != 1 || ev.Expected != 0 ||
			ev.Issue != event.Cycle(sync) || ev.Pause != 250 || ev.Ready == nil {
			t.Errorf("post %d: %+v, want the spin event at the CAS's cycle", i, ev)
		}
	}
	for _, ev := range events[2:4] {
		if ev.Kind != comm.KRMW || ev.Op != comm.RMWCAS || ev.Ready != nil {
			t.Errorf("%+v posted with the event path closed, want the CAS as a plain RMW", ev)
		}
	}
	if want := []comm.SpinStop{comm.SpinPauseNext, comm.SpinHeld, comm.SpinAcquired}; !reflect.DeepEqual(stops, want) {
		t.Errorf("stops %v, want %v", stops, want)
	}
	if faults != 1 {
		t.Errorf("fault handler ran %d times, want once", faults)
	}
	a := p.Account()
	if got, want := a.Cycles(stats.ModeKernel), sync+40+(5000-300); got != want {
		t.Errorf("kernel cycles = %d, want %d: the CAS's issue, the trap, and the walk less the theft", got, want)
	}
	if got := a.Cycles(stats.ModeInterrupt); got != 300 {
		t.Errorf("interrupt cycles = %d, want the 300 stolen", got)
	}
	if got, want := a.Cycles(stats.ModeUser), 2*(sync+10); got != want {
		t.Errorf("user cycles = %d, want %d for the two plain RMWs", got, want)
	}
}

// countedStep returns a step that costs 3 cycles more every time it is
// called, and the list of the calls' numbers as they came.
func countedStep() (step func() event.Cycle, calls *[]int) {
	calls = new([]int)
	return func() event.Cycle {
		*calls = append(*calls, len(*calls)+1)
		return event.Cycle(3 * len(*calls))
	}, calls
}

// To a backend that serves one reference a post — and takes its step, as the
// contract asks of whoever serves a reference — TouchStepped is the loop it
// stands for: every line posted an issue cycle after the step of the line
// before, the steps' cycles charged like a Compute's.
func TestTouchSteppedIsTheLoopOneReferenceAPost(t *testing.T) {
	const issue, latency = 1, 7
	s := newStub(latency)
	s.reply = func(ev comm.Event) comm.Reply {
		return comm.Reply{Done: ev.Time + latency + ev.Step()}
	}
	step, calls := countedStep()
	var end event.Cycle
	p := s.start(t, func(p *Proc) {
		p.TouchStepped(0x1004, 100, true, step)
		end = p.Now()
	})
	if got, want := s.memRefs(), [][2]int{{0x1004, 32}, {0x1024, 32}, {0x1044, 32}, {0x1064, 4}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("posted %v, want %v", got, want)
	}
	at := event.Cycle(0)
	for i, ev := range s.events[:4] {
		at += issue
		if ev.Time != at || !ev.Write || ev.Step == nil || ev.Issue != issue {
			t.Errorf("event %d: posted at %d (write=%v, issue=%d), want %d", i, ev.Time, ev.Write, ev.Issue, at)
		}
		at += latency + event.Cycle(3*(i+1))
	}
	if end != at || p.Account().Total() != uint64(at) {
		t.Errorf("done at %d with %d cycles charged, want %d", end, p.Account().Total(), at)
	}
	if want := []int{1, 2, 3, 4}; !reflect.DeepEqual(*calls, want) {
		t.Errorf("steps called %v, want %v", *calls, want)
	}
}

// A backend that walks a stepped range takes the steps of the references it
// serves, but may leave the last one's (StepDue): the frontend takes it then,
// before the issue of the remainder, and charges its cycles. A fault is the
// first reference's, whose step has not been taken by anybody.
func TestTouchSteppedTakesTheStepTheBackendLeft(t *testing.T) {
	const issue, latency = 1, 10
	s := newStub(1)
	posts := 0
	s.reply = func(ev comm.Event) comm.Reply {
		posts++
		switch posts {
		case 1: // three references, the third's step left
			done := ev.Time + latency + ev.Step()
			done += issue + latency + ev.Step()
			return comm.Reply{Done: done + issue + latency, Served: 2, StepDue: true}
		case 2: // the fourth faults
			return comm.Reply{Done: ev.Time, Fault: &mem.Fault{Kind: mem.FaultNotPresent, Addr: ev.Addr}}
		default: // and the rest is served at the retry, steps and all
			done := ev.Time
			for k := 0; k < 4; k++ {
				if k > 0 {
					done += issue
				}
				done += latency + ev.Step()
			}
			return comm.Reply{Done: done, Served: 3}
		}
	}
	step, calls := countedStep()
	var faultAt, end event.Cycle
	p := s.start(t, func(p *Proc) {
		p.SetFaultHandler(func(pp *Proc, f *mem.Fault) {
			faultAt = pp.Now()
			pp.ComputeCycles(100)
		})
		p.TouchStepped(0x8000, 7*32, false, step)
		end = p.Now()
	})
	if got, want := s.memRefs(), [][2]int{{0x8000, 32}, {0x8060, 32}, {0x8060, 32}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("posted %v, want %v", got, want)
	}
	// Three references and their steps (3, 6 and 9 cycles), the last step here.
	rest := event.Cycle(3*(issue+latency) + 3 + 6 + 9 + issue)
	if s.events[1].Time != rest || faultAt != rest {
		t.Errorf("remainder posted at %d and trapped at %d, want %d: an issue cycle after the step the backend left", s.events[1].Time, faultAt, rest)
	}
	if want := rest + 100 + 4*latency + 3*issue + 12 + 15 + 18 + 21; end != want {
		t.Errorf("range done at %d, want %d", end, want)
	}
	if want := []int{1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(*calls, want) {
		t.Errorf("steps called %v, want each once, in order", *calls)
	}
	a := p.Account()
	if got, want := a.Cycles(stats.ModeUser), uint64(end)-100; a.Cycles(stats.ModeKernel) != 100 || got != want {
		t.Errorf("user=%d kernel=%d, want %d and 100", got, a.Cycles(stats.ModeKernel), want)
	}
}

// Where an iteration is more than its post — the switch off, a batch pending,
// host work to do — TouchStepped posts no stepped event: it is the loop, the
// process taking every step itself.
func TestTouchSteppedFallsBackToTheLoop(t *testing.T) {
	for _, tc := range []struct {
		name  string
		arm   func(p *Proc)
		posts int
	}{
		{"instrumentation off", func(p *Proc) { p.SetInstrumentation(false) }, 0},
		{"SetBatch(2)", func(p *Proc) { p.SetBatch(2) }, 2},
		{"HostWork", func(p *Proc) { p.SetHostWork(0.5) }, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStub(7)
			step, calls := countedStep()
			p := s.start(t, func(p *Proc) {
				tc.arm(p)
				p.TouchStepped(0x2000, 4*32, false, step)
				p.SetBatch(1) // flushes
			})
			refs := 0
			for _, ev := range s.events {
				if ev.Kind != comm.KMem {
					continue
				}
				refs++
				if ev.Step != nil {
					t.Errorf("a stepped event was posted: %+v", ev)
				}
			}
			if refs != tc.posts {
				t.Errorf("%d memory events posted, want %d", refs, tc.posts)
			}
			if want := []int{1, 2, 3, 4}; !reflect.DeepEqual(*calls, want) {
				t.Errorf("steps called %v, want %v", *calls, want)
			}
			if got := p.Account().Cycles(stats.ModeUser); got < 3+6+9+12 {
				t.Errorf("%d user cycles charged, less than the steps' 30", got)
			}
		})
	}
}
