package comm

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"compass/internal/event"
)

// serve is the backend side of a coroutine hub, shaped like core.Sim.Run:
// resume whatever was replied to, pick the smallest posted (time, id), hand
// it to handle. KExit is answered here. It returns when nothing is posted.
func serve(t *testing.T, h *Hub, handle func(p *Port, ev *Event)) {
	t.Helper()
	h.Lock()
	defer h.Unlock()
	for {
		h.ResumeFrontends()
		pick, minRun, running, posted := h.Scan()
		if running != 0 || minRun != ^event.Cycle(0) {
			t.Fatalf("after ResumeFrontends: %d ports still running (min clock %d)", running, minRun)
		}
		if pick == nil {
			if posted != 0 {
				t.Fatalf("%d ports posted but none picked", posted)
			}
			return
		}
		if ev := pick.Pending(); ev.Kind == KExit {
			pick.ReplyExit(Reply{Done: ev.Time, CPU: -1})
		} else {
			handle(pick, ev)
		}
	}
}

// settle waits for goroutines that have been told to end to be gone.
func settle(t *testing.T, want int) {
	t.Helper()
	for i := 0; i < 200 && runtime.NumGoroutine() > want; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > want {
		t.Errorf("%d goroutines, want at most %d", got, want)
	}
}

func TestCoroutinePickOrderByTimeThenID(t *testing.T) {
	h := NewHub(1)
	// Each process posts at these times; the ties at 20 and 30 must go to
	// the lower id whatever the order the processes were resumed in.
	times := [][]event.Cycle{{30, 30, 50}, {10, 20, 30}, {20, 25, 30}}
	for id := range times {
		p := h.NewPort(StateRunning)
		p.Start(func() {
			for _, at := range times[id] {
				if r := p.Post(Event{Kind: KMem, Time: at}); r.Done != at {
					t.Errorf("proc %d: reply %d to the event at %d", id, r.Done, at)
				}
			}
			p.Post(Event{Kind: KExit, Time: 99})
		})
	}
	var got []string
	serve(t, h, func(p *Port, ev *Event) {
		got = append(got, fmt.Sprintf("%d@%d", p.ID(), ev.Time))
		p.Reply(Reply{Done: ev.Time})
	})
	want := []string{"1@10", "1@20", "2@20", "2@25", "0@30", "0@30", "1@30", "2@30", "0@50"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pick order %v, want %v", got, want)
	}
}

func TestCoroutineExitDrainsBody(t *testing.T) {
	before := runtime.NumGoroutine()
	h := NewHub(1)
	returned := 0
	for i := 0; i < 3; i++ {
		p := h.NewPort(StateRunning)
		p.Start(func() {
			p.Post(Event{Kind: KMem, Time: 5})
			p.Post(Event{Kind: KExit, Time: 6})
			returned++
		})
	}
	serve(t, h, func(p *Port, ev *Event) { p.Reply(Reply{Done: ev.Time}) })
	if returned != 3 {
		t.Errorf("%d bodies returned after their KExit was answered, want 3", returned)
	}
	for _, p := range h.ports {
		if p.State() != StateExited {
			t.Errorf("port %d ended %v", p.ID(), p.State())
		}
	}
	settle(t, before)
}

func TestCoroutineBlockWakeResume(t *testing.T) {
	h := NewHub(1)
	sleeper := h.NewPort(StateRunning)
	waker := h.NewPort(StateRunning)
	var woke event.Cycle
	sleeper.Start(func() {
		woke = sleeper.Post(Event{Kind: KYield, Time: 10}).Done
		sleeper.Post(Event{Kind: KExit, Time: woke})
	})
	waker.Start(func() {
		waker.Post(Event{Kind: KMem, Time: 40})
		waker.Post(Event{Kind: KCall, Time: 70, Call: func() any {
			// Backend context: the wake-up is the withheld reply.
			if sleeper.State() != StateBlocked {
				t.Errorf("sleeper %v when woken", sleeper.State())
			}
			sleeper.Reply(Reply{Done: 75})
			return nil
		}})
		waker.Post(Event{Kind: KExit, Time: 80})
	})
	serve(t, h, func(p *Port, ev *Event) {
		switch ev.Kind {
		case KYield:
			p.SetState(StateBlocked) // parked: no reply, not resumed, not scanned
		case KCall:
			ev.Call()
			p.Reply(Reply{Done: ev.Time})
		default:
			if woke != 0 {
				t.Errorf("blocked process ran before its wake-up (at %d)", ev.Time)
			}
			p.Reply(Reply{Done: ev.Time})
		}
	})
	if woke != 75 {
		t.Errorf("sleeper resumed with Done %d, want 75", woke)
	}
}

// A process created from backend context (fork from a KCall) starts on the
// next ResumeFrontends and takes its place in the (time, id) order.
func TestCoroutineForkFromCall(t *testing.T) {
	h := NewHub(1)
	parent := h.NewPort(StateRunning)
	var got []string
	parent.Start(func() {
		parent.Post(Event{Kind: KCall, Time: 10, Call: func() any {
			child := h.NewPortLocked(StateBlocked)
			child.Start(func() {
				at := child.AwaitStart().Done
				child.Post(Event{Kind: KMem, Time: at + 1})
				child.Post(Event{Kind: KExit, Time: at + 2})
			})
			child.Reply(Reply{Done: 20}) // the scheduler's first dispatch
			return nil
		}})
		parent.Post(Event{Kind: KMem, Time: 30})
		parent.Post(Event{Kind: KExit, Time: 31})
	})
	serve(t, h, func(p *Port, ev *Event) {
		got = append(got, fmt.Sprintf("%d@%d", p.ID(), ev.Time))
		if ev.Kind == KCall {
			ev.Call()
		}
		p.Reply(Reply{Done: ev.Time})
	})
	if want := []string{"0@10", "1@21", "0@30"}; !reflect.DeepEqual(got, want) {
		t.Errorf("pick order %v, want %v", got, want)
	}
}

func TestCoroutineBodyPanicSurfacesInBackend(t *testing.T) {
	before := runtime.NumGoroutine()
	h := NewHub(1)
	cleaned := false
	bystander := h.NewPort(StateRunning)
	bystander.Start(func() {
		defer func() { cleaned = true }()
		bystander.Post(Event{Kind: KYield, Time: 1})
		t.Error("abandoned process was resumed")
	})
	unstarted := h.NewPort(StateBlocked)
	unstarted.Start(func() { t.Error("a process nobody dispatched ran") })
	culprit := h.NewPort(StateRunning)
	culprit.Start(func() {
		culprit.Post(Event{Kind: KMem, Time: 2})
		panic("workload bug")
	})

	caller := make(chan any, 1)
	func() {
		// The panic must arrive here, on the goroutine driving the hub.
		defer func() { caller <- recover() }()
		serve(t, h, func(p *Port, ev *Event) {
			if ev.Kind == KYield {
				p.SetState(StateBlocked)
				return
			}
			p.Reply(Reply{Done: ev.Time})
		})
	}()
	if rec := <-caller; rec != "workload bug" {
		t.Fatalf("recovered %v, want the body's panic value", rec)
	}
	h.StopFrontends()
	if !cleaned {
		t.Error("StopFrontends did not run the blocked body's deferred calls")
	}
	settle(t, before)
}

// A stopped process that posts again from a deferred call is unwound
// again instead of being handed back to a backend that has gone.
func TestStopFrontendsPostFromDeferredCall(t *testing.T) {
	before := runtime.NumGoroutine()
	h := NewHub(1)
	p := h.NewPort(StateRunning)
	reached := false
	p.Start(func() {
		defer func() {
			p.Post(Event{Kind: KMem, Time: 2}) // e.g. a deferred close()
			reached = true
		}()
		p.Post(Event{Kind: KYield, Time: 1})
	})
	h.Lock()
	h.ResumeFrontends()
	h.StopFrontends()
	h.Unlock()
	if reached {
		t.Error("Post returned on a stopped port")
	}
	settle(t, before)
}

func TestCoroutineReturnWithoutExitPanics(t *testing.T) {
	h := NewHub(1)
	p := h.NewPort(StateRunning)
	p.Start(func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("a body that returned without KExit went unnoticed")
		}
	}()
	h.ResumeFrontends()
}

// BenchmarkCoroutineRendezvous is one Post round trip on a coroutine port
// with the backend replying at once: the figure to set beside the
// benchmark's comm.rendezvous_ns, which drives the threaded port.
func BenchmarkCoroutineRendezvous(b *testing.B) {
	h := NewHub(1)
	p := h.NewPort(StateRunning)
	p.Start(func() {
		var t event.Cycle
		for i := 0; i < b.N; i++ {
			t = p.Post(Event{Kind: KMem, Time: t + 10}).Done
		}
		p.Post(Event{Kind: KExit, Time: t})
	})
	h.Lock()
	defer h.Unlock()
	b.ResetTimer()
	for {
		h.ResumeFrontends()
		pick, _, _, _ := h.Scan()
		if pick == nil {
			return
		}
		if ev := pick.Pending(); ev.Kind == KExit {
			pick.ReplyExit(Reply{Done: ev.Time, CPU: -1})
		} else {
			pick.Reply(Reply{Done: ev.Time + 1})
		}
	}
}

// --- In-place service --------------------------------------------------------

// serveInPlace installs the service function a backend shaped like serve
// would: the event is handled where it was posted if Scan picks it.
func serveInPlace(h *Hub, handle func(p *Port, ev *Event)) {
	h.SetService(func(p *Port) bool {
		if pick, _, _, _ := h.Scan(); pick != p {
			return false
		}
		if ev := p.Pending(); ev.Kind == KExit {
			p.ReplyExit(Reply{Done: ev.Time, CPU: -1})
		} else {
			handle(p, ev)
		}
		return true
	})
}

// The pick order of TestCoroutinePickOrderByTimeThenID is the same with
// in-place service, which takes the events whose poster is the minimum the
// moment it posts and leaves the others to the loop.
func TestInPlacePickOrderByTimeThenID(t *testing.T) {
	h := NewHub(1)
	times := [][]event.Cycle{{30, 30, 50}, {10, 20, 30}, {20, 25, 30}}
	for id := range times {
		p := h.NewPort(StateRunning)
		p.Start(func() {
			for _, at := range times[id] {
				if r := p.Post(Event{Kind: KMem, Time: at}); r.Done != at {
					t.Errorf("proc %d: reply %d to the event at %d", id, r.Done, at)
				}
			}
			p.Post(Event{Kind: KExit, Time: 99})
		})
	}
	var got []string
	handle := func(p *Port, ev *Event) {
		got = append(got, fmt.Sprintf("%d@%d", p.ID(), ev.Time))
		p.Reply(Reply{Done: ev.Time})
	}
	serveInPlace(h, handle)
	serve(t, h, handle)
	want := []string{"1@10", "1@20", "2@20", "2@25", "0@30", "0@30", "1@30", "2@30", "0@50"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pick order %v, want %v", got, want)
	}
	// In place: 1@20 (a tie its lower id wins), 2@25 and the second 0@30.
	if posts, served, _ := h.PortStats(); posts != 12 || served != 3 {
		t.Errorf("%d of %d events served in place, want 3 of 12", served, posts)
	}
}

// A lone process never sees the loop between its first event and its exit.
func TestInPlaceLoneProcess(t *testing.T) {
	before := runtime.NumGoroutine()
	h := NewHub(1)
	p := h.NewPort(StateRunning)
	p.Start(func() {
		var at event.Cycle
		for i := 0; i < 100; i++ {
			at = p.Post(Event{Kind: KMem, Time: at + 10}).Done
		}
		p.Post(Event{Kind: KExit, Time: at})
	})
	loop := 0
	serveInPlace(h, func(p *Port, ev *Event) { p.Reply(Reply{Done: ev.Time + 1}) })
	serve(t, h, func(p *Port, ev *Event) { loop++; p.Reply(Reply{Done: ev.Time + 1}) })
	if loop != 0 {
		t.Errorf("%d events went through the loop, want none", loop)
	}
	if posts, served, _ := h.PortStats(); posts != 101 || served != 100 {
		t.Errorf("%d of %d events served in place, want 100 of 101", served, posts)
	}
	if p.State() != StateExited {
		t.Errorf("port ended %v", p.State())
	}
	settle(t, before)
}

// A handler that runs in place and replies to somebody else as well does
// not let its process go on: both are resumed, lowest id first, by the
// ResumeFrontends call that was resuming the poster.
func TestInPlaceWakeDrainsInIDOrder(t *testing.T) {
	h := NewHub(1)
	waker := h.NewPort(StateRunning)   // id 0
	sleeper := h.NewPort(StateRunning) // id 1
	var resumed []string
	waker.Start(func() {
		waker.Post(Event{Kind: KMem, Time: 40})
		waker.Post(Event{Kind: KCall, Time: 50, Call: func() any {
			sleeper.Reply(Reply{Done: 60}) // runnable before the caller is
			return nil
		}})
		resumed = append(resumed, "waker")
		waker.Post(Event{Kind: KExit, Time: 70})
	})
	sleeper.Start(func() {
		at := sleeper.Post(Event{Kind: KYield, Time: 10}).Done
		resumed = append(resumed, "sleeper")
		sleeper.Post(Event{Kind: KExit, Time: at})
	})
	var inLoop, inPlace []string
	handler := func(log *[]string) func(p *Port, ev *Event) {
		return func(p *Port, ev *Event) {
			*log = append(*log, fmt.Sprintf("%d@%d", p.ID(), ev.Time))
			switch ev.Kind {
			case KYield:
				p.SetState(StateBlocked)
				return
			case KCall:
				ev.Call()
			}
			p.Reply(Reply{Done: ev.Time})
		}
	}
	serveInPlace(h, handler(&inPlace))
	serve(t, h, handler(&inLoop))
	if want := []string{"0@40"}; !reflect.DeepEqual(inLoop, want) {
		t.Errorf("the loop handled %v, want %v", inLoop, want)
	}
	// The block too: its poster is the last of the first batch to post, and
	// the minimum. It is handled in place and then parks all the same.
	if want := []string{"1@10", "0@50"}; !reflect.DeepEqual(inPlace, want) {
		t.Errorf("handled in place %v, want %v", inPlace, want)
	}
	if want := []string{"waker", "sleeper"}; !reflect.DeepEqual(resumed, want) {
		t.Errorf("resumed %v, want %v", resumed, want)
	}
	if _, served, _ := h.PortStats(); served != 0 {
		t.Errorf("%d events answered without a switch, want none: the block parked its poster and the call made two ports runnable", served)
	}
}

// A handler that panics in place dies on the process's coroutine, but the
// value surfaces from ResumeFrontends on the backend's goroutine, before
// any of the process's deferred calls has run; those run when the run is
// abandoned, and one that posts is refused. The frames that raised it, which
// the backend's goroutine never held, are kept with the hub.
func TestInPlaceHandlerPanicSurfacesInBackend(t *testing.T) {
	before := runtime.NumGoroutine()
	h := NewHub(1)
	p := h.NewPort(StateRunning)
	deferred, returned := false, false
	p.Start(func() {
		defer func() {
			deferred = true
			p.Post(Event{Kind: KMem, Time: 3})
			returned = true
		}()
		p.Post(Event{Kind: KMem, Time: 1})
		p.Post(Event{Kind: KCall, Time: 2, Call: buggyHandler})
		t.Error("the process went on after its handler panicked")
	})
	serveInPlace(h, func(p *Port, ev *Event) {
		if ev.Kind == KCall {
			ev.Call()
		}
		p.Reply(Reply{Done: ev.Time})
	})
	rec := func() (rec any) {
		defer func() { rec = recover() }()
		h.Lock()
		defer h.Unlock()
		h.ResumeFrontends()
		return nil
	}()
	if rec != "handler bug" {
		t.Fatalf("recovered %v, want the handler's panic value", rec)
	}
	if stack := string(h.RaisedAt()); !strings.Contains(stack, "buggyHandler") {
		t.Errorf("the stack kept of the panic does not name the handler:\n%s", stack)
	}
	if deferred {
		t.Error("the process was unwound by the handler's panic")
	}
	h.StopFrontends()
	if !deferred || returned {
		t.Errorf("after StopFrontends: deferred call ran %v, its Post returned %v; want true, false", deferred, returned)
	}
	settle(t, before)
}

func buggyHandler() any { panic("handler bug") }

// Processes that post in lockstep are never their own next pick: each one
// posts while the other's event, which goes first, is waiting.
func TestInPlaceLockstepGoesThroughTheLoop(t *testing.T) {
	const posts = 50
	h := NewHub(1)
	for i := 0; i < 2; i++ {
		p := h.NewPort(StateRunning)
		p.Start(func() {
			for at := event.Cycle(10); at <= 10*posts; at += 10 {
				p.Post(Event{Kind: KMem, Time: at})
			}
			p.Post(Event{Kind: KExit, Time: 10 * posts})
		})
	}
	var order []int
	handle := func(p *Port, ev *Event) {
		order = append(order, p.ID())
		p.Reply(Reply{Done: ev.Time})
	}
	serveInPlace(h, handle)
	serve(t, h, handle)
	for i, id := range order {
		if id != i%2 {
			t.Fatalf("event %d came from process %d: want strict alternation, lower id first", i, id)
		}
	}
	if len(order) != 2*posts {
		t.Errorf("%d events handled, want %d", len(order), 2*posts)
	}
	if _, served, _ := h.PortStats(); served != 0 {
		t.Errorf("%d events served in place, want none", served)
	}
}

// Exited ports leave the list Scan walks and stay in Ports.
func TestScanSkipsRetiredPorts(t *testing.T) {
	h := NewHub(1)
	h.NewPort(StateExited) // a restored tombstone
	a := h.NewPort(StateBlocked)
	b := h.NewPort(StateBlocked)
	a.SetState(StatePosted)
	b.SetState(StatePosted)
	if pick, _, _, posted := h.Scan(); pick != a || posted != 2 {
		t.Errorf("picked %v of %d posted, want port 1 of 2", pick, posted)
	}
	a.ReplyExit(Reply{})
	if pick, _, _, posted := h.Scan(); pick != b || posted != 1 {
		t.Errorf("after the exit: picked %v of %d posted, want port 2 of 1", pick, posted)
	}
	if len(h.live) != 1 || len(h.ports) != 3 {
		t.Errorf("%d live ports of %d, want 1 of 3", len(h.live), len(h.ports))
	}
	for id, p := range h.ports {
		if p.ID() != id {
			t.Errorf("Ports()[%d] is port %d", id, p.ID())
		}
	}
}

// BenchmarkInPlaceRendezvous is BenchmarkCoroutineRendezvous with the reply
// given in place: what a Post costs when it does not switch.
func BenchmarkInPlaceRendezvous(b *testing.B) {
	h := NewHub(1)
	p := h.NewPort(StateRunning)
	p.Start(func() {
		var t event.Cycle
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t = p.Post(Event{Kind: KMem, Time: t + 10}).Done
		}
		p.Post(Event{Kind: KExit, Time: t})
	})
	serveInPlace(h, func(p *Port, ev *Event) { p.Reply(Reply{Done: ev.Time + 1}) })
	h.Lock()
	defer h.Unlock()
	h.ResumeFrontends()
}
