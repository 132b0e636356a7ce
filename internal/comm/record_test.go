package comm

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"compass/internal/event"
	"compass/internal/mem"
)

// The events of the equivalence test: every kind and every field, so that a
// field one way of posting dropped or kept from the event before would show.
func recordEvents() []Event {
	return []Event{
		{Kind: KMem, Time: 10, Addr: 0x1000, Size: 4},
		{Kind: KMem, Time: 20, Addr: 0x2000, Size: 32, Write: true, Run: 200, Issue: 1},
		{Kind: KMem, Time: 30, Addr: 0x3000, Size: 8, Kernel: true,
			Batch: []BatchRef{{Addr: 0x3008, Size: 8}, {Addr: 0x3010, Size: 8, Write: true}}},
		{Kind: KRMW, Time: 40, Addr: 0x4000, Size: 4, Write: true, Op: RMWCAS, Operand: 1, Expected: 7},
		{Kind: KSpin, Time: 45, Addr: 0x4800, Size: 4, Write: true, Kernel: true, Op: RMWCAS, Operand: 1,
			Issue: 3, Pause: 400, Ready: func() bool { return true }},
		{Kind: KCall, Time: 50, Call: func() any { return "called" }},
		{Kind: KMem, Time: 60, Addr: 0x5000, Size: 1}, // after a Call, a Ready and a Batch: nothing of them left
		{Kind: KYield, Time: 70},
		{Kind: KExit, Time: 90},
	}
}

// seen is what the backend found in a port's record, with the closures
// replaced by what they return.
type seen struct {
	Event
	Called  any
	Readied bool
}

func see(ev *Event) seen {
	s := seen{Event: *ev}
	s.Batch = append([]BatchRef(nil), ev.Batch...)
	if ev.Call != nil {
		s.Called, s.Call = ev.Call(), nil
	}
	if ev.Ready != nil {
		s.Readied, s.Ready = ev.Ready(), nil
	}
	return s
}

// answerFor is the reply both ways of answering give an event: every field
// set, and a fault on the RMW.
func answerFor(ev *Event) Reply {
	r := Reply{Done: ev.Time + 5, CPU: 1, Stolen: event.Cycle(ev.Size), Ctx: 2, Served: ev.Run / RangeStride}
	switch ev.Kind {
	case KRMW:
		r.Value, r.Fault = ev.Expected, &mem.Fault{Kind: mem.FaultNotPresent, Addr: ev.Addr, Write: true}
	case KSpin:
		r.Served, r.Stop = 3, SpinPauseNext
	case KCall:
		r.Result = "result"
	}
	return r
}

// portTrace is everything the two ways of crossing a port must agree on.
type portTrace struct {
	Seen    []seen
	Replies []Reply
	States  []ProcState // the port's state after each reply
	Posts   uint64
	Ranged  uint64
}

// crossPort sends recordEvents through one port and answers each with
// answerFor: by value (Post, Reply, ReplyExit) or in the port's own records
// (Record and Send, Answer and Deliver or DeliverExit), on a coroutine port
// or a threaded one.
func crossPort(t *testing.T, inPlace, threaded bool) portTrace {
	t.Helper()
	var tr portTrace
	h := NewHub(1)
	p := h.NewPort(StateRunning)
	body := func() {
		for _, ev := range recordEvents() {
			if !inPlace {
				tr.Replies = append(tr.Replies, p.Post(ev))
				continue
			}
			rec := p.Record()
			if !reflect.DeepEqual(*rec, Event{}) {
				t.Errorf("Record returned %+v, want a cleared record", *rec)
			}
			// Field by field, as the frontend fills it.
			rec.Kind, rec.Time = ev.Kind, ev.Time
			rec.Addr, rec.Size, rec.Write, rec.Kernel = ev.Addr, ev.Size, ev.Write, ev.Kernel
			rec.Op, rec.Operand, rec.Expected = ev.Op, ev.Operand, ev.Expected
			rec.Call, rec.Batch, rec.Run, rec.Issue = ev.Call, ev.Batch, ev.Run, ev.Issue
			rec.Pause, rec.Ready = ev.Pause, ev.Ready
			tr.Replies = append(tr.Replies, *p.Send())
		}
	}
	handle := func(p *Port) {
		ev := p.Pending()
		tr.Seen = append(tr.Seen, see(ev))
		want := answerFor(ev)
		switch {
		case !inPlace && ev.Kind == KExit:
			p.ReplyExit(want)
		case !inPlace:
			p.Reply(want)
		default:
			r := p.Answer()
			if !reflect.DeepEqual(*r, Reply{}) {
				t.Errorf("Answer returned %+v, want a cleared record", *r)
			}
			r.Done, r.Value, r.Fault, r.Result = want.Done, want.Value, want.Fault, want.Result
			r.CPU, r.Stolen, r.Ctx, r.Served, r.Stop = want.CPU, want.Stolen, want.Ctx, want.Served, want.Stop
			if ev.Kind == KExit {
				p.DeliverExit()
			} else {
				p.Deliver()
			}
		}
		tr.States = append(tr.States, p.State())
	}
	if threaded {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			body()
		}()
		h.Lock()
		for p.State() != StateExited {
			if pick, _, _, _ := h.Scan(); pick != nil {
				handle(pick)
				continue
			}
			h.ArmWait()
			if pick, _, _, _ := h.Scan(); pick == nil {
				h.WaitBackend()
			}
		}
		h.Unlock()
		wg.Wait()
	} else {
		p.Start(body)
		serve(t, h, func(p *Port, _ *Event) { handle(p) })
		// serve answers KExit itself, by value: nothing to compare there.
	}
	tr.Posts, _, tr.Ranged = h.PortStats()
	return tr
}

// Posting and answering by value and in the port's own records are the same
// crossing: the backend finds the same events, the frontend the same
// replies, and the port goes through the same states.
func TestInPlaceRecordsMatchByValue(t *testing.T) {
	for _, threaded := range []bool{false, true} {
		t.Run(fmt.Sprint("threaded=", threaded), func(t *testing.T) {
			byValue := crossPort(t, false, threaded)
			inPlace := crossPort(t, true, threaded)
			if !reflect.DeepEqual(byValue, inPlace) {
				t.Errorf("the two ways of crossing the port disagree:\n--- by value ---\n%+v\n--- in place ---\n%+v", byValue, inPlace)
			}
			if n := len(recordEvents()); len(byValue.Replies) != n || byValue.Posts != uint64(n) {
				t.Errorf("%d replies to %d posts, want %d of each", len(byValue.Replies), byValue.Posts, n)
			}
		})
	}
}

// Both records are cleared whole on every post and every reply, so what
// they hold is what every event pays for: a field that can sit in padding
// should (Event.Pause beside Run, Reply.Stop and Reply.StepDue after Served).
// Event.Step is a word that fits in none: a closure, like Call and Ready, and
// the 104 bytes are the 96 before it and that word.
func TestRecordSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are those of a 64-bit host")
	}
	if ev, r := unsafe.Sizeof(Event{}), unsafe.Sizeof(Reply{}); ev != 104 || r != 72 {
		t.Errorf("Event is %d bytes and Reply %d, want 104 and 72", ev, r)
	}
}

// ScanNext's runner-up is what the pick's event must stay ahead of. When the
// pick's event falls behind it, the runner-up becomes the pick and who comes
// second is whichever port is next in (time, id): the old pick or a third
// port that is ahead of it too.
func TestScanNextRunnerUpWhenThePickFallsBehind(t *testing.T) {
	// The pick's own event moves on, as a range walk moves it: while it
	// stays ahead (an equal time goes to its lower id), and then past the
	// runner-up alone or past the third port too.
	for _, tc := range []struct {
		ats        []event.Cycle
		pick, next int
	}{{[]event.Cycle{15, 20, 25}, 1, 0}, {[]event.Cycle{20, 40}, 1, 2}} {
		h := NewHub(1)
		var ports []*Port
		for _, at := range []event.Cycle{10, 20, 30} {
			p := h.NewPort(StateBlocked)
			p.ev.Time = at
			p.SetState(StatePosted)
			ports = append(ports, p)
		}
		h.Lock()
		for i, at := range append([]event.Cycle{10}, tc.ats...) {
			ports[0].ev.Time = at
			wantPick, wantNext := 0, 1
			if i == len(tc.ats) {
				wantPick, wantNext = tc.pick, tc.next
			}
			pick, next, _, running, posted := h.ScanNext()
			if pick != ports[wantPick] || next != ports[wantNext] || running != 0 || posted != 3 {
				t.Errorf("port 0 at %d: picked %v then %v (%d running, %d posted), want port %d then port %d of 3 posted",
					at, pick, next, running, posted, wantPick, wantNext)
			}
		}
		h.Unlock()
	}
}
