package core

import (
	"fmt"

	"compass/internal/comm"
	"compass/internal/event"
	"compass/internal/mem"
)

// This file processes frontend events: the backend "creates a task ...
// when all the tasks associated with a particular event have completed,
// the backend process replies to the frontend process, allowing it to
// proceed" (§2). Our architecture models compute transaction completion
// times synchronously (busy-until resources), so most events resolve in
// one handler; the global task queue carries device and timer activity.

func (s *Sim) handleEvent(port *comm.Port, until event.Cycle) {
	p := s.procs[port.ID()]
	ev := port.Pending()
	if ev.Time > s.curTime {
		s.curTime = ev.Time
	}
	if p.cpu < 0 {
		panic(fmt.Sprintf("core: proc %d posted %v without a CPU", p.id, ev.Kind))
	}

	switch ev.Kind {
	case comm.KMem:
		s.handleMem(p, ev, until)
	case comm.KRMW, comm.KSpin:
		s.handleRMW(p, ev, until)
	case comm.KCall:
		s.handleCall(p, ev)
	case comm.KYield:
		s.handleYield(p, ev)
	case comm.KExit:
		s.handleExit(p, ev)
	default:
		panic(fmt.Sprintf("core: unknown event kind %d", ev.Kind))
	}
}

// steal consumes the CPU cycles pending from interrupt handlers (§3.2's
// interrupt-request flag, observed at the event-port boundary).
func (s *Sim) steal(p *procInfo) event.Cycle {
	c := p.cpu
	if c < 0 {
		return 0
	}
	st := s.cpus[c].pendingSteal
	s.cpus[c].pendingSteal = 0
	return st
}

func (s *Sim) spaceFor(p *procInfo, kernel bool) *mem.Space {
	if kernel {
		return s.kernel
	}
	return p.space
}

// answer starts the reply to p's event in the port's own record: the CPU
// the process is on and the cycles interrupt handlers stole from it. The
// handler fills in the rest and delivers it, or parks a copy.
func (s *Sim) answer(p *procInfo) *comm.Reply {
	r := p.port.Answer()
	r.CPU, r.Stolen = p.cpu, s.steal(p)
	return r
}

func (s *Sim) handleMem(p *procInfo, ev *comm.Event, until event.Cycle) {
	r := s.answer(p)
	node := s.NodeOf(p.cpu)

	// One walk for the primary reference, any batched ones after it, and
	// the rest of a range for as long as its next reference is what the
	// backend would handle next anyway (walkOn). A fault ends it. In
	// the primary or a batched reference it is the reply, and the frontend
	// resolves it and reissues the event; further into a range the walk
	// stops short of the faulting reference instead, which the frontend
	// then posts as the first of the remainder — at the same cycle, the
	// event having been advanced to exactly that post — so that a trap is
	// always taken by the reference the event names.
	//
	// A reference to the page the one before it was on, for the same kind of
	// access in the same space, lands in the same frame: nothing runs between
	// two references of one walk that could unmap or protect a page, the
	// first one has set the dirty bit and fixed the home node already, and
	// the page is forgotten when the handler returns.
	//
	// A reference the walk has admitted (walkOn) brings with it, as one
	// run, the references of the range that follow it on its page, as far as
	// they stay below the bound: nothing but the model's accesses lies between
	// them, the page is located, and what else walkOn asks — a preemption due,
	// an abort — does not change between two steps of a walk by anything the
	// simulation does (the next page's first reference asks again). The model
	// serves the run as so many accesses (memsys.Model.AccessRun); the event,
	// the watchdog gauge and the backend's clock are then where the same
	// steps taken one by one would have left them. With ECC sampling on every
	// reference draws from the sampler, and is taken by itself.
	//
	// A range that carries the step between its references (comm.Event.Step)
	// is the loop "reference; compute on what it read" posted whole: each
	// reference is served by itself, and then the step is called here, where
	// the frontend would run it on return from that reference — this event is
	// the backend's pick, so every other process is suspended at a post with a
	// later (time, id), blocked or exited, and no queue task or interrupt runs
	// before until: the step reads and writes what it would there. Its cycles
	// are computation that follows the reference: they go into Done and put off
	// the next reference's issue, as a Compute between two posts would. Only
	// when the process's own code would not run next — the reference costs it
	// the CPU (the reply is parked below, and other processes' events come
	// first), or an abort is pending (the loop may raise it before the process
	// runs again) — is the step left to the frontend (StepDue), which calls it
	// when, and if, it runs again.
	//
	// A step's common case is written out in the loop: the model's access and
	// the ECC test, and the range moved on to its next reference and put to
	// walkOn. What is rare is a call: locating a new page (locate, which
	// returns the fault), drawing from the ECC sampler (mem.ECC.Sample), and
	// the preemption the walk ends for (preempt).
	at, addr, write, kernel := ev.Time+r.Stolen, ev.Addr, ev.Write, ev.Kernel
	var last pageRef
	var frame mem.PhysAddr // where last's page is
	for n := 0; ; n++ {
		if cur := (pageRef{addr.VPN(), write, kernel, true}); cur != last {
			pa, fault := s.locate(p, node, addr, write, kernel)
			if fault != nil {
				if n <= len(ev.Batch) {
					r.Done, r.Fault, r.Served = at, fault, 0
				}
				break
			}
			last, frame = cur, pa&^mem.PageMask
		}
		pa := frame | mem.PhysAddr(addr.Offset())
		var done event.Cycle
		run := 0
		if n > len(ev.Batch) && s.ecc == nil && ev.Step == nil {
			// As many references as the range has left, or the page.
			run = int(min(ev.Refs(), uint64(mem.PageMask-addr.Offset())/comm.RangeStride+1))
		}
		if run > 1 {
			served, issued, end := s.model.AccessRun(at, p.cpu, pa, comm.RangeStride, run, ev.Issue, until, write)
			if more := uint32(served - 1); more > 0 {
				ev.Skip(more)
				s.ticks(uint64(more))
				s.curTime = max(s.curTime, issued)
				n += int(more)
			}
			done = end
		} else {
			done = s.model.Access(at, p.cpu, pa, write)
			if s.ecc != nil {
				done += event.Cycle(s.ecc.Sample())
			}
		}
		r.Done, r.Served = done, uint32(n)
		if ev.Step != nil {
			if s.preemptDue(p) || s.abortMsg.Load() != nil {
				r.StepDue = true
				break
			}
			done += ev.Step()
			r.Done = done
		}
		if n < len(ev.Batch) {
			ref := &ev.Batch[n]
			at, addr, write, kernel = done, ref.Addr, ref.Write, ref.Kernel
		} else if ev.Run != 0 && ev.Skip(1) {
			// The range's next reference, p's next post: the walk serves it
			// if walkOn says it would be the backend's pick anyway.
			// Otherwise the reply says how far the walk got, and the
			// frontend posts the rest.
			ev.Time = done + ev.Issue
			if !s.walkOn(p, ev.Time, until) {
				break
			}
			at, addr = ev.Time, ev.Addr
		} else {
			break
		}
	}
	if r.Fault != nil {
		s.counters.Inc("vm.faults", 1)
	} else if s.preemptDue(p) {
		s.preempt(p, r)
		return
	}
	p.port.Deliver()
}

// walkOn is the one test every walk — along a range (handleMem) or round a
// spin loop (handleSpin) — puts to its next step, which p would post at cycle
// t: the process is not about to be preempted, no abort is pending, and t is
// below until — the bound the choice of this event came with (choose), so
// the loop's own rule would pick the step too if the frontend posted it now.
// Whatever says no would have come between the two steps had each been
// posted by itself — a queue task due first, another process with an earlier
// (time, id), an abort — so the walk ends before the step. Device interrupts
// and the quantum tick are queue tasks, which is why cycles are stolen from,
// and a preemption lands on, only the first step of a walk: a due task ends
// the walk before the next. A step that may go ahead is a step of backend
// work like an event handled by itself: the watchdog gauge and the backend's
// clock move as they would for the post.
func (s *Sim) walkOn(p *procInfo, t, until event.Cycle) bool {
	if s.preemptDue(p) || s.abortMsg.Load() != nil || t >= until {
		return false
	}
	s.tick()
	if t > s.curTime {
		s.curTime = t
	}
	return true
}

// locate is the first step of a memory reference of process p, which
// handleMem and handleRMW share: it translates the address in the process's or
// the kernel's space and records the touch of the frame from the process's
// node (first-touch placement), or returns the fault. The second step — the
// model's access, plus the cycles of an ECC sample when a sampler is
// installed — is written out where it is taken (handleMem's loop, rmw).
func (s *Sim) locate(p *procInfo, node int, va mem.VirtAddr, write, kernel bool) (mem.PhysAddr, *mem.Fault) {
	pa, fault := s.spaceFor(p, kernel).Translate(va, write)
	if fault == nil {
		s.phys.Touch(pa.Frame(), node)
	}
	return pa, fault
}

// pageRef names what locate was last asked within one handleMem call: a
// page, the kind of access and the space. The zero value matches nothing.
type pageRef struct {
	vpn           uint32
	write, kernel bool
	valid         bool
}

// handleRMW serves a synchronization instruction: a KRMW event, or the CAS
// a KSpin event starts with, which is a lone RMW in every respect — cycles
// stolen, the trap and retry of a fault, the preemption check — until its
// reply is ready to go. If the CAS took the lock, the reply stays and the
// walk round the loop begins (handleSpin).
func (s *Sim) handleRMW(p *procInfo, ev *comm.Event, until event.Cycle) {
	r := s.answer(p)
	t := ev.Time + r.Stolen
	pa, fault := s.locate(p, s.NodeOf(p.cpu), ev.Addr, true, ev.Kernel)
	if fault != nil {
		// Nothing has been read or written: the instruction traps (§3.2) and
		// the frontend retries it.
		r.Done, r.Fault = t, fault
		s.counters.Inc("vm.faults", 1)
		p.port.Deliver()
		return
	}
	size := int(ev.Size)
	if size == 0 {
		size = 4
	}
	r.Done, r.Value = s.rmw(p, t, pa, size, ev.Op, ev.Operand, ev.Expected)
	if ev.Kind == comm.KSpin {
		s.spins++
		if r.Value == ev.Expected {
			// Where the frontend stands if the reply is parked now.
			r.Stop = comm.SpinAcquired
		}
	}
	if s.preemptDue(p) {
		s.preempt(p, r)
		return
	}
	if r.Stop == comm.SpinAcquired {
		s.handleSpin(p, ev, r, pa, size, until)
	}
	p.port.Deliver()
}

// rmw performs the atomic operation op on the size-byte word at pa for
// process p at cycle t, and returns the completion time of the reference
// and the word's old value.
func (s *Sim) rmw(p *procInfo, t event.Cycle, pa mem.PhysAddr, size int, op comm.RMWOp, operand, expected uint64) (event.Cycle, uint64) {
	old := s.phys.ReadUint(pa, size)
	switch op {
	case comm.RMWSwap:
		s.phys.WriteUint(pa, size, operand)
	case comm.RMWAdd:
		s.phys.WriteUint(pa, size, old+operand)
	case comm.RMWCAS:
		if old == expected {
			s.phys.WriteUint(pa, size, operand)
		}
	}
	s.rmws++
	t = s.model.Access(t, p.cpu, pa, true)
	if s.ecc != nil {
		t += event.Cycle(s.ecc.Sample())
	}
	return t, old
}

// handleSpin takes p's KSpin event ev on from a CAS that has taken the lock
// word at pa and completed at r.Done, step by step round the loop the event
// stands for (comm.SpinStop): the condition, read here on the process's
// behalf; the swap that releases the lock; the pause and the yield; the
// next CAS. Each step is served exactly as the event the frontend would
// post for it — an RMW a sync issue after the step before, a yield that
// keeps the CPU — provided that event would be the backend's next (walkOn)
// and, for the yield, that nobody is waiting for the CPU (handleYield would
// switch). The walk ends before the first step that is not, or on a CAS that
// finds the lock held, or with the condition true; r says where, and the
// frontend goes on from there.
//
// Ready is called where the frontend would evaluate it: the CAS before it
// was the backend's pick, so every other process is suspended at a post with
// a later (time, id), blocked, exited, or (on threaded ports) running host
// code ahead of this cycle and outside the lock, and every earlier event has
// been handled. The word's page was located by the first CAS, and nothing
// that could unmap it runs during a walk.
//
// Once Ready has said no, the iterations that fit below until are known in
// advance and all alike, and are accounted in one go (spinAhead); the steps
// below are then left the last, partial one.
func (s *Sim) handleSpin(p *procInfo, ev *comm.Event, r *comm.Reply, pa mem.PhysAddr, size int, until event.Cycle) {
	for first := true; ; first = false {
		if ev.Ready() {
			r.Stop = comm.SpinReady
			return
		}
		if first {
			until = s.spinAhead(p, ev, r, pa, until)
		}
		r.Stop = comm.SpinSwapNext
		t := r.Done + ev.Issue
		if !s.walkOn(p, t, until) {
			return
		}
		r.Done, _ = s.rmw(p, t, pa, size, comm.RMWSwap, ev.Expected, 0)
		r.Served++

		r.Stop = comm.SpinPauseNext
		t = r.Done + event.Cycle(ev.Pause)
		if len(s.ready) != 0 || !s.walkOn(p, t, until) {
			return
		}
		// A yield with the ready queue empty completes at its own cycle:
		// nothing was stolen since the first step (handleYield).
		r.Done = t
		s.spinYields++

		r.Stop = comm.SpinCASNext
		t += ev.Issue
		if !s.walkOn(p, t, until) {
			return
		}
		r.Done, r.Value = s.rmw(p, t, pa, size, comm.RMWCAS, ev.Operand, ev.Expected)
		r.Served++
		s.spinCAS++
		if r.Value != ev.Expected {
			r.Stop = comm.SpinHeld
			return
		}
	}
}

// spinAheadMost is how many iterations spinAhead accounts at most: the RMWs
// of a walk, two an iteration, are counted in 32 bits (comm.Reply.Served).
const spinAheadMost = 1 << 30

// spinAhead accounts, all at once, the whole iterations of p's spin walk that
// fit below until, the walk standing at r.Done after a CAS that took the lock
// and a condition that said no. Between here and until nothing runs but this
// walk — no other process, no queue task, no interrupt: that is what until
// means (choose) — so an iteration reads and finds:
//
//   - the condition, which reads only what other processes and queue tasks
//     change (comm.Event.Ready): false again;
//   - the ready queue, at the yield: empty as it is now (only a queue task, a
//     wake-up or a blocking process puts anybody there), so the yield keeps the
//     CPU, and no preemption can be due with nobody waiting;
//   - the abort request: host-side, and asked about again by the steps
//     that follow;
//   - the lock word: Operand since the CAS, Expected after the swap, Operand
//     after the next CAS, which therefore takes the lock as this one did; the
//     two functional updates cancel;
//   - the memory model, twice: stores to a line the CPU holds Modified in its
//     first-level cache, which complete h cycles after they are issued and
//     leave the line as it is (memsys.Model.Rehit asserts exactly this, and
//     accounts such stores by number).
//
// So an iteration takes T = 2·Issue + 2·h + Pause cycles whichever one it is,
// its CAS is issued 2·Issue + h + Pause after the CAS before it completed,
// and the k iterations whose CAS is issued below until — the earlier steps of
// an iteration are then below it too — are 2k stores that hit, 2k RMWs, k
// yields that keep the CPU, 3k steps of backend work and k·T cycles, the
// backend's clock ending at the last CAS's issue. The steps themselves are
// handleSpin's, which goes on from the swap: spinAhead multiplies them and
// moves nothing they would not have moved.
//
// Everything is left to the steps when a reference draws from the ECC
// sampler, somebody waits for the CPU (the first yield ends the walk), an
// abort is pending, or the model says the line is not where the argument
// needs it. When until is no bound at all — no other process posted or
// running, no task queued, not even a daemon's — and nobody waits for the CPU,
// nothing is left that could change the condition: the wait can never end,
// and the walk would spin the host until a watchdog shot it. That is a
// deadlock the backend has just proved, and it says so.
//
// spinAhead returns the bound the steps go on under: until, or less when the
// wait is longer than one event can count, which then ends as if something
// were due and is posted again.
func (s *Sim) spinAhead(p *procInfo, ev *comm.Event, r *comm.Reply, pa mem.PhysAddr, until event.Cycle) event.Cycle {
	if len(s.ready) != 0 || s.abortMsg.Load() != nil {
		return until
	}
	if until == ^event.Cycle(0) {
		s.deadlockInfo = s.describeStuck()
		panic(&DeadlockError{
			Detail: fmt.Sprintf("proc %d %q polls for a condition nobody is left to change: %s", p.id, p.name, s.deadlockInfo),
			Cycle:  uint64(r.Done),
		})
	}
	if s.ecc != nil {
		return until
	}
	h, ok := s.model.Rehit(p.cpu, pa, 0)
	if !ok {
		return until
	}
	period := 2*ev.Issue + 2*h + event.Cycle(ev.Pause)
	next := r.Done + period - h // the issue of the next CAS
	if period == 0 || next >= until {
		return until
	}
	if most := next + spinAheadMost*period; most < until {
		until = most
	}
	k := uint64((until-1-next)/period) + 1
	s.model.Rehit(p.cpu, pa, 2*k)
	s.rmws += 2 * k
	s.spinYields += k
	s.spinCAS += k
	s.ticks(3 * k)
	r.Served += uint32(2 * k)
	r.Done += event.Cycle(k) * period
	s.curTime = max(s.curTime, r.Done-h)
	return until
}

func (s *Sim) handleCall(p *procInfo, ev *comm.Event) {
	r := s.answer(p)
	t := ev.Time + r.Stolen + CallCycles
	s.curProcID = p.id
	s.curBlock = false
	r.Done, r.Result = t, ev.Call()
	s.curProcID = -1
	if s.curBlock {
		s.park(p, *r, false)
		s.dispatch(t)
		return
	}
	if s.preemptDue(p) {
		s.preempt(p, r)
		return
	}
	p.port.Deliver()
}

func (s *Sim) handleYield(p *procInfo, ev *comm.Event) {
	r := s.answer(p)
	r.Done = ev.Time + r.Stolen
	if len(s.ready) == 0 {
		p.port.Deliver()
		return
	}
	s.counters.Inc("sched.yields", 1)
	t := r.Done // r is the port's record: dispatch may answer p in it again
	s.park(p, *r, true)
	s.dispatch(t)
}

func (s *Sim) handleExit(p *procInfo, ev *comm.Event) {
	t := ev.Time + s.steal(p)
	p.exited = true
	s.live--
	if p.daemon {
		s.daemons--
	}
	s.release(p)
	r := p.port.Answer()
	r.Done, r.CPU = t, -1
	p.port.DeliverExit()
	s.dispatch(t)
}

// CallerID, called from within a KCall closure, returns the id of the
// process that posted the call: a body bound once, for every caller, learns
// whom it serves from here.
func (s *Sim) CallerID() int {
	if s.curProcID < 0 {
		panic("core: CallerID outside a KCall")
	}
	return s.curProcID
}

// BlockCurrent, called from within a KCall closure, makes the calling
// process block once the call returns; a later Wake (device completion,
// IPC) releases it. This is the §3.3.3 stub-pair, and the one way a process
// blocks: the call that books the wake-up puts the process to sleep and
// frees its processor, so the wake always finds it asleep.
func (s *Sim) BlockCurrent() {
	if s.curProcID < 0 {
		panic("core: BlockCurrent outside a KCall")
	}
	s.curBlock = true
}

// SleepCurrent, called from within a KCall closure, puts the calling process
// to sleep for d cycles: it schedules the caller's wake d cycles after the
// current processing time, as a task labelled label (daemon as for
// ScheduleTask), and blocks the caller.
func (s *Sim) SleepCurrent(d event.Cycle, label string, daemon bool) {
	pid := s.CallerID()
	s.ScheduleTask(d, label, daemon, func() { s.Wake(pid, s.curTime) })
	s.BlockCurrent()
}
