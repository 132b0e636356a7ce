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

// blockCurrent is set by KCall closures (via BlockCurrent) to request that
// the current process block after its call completes.
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
	case comm.KRMW:
		s.handleRMW(p, ev)
	case comm.KCall:
		s.handleCall(p, ev)
	case comm.KYield:
		s.handleYield(p, ev)
	case comm.KBlock:
		s.handleBlock(p, ev)
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

func (s *Sim) handleMem(p *procInfo, ev *comm.Event, until event.Cycle) {
	stolen := s.steal(p)
	node := s.NodeOf(p.cpu)
	r := comm.Reply{CPU: p.cpu, Stolen: stolen}

	// One walk for the primary reference, any batched ones after it, and
	// the rest of a range for as long as its next reference is what the
	// backend would handle next anyway (continueRange). A fault ends it. In
	// the primary or a batched reference it is the reply, and the frontend
	// resolves it and reissues the event; further into a range the walk
	// stops short of the faulting reference instead, which the frontend
	// then posts as the first of the remainder — at the same cycle, the
	// event having been advanced to exactly that post — so that a trap is
	// always taken by the reference the event names.
	at, addr, write, kernel := ev.Time+stolen, ev.Addr, ev.Write, ev.Kernel
	for n := 0; ; n++ {
		done, fault := s.reference(p, node, at, addr, write, kernel)
		if fault != nil {
			if n <= len(ev.Batch) {
				r.Done, r.Fault, r.Served = done, fault, 0
			}
			break
		}
		r.Done, r.Served = done, uint32(n)
		if n < len(ev.Batch) {
			ref := &ev.Batch[n]
			at, addr, write, kernel = done, ref.Addr, ref.Write, ref.Kernel
		} else if s.continueRange(p, ev, done, until) {
			at, addr = ev.Time, ev.Addr
		} else {
			break
		}
	}
	if r.Fault != nil {
		s.counters.Inc("vm.faults", 1)
	} else if s.maybePreempt(p, r) {
		return
	}
	p.port.Reply(r)
}

// continueRange moves p's range event ev, whose reference has completed at
// cycle done, on to its next reference and reports whether the walk may
// serve it: there is one, the process is not about to be preempted, no
// abort is pending, and its time is below until — the bound the choice of
// this event came with (choose), so the loop's own rule would pick the
// next reference too if the frontend posted it now. Whatever says no would
// have come between the two references had each been posted by itself — a
// queue task due first, another process with an earlier (time, id), an
// abort — so the walk ends, the reply says how far it got, and the
// frontend posts the rest. Device interrupts and the quantum tick are
// queue tasks, which is why cycles are stolen from, and a preemption lands
// on, only the first reference of a walk: a due task ends the walk before
// it.
func (s *Sim) continueRange(p *procInfo, ev *comm.Event, done, until event.Cycle) bool {
	if s.preemptDue(p) || s.abortMsg.Load() != nil || !ev.Skip(1) {
		return false
	}
	ev.Time = done + ev.Issue
	if ev.Time >= until {
		return false
	}
	s.tick()
	if ev.Time > s.curTime {
		s.curTime = ev.Time
	}
	return true
}

// reference walks one memory reference of process p, issued at cycle t,
// through translation and the memory model, and returns its completion
// time; on a translation fault, t unchanged and the fault.
func (s *Sim) reference(p *procInfo, node int, t event.Cycle, va mem.VirtAddr, write, kernel bool) (event.Cycle, *mem.Fault) {
	pa, fault := s.spaceFor(p, kernel).Translate(va, write)
	if fault != nil {
		return t, fault
	}
	s.phys.Touch(pa.Frame(), node)
	t = s.model.Access(t, p.cpu, pa, write)
	if s.ecc != nil {
		t += event.Cycle(s.ecc.Sample())
	}
	return t, nil
}

func (s *Sim) handleRMW(p *procInfo, ev *comm.Event) {
	stolen := s.steal(p)
	t := ev.Time + stolen
	space := s.spaceFor(p, ev.Kernel)
	pa, fault := space.Translate(ev.Addr, true)
	if fault != nil {
		p.port.Reply(comm.Reply{Done: t, CPU: p.cpu, Stolen: stolen, Fault: fault})
		return
	}
	s.phys.Touch(pa.Frame(), s.NodeOf(p.cpu))
	size := int(ev.Size)
	if size == 0 {
		size = 4
	}
	old := s.phys.ReadUint(pa, size)
	switch ev.Op {
	case comm.RMWSwap:
		s.phys.WriteUint(pa, size, ev.Operand)
	case comm.RMWAdd:
		s.phys.WriteUint(pa, size, old+ev.Operand)
	case comm.RMWCAS:
		if old == ev.Expected {
			s.phys.WriteUint(pa, size, ev.Operand)
		}
	}
	t = s.model.Access(t, p.cpu, pa, true)
	if s.ecc != nil {
		t += event.Cycle(s.ecc.Sample())
	}
	s.rmws++
	r := comm.Reply{Done: t, CPU: p.cpu, Stolen: stolen, Value: old}
	if s.maybePreempt(p, r) {
		return
	}
	p.port.Reply(r)
}

func (s *Sim) handleCall(p *procInfo, ev *comm.Event) {
	stolen := s.steal(p)
	t := ev.Time + stolen + s.cfg.CallCycles
	s.curProcID = p.id
	s.curBlock = false
	result := ev.Call()
	s.curProcID = -1
	r := comm.Reply{Done: t, CPU: p.cpu, Stolen: stolen, Result: result}
	if s.curBlock {
		s.park(p, r, false)
		s.dispatch(t)
		// Delayed wake may already be pending (completion raced the block).
		if p.wakePend {
			p.wakePend = false
			if p.wakeTime > p.parked.Done {
				p.parked.Done = p.wakeTime
			}
			s.enqueueReady(p)
			s.dispatch(t)
		}
		return
	}
	if s.maybePreempt(p, r) {
		return
	}
	p.port.Reply(r)
}

func (s *Sim) handleYield(p *procInfo, ev *comm.Event) {
	stolen := s.steal(p)
	t := ev.Time + stolen
	if len(s.ready) == 0 {
		p.port.Reply(comm.Reply{Done: t, CPU: p.cpu, Stolen: stolen})
		return
	}
	s.counters.Inc("sched.yields", 1)
	s.park(p, comm.Reply{Done: t, Stolen: stolen}, true)
	s.dispatch(t)
}

func (s *Sim) handleBlock(p *procInfo, ev *comm.Event) {
	stolen := s.steal(p)
	t := ev.Time + stolen
	if p.wakePend {
		// The wakeup arrived before the block (§3.3.3's lost-wakeup case):
		// do not release the CPU at all.
		p.wakePend = false
		done := t
		if p.wakeTime > done {
			done = p.wakeTime
		}
		p.port.Reply(comm.Reply{Done: done, CPU: p.cpu, Stolen: stolen})
		return
	}
	s.counters.Inc("sched.blocks", 1)
	s.park(p, comm.Reply{Done: t, Stolen: stolen}, false)
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
	p.port.ReplyExit(comm.Reply{Done: t, CPU: -1})
	s.dispatch(t)
}

// BlockCurrent, called from within a KCall closure, makes the calling
// process block once the call returns; a later Wake (device completion,
// IPC) releases it. This is the §3.3.3 stub-pair: the call marks the
// process blocked and frees its processor.
func (s *Sim) BlockCurrent() {
	if s.curProcID < 0 {
		panic("core: BlockCurrent outside a KCall")
	}
	s.curBlock = true
}

// CurProc returns the id of the process whose KCall is being handled, or
// -1 (backend context).
func (s *Sim) CurProc() int { return s.curProcID }
