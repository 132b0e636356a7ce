package core

import (
	"fmt"

	"compass/internal/comm"
	"compass/internal/event"
	"compass/internal/mem"
	"compass/internal/stats"
)

// This file is the category-2 process scheduler (§3.3.2): it maps simulated
// processes onto simulated processors. Processes beyond the CPU count wait
// on a ready queue; blocking OS calls free processors; the affinity policy
// prefers a processor (then a node) the process used before; the preemptive
// option interrupts processes at quantum boundaries.

func (s *Sim) enqueueReady(p *procInfo) {
	if p.inReady || p.exited {
		return
	}
	p.inReady = true
	s.ready = append(s.ready, p.id)
}

// pickReady chooses the ready-queue entry for a freed CPU per the policy
// and removes it from the queue. Returns nil when the queue is empty.
func (s *Sim) pickReady(cpu int) *procInfo {
	if len(s.ready) == 0 {
		return nil
	}
	idx := 0
	if s.cfg.Scheduler == SchedAffinity {
		node := s.NodeOf(cpu)
		best := -1
		bestRank := 3
		for i, pid := range s.ready {
			p := s.procs[pid]
			rank := 2
			switch {
			case p.lastCPU == cpu:
				rank = 0
			case p.lastCPU >= 0 && s.NodeOf(p.lastCPU) == node:
				rank = 1
			}
			if rank < bestRank {
				bestRank, best = rank, i
				if rank == 0 {
					break
				}
			}
		}
		if best >= 0 {
			idx = best
		}
	}
	pid := s.ready[idx]
	s.ready = append(s.ready[:idx], s.ready[idx+1:]...)
	p := s.procs[pid]
	p.inReady = false
	return p
}

// dispatch fills every free CPU from the ready queue at time now, releasing
// each dispatched process's parked reply with the context-switch cost.
func (s *Sim) dispatch(now event.Cycle) {
	for c := range s.cpus {
		if s.cpus[c].occupant >= 0 {
			continue
		}
		p := s.pickReady(c)
		if p == nil {
			return
		}
		s.place(p, c, now)
	}
}

// place puts process p on CPU c at time now and delivers its parked reply.
func (s *Sim) place(p *procInfo, c int, now event.Cycle) {
	s.cpus[c].occupant = p.id
	p.cpu = c
	migrated := p.lastCPU >= 0 && p.lastCPU != c
	p.lastCPU = c
	s.ctxSwitches++
	if migrated {
		s.counters.Inc("sched.migrations", 1)
	}

	r := p.port.Answer()
	*r = *p.parked
	p.parked = nil
	if now > r.Done {
		r.Done = now
	}
	r.Done += CtxSwitch
	r.Ctx = CtxSwitch
	r.CPU = c
	p.port.Deliver()
}

// release frees the CPU a process occupies (block, exit, preempt).
func (s *Sim) release(p *procInfo) {
	if p.cpu >= 0 {
		s.cpus[p.cpu].occupant = -1
		p.cpu = -1
	}
}

// park withholds reply r from p until the scheduler dispatches it again:
// the process gives up its CPU and joins the ready queue only when ready
// is true (woken processes are enqueued by Wake instead).
func (s *Sim) park(p *procInfo, r comm.Reply, ready bool) {
	p.parkedReply = r
	p.parked = &p.parkedReply
	p.port.SetState(comm.StateBlocked)
	s.release(p)
	if ready {
		s.enqueueReady(p)
	}
}

// Wake marks process pid runnable at cycle `at` (device completions, IPC
// wakeups; backend context). The process must be asleep: it blocked in the
// KCall that booked this wake-up (BlockCurrent, SleepCurrent), so the wake
// can only come after the block, and waking a process that is running,
// already woken or exited panics with its id.
func (s *Sim) Wake(pid int, at event.Cycle) {
	p := s.procs[pid]
	if p.parked == nil || p.inReady || p.exited {
		panic(fmt.Sprintf("core: wake of proc %d, which is not asleep", pid))
	}
	if at > p.parked.Done {
		p.parked.Done = at
	}
	s.enqueueReady(p)
	s.dispatch(at)
}

// scheduleQuantumTick arms the preemption timer: every quantum it flags any
// CPU whose occupant kept running through the whole quantum while others
// wait. The flag takes effect when the occupant's next event completes,
// which mirrors the paper's interrupt-bit check on the event-port return
// path (§3.2).
func (s *Sim) scheduleQuantumTick() {
	if s.quantumFn == nil {
		// Bound once: the same func value is rescheduled every quantum, so
		// re-arming allocates nothing.
		s.quantumFn = s.quantumTick
	}
	s.queue.At(s.queue.Now()+s.cfg.Quantum, "quantum", s.quantumFn)
}

func (s *Sim) quantumTick() {
	for c := range s.cpus {
		occ := s.cpus[c].occupant
		if occ >= 0 && occ == s.cpus[c].lastOccupant && len(s.ready) > 0 {
			s.cpus[c].preempt = true
		}
		s.cpus[c].lastOccupant = occ
	}
	s.scheduleQuantumTick()
}

// preempt parks p's reply r instead of delivering it, and hands p's CPU to
// the next ready process: the handler's last step when preemptDue.
func (s *Sim) preempt(p *procInfo, r *comm.Reply) {
	s.cpus[p.cpu].preempt = false
	s.preemptions++
	done := r.Done // r is the port's record: dispatch may answer p in it again
	s.park(p, *r, true)
	s.dispatch(done)
}

// preemptDue reports whether p's CPU is flagged for preemption with someone
// waiting for it.
func (s *Sim) preemptDue(p *procInfo) bool {
	c := p.cpu
	return c >= 0 && s.cpus[c].preempt && len(s.ready) > 0
}

// RaiseInterrupt delivers a device interrupt at cycle `at` (§3.2): the
// handler cost is stolen from whatever process next completes an event on
// the target CPU, or charged to the idle account when the CPU is free. The
// handler's own memory references go through the memory model so it
// pollutes that CPU's caches like real bottom-half code. When the target
// CPU has interrupts masked, delivery is deferred until EnableInterrupts
// (the CPU-states "interrupt enable" bit of §3.2).
func (s *Sim) RaiseInterrupt(cpu int, at event.Cycle, handlerCycles event.Cycle, touches []KernelTouch) {
	st := s.hub.CPU(cpu)
	if !st.Enabled {
		st.IRQ++
		// Deferral outlives the call, and device drivers reuse their touch
		// buffers across interrupts — copy on this (rare) path.
		var tc []KernelTouch
		if len(touches) > 0 {
			tc = append(tc, touches...)
		}
		s.cpus[cpu].deferred = append(s.cpus[cpu].deferred, deferredIntr{
			cycles: handlerCycles, touches: tc,
		})
		s.counters.Inc("intr.deferred", 1)
		return
	}
	s.deliverInterrupt(cpu, at, handlerCycles, touches)
}

// deliverInterrupt takes the handler's touches through the memory model and
// charges the handler to the CPU. A device's touches are lines of one ring
// page, so a page is translated once for reads and once for writes while the
// touches stay on it, as handleMem reuses a page: nothing between two touches
// can change the mapping, and a write has set the dirty bit a second one
// would set.
func (s *Sim) deliverInterrupt(cpu int, at event.Cycle, handlerCycles event.Cycle, touches []KernelTouch) {
	t := at
	var page struct {
		vpn         uint32
		frame       mem.PhysAddr
		read, write bool // translated for reads, for writes
	}
	for _, kt := range touches {
		if vpn := kt.Addr.VPN(); vpn != page.vpn {
			page.vpn, page.read, page.write = vpn, false, false
		}
		if kt.Write && !page.write || !kt.Write && !page.read {
			pa, fault := s.kernel.Translate(kt.Addr, kt.Write)
			if fault != nil {
				continue
			}
			page.frame = pa &^ mem.PageMask
			page.read, page.write = page.read || !kt.Write, page.write || kt.Write
		}
		t = s.model.Access(t, cpu, page.frame|mem.PhysAddr(kt.Addr.Offset()), kt.Write)
	}
	total := handlerCycles + (t - at)
	s.intrs++
	if s.cpus[cpu].occupant >= 0 {
		s.cpus[cpu].pendingSteal += total
	} else {
		s.idleIntr.Charge(stats.ModeInterrupt, uint64(total))
	}
}

// DisableInterrupts masks interrupt delivery on a CPU (backend context;
// kernel critical sections). Interrupts raised meanwhile set the IRQ
// pending count and deliver when re-enabled.
func (s *Sim) DisableInterrupts(cpu int) { s.hub.CPU(cpu).Enabled = false }

// EnableInterrupts unmasks a CPU and delivers everything that piled up.
func (s *Sim) EnableInterrupts(cpu int) {
	st := s.hub.CPU(cpu)
	st.Enabled = true
	st.IRQ = 0
	pend := s.cpus[cpu].deferred
	s.cpus[cpu].deferred = nil
	for _, d := range pend {
		s.deliverInterrupt(cpu, s.curTime, d.cycles, d.touches)
	}
}

type deferredIntr struct {
	cycles  event.Cycle
	touches []KernelTouch
}

// KernelTouch is one kernel-space memory reference performed by an
// interrupt handler (mbuf, buffer header, ...).
type KernelTouch struct {
	Addr  mem.VirtAddr
	Write bool
}
