// Package frontend implements the instrumented application runtime — the
// Go equivalent of the code COMPASS's instrumentor injects into each
// frontend process (§2).
//
// A Proc is one simulated process. Its Compute method plays the role of the
// basic-block timing code (static per-instruction estimates, 100% I-cache
// hits); Load/Store/RMW fill the event record and block on the event port
// exactly like the paper's inserted IPC subroutine; the ON/OFF switch (§5)
// disables event generation for uninteresting code; and the mode stack
// attributes every cycle to user, kernel or interrupt time for the Table-1
// profiles.
package frontend

import (
	"fmt"

	"compass/internal/comm"
	"compass/internal/event"
	"compass/internal/isa"
	"compass/internal/mem"
	"compass/internal/stats"
)

// Proc is the frontend side of one simulated process. It is used by exactly
// one goroutine (the simulated process itself).
type Proc struct {
	id     int
	name   string
	port   *comm.Port
	timing isa.Timing

	// time is the process-local execution clock (the paper's accumulated
	// "execution time" value). It is mirrored into the port on every
	// publish/post.
	time event.Cycle

	// account attributes cycles to user/kernel/interrupt mode. Owned by
	// the frontend; read by reporters after the simulation ends.
	account stats.TimeAccount
	modes   []stats.Mode

	cpu int
	on  bool // simulation ON/OFF switch

	// batching (interleave-granularity ablation): references per event.
	batchSize int
	batch     []comm.BatchRef

	// OS is the per-process handle installed by the OS server when the
	// process connects (the paper's paired OS thread).
	OS any

	faultHandler FaultHandler
	exited       bool
	hostWork     float64 // hostSpin iterations per simulated cycle (SetHostWork)
	sink         uint64  // hostSpin accumulator (defeats dead-code elimination)
}

// New wraps a communicator port in a Proc. Called by the backend's Spawn.
func New(id int, name string, port *comm.Port, timing isa.Timing) *Proc {
	return &Proc{
		id:        id,
		name:      name,
		port:      port,
		timing:    timing,
		modes:     []stats.Mode{stats.ModeUser},
		on:        true,
		batchSize: 1,
	}
}

// ID returns the simulated process id.
func (p *Proc) ID() int { return p.id }

// Name returns the process name (for reports).
func (p *Proc) Name() string { return p.name }

// Now returns the process-local execution time in cycles.
func (p *Proc) Now() event.Cycle { return p.time }

// CPU returns the simulated CPU the process last ran on.
func (p *Proc) CPU() int { return p.cpu }

// Account exposes the time account (read it only after the run finishes).
func (p *Proc) Account() *stats.TimeAccount { return &p.account }

// Mode returns the current execution mode.
func (p *Proc) Mode() stats.Mode { return p.modes[len(p.modes)-1] }

// PushMode enters an execution mode (syscall entry pushes ModeKernel,
// interrupt delivery pushes ModeInterrupt).
func (p *Proc) PushMode(m stats.Mode) { p.modes = append(p.modes, m) }

// PopMode leaves the current mode.
func (p *Proc) PopMode() {
	if len(p.modes) == 1 {
		panic("frontend: mode stack underflow")
	}
	p.modes = p.modes[:len(p.modes)-1]
}

// SetInstrumentation flips the paper's simulation ON/OFF switch. While off,
// memory references are not sent to the backend; each advances local time
// by its issue cycles alone.
func (p *Proc) SetInstrumentation(on bool) {
	if !on {
		p.flushBatch()
	}
	p.on = on
}

// SetBatch sets how many memory references are batched into one event port
// message (1 = per-reference interleaving; larger values approximate the
// paper's basic-block granularity with fewer rendezvous).
func (p *Proc) SetBatch(n int) {
	if n < 1 {
		n = 1
	}
	p.flushBatch()
	p.batchSize = n
}

// Compute charges a basic block's worth of non-memory instructions and
// publishes the new execution time so the backend's smallest-time rule can
// make progress past this process.
func (p *Proc) Compute(mix isa.InstrMix) {
	p.ComputeCycles(mix.Cycles(&p.timing))
}

// SetHostWork makes Compute perform real host work proportional to the
// simulated cycles (iterations per simulated cycle). In the real COMPASS
// the frontend executes the application's instructions natively between
// events; this knob restores that property for the Table 2/3 slowdown
// measurements, where the "raw" baseline is exactly this native execution.
// Zero (the default) keeps tests fast. The backend sets it at spawn
// (core.Sim.SetHostWork); simulated results do not depend on it.
func (p *Proc) SetHostWork(f float64) { p.hostWork = f }

// ComputeCycles charges raw cycles to the current mode.
func (p *Proc) ComputeCycles(n uint64) {
	if n == 0 {
		return
	}
	p.time += event.Cycle(n)
	p.account.Charge(p.Mode(), n)
	if p.hostWork > 0 {
		p.hostSpin(uint64(float64(n) * p.hostWork))
	}
	p.port.Publish(p.time)
}

// hostSpin burns host CPU outside any lock (the "native execution" of the
// instrumented application between events).
func (p *Proc) hostSpin(iters uint64) {
	s := p.sink
	for i := uint64(0); i < iters; i++ {
		s = s*6364136223846793005 + 1442695040888963407
	}
	p.sink = s
}

// Load simulates a read of size bytes at va in the process address space.
func (p *Proc) Load(va mem.VirtAddr, size int) {
	p.refs(&comm.Event{Addr: va, Size: uint8(size)})
}

// Store simulates a write of size bytes at va.
func (p *Proc) Store(va mem.VirtAddr, size int) {
	p.refs(&comm.Event{Addr: va, Size: uint8(size), Write: true})
}

// RangeStride is the distance between the references of a range (TouchRange,
// TouchStepped): one 32-byte cache line.
const RangeStride = comm.RangeStride

// TouchRange issues line-granular references over [va, va+n): the memory
// traffic of a block copy or buffer scan, at 32-byte granularity.
func (p *Proc) TouchRange(va mem.VirtAddr, n int, write bool) {
	p.touchRange(va, n, write, false, nil)
}

// KTouchRange is TouchRange in the kernel address space.
func (p *Proc) KTouchRange(va mem.VirtAddr, n int, write bool) {
	p.touchRange(va, n, write, true, nil)
}

// touchRange posts the range [va, va+n), with the step that follows each of
// its references if it has one (TouchStepped).
func (p *Proc) touchRange(va mem.VirtAddr, n int, write, kernel bool, step func() event.Cycle) {
	if n <= 0 {
		return
	}
	first := min(n, RangeStride)
	p.refs(&comm.Event{
		Addr: va, Size: uint8(first), Run: uint32(n - first), Write: write, Kernel: kernel, Step: step,
	})
}

// TouchStepped is the loop
//
//	for each 32-byte line of [va, va+n) {
//		TouchRange(line, 32, write)
//		ComputeCycles(step())
//	}
//
// — a scan that reads a line, computes on what it held and reads the next —
// posted as one range event that carries step (comm.Event.Step has the
// contract: step does the host-visible work of one iteration and returns the
// cycles it stands for; it is called once per line, in order, and makes no
// Proc calls). The backend serves a line, calls step where this process
// would, and goes on to the next line for as long as that is what it would be
// handed next anyway; simulated time, the counters and the time account come
// out as from the loop. One event spans at most 4 GB (comm.Event.Run).
//
// With the instrumentation off, under SetBatch > 1 or with host work set —
// where an iteration is more than its post — it is the loop.
func (p *Proc) TouchStepped(va mem.VirtAddr, n int, write bool, step func() event.Cycle) {
	if !p.on || p.batchSize > 1 || p.hostWork > 0 {
		for ; n > 0; va, n = va+RangeStride, n-RangeStride {
			p.touchRange(va, min(n, RangeStride), write, false, nil)
			p.ComputeCycles(uint64(step()))
		}
		return
	}
	p.touchRange(va, n, write, false, step)
}

// CyclesOf prices an instruction mix on this process's timing table: what
// Compute(mix) would charge. A loop that charges the same mixes over and over
// (a step of TouchStepped) prices them once.
func (p *Proc) CyclesOf(mix isa.InstrMix) uint64 { return mix.Cycles(&p.timing) }

// refs issues the references of ev — Size bytes at Addr, then Run more at
// line stride — each one an issue cycle after the one before it completed.
// A single load or store is the range of length one. The range goes to the
// backend as one event; the reply says how many references it served, and
// whatever is left (another process or a queue task was due first, or a
// reference faulted) is posted again, issue cycle first, exactly as if
// every reference had been posted by itself.
func (p *Proc) refs(ev *comm.Event) {
	ev.Kind = comm.KMem
	ev.Issue = event.Cycle(p.timing.Cycles(isa.OpLoadIssue))
	for more := true; more; {
		p.time += ev.Issue
		p.account.Charge(p.Mode(), uint64(ev.Issue))
		done := uint32(1)
		switch {
		case !p.on:
			// Off: the reference costs its issue cycles alone.
		case p.batchSize > 1:
			p.batch = append(p.batch, comm.BatchRef{
				Addr: ev.Addr, Size: ev.Size, Write: ev.Write, Kernel: ev.Kernel,
			})
			if len(p.batch) >= p.batchSize {
				p.flushBatchRefs()
			}
		default:
			done += p.memEvent(ev)
		}
		more = ev.Skip(done)
	}
}

// flushBatch sends any buffered references before a synchronizing action.
func (p *Proc) flushBatch() {
	if len(p.batch) > 0 {
		p.flushBatchRefs()
	}
}

// flushBatchRefs posts the buffered references as one event. The post is
// synchronous, so the event borrows the buffer instead of copying it — but
// it must own it until the post returns: a fault sends the frontend through
// the trap path and then posts the same event again, and a fault handler
// that references under SetBatch > 1 meanwhile starts a buffer of its own
// (which then is the one kept).
func (p *Proc) flushBatchRefs() {
	refs := p.batch
	p.batch = nil
	first := refs[0]
	p.memEvent(&comm.Event{
		Kind: comm.KMem, Addr: first.Addr, Size: first.Size,
		Write: first.Write, Kernel: first.Kernel,
		Batch: refs[1:],
	})
	if p.batch == nil {
		p.batch = refs[:0]
	}
}

// memEvent posts a memory event, retrying through the trap path on faults,
// and returns how many references past the first the backend served. The
// port's record is filled from ev before every post: the trap path posts
// through the same record. The step of the last reference served, when the
// backend has left it (comm.Reply.StepDue), is taken here.
func (p *Proc) memEvent(ev *comm.Event) uint32 {
	for {
		rec := p.port.Record()
		*rec = *ev
		rec.Time = p.time
		r := p.post(rec)
		if r.Fault == nil {
			if r.StepDue {
				p.ComputeCycles(uint64(ev.Step())) // no post: r stands
			}
			return r.Served
		}
		p.trap(r.Fault)
	}
}

// trap takes the precise trap of a reference that failed translation (§3.2):
// the faulting reference itself enters the kernel and resolves the fault, and
// the caller retries it.
func (p *Proc) trap(f *mem.Fault) {
	if p.faultHandler == nil {
		panic(fmt.Sprintf("frontend: proc %d: unhandled %v", p.id, f))
	}
	p.PushMode(stats.ModeKernel)
	p.faultHandler(p, f)
	p.PopMode()
}

// FaultHandler resolves a page fault in kernel mode; it runs on the
// faulting process's goroutine, exactly like the paper's pseudo-interrupt
// path into the paired OS thread.
type FaultHandler func(p *Proc, f *mem.Fault)

// SetFaultHandler installs the VM fault handler (OS server setup).
func (p *Proc) SetFaultHandler(h FaultHandler) { p.faultHandler = h }

// RMW performs an atomic read-modify-write on simulated memory and returns
// the previous word value. It is the synchronization-instruction hook; the
// functional update happens in the backend, in global timestamp order,
// which is what makes simulated locks deterministic.
func (p *Proc) RMW(va mem.VirtAddr, size int, op comm.RMWOp, operand, expected uint64, kernel bool) uint64 {
	p.flushBatch()
	p.syncIssue()
	for {
		rec := p.event(comm.KRMW)
		rec.Addr, rec.Size, rec.Write, rec.Kernel = va, uint8(size), true, kernel
		rec.Op, rec.Operand, rec.Expected = op, operand, expected
		r := p.post(rec)
		if r.Fault == nil {
			return r.Value
		}
		// The handler stopped short of memory: the instruction traps and is
		// retried, as a load or a store is.
		p.trap(r.Fault)
	}
}

// syncIssue charges the issue of a synchronization instruction and returns
// its cycles.
func (p *Proc) syncIssue() uint64 {
	sync := p.timing.Cycles(isa.OpSync)
	p.time += event.Cycle(sync)
	p.account.Charge(p.Mode(), sync)
	return sync
}

// Spin takes the lock-poll loop
//
//	for {
//		for RMW(va, 4, comm.RMWCAS, 1, 0, kernel) != 0 { back off }
//		if ready() { return }
//		RMW(va, 4, comm.RMWSwap, 0, 0, kernel); ComputeCycles(pause); Yield()
//	}
//
// from the CAS at the top of an iteration as far as one event does, and
// returns where that is (comm.SpinStop): the caller — simsync.SpinLock.LockWhen
// is the one there is — goes on from that step with the posts the loop is
// written in, and calls Spin again for the next iteration's CAS. The event
// is the whole loop: the backend serves the CAS as it serves any RMW, and
// then step after step, calling ready itself (comm.Event.Ready has the
// contract), for as long as each step is what it would be handed next
// anyway were the steps posted one by one. Simulated time, the counters and
// the time account come out as from those posts.
//
// With the instrumentation off, under SetBatch > 1 or with host work set —
// where a step is more than its post: the pause is host work too, a yield
// flushes a batch — the event is not used, and Spin is the one CAS.
func (p *Proc) Spin(va mem.VirtAddr, kernel bool, pause uint32, ready func() bool) comm.SpinStop {
	if !p.on || p.batchSize > 1 || p.hostWork > 0 {
		if p.RMW(va, 4, comm.RMWCAS, 1, 0, kernel) != 0 {
			return comm.SpinHeld
		}
		return comm.SpinAcquired
	}
	sync := p.syncIssue()
	for {
		rec := p.event(comm.KSpin)
		rec.Addr, rec.Size, rec.Write, rec.Kernel = va, 4, true, kernel
		rec.Op, rec.Operand, rec.Expected = comm.RMWCAS, 1, 0
		rec.Issue, rec.Pause, rec.Ready = event.Cycle(sync), pause, ready
		r := p.post(rec)
		if r.Fault == nil {
			return r.Stop
		}
		p.trap(r.Fault)
	}
}

// Call runs fn in backend context (category-2 OS work: VM, scheduler,
// devices) and returns its result. cost is the instruction-path length
// charged to the current mode.
func (p *Proc) Call(cost uint64, fn func() any) any {
	p.flushBatch()
	if cost > 0 {
		p.time += event.Cycle(cost)
		p.account.Charge(p.Mode(), cost)
	}
	rec := p.event(comm.KCall)
	rec.Call = fn
	return p.post(rec).Result
}

// Yield releases the CPU (sched_yield).
func (p *Proc) Yield() {
	p.flushBatch()
	p.post(p.event(comm.KYield))
}

// Exit terminates the simulated process. It must be the last Proc call.
func (p *Proc) Exit() {
	p.flushBatch()
	p.exited = true
	p.post(p.event(comm.KExit))
}

// event starts an event of the given kind at the process's current time in
// the port's record, for the caller to complete and post.
func (p *Proc) event(kind comm.Kind) *comm.Event {
	rec := p.port.Record()
	rec.Kind, rec.Time = kind, p.time
	return rec
}

// post sends the event the caller has filled into the port's record and
// applies the reply to local state: the new execution time, CPU migration,
// and latency attribution. Cycles stolen by device interrupt handlers are
// charged to interrupt mode; context-switch cycles to kernel mode; wait time
// (blocking) is not charged at all, which matches Table 1's "total CPU time
// excludes wait time due to disk IO". The reply is the port's record too,
// good until the next post: callers take what they need of it at once.
func (p *Proc) post(rec *comm.Event) *comm.Reply {
	// Read before posting: a range walk moves the record along.
	sent, kind := rec.Time, rec.Kind
	r := p.port.Send()
	if r.Done < sent {
		panic(fmt.Sprintf("frontend: time moved backward %d -> %d", sent, r.Done))
	}
	elapsed := uint64(r.Done - sent)
	switch {
	case r.Ctx > 0:
		// The event lost the CPU (blocking call, yield with waiters, or
		// preemption): the off-CPU wait is NOT CPU time — Table 1's total
		// "excludes wait time due to disk IO". Charge the context switch
		// to kernel mode and any handler theft to interrupt mode.
		p.account.Charge(stats.ModeKernel, uint64(r.Ctx))
		if r.Stolen > 0 {
			p.account.Charge(stats.ModeInterrupt, uint64(r.Stolen))
		}
	case kind == comm.KMem || kind == comm.KRMW || kind == comm.KSpin || kind == comm.KCall:
		// A spin event's cycles are its RMWs' and the issues and pauses
		// between them, all this mode's; the yields in it took none.
		busy := elapsed - min(elapsed, uint64(r.Stolen))
		p.account.Charge(p.Mode(), busy)
		if r.Stolen > 0 {
			p.account.Charge(stats.ModeInterrupt, uint64(r.Stolen))
		}
	}
	p.time = r.Done
	p.cpu = r.CPU
	return r
}

// Start applies the initial dispatch reply (backend spawn handshake).
func (p *Proc) Start(r comm.Reply) {
	p.time = r.Done
	p.cpu = r.CPU
}

// Exited reports whether Exit has been called.
func (p *Proc) Exited() bool { return p.exited }

// Tombstone builds an already-exited placeholder Proc carrying a restored
// time account. The checkpoint subsystem installs tombstones for processes
// that had exited by save time, preserving process-id continuity (new
// spawns continue from the same id) and per-process cycle baselines, so
// aggregate reports match the uninterrupted run. A tombstone has no
// goroutine and never posts events.
func Tombstone(id int, name string, cycles []uint64) *Proc {
	p := &Proc{
		id:    id,
		name:  name,
		modes: []stats.Mode{stats.ModeUser},
		on:    true,
	}
	p.exited = true
	p.account.RestoreSnapshot(cycles)
	return p
}
