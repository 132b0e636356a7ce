// Package simsync provides synchronization primitives built from simulated
// atomic read-modify-write instructions — the "synchronization
// instruction" events the paper's instrumentor hooks alongside memory
// references (§2).
//
// Because the functional RMW happens in the backend in global timestamp
// order, lock ownership sequences are deterministic; and because a lock
// word lives in simulated (shared or kernel) memory, contention shows up
// in the caches and interconnect of the simulated target exactly like a
// real spinlock.
package simsync

import (
	"compass/internal/comm"
	"compass/internal/frontend"
	"compass/internal/mem"
)

// SpinLock is a test-and-set lock with exponential backoff. The word at
// Addr must be a zero-initialized 4-byte word in simulated memory.
type SpinLock struct {
	Addr   mem.VirtAddr
	Kernel bool // word lives in the kernel address space
}

// Lock acquires the lock, spinning with exponential backoff. Each attempt
// is a simulated synchronization instruction, so contention costs simulated
// cycles and coherence traffic. After a bounded spin the waiter yields its
// processor (spin-then-yield): the holder may be blocked in the kernel and
// need a CPU, and the process scheduler is not preemptive by default
// (§3.3.2).
func (l *SpinLock) Lock(p *frontend.Proc) {
	if !l.TryLock(p) {
		l.contended(p)
	}
}

// contended is Lock after a first attempt that found the lock held.
func (l *SpinLock) contended(p *frontend.Proc) {
	backoff := uint64(8)
	for attempts := 1; ; attempts++ {
		p.ComputeCycles(backoff)
		if backoff < 4096 {
			backoff *= 2
		}
		if attempts%8 == 0 {
			p.Yield()
		}
		if l.TryLock(p) {
			return
		}
	}
}

// LockWhen acquires the lock with the condition ready true under it: it is
//
//	for {
//		l.Lock(p)
//		if ready() {
//			return
//		}
//		l.Unlock(p)
//		p.ComputeCycles(uint64(pause))
//		p.Yield()
//	}
//
// posted as one event an iteration or, where nothing comes between them,
// many iterations (frontend.Proc.Spin): the backend runs the loop for the
// process, ready included, until a step of it is no longer what it would
// handle next, and the switch below takes the loop on from that step by
// the ordinary posts. The simulation cannot tell the two ways apart. ready
// may only read host state that the lock guards: it must not call into p,
// allocate or block, and runs in backend context (comm.Event.Ready). It is a
// pure read of state that only other processes and queue tasks change — it
// counts nothing and looks at no clock — so that, asked again while nobody
// else has run, it answers the same: the backend asks once per walk and
// accounts the iterations nothing can change without taking them, and a
// wait with nobody left to end it is reported as the deadlock it is.
func (l *SpinLock) LockWhen(p *frontend.Proc, pause uint32, ready func() bool) {
	for {
		switch p.Spin(l.Addr, l.Kernel, pause, ready) {
		case comm.SpinReady:
			return
		case comm.SpinHeld:
			l.contended(p)
			fallthrough
		case comm.SpinAcquired:
			if ready() {
				return
			}
			fallthrough
		case comm.SpinSwapNext:
			l.Unlock(p)
			fallthrough
		case comm.SpinPauseNext:
			p.ComputeCycles(uint64(pause))
			p.Yield()
		case comm.SpinCASNext:
		}
	}
}

// TryLock attempts a single acquisition.
func (l *SpinLock) TryLock(p *frontend.Proc) bool {
	return p.RMW(l.Addr, 4, comm.RMWCAS, 1, 0, l.Kernel) == 0
}

// Unlock releases the lock.
func (l *SpinLock) Unlock(p *frontend.Proc) {
	p.RMW(l.Addr, 4, comm.RMWSwap, 0, 0, l.Kernel)
}

// Barrier is a sense-reversing counter barrier over two simulated words:
// an arrival counter at Addr and a generation word at Addr+4. N is the
// number of participants.
type Barrier struct {
	Addr   mem.VirtAddr
	Kernel bool
	N      uint64
}

// Wait blocks (spinning in simulated time) until all N participants have
// arrived.
func (b *Barrier) Wait(p *frontend.Proc) {
	gen := p.RMW(b.Addr+4, 4, comm.RMWAdd, 0, 0, b.Kernel) // atomic load
	arrived := p.RMW(b.Addr, 4, comm.RMWAdd, 1, 0, b.Kernel) + 1
	if arrived == b.N {
		// Last arrival: reset the counter and advance the generation.
		p.RMW(b.Addr, 4, comm.RMWSwap, 0, 0, b.Kernel)
		p.RMW(b.Addr+4, 4, comm.RMWAdd, 1, 0, b.Kernel)
		return
	}
	backoff := uint64(16)
	attempts := 0
	for p.RMW(b.Addr+4, 4, comm.RMWAdd, 0, 0, b.Kernel) == gen {
		p.ComputeCycles(backoff)
		if backoff < 8192 {
			backoff *= 2
		}
		attempts++
		if attempts%8 == 0 {
			p.Yield()
		}
	}
}

// Counter is a simulated atomic counter (statistics cells in shared
// segments, ticket dispensers).
type Counter struct {
	Addr   mem.VirtAddr
	Kernel bool
}

// Add atomically adds delta and returns the previous value.
func (c *Counter) Add(p *frontend.Proc, delta uint64) uint64 {
	return p.RMW(c.Addr, 4, comm.RMWAdd, delta, 0, c.Kernel)
}

// Load atomically reads the counter.
func (c *Counter) Load(p *frontend.Proc) uint64 {
	return p.RMW(c.Addr, 4, comm.RMWAdd, 0, 0, c.Kernel)
}
