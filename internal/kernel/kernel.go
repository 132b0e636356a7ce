// Package kernel is the substrate shared by every simulated OS service:
// the kernel address space allocator, syscall entry/exit accounting,
// sleep/wakeup queues, and counting semaphores. It corresponds to the
// paper's OS-server runtime (§3.1): all OS threads share one kernel
// address space, and kernel code is instrumented exactly like application
// code, so its memory references reach the backend and are charged as OS
// time.
package kernel

import (
	"fmt"
	"sync/atomic"

	"compass/internal/core"
	"compass/internal/frontend"
	"compass/internal/mem"
	"compass/internal/simsync"
	"compass/internal/stats"
)

// The trap costs are late-90s AIX-flavoured.
const (
	// EntryCycles is the syscall trap-in cost (mode switch, save state).
	EntryCycles uint64 = 250
	// ExitCycles is the trap-out cost.
	ExitCycles uint64 = 150
)

// Kernel is the shared kernel context.
type Kernel struct {
	Sim *core.Sim //ckpt:skip backend wiring, re-created by New

	// kmem is a bump allocator over the kernel address space. It is
	// guarded by kmemLock (a simulated spinlock), so allocation order is
	// deterministic.
	kmemBase mem.VirtAddr //ckpt:skip fixed kernel-layout address assigned at construction
	kmemOff  uint32
	kmemCap  uint32
	kmemLock simsync.SpinLock //ckpt:skip lock word lives in simulated memory, restored with the kernel space

	// Syscalls counts system calls entered. Atomic because with threaded
	// ports (machine.Config.SpinPorts) processes enter the kernel from
	// goroutines of their own.
	Syscalls atomic.Uint64
}

// New creates the kernel and carves out an arena of arenaBytes for kernel
// dynamic allocation (mbufs, buffer heads, sockets). Setup context.
func New(sim *core.Sim, arenaBytes uint32) *Kernel {
	lockPage, err := sim.KernelSbrk(mem.PageSize)
	if err != nil {
		panic(fmt.Sprintf("kernel: lock page: %v", err))
	}
	arena, err := sim.KernelSbrk(arenaBytes)
	if err != nil {
		panic(fmt.Sprintf("kernel: arena: %v", err))
	}
	return &Kernel{
		Sim:      sim,
		kmemBase: arena,
		kmemCap:  arenaBytes,
		kmemLock: simsync.SpinLock{Addr: lockPage, Kernel: true},
	}
}

// Enter begins a system call on process p: kernel mode plus trap cost.
func (k *Kernel) Enter(p *frontend.Proc) {
	p.PushMode(stats.ModeKernel)
	p.ComputeCycles(EntryCycles)
	k.Syscalls.Add(1)
}

// Exit ends a system call.
func (k *Kernel) Exit(p *frontend.Proc) {
	p.ComputeCycles(ExitCycles)
	p.PopMode()
}

// KmemAlloc allocates size bytes of kernel virtual memory (kernel context,
// any process's goroutine). The returned address is used for instrumented
// kernel touches; allocation never frees (arena style), which is fine for
// the steady-state object pools (mbufs, buffers) the services use.
func (k *Kernel) KmemAlloc(p *frontend.Proc, size uint32) mem.VirtAddr {
	k.kmemLock.Lock(p)
	defer k.kmemLock.Unlock(p)
	size = (size + 63) &^ 63 // line-align
	if k.kmemOff+size > k.kmemCap {
		panic(fmt.Sprintf("kernel: kmem arena exhausted (%d + %d > %d)", k.kmemOff, size, k.kmemCap))
	}
	va := k.kmemBase + mem.VirtAddr(k.kmemOff)
	k.kmemOff += size
	return va
}

// SetupLock allocates a kernel spinlock at setup time (before Run), when
// no process context exists yet.
func (k *Kernel) SetupLock() *simsync.SpinLock {
	size := uint32(64)
	if k.kmemOff+size > k.kmemCap {
		panic("kernel: kmem arena exhausted at setup")
	}
	va := k.kmemBase + mem.VirtAddr(k.kmemOff)
	k.kmemOff += size
	return &simsync.SpinLock{Addr: va, Kernel: true}
}

// SetupAlloc is KmemAlloc for setup time.
func (k *Kernel) SetupAlloc(size uint32) mem.VirtAddr {
	size = (size + 63) &^ 63
	if k.kmemOff+size > k.kmemCap {
		panic("kernel: kmem arena exhausted at setup")
	}
	va := k.kmemBase + mem.VirtAddr(k.kmemOff)
	k.kmemOff += size
	return va
}

// WaitQueue is a kernel sleep queue. Its waiter list is touched only in
// backend context (through Call / tasks), so sleep and wakeup order is
// deterministic.
type WaitQueue struct {
	k       *Kernel
	waiters []int
}

// NewWaitQueue creates a queue.
func (k *Kernel) NewWaitQueue() *WaitQueue {
	w := k.MakeWaitQueue()
	return &w
}

// MakeWaitQueue returns an empty queue by value, for a record that holds its
// queue in place of a pointer to one.
func (k *Kernel) MakeWaitQueue() WaitQueue { return WaitQueue{k: k} }

// Sleep registers the process whose call is being served as a sleeper and
// blocks it once the call returns (§3.3.3). Call it from inside that
// backend call: the check and the sleep are one call, so no wakeup can fall
// between them; the sleeper re-checks its condition once it runs again.
func (w *WaitQueue) Sleep() {
	w.waiters = append(w.waiters, w.k.Sim.CallerID())
	w.k.Sim.BlockCurrent()
}

// WakeAllBackend wakes every sleeper (backend context: device completions,
// or inside another Call).
func (w *WaitQueue) WakeAllBackend() {
	sim := w.k.Sim
	for _, pid := range w.waiters {
		sim.Wake(pid, sim.CurTime())
	}
	w.waiters = w.waiters[:0]
}

// WakeOneBackend wakes the longest sleeper, if any (backend context).
func (w *WaitQueue) WakeOneBackend() bool {
	if len(w.waiters) == 0 {
		return false
	}
	pid := w.waiters[0]
	w.waiters = w.waiters[1:]
	w.k.Sim.Wake(pid, w.k.Sim.CurTime())
	return true
}

// Semaphore is a counting semaphore whose state lives in backend context;
// P may block, V wakes FIFO. It backs the blocking IPC the database lock
// manager uses.
type Semaphore struct {
	count int
	q     *WaitQueue
	// pFn and vFn are P's and V's backend bodies, bound when the semaphore
	// is made; pFn's sleep (WaitQueue.Sleep) learns whom it puts to sleep
	// from Sim.CallerID.
	pFn, vFn func() any
}

// NewSemaphore creates a semaphore with an initial count (setup or kernel
// context).
func (k *Kernel) NewSemaphore(initial int) *Semaphore {
	s := &Semaphore{count: initial, q: k.NewWaitQueue()}
	s.pFn, s.vFn = s.take, s.post
	return s
}

// P decrements the semaphore, blocking while it is zero.
func (s *Semaphore) P(p *frontend.Proc) {
	// Woken: loop and retry (another process may have taken the count).
	for !p.Call(40, s.pFn).(bool) {
	}
}

// take is P's backend body: it takes a count and reports true, or puts the
// caller to sleep on the queue and reports false.
func (s *Semaphore) take() any {
	if s.count > 0 {
		s.count--
		return true
	}
	s.q.Sleep()
	return false
}

// V increments the semaphore and wakes one waiter.
func (s *Semaphore) V(p *frontend.Proc) { p.Call(40, s.vFn) }

// post is V's backend body.
func (s *Semaphore) post() any {
	s.count++
	s.q.WakeOneBackend()
	return nil
}

// Count returns the current count (backend context / after run).
func (s *Semaphore) Count() int { return s.count }
