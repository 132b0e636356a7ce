package kernel

import "fmt"

// Snapshot is the kernel's serializable state. The arena base/cap and the
// lock page address are deterministic construction products; only the bump
// cursor and syscall counter move at run time. Wait queues and semaphore
// sleep lists are empty at a quiescent checkpoint.
type Snapshot struct {
	KmemOff  uint32
	Syscalls uint64
}

// Snapshot captures the allocator cursor and syscall count.
func (k *Kernel) Snapshot() Snapshot {
	return Snapshot{KmemOff: k.kmemOff, Syscalls: k.Syscalls.Load()}
}

// Restore overwrites the kernel's run-time state.
func (k *Kernel) Restore(s Snapshot) error {
	if s.KmemOff > k.kmemCap {
		return fmt.Errorf("kernel: snapshot kmem offset %d exceeds arena %d", s.KmemOff, k.kmemCap)
	}
	k.kmemOff = s.KmemOff
	k.Syscalls.Store(s.Syscalls)
	return nil
}

// QueueWaiters reports how many processes sleep on the semaphore's queue
// (quiesce check).
func (s *Semaphore) QueueWaiters() int { return len(s.q.waiters) }
