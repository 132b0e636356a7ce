package core

import (
	"fmt"

	"compass/internal/mem"
)

// This file is the category-2 virtual-memory manager (§3.3.1): shared
// memory descriptors (shmget/shmat/shmdt), heap growth, file-backed
// regions, and page-fault resolution. Every function here runs in backend
// context — frontends reach them through KCall events, which is exactly
// the paper's split ("the category 2 functions are modeled in the backend
// process ... their effect on the memory reference behavior of the
// application processes is modeled accurately").

// ProcSpace returns the address space of process pid (backend context).
func (s *Sim) ProcSpace(pid int) *mem.Space { return s.procs[pid].space }

// Sbrk grows process pid's heap by size bytes and returns the base of the
// new region (backend context).
func (s *Sim) Sbrk(pid int, size uint32) (mem.VirtAddr, error) {
	return s.procs[pid].space.Sbrk(size)
}

// KernelSbrk grows the shared kernel address space (backend context; also
// used at setup time to lay out kernel data structures).
func (s *Sim) KernelSbrk(size uint32) (mem.VirtAddr, error) {
	return s.kernel.Sbrk(size)
}

// ShmGet implements shmget (backend context): it returns the descriptor id
// of the segment with the given key, creating it if needed. "This common
// shared memory descriptor links the Shared Memory Flag argument in shmget
// to a unique descriptor ... common to all processes."
func (s *Sim) ShmGet(key int, size uint32, create bool) (int, error) {
	seg, err := s.shm.Get(key, size, create)
	if err != nil {
		return -1, err
	}
	s.counters.Inc("vm.shmget", 1)
	return seg.ID, nil
}

// ShmAttach implements shmat for process pid (backend context): "page
// table entries are created in the page table model of the calling
// process".
func (s *Sim) ShmAttach(pid, segID int) (mem.VirtAddr, error) {
	va, err := s.shm.Attach(s.procs[pid].space, segID)
	if err == nil {
		s.counters.Inc("vm.shmat", 1)
	}
	return va, err
}

// ShmDetach implements shmdt (backend context).
func (s *Sim) ShmDetach(pid int, base mem.VirtAddr) error {
	return s.shm.Detach(s.procs[pid].space, base)
}

// MapFileRegion installs a lazy file-backed mmap region in pid's space
// (backend context). Faults are resolved by the OS server's fault handler,
// which pages blocks in through the buffer cache.
func (s *Sim) MapFileRegion(pid int, size uint32, fileID int, fileOff int64, prot mem.Prot) (mem.VirtAddr, error) {
	sp := s.procs[pid].space
	base, err := sp.ReserveRegion(size)
	if err != nil {
		return 0, err
	}
	sp.MapFile(base, size, fileID, fileOff, prot)
	s.counters.Inc("vm.mmap", 1)
	return base, nil
}

// UnmapRegion removes an mmap region and returns the PTEs that were backed
// by frames, so the caller can write dirty pages back (msync/munmap).
func (s *Sim) UnmapRegion(pid int, base mem.VirtAddr, size uint32) []mem.PTE {
	s.counters.Inc("vm.munmap", 1)
	return s.procs[pid].space.UnmapRegion(base, size)
}

// ResolvePresentFault attaches a fresh zeroed frame to the faulted lazy
// page of process pid (backend context) and returns the frame. The caller
// (OS server) is responsible for having filled the page's contents via the
// buffer cache when the region is file-backed.
func (s *Sim) ResolvePresentFault(pid int, f *mem.Fault) (uint64, error) {
	pte := s.procs[pid].space.Lookup(f.Addr)
	if pte == nil {
		return 0, fmt.Errorf("core: fault on unmapped page %#x", uint32(f.Addr))
	}
	if pte.Present {
		return pte.Frame, nil // another process's fault handler won the race
	}
	frame, err := s.phys.AllocFrame()
	if err != nil {
		return 0, err
	}
	pte.Frame = frame
	pte.Present = true
	s.counters.Inc("vm.pagein", 1)
	return frame, nil
}
