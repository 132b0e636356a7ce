package osserver

import (
	"fmt"
	"slices"
	"sort"

	"compass/internal/kernel"
)

// SemSnap is one System-V-style semaphore: key and current count. Sleep
// queues are empty at a quiescent checkpoint.
type SemSnap struct {
	Key   int
	Count int
}

// SyscallSnap is one syscall-profile row: the kernel cycles and call count
// accumulated (across all threads) before the checkpoint.
type SyscallSnap struct {
	Name   string
	Cycles uint64
	Calls  uint64
}

// Snapshot is the OS server's serializable bookkeeping, key/name-sorted.
// Per-thread fd tables die with their processes; the merged syscall profile
// is carried as a baseline so post-restore profiles match uninterrupted
// runs.
type Snapshot struct {
	Paired     int
	PeakPaired int
	Sems       []SemSnap
	Profile    []SyscallSnap
}

// Snapshot captures pairing counts, semaphores, and the merged profile. It
// returns an error when a semaphore still has sleepers (not quiescent).
func (s *Server) Snapshot() (Snapshot, error) {
	sn := Snapshot{Paired: s.paired, PeakPaired: s.peakPaired}
	//det:ordered sn.Sems is sorted by Key below
	for key, sem := range s.sems {
		if sem.QueueWaiters() != 0 {
			return Snapshot{}, fmt.Errorf("osserver: semaphore %d has %d sleepers", key, sem.QueueWaiters())
		}
		sn.Sems = append(sn.Sems, SemSnap{Key: key, Count: sem.Count()})
	}
	sort.Slice(sn.Sems, func(i, j int) bool { return sn.Sems[i].Key < sn.Sems[j].Key })
	cycles, calls := s.SyscallProfile()
	//det:ordered sn.Profile is sorted by Name below
	for name, c := range cycles {
		sn.Profile = append(sn.Profile, SyscallSnap{Name: name, Cycles: c, Calls: calls[name]})
	}
	sort.Slice(sn.Profile, func(i, j int) bool { return sn.Profile[i].Name < sn.Profile[j].Name })
	return sn, nil
}

// Restore overwrites the server's bookkeeping. The restored profile is
// injected as a synthetic pre-merged thread so SyscallProfile keeps its
// merge-over-threads shape. A profile row for a system call this server
// does not have is an error.
func (s *Server) Restore(sn Snapshot) error {
	s.paired = sn.Paired
	s.peakPaired = sn.PeakPaired
	s.sems = make(map[int]*kernel.Semaphore, len(sn.Sems))
	for _, ss := range sn.Sems {
		s.sems[ss.Key] = s.K.NewSemaphore(ss.Count)
	}
	if len(sn.Profile) > 0 {
		base := &OSThread{srv: s}
		for _, row := range sn.Profile {
			call := slices.Index(sysNames[:], row.Name)
			if call < 0 {
				return fmt.Errorf("osserver: snapshot profiles unknown system call %q", row.Name)
			}
			base.sysCycles[call] = row.Cycles
			base.sysCalls[call] = row.Calls
		}
		s.threads = append(s.threads, base)
	}
	return nil
}
