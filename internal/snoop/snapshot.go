package snoop

import (
	"fmt"

	"compass/internal/cache"
	"compass/internal/event"
)

// Snapshot is the serializable state of the snooping memory system.
type Snapshot struct {
	L1  []cache.Snapshot
	L2  []cache.Snapshot // empty when single-level
	Bus event.ResourceState

	Loads, Stores  uint64
	L1Hits, L2Hits uint64
	SnoopsSupplied uint64
	Invalidations  uint64
	MemReads       uint64
	MemWrites      uint64
}

// Snapshot captures all cache arrays, bus occupancy, and counters.
func (s *System) Snapshot() Snapshot {
	sn := Snapshot{
		Bus:            s.bus.State(),
		Loads:          s.loads,
		Stores:         s.stores,
		L1Hits:         s.l1Hits,
		L2Hits:         s.l2Hits,
		SnoopsSupplied: s.snoopsSupplied,
		Invalidations:  s.invalidations,
		MemReads:       s.memReads,
		MemWrites:      s.memWrites,
	}
	for _, c := range s.cpus {
		sn.L1 = append(sn.L1, c.l1.Snapshot())
		if c.l2 != nil {
			sn.L2 = append(sn.L2, c.l2.Snapshot())
		}
	}
	return sn
}

// Restore overwrites the system's state from a snapshot taken from a
// system of identical configuration.
func (s *System) Restore(sn Snapshot) error {
	if len(sn.L1) != len(s.cpus) {
		return fmt.Errorf("snoop: snapshot has %d CPUs, system has %d", len(sn.L1), len(s.cpus))
	}
	twoLevel := s.cpus[0].l2 != nil
	if twoLevel && len(sn.L2) != len(s.cpus) {
		return fmt.Errorf("snoop: snapshot has %d L2s, system has %d", len(sn.L2), len(s.cpus))
	}
	if !twoLevel && len(sn.L2) != 0 {
		return fmt.Errorf("snoop: snapshot has L2 state for a single-level system")
	}
	for i := range s.cpus {
		if err := s.cpus[i].l1.Restore(sn.L1[i]); err != nil {
			return err
		}
		if twoLevel {
			if err := s.cpus[i].l2.Restore(sn.L2[i]); err != nil {
				return err
			}
		}
	}
	s.rebuild()
	s.bus.SetState(sn.Bus)
	s.loads = sn.Loads
	s.stores = sn.Stores
	s.l1Hits = sn.L1Hits
	s.l2Hits = sn.L2Hits
	s.snoopsSupplied = sn.SnoopsSupplied
	s.invalidations = sn.Invalidations
	s.memReads = sn.MemReads
	s.memWrites = sn.MemWrites
	return nil
}
