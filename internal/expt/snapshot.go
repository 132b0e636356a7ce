package expt

import (
	"bytes"

	"compass/internal/checkpoint"
	"compass/internal/machine"
)

// Snapshot is a warm checkpoint held in memory and shared read-only by
// every worker: the warm phase is simulated once, encoded and decoded once,
// and each job builds its private machine from the same decoded snapshot.
// The encode and decode are kept so a restore sees exactly what a restore
// from a file sees (gob's normalisation of nil and empty values included).
// machine.Restore copies everything it keeps and writes nothing back, so no
// worker ever sees another worker's machine and concurrent restores are
// race-free (the race target runs them).
type Snapshot struct {
	snap     *machine.Snapshot
	size     int
	cycle    uint64
	sections map[string][]byte
}

// TakeSnapshot checkpoints a quiescent machine (plus host-side workload
// sections) into memory for fan-out.
func TakeSnapshot(m *machine.Machine, sections []checkpoint.Section) (*Snapshot, error) {
	var buf bytes.Buffer
	if err := checkpoint.SaveSections(&buf, m, sections); err != nil {
		return nil, err
	}
	size := buf.Len()
	snap, secs, err := checkpoint.Decode(&buf)
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		snap:     snap,
		size:     size,
		cycle:    uint64(m.Sim.CurTime()),
		sections: secs,
	}, nil
}

// Restore builds a private machine from the shared snapshot. Safe to call
// from any number of workers concurrently.
func (s *Snapshot) Restore() (*machine.Machine, error) {
	return machine.Restore(s.snap)
}

// Section returns a host-side workload section saved with the snapshot
// (nil if absent). The returned bytes are shared: treat as read-only.
func (s *Snapshot) Section(name string) []byte { return s.sections[name] }

// Size is the encoded snapshot length in bytes.
func (s *Snapshot) Size() int { return s.size }
