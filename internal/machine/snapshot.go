package machine

import (
	"errors"
	"fmt"

	"compass/internal/coma"
	"compass/internal/core"
	"compass/internal/dev"
	"compass/internal/directory"
	"compass/internal/fault"
	"compass/internal/fs"
	"compass/internal/kernel"
	"compass/internal/mem"
	"compass/internal/memsys"
	"compass/internal/netstack"
	"compass/internal/osserver"
	"compass/internal/snoop"
)

// ErrNotCheckpointable marks configurations whose runtime state cannot be
// serialized: preemptive scheduling keeps a self-re-arming quantum task with
// phase state in the queue, and the syncd flush daemon is a live goroutine
// blocked inside the simulation. Wrap-checks with errors.Is.
var ErrNotCheckpointable = errors.New("machine: configuration not checkpointable")

// Snapshot is the complete serializable state of a quiescent machine, one
// field per subsystem. Exactly one of the model fields (Snoop, Dir, Coma,
// FixedAccesses) is non-nil, matching Cfg.Arch.
type Snapshot struct {
	Cfg Config

	Sim    core.SimState
	Phys   mem.PhysSnapshot
	KSpace mem.SpaceSnapshot
	Shm    mem.ShmSnapshot
	Kernel kernel.Snapshot

	FS   fs.Snapshot
	Net  netstack.Snapshot
	Disk dev.DiskSnap
	NIC  dev.NICSnap
	RTC  *dev.RTCSnap
	OS   osserver.Snapshot

	Snoop         *snoop.Snapshot
	Dir           *directory.Snapshot
	Coma          *coma.Snapshot
	FixedAccesses *uint64

	// Fault-plan state, present only when the matching layer is enabled
	// (the PRNG draw counters must survive a restore for the resumed run
	// to replay the same fault sequence).
	DiskInj *fault.DiskInjSnap
	NetInj  *fault.NetInjSnap
	ECC     *mem.ECCSnap
}

// Checkpoint captures the machine's state. The machine must be quiescent:
// Run has returned, so every non-daemon process has exited and the event
// queue has drained to re-armable daemon timers only. Each subsystem
// verifies its own quiescence (no in-flight disk I/O, no open connections,
// no semaphore sleepers) and the whole call fails if any check trips.
func (m *Machine) Checkpoint() (*Snapshot, error) {
	if m.Cfg.Preemptive {
		return nil, fmt.Errorf("%w: preemptive scheduling", ErrNotCheckpointable)
	}
	if m.Cfg.SyncdInterval > 0 {
		return nil, fmt.Errorf("%w: syncd daemon running", ErrNotCheckpointable)
	}
	if err := m.Sim.Quiesced(); err != nil {
		return nil, err
	}
	s := &Snapshot{Cfg: m.Cfg}
	// The shard count is a host-side performance knob: a sharded run's
	// state is byte-identical to serial, so snapshots must be too, and a
	// restore may pick any shard count it likes.
	s.Cfg.Shards = 0
	var err error
	if s.Sim, err = m.Sim.Snapshot(); err != nil {
		return nil, err
	}
	s.Phys = m.Sim.Phys().Snapshot()
	s.KSpace = m.Sim.KernelSpace().Snapshot()
	s.Shm = m.Sim.Shm().Snapshot()
	s.Kernel = m.K.Snapshot()
	if s.FS, err = m.FS.Snapshot(); err != nil {
		return nil, err
	}
	if s.Net, err = m.Net.Snapshot(); err != nil {
		return nil, err
	}
	if s.Disk, err = m.Disk.Snapshot(); err != nil {
		return nil, err
	}
	s.NIC = m.NIC.Snapshot()
	if m.RTC != nil {
		rs := m.RTC.Snapshot()
		s.RTC = &rs
	}
	if s.OS, err = m.OS.Snapshot(); err != nil {
		return nil, err
	}
	switch model := m.Sim.Model().(type) {
	case *snoop.System:
		ms := model.Snapshot()
		s.Snoop = &ms
	case *directory.System:
		ms := model.Snapshot()
		s.Dir = &ms
	case *coma.System:
		ms := model.Snapshot()
		s.Coma = &ms
	case *memsys.Fixed:
		acc := model.Accesses
		s.FixedAccesses = &acc
	default:
		return nil, fmt.Errorf("machine: model %q has no snapshot support", m.Sim.Model().Name())
	}
	if inj := m.Disk.Injector(); inj != nil {
		is := inj.Snapshot()
		s.DiskInj = &is
	}
	if inj := m.NIC.Injector(); inj != nil {
		is := inj.Snapshot()
		s.NetInj = &is
	}
	if ecc := m.Sim.ECC(); ecc != nil {
		es := ecc.Snapshot()
		s.ECC = &es
	}
	return s, nil
}

// Restore assembles a fresh machine from the snapshot's configuration and
// overlays the saved state. The restored machine is ready for new Spawn
// calls; resuming and running K more cycles produces bit-identical stats to
// the uninterrupted run.
//
// The ordering below is load-bearing for determinism. Construction arms the
// RTC timer with scheduler sequence number 0; Sim.Restore sets the clock
// and empties the queue of that arm; RTC.Restore then re-arms at the
// absolute next-tick cycle (consuming one more sequence number); finally
// SetQueueState overwrites the sequence counter with the saved value so
// every task scheduled after the restore point gets exactly the sequence
// number it would have had in the uninterrupted run — heap tie-breaks, and
// therefore the whole event interleaving, stay identical.
func Restore(s *Snapshot) (*Machine, error) {
	cfg := s.Cfg
	if cfg.Preemptive {
		return nil, fmt.Errorf("%w: preemptive scheduling", ErrNotCheckpointable)
	}
	if cfg.SyncdInterval > 0 {
		return nil, fmt.Errorf("%w: syncd daemon running", ErrNotCheckpointable)
	}
	m := New(cfg)
	if err := m.Sim.Restore(s.Sim); err != nil {
		return nil, err
	}
	if err := m.Sim.Phys().Restore(s.Phys); err != nil {
		return nil, err
	}
	m.Sim.KernelSpace().Restore(s.KSpace)
	m.Sim.Shm().Restore(s.Shm)
	if err := m.K.Restore(s.Kernel); err != nil {
		return nil, err
	}
	if err := m.FS.Restore(s.FS); err != nil {
		return nil, err
	}
	m.Net.Restore(s.Net)
	if err := m.Disk.Restore(s.Disk); err != nil {
		return nil, err
	}
	m.NIC.Restore(s.NIC)
	if err := m.OS.Restore(s.OS); err != nil {
		return nil, err
	}
	switch model := m.Sim.Model().(type) {
	case *snoop.System:
		if s.Snoop == nil {
			return nil, fmt.Errorf("machine: snapshot missing snoop model state")
		}
		if err := model.Restore(*s.Snoop); err != nil {
			return nil, err
		}
	case *directory.System:
		if s.Dir == nil {
			return nil, fmt.Errorf("machine: snapshot missing directory model state")
		}
		if err := model.Restore(*s.Dir); err != nil {
			return nil, err
		}
	case *coma.System:
		if s.Coma == nil {
			return nil, fmt.Errorf("machine: snapshot missing coma model state")
		}
		if err := model.Restore(*s.Coma); err != nil {
			return nil, err
		}
	case *memsys.Fixed:
		if s.FixedAccesses == nil {
			return nil, fmt.Errorf("machine: snapshot missing fixed model state")
		}
		model.Accesses = *s.FixedAccesses
	default:
		return nil, fmt.Errorf("machine: model %q has no snapshot support", m.Sim.Model().Name())
	}
	if m.RTC != nil {
		if s.RTC == nil {
			return nil, fmt.Errorf("machine: snapshot missing RTC state")
		}
		if err := m.RTC.Restore(*s.RTC); err != nil {
			return nil, err
		}
	} else if s.RTC != nil {
		return nil, fmt.Errorf("machine: snapshot has RTC state but config disables it")
	}
	if inj := m.Disk.Injector(); inj != nil {
		if s.DiskInj == nil {
			return nil, fmt.Errorf("machine: snapshot missing disk fault state")
		}
		inj.Restore(*s.DiskInj)
	}
	if inj := m.NIC.Injector(); inj != nil {
		if s.NetInj == nil {
			return nil, fmt.Errorf("machine: snapshot missing net fault state")
		}
		inj.Restore(*s.NetInj)
	}
	if ecc := m.Sim.ECC(); ecc != nil {
		if s.ECC == nil {
			return nil, fmt.Errorf("machine: snapshot missing ECC sampler state")
		}
		ecc.Restore(*s.ECC)
	}
	m.Sim.SetQueueState(s.Sim.Queue)
	return m, nil
}
