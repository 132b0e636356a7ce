package core

import (
	"fmt"

	"compass/internal/comm"
	"compass/internal/event"
	"compass/internal/frontend"
	"compass/internal/stats"
)

// This file is the checkpoint side of the backend: serializing the
// scheduler, clock, and per-process accounting of a *quiescent* simulation.
// Goroutine stacks cannot be serialized in Go, so a checkpoint is only legal
// once Run has returned — every non-daemon process has exited, no CPU is
// occupied, and the only queued tasks are re-armable daemon timers. Restore
// rebuilds the bookkeeping on a freshly constructed Sim and installs
// tombstone processes so new spawns continue from the same process ids and
// aggregate accounts match the uninterrupted run.

// CounterSnap is one named backend counter.
type CounterSnap struct {
	Name  string
	Value uint64
}

// CPUSnap is one simulated CPU's serializable state: the scheduler cell and
// the communicator CPU-states cell. At quiescence no process occupies the
// CPU and no interrupt is deferred, so only accounting fields remain.
type CPUSnap struct {
	PendingSteal event.Cycle
	LastOccupant int
	IRQ          uint32
	Enabled      bool
	StolenUntil  event.Cycle
}

// ProcSnap is one exited process: its name, daemon flag, and per-mode cycle
// account. Restore turns each into a tombstone (an exited placeholder), so
// process ids keep incrementing from where the checkpoint left off and
// TotalAccount still sums the pre-checkpoint cycles.
type ProcSnap struct {
	Name    string
	Daemon  bool
	Account []uint64
}

// SimState is the backend's serializable state.
type SimState struct {
	CurTime event.Cycle
	Queue   event.QueueState

	CtxSwitches uint64
	Preemptions uint64
	Counters    []CounterSnap
	IdleIntr    []uint64

	CPUs  []CPUSnap
	Procs []ProcSnap
}

// SetQueueState overwrites the event queue's clock/seq/dispatched state.
// Restore orchestration calls it LAST, after daemon timers have re-armed,
// so the re-arms do not perturb the tie-break sequence shared with the
// uninterrupted run (see event.QueueState).
func (s *Sim) SetQueueState(st event.QueueState) { s.queue.SetState(st) }

// Quiesced reports with an explanatory error whether the simulation is at a
// checkpointable point: Run has returned, every process has exited, no CPU
// is occupied or holds deferred interrupts, and interrupts are enabled
// everywhere.
func (s *Sim) Quiesced() error {
	if s.live-s.daemons != 0 || s.queue.KeepAlive() != 0 {
		return fmt.Errorf("core: not quiescent: %d live processes, %d non-daemon tasks",
			s.live-s.daemons, s.queue.KeepAlive())
	}
	for _, p := range s.procs {
		if !p.exited {
			return fmt.Errorf("core: not quiescent: process %d %q still live (state %v)",
				p.id, p.name, p.port.State())
		}
	}
	for i := range s.cpus {
		if s.cpus[i].occupant >= 0 {
			return fmt.Errorf("core: not quiescent: CPU %d occupied by process %d", i, s.cpus[i].occupant)
		}
		if len(s.cpus[i].deferred) > 0 {
			return fmt.Errorf("core: not quiescent: CPU %d has %d deferred interrupts", i, len(s.cpus[i].deferred))
		}
		if !s.hub.CPU(i).Enabled {
			return fmt.Errorf("core: not quiescent: CPU %d has interrupts masked", i)
		}
	}
	if len(s.ready) != 0 {
		return fmt.Errorf("core: not quiescent: %d processes on the ready queue", len(s.ready))
	}
	return nil
}

// Snapshot captures the backend's state. It fails unless the simulation is
// quiescent (see Quiesced).
func (s *Sim) Snapshot() (SimState, error) {
	if err := s.Quiesced(); err != nil {
		return SimState{}, err
	}
	st := SimState{
		CurTime:     s.curTime,
		Queue:       s.queue.State(),
		CtxSwitches: s.ctxSwitches,
		Preemptions: s.preemptions,
		IdleIntr:    s.idleIntr.Snapshot(),
	}
	own := s.ownCounters()
	for _, name := range own.Names() {
		st.Counters = append(st.Counters, CounterSnap{Name: name, Value: own.Get(name)})
	}
	for i := range s.cpus {
		c := s.hub.CPU(i)
		st.CPUs = append(st.CPUs, CPUSnap{
			PendingSteal: s.cpus[i].pendingSteal,
			LastOccupant: s.cpus[i].lastOccupant,
			IRQ:          c.IRQ,
			Enabled:      c.Enabled,
			StolenUntil:  c.StolenUntil,
		})
	}
	for _, p := range s.procs {
		st.Procs = append(st.Procs, ProcSnap{
			Name:    p.name,
			Daemon:  p.daemon,
			Account: p.proc.Account().Snapshot(),
		})
	}
	return st, nil
}

// ownCounters returns the backend's own named counters: the map plus
// sync.rmw and intr.delivered, which handleRMW and deliverInterrupt count in
// fields. A name appears only once its count is nonzero, as it did when it
// lived in the map. Restore puts a saved set back in the map whole, and the
// fields count on from zero.
func (s *Sim) ownCounters() *stats.Counters {
	var c stats.Counters
	c.Add(&s.counters)
	if s.rmws > 0 {
		c.Inc("sync.rmw", s.rmws)
	}
	if s.intrs > 0 {
		c.Inc("intr.delivered", s.intrs)
	}
	return &c
}

// Restore rebuilds the backend's bookkeeping on a freshly constructed Sim.
// It must run before any new process is spawned: the saved processes become
// tombstones occupying their original slots, so the next Spawn gets the
// next id in sequence exactly as it would have in the uninterrupted run.
//
// Restore empties the event queue of the timers construction armed; the
// caller re-arms daemon timers (which consult CurTime, set here) and then
// calls SetQueueState with the saved Queue state, in that order.
func (s *Sim) Restore(st SimState) error {
	if len(st.CPUs) != len(s.cpus) {
		return fmt.Errorf("core: snapshot has %d CPUs, machine has %d", len(st.CPUs), len(s.cpus))
	}
	if len(s.procs) != 0 {
		return fmt.Errorf("core: restore onto a machine that already spawned %d processes", len(s.procs))
	}
	s.queue.Clear()
	s.curTime = st.CurTime
	s.ctxSwitches = st.CtxSwitches
	s.preemptions = st.Preemptions
	s.idleIntr.RestoreSnapshot(st.IdleIntr)
	for _, c := range st.Counters {
		s.counters.Inc(c.Name, c.Value)
	}
	for i, cs := range st.CPUs {
		s.cpus[i].pendingSteal = cs.PendingSteal
		s.cpus[i].lastOccupant = cs.LastOccupant
		s.cpus[i].occupant = -1
		s.cpus[i].preempt = false
		s.cpus[i].deferred = nil
		hc := s.hub.CPU(i)
		hc.IRQ = cs.IRQ
		hc.Enabled = cs.Enabled
		hc.StolenUntil = cs.StolenUntil
	}
	for _, ps := range st.Procs {
		port := s.hub.NewPort(comm.StateExited)
		proc := frontend.Tombstone(port.ID(), ps.Name, ps.Account)
		s.procs = append(s.procs, &procInfo{
			id: port.ID(), name: ps.Name, port: port, proc: proc,
			cpu: -1, lastCPU: -1, exited: true, daemon: ps.Daemon,
		})
	}
	return nil
}
