package core

import (
	"fmt"

	"compass/internal/event"
)

// AbortError is the panic value Run raises when a host-side supervisor
// (internal/guard's watchdog) requested an abort via RequestAbort. It is a
// typed value so the supervisor can classify the failure without string
// matching.
type AbortError struct {
	// Reason is the supervisor's abort message (deadline exceeded, progress
	// stall, ...).
	Reason string
	// Cycle is the simulated time at which the backend honored the request.
	Cycle uint64
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("core: run aborted at cycle %d: %s", e.Cycle, e.Reason)
}

// DeadlockError is the panic value Run raises when the engine proves the
// simulation can never advance: nothing runnable, nothing posted, the event
// queue empty, yet non-daemon processes remain.
type DeadlockError struct {
	// Detail describes the stuck processes (describeStuck output).
	Detail string
	// Cycle is the simulated time at which the deadlock was detected.
	Cycle uint64
}

func (e *DeadlockError) Error() string {
	return "core: deadlock — " + e.Detail
}

// Progress returns a monotone host-visible activity gauge: it advances with
// backend loop iterations and events served in place (which together
// include every event dispatch), and
// stops advancing exactly when the simulation stops making progress. Safe to
// read from any goroutine while Run executes; the watchdog compares
// successive reads to detect stalls.
func (s *Sim) Progress() uint64 { return s.progress.Load() + s.eng.Progress() }

// RequestAbort asks a running backend to abandon the simulation: the Run
// loop panics with *AbortError at its next iteration (a process whose
// events are being served in place is sent back to the loop by its next
// post). Safe to call from any goroutine. A sleeping backend is woken (Signal without the lock is legal,
// as in Port.Publish); frontend goroutines blocked on their ports are NOT
// unwound — an aborted run leaks them, which the supervising process
// tolerates because aborted runs are terminal per process or per worker.
func (s *Sim) RequestAbort(reason string) {
	r := reason
	s.abortMsg.Store(&r)
	s.hub.WakeBackend()
}

// EnableDispatchTrace arms the event queue's last-k dispatch ring (see
// event.Queue.EnableTrace). Call before Run; read with RecentDispatches
// after Run returned or panicked.
func (s *Sim) EnableDispatchTrace(k int) { s.queue.EnableTrace(k) }

// RecentDispatches returns the dispatch ring's contents, oldest first.
// Call only when the backend loop is not executing.
func (s *Sim) RecentDispatches() []event.DispatchRecord {
	return s.queue.RecentDispatches()
}

// PanicStack returns the stack of the frames that raised the panic Run last
// left with, when a handler raised it serving an event in place, on the
// posting process's coroutine (a KCall closure, a spin event's condition, a
// range's step, the memory model): Run's own stack then names only the
// communicator that carried the value over (comm.Hub.RaisedAt). Nil for a
// panic raised on Run's goroutine, whose stack says it all. Call only when
// the backend loop is not executing.
func (s *Sim) PanicStack() []byte { return s.hub.RaisedAt() }
