package guard

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"time"

	"compass/internal/core"
)

// Session supervises one run attempt: it watches the attached engine's
// progress gauge from a host-side goroutine, contains the supervised
// body's panics, classifies failures, and writes crash-repro bundles.
//
// Sessions attach to engines through machine.Config.Observe (the facade's
// run driver sets it, and invokes it for every machine it builds or
// restores), so one session may see several machines over an attempt. The
// watchdog always watches the most recently attached engine.
type Session struct {
	cfg Config
	sim atomic.Pointer[core.Sim]
}

// NewSession builds a session from cfg.
func NewSession(cfg Config) *Session { return &Session{cfg: cfg} }

// Attach points the watchdog at an engine and arms its post-mortem
// dispatch ring. Call before the engine runs (machine.Config.Observe does).
func (s *Session) Attach(sim *core.Sim) {
	sim.EnableDispatchTrace(ringK)
	s.sim.Store(sim)
}

// Run executes body under supervision. A body that returns normally passes
// its error (usually nil) through untouched — and if the watchdog never
// tripped, the run's results are byte-identical to an unguarded run. A
// panic (workload bug, engine deadlock, watchdog abort) is contained,
// classified into an *Abort, bundled when BundleDir is set, and returned
// as the error. label names the attempt in bundles.
func (s *Session) Run(label string, body func() error) error {
	stop := make(chan struct{})
	done := make(chan struct{})
	go s.watch(stop, done)

	var abort *Abort
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				abort = s.classify(r, debug.Stack())
				err = abort
			}
		}()
		return body()
	}()
	close(stop)
	<-done

	if abort != nil && s.cfg.BundleDir != "" {
		path, werr := WriteBundle(s.cfg.BundleDir, Manifest{
			Spec:   s.cfg.Spec,
			Label:  label,
			Kind:   abort.Kind.String(),
			Reason: abort.Reason,
			Cycle:  abort.Cycle,
		}, abort.Stack, abort.Ring)
		if werr != nil {
			abort.Reason += fmt.Sprintf(" (bundle write failed: %v)", werr)
		} else {
			abort.Bundle = path
		}
	}
	return err
}

// classify turns a recovered panic value into a typed Abort. The engine's
// own typed panics map directly; a watchdog abort whose dispatch ring is
// dominated by ARQ retransmit timers upgrades to livelock. Reading the
// ring here is race-free: classify runs on the goroutine the backend loop
// just unwound from. A panic a handler raised on a process's coroutine
// reached that goroutine without its frames (core.Sim.PanicStack): they go
// ahead of the stack it was recovered on.
func (s *Session) classify(rec any, stack []byte) *Abort {
	a := &Abort{Stack: stack}
	if sim := s.sim.Load(); sim != nil {
		a.Ring = sim.RecentDispatches()
		if raised := sim.PanicStack(); raised != nil {
			a.Stack = slices.Concat(raised, []byte("\nrecovered on:\n"), stack)
		}
	}
	switch v := rec.(type) {
	case *core.AbortError:
		a.Cycle = v.Cycle
		a.Reason = v.Reason
		if LivelockSignature(a.Ring) {
			a.Kind = KindLivelock
			a.Reason += " (dispatch ring dominated by ARQ retransmits)"
		} else {
			a.Kind = KindWatchdog
		}
	case *core.DeadlockError:
		a.Kind = KindDeadlock
		a.Cycle = v.Cycle
		a.Reason = v.Error()
	case error:
		a.Kind = KindPanic
		a.Reason = v.Error()
	default:
		a.Kind = KindPanic
		a.Reason = fmt.Sprint(v)
	}
	return a
}

// watch is the supervisor goroutine: it samples the attached engine's
// progress gauge every poll period and requests an abort when the deadline
// passes or the gauge stalls for the stall budget. It exits when the
// supervised body finishes (stop closes) or after requesting one abort.
func (s *Session) watch(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	if s.cfg.Deadline <= 0 && s.cfg.Stall <= 0 {
		<-stop
		return
	}
	tick := time.NewTicker(poll)
	defer tick.Stop()
	start := time.Now()
	var last uint64
	lastChange := start
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		sim := s.sim.Load()
		if sim == nil {
			// Nothing attached yet (setup code running): the stall clock
			// starts at first attach, but the deadline still binds once an
			// engine exists to abort.
			lastChange = time.Now()
			continue
		}
		now := time.Now()
		if s.cfg.Deadline > 0 && now.Sub(start) > s.cfg.Deadline {
			sim.RequestAbort(fmt.Sprintf("watchdog: host deadline %s exceeded", s.cfg.Deadline))
			<-stop
			return
		}
		if p := sim.Progress(); p != last {
			last = p
			lastChange = now
			continue
		}
		if s.cfg.Stall > 0 && now.Sub(lastChange) > s.cfg.Stall {
			sim.RequestAbort(fmt.Sprintf("watchdog: dispatch gauge stalled at %d for %s", last, s.cfg.Stall))
			<-stop
			return
		}
	}
}
