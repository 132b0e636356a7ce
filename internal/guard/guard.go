// Package guard is the host-side run-supervision layer: it wraps a
// simulation run with panic containment, a wall-clock progress watchdog,
// failure classification (panic / deadlock / watchdog / livelock), and
// crash-repro bundles.
//
// guard is deliberately OUTSIDE the compassvet sim-package set: the
// simulation itself must never read the host clock (detwallclock enforces
// that), but the supervisor's whole job is host-time budgeting — aborting a
// run whose dispatch gauge stalls for longer than a host budget. The
// division is strict: guard observes the engine only through atomics the
// engine exports for exactly this purpose (core.Sim.Progress, RequestAbort)
// and through the event queue's post-mortem dispatch ring, none of which
// affect simulation state. A guarded run that never trips is therefore
// byte-identical to an unguarded run — the determinism regression in the
// root package pins that.
package guard

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"compass/internal/event"
)

// Kind classifies a supervised failure.
type Kind int

const (
	// KindNone means no failure.
	KindNone Kind = iota
	// KindPanic is a contained workload/host panic.
	KindPanic
	// KindDeadlock is the engine's proved deadlock (nothing runnable,
	// nothing queued, processes remain).
	KindDeadlock
	// KindWatchdog is a host-side abort: the run exceeded its deadline or
	// its dispatch gauge stalled for longer than the stall budget.
	KindWatchdog
	// KindLivelock is a watchdog abort whose dispatch ring shows an ARQ
	// retransmit storm — the run was spinning, not sleeping.
	KindLivelock
	// KindQuarantine is a campaign point that exhausted its retries.
	KindQuarantine
)

// String names the kind (the structured one-line error's kind= token).
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindPanic:
		return "panic"
	case KindDeadlock:
		return "deadlock"
	case KindWatchdog:
		return "watchdog"
	case KindLivelock:
		return "livelock"
	case KindQuarantine:
		return "quarantine"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Abort is a classified supervised failure. It implements error; the
// supervised body's own (non-panic) errors pass through Session.Run
// unwrapped.
type Abort struct {
	// Kind classifies the failure.
	Kind Kind
	// Reason is the human-readable cause (panic value, deadlock detail,
	// watchdog message).
	Reason string
	// Cycle is the simulated time at failure, when the engine knew it.
	Cycle uint64
	// Stack is the supervised goroutine's stack at recovery time, after the
	// frames that raised the panic when those were on a process's coroutine.
	Stack []byte
	// Ring is the event queue's last-K dispatch trace, oldest first.
	Ring []event.DispatchRecord
	// Bundle is the crash-repro bundle directory, when one was written.
	Bundle string
}

func (a *Abort) Error() string {
	return fmt.Sprintf("guard: %s: %s", a.Kind, a.Reason)
}

// QuarantineError marks a campaign point that failed every retry. It wraps
// the final attempt's Abort.
type QuarantineError struct {
	// Label names the point (e.g. "seed9").
	Label string
	// Attempts is the total number of attempts made (1 + retries).
	Attempts int
	// Last is the final attempt's classified failure.
	Last *Abort
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("guard: quarantine: %s failed %d attempt(s): %s: %s",
		e.Label, e.Attempts, e.Last.Kind, e.Last.Reason)
}

// Unwrap exposes the final Abort to errors.As.
func (e *QuarantineError) Unwrap() error { return e.Last }

// Config tunes a supervision session. The zero value supervises nothing
// but still contains panics.
type Config struct {
	// Deadline is the whole-run host-time budget; 0 disables it.
	Deadline time.Duration
	// Stall aborts when the engine's dispatch gauge stops advancing for
	// this much host time; 0 disables stall detection.
	Stall time.Duration
	// BundleDir, when non-empty, receives a crash-repro bundle on abort.
	// The caller picks a unique directory per supervised attempt.
	BundleDir string
	// Spec describes the run for the bundle manifest, so `compassrun
	// -repro` can rebuild and replay it exactly.
	Spec RunSpec
	// Retries is how many times a failed campaign point re-runs (resuming
	// from its latest auto-checkpoint when the runner supports it) before
	// quarantine.
	Retries int
}

const (
	// poll is the watchdog's sampling period.
	poll = 10 * time.Millisecond
	// ringK sizes the post-mortem dispatch ring.
	ringK = 64
	// backoff is the host-side delay before a campaign point's first
	// retry. Host-side only: it never touches simulated time.
	backoff = 50 * time.Millisecond
)

// BackoffDelay is the host delay before retry attempt `attempt` (0-based):
// backoff << attempt, capped at 5s.
func BackoffDelay(attempt int) time.Duration {
	d := backoff
	for i := 0; i < attempt && d < 5*time.Second; i++ {
		d *= 2
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// LivelockSignature reports whether a dispatch ring is dominated (>= half)
// by ARQ retransmit-timer tasks — the give-up-storm fingerprint that
// distinguishes a livelocked run from a merely slow one. The oracle for
// this detector is the loadgen ARQ give-up exhaustion test in the root
// package.
func LivelockSignature(ring []event.DispatchRecord) bool {
	if len(ring) == 0 {
		return false
	}
	n := 0
	for _, r := range ring {
		if strings.HasPrefix(r.Label, "arq") {
			n++
		}
	}
	return 2*n >= len(ring)
}

// OneLine renders any supervised failure as the single structured line
// cmd/compassrun prints before exiting nonzero.
func OneLine(err error) string {
	var q *QuarantineError
	if errors.As(err, &q) {
		line := fmt.Sprintf("kind=quarantine point=%s attempts=%d last=%s reason=%q",
			q.Label, q.Attempts, q.Last.Kind, q.Last.Reason)
		if q.Last.Bundle != "" {
			line += " bundle=" + q.Last.Bundle
		}
		return line
	}
	var a *Abort
	if errors.As(err, &a) {
		line := fmt.Sprintf("kind=%s cycle=%d reason=%q", a.Kind, a.Cycle, a.Reason)
		if a.Bundle != "" {
			line += " bundle=" + a.Bundle
		}
		return line
	}
	return fmt.Sprintf("kind=error reason=%q", err)
}
