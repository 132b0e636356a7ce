package guard

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"compass/internal/core"
	"compass/internal/event"
	"compass/internal/frontend"
	"compass/internal/mem"
	"compass/internal/simsync"
)

// A body that returns normally passes its error through untouched and
// produces no Abort.
func TestSessionPassthrough(t *testing.T) {
	s := NewSession(Config{})
	if err := s.Run("ok", func() error { return nil }); err != nil {
		t.Fatalf("clean body errored: %v", err)
	}
	sentinel := errors.New("body error")
	if err := s.Run("err", func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("body error not passed through: %v", err)
	}
}

// A panicking body is contained and classified as KindPanic with the stack
// captured.
func TestSessionContainsPanic(t *testing.T) {
	s := NewSession(Config{})
	err := s.Run("boom", func() error { panic("kaboom") })
	var a *Abort
	if !errors.As(err, &a) {
		t.Fatalf("err = %T %v, want *Abort", err, err)
	}
	if a.Kind != KindPanic || a.Reason != "kaboom" {
		t.Fatalf("abort = %s %q", a.Kind, a.Reason)
	}
	if len(a.Stack) == 0 {
		t.Fatal("no stack captured")
	}
}

// A lone process polling a latch for a flag nobody is left to clear is a
// deadlock the engine proves from inside the poller's walk (core.Sim's
// handleSpin), not a spin the watchdog has to shoot: the session classifies it
// as one, at once, naming the poller.
func TestLonePollerNobodyToWakeIsDeadlock(t *testing.T) {
	sess := NewSession(Config{Deadline: time.Minute})
	start := time.Now()
	err := sess.Run("poller", func() error {
		sim := core.New(core.DefaultConfig())
		sess.Attach(sim)
		sim.Spawn("waiter", func(p *frontend.Proc) {
			base := p.Call(50, func() any {
				va, err := sim.Sbrk(p.ID(), mem.PageSize)
				if err != nil {
					panic(err)
				}
				return va
			}).(mem.VirtAddr)
			lock := simsync.SpinLock{Addr: base}
			lock.LockWhen(p, 400, func() bool { return false })
		})
		sim.Run()
		return nil
	})
	var a *Abort
	if !errors.As(err, &a) || a.Kind != KindDeadlock {
		t.Fatalf("got %v, want a contained deadlock", err)
	}
	if !strings.Contains(a.Reason, `"waiter"`) {
		t.Errorf("the reason does not name the poller: %q", a.Reason)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("classified after %v: the watchdog's business, not a proof", took)
	}
}

// The livelock signature fires only when ARQ retransmit tasks dominate.
func TestLivelockSignature(t *testing.T) {
	mk := func(labels ...string) []event.DispatchRecord {
		out := make([]event.DispatchRecord, len(labels))
		for i, l := range labels {
			out[i] = event.DispatchRecord{When: event.Cycle(i), Label: l}
		}
		return out
	}
	if LivelockSignature(nil) {
		t.Fatal("empty ring flagged")
	}
	if LivelockSignature(mk("disk-complete", "rtc-tick", "eth-rx", "arq-rto")) {
		t.Fatal("1/4 arq flagged")
	}
	if !LivelockSignature(mk("arq-rto", "arq-rto", "eth-tx-intr", "arq-rto")) {
		t.Fatal("3/4 arq not flagged")
	}
}

// Backoff doubles per attempt and caps at 5s.
func TestBackoffDelay(t *testing.T) {
	if d := BackoffDelay(0); d != 50*time.Millisecond {
		t.Fatalf("first retry = %v", d)
	}
	if d := BackoffDelay(3); d != 400*time.Millisecond {
		t.Fatalf("attempt 3 = %v", d)
	}
	if d := BackoffDelay(20); d != 5*time.Second {
		t.Fatalf("cap = %v", d)
	}
}

// Bundles round-trip: manifest, stack and ring tail.
func TestBundleRoundTrip(t *testing.T) {
	bdir := filepath.Join(t.TempDir(), "bundle")
	spec := RunSpec{Workload: "tpcc", CPUs: 2, Arch: "simple", Seed: 9, Agents: 2, Tx: 4, RTC: true}
	ring := []event.DispatchRecord{{When: 100, Label: "arq-rto"}, {When: 140, Label: "eth-rx"}}
	path, err := WriteBundle(bdir, Manifest{
		Spec: spec, Label: "seed9", Kind: "panic", Reason: "kaboom", Cycle: 12345,
	}, []byte("stack trace"), ring)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Spec != spec || m.Kind != "panic" || m.Cycle != 12345 || m.Label != "seed9" {
		t.Fatalf("manifest round-trip mismatch: %+v", m)
	}
	if st, err := os.ReadFile(filepath.Join(path, "stack.txt")); err != nil || string(st) != "stack trace" {
		t.Fatalf("stack.txt: %q, %v", st, err)
	}
	ev, err := os.ReadFile(filepath.Join(path, "events.txt"))
	if err != nil || !strings.Contains(string(ev), "100 arq-rto") {
		t.Fatalf("events.txt: %q, %v", ev, err)
	}
}

// The structured one-liner renders kinds, cycles and bundles for each
// failure shape.
func TestOneLine(t *testing.T) {
	a := &Abort{Kind: KindDeadlock, Reason: "stuck", Cycle: 42, Bundle: "/tmp/b"}
	got := OneLine(a)
	for _, want := range []string{"kind=deadlock", "cycle=42", `reason="stuck"`, "bundle=/tmp/b"} {
		if !strings.Contains(got, want) {
			t.Fatalf("OneLine(%v) = %q, missing %q", a, got, want)
		}
	}
	q := &QuarantineError{Label: "seed9", Attempts: 3, Last: &Abort{Kind: KindPanic, Reason: "kaboom"}}
	got = OneLine(q)
	for _, want := range []string{"kind=quarantine", "point=seed9", "attempts=3", "last=panic"} {
		if !strings.Contains(got, want) {
			t.Fatalf("OneLine(%v) = %q, missing %q", q, got, want)
		}
	}
	if got := OneLine(errors.New("plain")); !strings.Contains(got, "kind=error") {
		t.Fatalf("plain error line = %q", got)
	}
}
