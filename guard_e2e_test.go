package compass

import (
	"errors"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"compass/internal/frontend"
	"compass/internal/guard"
	"compass/internal/machine"
)

// Supervision is pure host-side observation: a guarded run whose watchdog
// never trips must return a Result byte-identical to the unguarded run's,
// fault table included. This is the gate that keeps the guard layer out
// of the simulation.
func TestGuardedRunMatchesUnguarded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPUs = 2
	cfg.Faults = faultPlan()
	w := DefaultTPCC()
	w.Agents = 2
	w.TxPerAgent = 4

	want := resultTable(mustRun(cfg, TPCC(w)))

	res, err := Run(cfg, TPCC(w), Options{Guard: &GuardConfig{Deadline: 5 * time.Minute, Stall: time.Minute}, Label: "tpcc"})
	if err != nil {
		t.Fatal(err)
	}
	if got := resultTable(res); got != want {
		t.Fatalf("guarded run differs from unguarded:\n--- unguarded ---\n%s\n--- guarded ---\n%s", want, got)
	}
}

// A guarded campaign with no failures renders byte-identically to the
// plain campaign: same summary table, same aggregated fault table, no
// quarantine section.
func TestGuardedCampaignMatchesUnguarded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPUs = 2
	cfg.Faults = faultPlan()
	w := DefaultTPCC()
	w.Agents = 2
	w.TxPerAgent = 3
	seeds := CampaignSeeds(11, 3)

	plain := RunSeedCampaign(cfg, seeds, TPCC(w), Options{}, ExptOptions{Workers: 2})
	guarded := RunSeedCampaign(cfg, seeds, TPCC(w), Options{Guard: &GuardConfig{Deadline: 5 * time.Minute}}, ExptOptions{Workers: 2})

	if len(guarded.Failed) != 0 {
		t.Fatalf("clean campaign quarantined points: %+v", guarded.Failed)
	}
	if a, b := plain.String(), guarded.String(); a != b {
		t.Fatalf("campaign summaries differ:\n--- plain ---\n%s\n--- guarded ---\n%s", a, b)
	}
	if a, b := plain.FaultTable(), guarded.FaultTable(); a != b {
		t.Fatalf("aggregated fault tables differ:\n--- plain ---\n%s\n--- guarded ---\n%s", a, b)
	}
}

// A guarded batch sweep with no failures produces the same sweep table
// as the unguarded parallel sweep, per-point counters included.
func TestGuardedSweepMatchesUnguarded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPUs = 2
	batches := []int{1, 8, 64}
	const warmStores, stores = 400, 300

	points, failed, warmEnd, err := RunBatchSweepWarm(cfg, batches, warmStores, stores, Options{}, ExptOptions{Workers: 2})
	if err != nil || len(failed) != 0 {
		t.Fatalf("unguarded sweep: %v\n%s", err, FormatSweepFailures(failed))
	}
	want := FormatSweepTable(points, warmEnd)

	gp, failed, gw, err := RunBatchSweepWarm(cfg, batches, warmStores, stores,
		Options{Guard: &GuardConfig{Deadline: 5 * time.Minute}}, ExptOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Fatalf("clean sweep failed points: %s", FormatSweepFailures(failed))
	}
	if got := FormatSweepTable(gp, gw); got != want {
		t.Fatalf("guarded sweep differs from unguarded:\n--- unguarded ---\n%s\n--- guarded ---\n%s", want, got)
	}
}

// The auto-checkpoint resume contract: a segmented run that crashes
// mid-way and is re-invoked resumes from its latest checkpoint and
// finishes with results byte-identical to an uninterrupted run of the
// same segment schedule — fault table included. The file says where its
// run resumes, whichever route found it: named by ResumeFrom, an
// auto-checkpoint continues after the segment it closed, an empty first
// segment's too.
func TestAutoCkptCrashResumeByteIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPUs = 2
	cfg.Faults = faultPlan()
	w := DefaultTPCC()
	w.Agents = 2
	w.TxPerAgent = 4
	same := func(t *testing.T, straight Result, seg Workload, o Options) {
		t.Helper()
		resumed, err := Run(cfg, seg, o)
		if err != nil {
			t.Fatal(err)
		}
		if wt, gt := resultTable(straight), resultTable(resumed); wt != gt {
			t.Fatalf("straight and resumed runs differ:\n--- straight ---\n%s\n--- resumed ---\n%s", wt, gt)
		}
	}

	straight, err := Run(cfg, TPCCSegments(w, 4), Options{AutoCkptDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	_, err = Run(cfg, TPCCSegments(w, 4), Options{AutoCkptDir: dir, CrashSegment: 2,
		Guard: &GuardConfig{}, Label: "tpcc"})
	var a *guard.Abort
	if !errors.As(err, &a) || a.Kind != guard.KindPanic {
		t.Fatalf("crash attempt returned %v, want a contained panic", err)
	}
	t.Run("scan", func(t *testing.T) { same(t, straight, TPCCSegments(w, 4), Options{AutoCkptDir: dir}) })
	t.Run("resume-from", func(t *testing.T) {
		same(t, straight, TPCCSegments(w, 4), Options{ResumeFrom: filepath.Join(dir, "auto-001.ckpt")})
	})

	// Two transactions an agent in four segments: 0, 1, 0 and 1 of them.
	t.Run("empty-first-segment", func(t *testing.T) {
		w := w
		w.TxPerAgent = 2
		dir := t.TempDir()
		straight, err := Run(cfg, TPCCSegments(w, 4), Options{AutoCkptDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		same(t, straight, TPCCSegments(w, 4), Options{ResumeFrom: filepath.Join(dir, "auto-000.ckpt")})
	})
}

// The chaos-smoke acceptance path: a 4-seed guarded campaign with one
// crashing seed aggregates the three survivors, quarantines the fourth
// after Retries+1 attempts, and its crash-repro bundle replays through
// FromSpec and Run to the identical failure.
func TestGuardedCampaignQuarantineAndBundleReplay(t *testing.T) {
	spec := RunSpec{
		Workload: "tpcc", CPUs: 2, RTC: true, Agents: 2, Tx: 3,
		Faults: "seed=7,disk.transient=0.3,net.drop=0.05",
		Chaos:  "crashseed=13",
	}
	cfg, w, o, err := FromSpec(spec, GuardConfig{Retries: 1, BundleDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	seeds := CampaignSeeds(11, 4) // 11..14; seed 13 crashes
	camp := RunSeedCampaign(cfg, seeds, w, o, ExptOptions{Workers: 2})

	if len(camp.Points) != 3 {
		t.Fatalf("got %d surviving points, want 3: %s", len(camp.Points), camp.String())
	}
	for i, want := range []uint64{11, 12, 14} {
		if camp.Points[i].Seed != want {
			t.Fatalf("surviving seeds out of order: %+v", camp.Points)
		}
	}
	if len(camp.Failed) != 1 {
		t.Fatalf("got %d quarantined points, want 1: %s", len(camp.Failed), camp.FailureTable())
	}
	f := camp.Failed[0]
	if f.Seed != 13 || f.Attempts != 2 || f.Kind != guard.KindPanic {
		t.Fatalf("quarantine row %+v, want seed 13 after 2 panic attempts", f)
	}
	if f.Bundle == "" {
		t.Fatal("quarantined point has no bundle")
	}
	if !strings.Contains(camp.String(), "quarantined:") {
		t.Fatalf("campaign summary lacks the quarantine table:\n%s", camp.String())
	}

	m, err := guard.ReadBundle(f.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	if m.Spec.Seed != 13 {
		t.Fatalf("bundle spec seed %d, want the failed point's 13", m.Spec.Seed)
	}
	rcfg, rw, ro, err := FromSpec(m.Spec, GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := Run(rcfg, rw, ro)
	var ra *guard.Abort
	if !errors.As(rerr, &ra) {
		t.Fatalf("bundle replay returned %v, want a contained abort", rerr)
	}
	if ra.Kind != guard.KindPanic || ra.Reason != f.Reason {
		t.Fatalf("replay failure kind=%s reason=%q, original kind=%s reason=%q",
			ra.Kind, ra.Reason, f.Kind, f.Reason)
	}
}

// crashseed fails the machines whose fault seed it is, and only those: a
// single run under that seed is a contained panic, and a campaign whose
// base seed it is loses that one point, not every point.
func TestCrashseedFailsOnlyItsSeed(t *testing.T) {
	spec := RunSpec{Workload: "tpcc", CPUs: 2, Agents: 1, Tx: 1, Seed: 12, Chaos: "crashseed=12"}
	cfg, w, o, err := FromSpec(spec, GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(cfg, w, o)
	var a *guard.Abort
	if !errors.As(err, &a) || a.Kind != guard.KindPanic || a.Reason != "chaos: injected panic for seed12" {
		t.Fatalf("a run under the crash seed returned %v, want the injected panic, contained", err)
	}
	camp := RunSeedCampaign(cfg, CampaignSeeds(11, 3), w, o, ExptOptions{Workers: 1})
	if len(camp.Points) != 2 || len(camp.Failed) != 1 || camp.Failed[0].Seed != 12 {
		t.Fatalf("want seeds 11 and 13 through and 12 failed:\n%s%s", camp.String(), camp.FailureTable())
	}
}

// The block chaos plan exercises both hang classifications: with the RTC
// off the engine proves a true deadlock; with it on, the run spins on
// timer ticks until the watchdog's host deadline trips.
func TestChaosBlockClassification(t *testing.T) {
	w := DefaultTPCC()
	w.Agents = 1
	w.TxPerAgent = 1

	t.Run("deadlock", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.CPUs = 2
		cfg.RTC = false
		cfg.Observe = observeBlock
		_, err := Run(cfg, TPCC(w), Options{Guard: &GuardConfig{}, Label: "block"})
		var a *guard.Abort
		if !errors.As(err, &a) || a.Kind != guard.KindDeadlock {
			t.Fatalf("got %v, want a contained deadlock", err)
		}
		if !strings.Contains(a.Reason, "chaos-block") {
			t.Fatalf("deadlock reason does not name the blocked process: %q", a.Reason)
		}
	})

	t.Run("watchdog", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.CPUs = 2
		cfg.Observe = observeBlock
		_, err := Run(cfg, TPCC(w), Options{Guard: &GuardConfig{Deadline: time.Second}, Label: "block"})
		var a *guard.Abort
		if !errors.As(err, &a) || a.Kind != guard.KindWatchdog {
			t.Fatalf("got %v, want a watchdog abort", err)
		}
		if a.Cycle == 0 {
			t.Fatal("watchdog abort carries no cycle")
		}
	})
}

// A handler that panics while its event is served in place — on the posting
// process's coroutine, which is how most events are served — reaches the
// supervisor from the communicator, on the backend's goroutine. The abort and
// the bundle's stack.txt show the frames that raised it all the same, and the
// reason is the panic's own text.
func TestGuardedHandlerPanicNamesItsFrames(t *testing.T) {
	w := DefaultTPCC()
	w.Agents = 1
	w.TxPerAgent = 1
	cfg := DefaultConfig()
	cfg.CPUs = 2
	cfg.Observe = func(m *machine.Machine) {
		m.SpawnConnected("chaos-call", func(p *frontend.Proc) {
			for {
				p.ComputeCycles(50)
				p.Call(0, faultyHandler)
			}
		})
	}
	_, err := Run(cfg, TPCC(w), Options{Guard: &GuardConfig{BundleDir: t.TempDir()}, Label: "handler"})
	var a *guard.Abort
	if !errors.As(err, &a) || a.Kind != guard.KindPanic || a.Reason != "handler bug" {
		t.Fatalf("got %v, want a contained panic with the handler's own reason", err)
	}
	if !strings.Contains(string(a.Stack), "faultyHandler") {
		t.Errorf("the abort's stack does not name the handler that panicked:\n%s", a.Stack)
	}
	stack, err := os.ReadFile(filepath.Join(a.Bundle, "stack.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(stack), "faultyHandler") || !strings.Contains(string(stack), "ResumeFrontends") {
		t.Errorf("the bundle's stack.txt should show the handler's frames and where the panic was recovered:\n%s", stack)
	}
}

// faultyHandler is a KCall closure that panics the first time it is served in
// place.
func faultyHandler() any {
	if strings.Contains(string(debug.Stack()), "servedInPlace") {
		panic("handler bug")
	}
	return nil
}
