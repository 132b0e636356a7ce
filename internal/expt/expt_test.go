package expt

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// cycledInt reports itself as simulated cycles.
type cycledInt uint64

func (c cycledInt) SimCycles() uint64 { return uint64(c) }

// Results come back in job-index order even when completion order is
// reversed by construction.
func TestRunOrdersResultsByJobIndex(t *testing.T) {
	const n = 8
	// Later jobs finish first: a descending sleep would be timing-flaky,
	// so gate completion on a barrier instead — job i waits until all
	// jobs after it have completed.
	dones := make([]chan struct{}, n)
	for i := range dones {
		dones[i] = make(chan struct{})
	}
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job[int]{Name: fmt.Sprintf("j%d", i), Run: func() (int, error) {
			if i+1 < n {
				<-dones[i+1]
			}
			close(dones[i])
			return i * 10, nil
		}}
	}
	rs := Run(Config{Workers: n}, jobs)
	for i, r := range rs {
		if r.Index != i || r.Value != i*10 || r.Name != fmt.Sprintf("j%d", i) {
			t.Errorf("slot %d: index=%d value=%d name=%q", i, r.Index, r.Value, r.Name)
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	for _, tc := range []struct {
		requested, jobs, want int
	}{
		{requested: 4, jobs: 10, want: 4},
		{requested: 10, jobs: 3, want: 3},
		{requested: 1, jobs: 0, want: 1},
		{requested: -1, jobs: 1, want: 1},
	} {
		if got := Workers(tc.requested, tc.jobs); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.requested, tc.jobs, got, tc.want)
		}
	}
	if got := Workers(0, 1000); got < 1 {
		t.Errorf("Workers(0, 1000) = %d, want >= 1", got)
	}
}

// One failing job neither aborts the others nor perturbs their slots,
// and FirstErr picks the lowest-index error regardless of timing.
func TestRunIsolatesErrors(t *testing.T) {
	boom := errors.New("boom")
	jobs := []Job[int]{
		{Name: "ok0", Run: func() (int, error) { return 1, nil }},
		{Name: "bad1", Run: func() (int, error) { return 0, boom }},
		{Name: "ok2", Run: func() (int, error) { return 3, nil }},
		{Name: "bad3", Run: func() (int, error) { return 0, errors.New("later") }},
	}
	rs := Run(Config{Workers: 2}, jobs)
	if rs[0].Err != nil || rs[2].Err != nil {
		t.Errorf("healthy jobs errored: %v %v", rs[0].Err, rs[2].Err)
	}
	if !errors.Is(FirstErr(rs), boom) {
		t.Errorf("FirstErr = %v, want boom", FirstErr(rs))
	}
	if vals := Values(rs); vals[0] != 1 || vals[2] != 3 {
		t.Errorf("Values = %v", vals)
	}
}

func TestRunEmptyJobs(t *testing.T) {
	rs := Run[int](Config{}, nil)
	if len(rs) != 0 {
		t.Errorf("len = %d", len(rs))
	}
	if err := FirstErr(rs); err != nil {
		t.Errorf("FirstErr = %v", err)
	}
}

// Progress updates are serialized, monotone in Done, and account every
// job's simulated cycles by the end.
func TestRunProgress(t *testing.T) {
	const n = 6
	jobs := make([]Job[cycledInt], n)
	for i := 0; i < n; i++ {
		jobs[i] = Job[cycledInt]{Run: func() (cycledInt, error) {
			time.Sleep(time.Millisecond)
			return cycledInt(100), nil
		}}
	}
	var (
		mu       sync.Mutex
		inCB     bool
		lastDone = -1
		last     Progress
	)
	rs := Run(Config{Workers: 3, Progress: func(p Progress) {
		mu.Lock()
		if inCB {
			mu.Unlock()
			t.Error("progress callback ran concurrently with itself")
			return
		}
		inCB = true
		mu.Unlock()

		if p.Done < lastDone {
			t.Errorf("Done went backward: %d after %d", p.Done, lastDone)
		}
		lastDone = p.Done
		if p.Total != n || p.InFlight < 0 || p.Done+p.InFlight > n {
			t.Errorf("inconsistent progress: %+v", p)
		}
		last = p

		mu.Lock()
		inCB = false
		mu.Unlock()
	}}, jobs)
	if err := FirstErr(rs); err != nil {
		t.Fatal(err)
	}
	if last.Done != n || last.InFlight != 0 {
		t.Errorf("final progress %+v, want all done", last)
	}
	if last.DoneCycles != n*100 {
		t.Errorf("DoneCycles = %d, want %d", last.DoneCycles, n*100)
	}
	for _, r := range rs {
		if r.Cycles != 100 {
			t.Errorf("job %d Cycles = %d, want 100 (Cycled hook)", r.Index, r.Cycles)
		}
	}
}

// Identical fan-outs with 1 worker and many workers return identical
// values in identical order — the engine-level determinism contract.
func TestRunParallelMatchesSerial(t *testing.T) {
	mk := func() []Job[string] {
		jobs := make([]Job[string], 12)
		for i := range jobs {
			i := i
			jobs[i] = Job[string]{Run: func() (string, error) {
				// Deterministic per-job computation.
				var b strings.Builder
				for j := 0; j < 100; j++ {
					fmt.Fprintf(&b, "%d/%d;", i, i*j%7)
				}
				return b.String(), nil
			}}
		}
		return jobs
	}
	serial := Values(Run(Config{Workers: 1}, mk()))
	parallel := Values(Run(Config{Workers: 8}, mk()))
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("job %d: serial and parallel values differ", i)
		}
	}
}
