// Package expt is the parallel experiment engine: it fans N independent
// simulated-machine runs (sweep points, fault seeds, warm restores) out
// across host cores and collects their results deterministically.
//
// The determinism contract: the engine never lets host scheduling leak
// into results. Results are returned in job-index order (never completion
// order), every job runs on its own machine.Machine (machines share no
// mutable state), and a shared warm snapshot is fanned out as one decoded
// snapshot that each worker restores privately and none writes to. A run
// with Workers=1 and a run with Workers=GOMAXPROCS therefore produce
// bit-identical result tables — the regression test in the root package
// byte-compares them,
// and that equality gates every future performance PR.
//
// The package is a leaf above machine/checkpoint: the compass facade
// builds RunBatchSweepWarm and RunSeedCampaign on top of it.
package expt

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Job is one independent unit of work: typically "build a machine (or
// restore a shared snapshot), run it, reduce to a result value".
type Job[T any] struct {
	// Name labels the job in progress output.
	Name string
	// Run executes the job. It must not share mutable state with any
	// other job — the engine may run it on any worker at any time.
	Run func() (T, error)
}

// Result pairs a job's value with its identity. The engine returns
// results indexed by job position, so Result[i] always belongs to
// jobs[i] regardless of which worker finished first.
type Result[T any] struct {
	// Index is the job's position in the input slice.
	Index int
	// Name echoes the job name.
	Name string
	// Value is what Run returned (zero on error).
	Value T
	// Err is Run's error, nil on success.
	Err error
	// Cycles is the simulated-cycle count the value reported via Cycled
	// (zero otherwise) — the progress line's simulated-time axis.
	Cycles uint64
	// Wall is the host time the job took.
	Wall time.Duration
}

// Cycled lets result values report their simulated-cycle count to the
// progress line without the engine knowing their concrete type.
type Cycled interface {
	SimCycles() uint64
}

// JobError is a contained job panic: a panicking job is recorded in its
// result slot like any other failure instead of killing the process (and
// with it every sibling worker and the partial results they hold). The
// original panic value and the goroutine stack at recovery time are
// preserved for crash-repro bundles.
type JobError struct {
	// Index is the panicking job's position in the input slice.
	Index int
	// Name echoes the job name.
	Name string
	// Value is the recovered panic value.
	Value any
	// Stack is the worker goroutine's stack at recovery time.
	Stack []byte
}

func (e *JobError) Error() string {
	return fmt.Sprintf("expt: job %d (%s) panicked: %v", e.Index, e.Name, e.Value)
}

// Unwrap exposes a panic value that was itself an error (e.g. the engine's
// typed *core.AbortError / *core.DeadlockError panics) to errors.As/Is.
func (e *JobError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// runJob invokes one job with panic containment: a panic becomes a
// *JobError in err, and the worker loop continues with the next job.
func runJob[T any](i int, j *Job[T]) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &JobError{Index: i, Name: j.Name, Value: r, Stack: debug.Stack()}
		}
	}()
	return j.Run()
}

// Progress is one progress-line update. Updates are serialized by the
// engine (the callback never runs concurrently with itself).
type Progress struct {
	// Total, Done and InFlight count jobs.
	Total, Done, InFlight int
	// DoneCycles is the simulated cycles completed jobs reported.
	DoneCycles uint64
	// Elapsed is host time since the fan-out started.
	Elapsed time.Duration
	// ETA estimates remaining host time as elapsed × (Total − Done) /
	// Done; zero while unknown (nothing finished yet) and once all is done.
	ETA time.Duration
}

// Config sizes the worker pool.
type Config struct {
	// Workers is the pool size; <=0 means runtime.GOMAXPROCS(0). The
	// pool never exceeds the job count.
	Workers int
	// Progress, when non-nil, is called after every job start and
	// completion. Calls are serialized; keep it fast.
	Progress func(Progress)
}

// Workers resolves a requested pool size against a job count: <=0 takes
// the host parallelism, and the pool never exceeds the job count.
func Workers(requested, jobs int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes the jobs on the pool and returns their results in
// job-index order. Workers write disjoint result slots; the final slice
// is safe to read once Run returns. A job error is recorded in its slot,
// never short-circuits the others (FirstErr reduces deterministically),
// and a job panic is contained into a *JobError the same way — one
// crashing point cannot take down a multi-hour fan-out.
func Run[T any](cfg Config, jobs []Job[T]) []Result[T] {
	results := make([]Result[T], len(jobs))
	if len(jobs) == 0 {
		return results
	}
	nw := Workers(cfg.Workers, len(jobs))
	start := time.Now()

	// Progress state. The mutex also serializes the callback.
	var (
		mu         sync.Mutex
		done       int
		inFlight   int
		doneCycles uint64
	)
	report := func() {
		if cfg.Progress == nil {
			return
		}
		elapsed := time.Since(start)
		var eta time.Duration
		if done > 0 {
			eta = elapsed * time.Duration(len(jobs)-done) / time.Duration(done)
		}
		cfg.Progress(Progress{
			Total: len(jobs), Done: done, InFlight: inFlight,
			DoneCycles: doneCycles, Elapsed: elapsed, ETA: eta,
		})
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				j := &jobs[i]
				mu.Lock()
				inFlight++
				report()
				mu.Unlock()

				t0 := time.Now()
				v, err := runJob(i, j)
				r := Result[T]{Index: i, Name: j.Name, Value: v, Err: err, Wall: time.Since(t0)}
				if c, ok := any(v).(Cycled); ok && err == nil {
					r.Cycles = c.SimCycles()
				}
				results[i] = r

				mu.Lock()
				inFlight--
				done++
				doneCycles += r.Cycles
				report()
				mu.Unlock()
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// FirstErr returns the first error in job-index order (nil if none) —
// the deterministic reduction of a fan-out's failures.
func FirstErr[T any](rs []Result[T]) error {
	for i := range rs {
		if rs[i].Err != nil {
			return rs[i].Err
		}
	}
	return nil
}

// Values extracts the result values in job-index order. Call after
// FirstErr returned nil.
func Values[T any](rs []Result[T]) []T {
	out := make([]T, len(rs))
	for i := range rs {
		out[i] = rs[i].Value
	}
	return out
}
