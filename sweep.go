package compass

import (
	"fmt"
	"strings"

	"compass/internal/expt"
	"compass/internal/guard"
	"compass/internal/stats"
)

// BatchSweepPoint is one measurement of a warm-started batch sweep.
type BatchSweepPoint struct {
	// Batch is the references-per-event setting of this point.
	Batch int
	// End is the final simulated cycle of the resumed run.
	End uint64
	// Measured is the cycles this point actually simulated (End minus the
	// shared warm phase's end cycle).
	Measured uint64
	// Counters is the point's full backend counter set (cache hits,
	// traffic, ...) — part of the bit-equality surface the determinism
	// regression test compares between serial and parallel runs.
	Counters *stats.Counters
}

// SimCycles reports the point's measured cycles to the experiment
// engine's progress line (expt.Cycled).
func (p BatchSweepPoint) SimCycles() uint64 { return p.Measured }

// Progress is the experiment engine's progress-line update; see
// expt.Progress for fields.
type Progress = expt.Progress

// ExptOptions configures the parallel experiment engine behind the
// fan-out helpers (RunBatchSweepWarm, RunSeedCampaign): Workers sizes the
// host worker pool (<=0 means GOMAXPROCS) and Progress, when non-nil,
// receives serialized progress updates; see expt.Config.
type ExptOptions = expt.Config

// SweepFailure is one batch point that produced no measurement.
type SweepFailure struct {
	// Batch is the failed point's references-per-event setting.
	Batch int
	// Kind classifies the failure.
	Kind guard.Kind
	// Reason is the failure's cause.
	Reason string
	// Bundle is the crash-repro bundle directory, if one was written.
	Bundle string
}

// RunBatchSweepWarm runs the batch sweep with every point resumed from one
// in-memory warm snapshot: the warm phase (warmStores strided stores per
// CPU, one reference to a message) is simulated once and checkpointed, and
// each batch setting is a Run that restores the snapshot and simulates
// only its measured phase: (len(batches)-1) warm phases fewer than as many
// cold starts. It returns the points that measured, the ones that did not,
// and the warm phase's end cycle.
//
// The measured phases fan out across host cores: the decoded snapshot is
// shared read-only and each worker restores a private machine per point.
// Points come back ordered by batches index — never completion order — and
// are bit-identical at any eo.Workers; Workers: 1 is the serial reference.
//
// The warm run is labelled "warm" and the points "batch<N>". With o.Guard
// set each runs in a session of its own (bundles under
// Guard.BundleDir/<label>), so a point's panic or stall costs that point,
// not the sweep; a failed warm phase is the sweep's error, since every
// point resumes from its snapshot.
func RunBatchSweepWarm(cfg Config, batches []int, warmStores, stores int, o Options, eo ExptOptions) ([]BatchSweepPoint, []SweepFailure, uint64, error) {
	if o.WarmupCheckpoint != "" || o.ResumeFrom != "" || o.AutoCkptDir != "" {
		return nil, nil, 0, fmt.Errorf("compass: a sweep keeps its warm snapshot in memory; checkpoint options do not apply")
	}
	warmRound := sweepRound{batch: 1, stores: warmStores}
	var snap *expt.Snapshot
	wo := o.at("warm", "warm")
	wo.snapTo = &snap
	warm, err := Run(cfg, sweepDesc{rounds: []sweepRound{warmRound}}, wo)
	if err != nil {
		return nil, nil, 0, err
	}
	warmEnd := warm.Cycles

	jobs := make([]expt.Job[BatchSweepPoint], len(batches))
	for i, b := range batches {
		label := fmt.Sprintf("batch%d", b)
		po := o.at(label, label)
		po.snapFrom = snap
		point := sweepDesc{rounds: []sweepRound{warmRound, {batch: b, stores: stores}}}
		jobs[i] = expt.Job[BatchSweepPoint]{
			Name: po.Label,
			Run: func() (BatchSweepPoint, error) {
				res, err := Run(cfg, point, po)
				if err != nil {
					return BatchSweepPoint{}, err
				}
				return BatchSweepPoint{Batch: b, End: res.Cycles, Measured: res.Cycles - warmEnd, Counters: res.Counters}, nil
			},
		}
	}
	rs := expt.Run(eo, jobs)

	var points []BatchSweepPoint
	var failed []SweepFailure
	for i, r := range rs {
		if r.Err != nil {
			f := failureFrom(0, r.Err)
			failed = append(failed, SweepFailure{Batch: batches[i], Kind: f.Kind, Reason: f.Reason, Bundle: f.Bundle})
			continue
		}
		points = append(points, r.Value)
	}
	return points, failed, warmEnd, nil
}

// FormatSweepFailures renders a sweep's failed-points table; empty
// when every point measured. Bundle paths are excluded (host-dependent).
func FormatSweepFailures(failed []SweepFailure) string {
	if len(failed) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %10s  %s\n", "batch", "kind", "reason")
	for _, f := range failed {
		fmt.Fprintf(&b, "%8d %10s  %s\n", f.Batch, f.Kind, f.Reason)
	}
	return b.String()
}

// FormatSweepTable renders sweep points as a deterministic table — the
// byte-equality surface for the serial-vs-parallel contract. The full
// per-point counter dump is included so a single flipped backend event
// anywhere breaks the comparison.
func FormatSweepTable(points []BatchSweepPoint, warmEnd uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "warm end %d\n", warmEnd)
	fmt.Fprintf(&b, "%8s %14s %14s\n", "batch", "end", "measured")
	for _, p := range points {
		fmt.Fprintf(&b, "%8d %14d %14d\n", p.Batch, p.End, p.Measured)
	}
	for _, p := range points {
		fmt.Fprintf(&b, "-- batch %d counters --\n", p.Batch)
		if p.Counters != nil {
			b.WriteString(p.Counters.String())
		}
	}
	return b.String()
}
