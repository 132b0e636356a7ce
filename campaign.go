package compass

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"compass/internal/expt"
	"compass/internal/guard"
	"compass/internal/stats"
)

// SimCycles reports the run's simulated cycles to the experiment
// engine's progress line (expt.Cycled).
func (r Result) SimCycles() uint64 { return r.Cycles }

// CampaignPoint is one fault seed's outcome in a seed campaign.
type CampaignPoint struct {
	// Seed is the fault-plan seed this run used.
	Seed uint64
	// Res is the workload result under that seed.
	Res Result
}

// CampaignResult is a fault-seed campaign: the same configuration run
// under M seeds, with fault/recovery tables aggregated across seeds.
type CampaignResult struct {
	// Points holds per-seed results, ordered by the input seed slice —
	// never by completion order.
	Points []CampaignPoint
	// Aggregate is every point's counter set merged in seed-index order
	// (fault.* rows included), the campaign-wide table.
	Aggregate *stats.Counters
	// Cycles is the total simulated cycles across all seeds.
	Cycles uint64
	// Workers is the resolved worker-pool size the campaign ran with.
	Workers int
	// Wall is the host time for the whole campaign.
	Wall time.Duration
	// Failed lists the points that produced no result — contained panics
	// in a plain campaign, quarantined seeds in a supervised one. Ordered
	// by seed index, like Points.
	Failed []CampaignFailure
}

// CampaignFailure is one campaign point that produced no result.
type CampaignFailure struct {
	// Seed is the failed point's fault seed.
	Seed uint64
	// Attempts is how many times the point ran before giving up.
	Attempts int
	// Kind classifies the final failure.
	Kind guard.Kind
	// Reason is the final failure's cause.
	Reason string
	// Bundle is the final attempt's crash-repro bundle directory, if one
	// was written.
	Bundle string
}

// failureFrom classifies a campaign job error into a table row.
func failureFrom(seed uint64, err error) CampaignFailure {
	f := CampaignFailure{Seed: seed, Attempts: 1, Kind: guard.KindPanic, Reason: err.Error()}
	var q *guard.QuarantineError
	if errors.As(err, &q) {
		f.Attempts = q.Attempts
		f.Kind = q.Last.Kind
		f.Reason = q.Last.Reason
		f.Bundle = q.Last.Bundle
		return f
	}
	var a *guard.Abort
	if errors.As(err, &a) {
		f.Kind = a.Kind
		f.Reason = a.Reason
		f.Bundle = a.Bundle
		return f
	}
	var j *expt.JobError
	if errors.As(err, &j) {
		f.Reason = fmt.Sprint(j.Value)
	}
	return f
}

// FailureTable renders the quarantined-points table; empty when every
// point succeeded. Bundle paths are excluded — they are host-dependent,
// and the table is part of the determinism surface.
func (c CampaignResult) FailureTable() string {
	if len(c.Failed) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %10s %10s  %s\n", "seed", "attempts", "kind", "reason")
	for _, f := range c.Failed {
		fmt.Fprintf(&b, "%10d %10d %10s  %s\n", f.Seed, f.Attempts, f.Kind, f.Reason)
	}
	return b.String()
}

// FaultTable renders the aggregated fault-injection and recovery
// counters across all seeds; empty if no faults fired.
func (c CampaignResult) FaultTable() string { return stats.FormatFaultTable(c.Aggregate) }

// String renders the per-seed summary table plus totals. Wall time is
// deliberately excluded — the table is part of the determinism surface.
func (c CampaignResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %14s %10s %10s %10s\n", "seed", "cycles", "user%", "os%", "faults")
	for _, p := range c.Points {
		var faults uint64
		for _, n := range p.Res.Counters.Names() {
			if strings.HasPrefix(n, "fault.") {
				faults += p.Res.Counters.Get(n)
			}
		}
		fmt.Fprintf(&b, "%10d %14d %9.1f%% %9.1f%% %10d\n",
			p.Seed, p.Res.Cycles, p.Res.Profile.UserPct, p.Res.Profile.OSPct, faults)
	}
	// Workers and Wall stay out of the table: the rendered campaign is
	// part of the serial-vs-parallel bit-equality surface.
	fmt.Fprintf(&b, "%10s %14d  (%d seeds)\n", "total", c.Cycles, len(c.Points))
	if len(c.Failed) > 0 {
		b.WriteString("quarantined:\n")
		b.WriteString(c.FailureTable())
	}
	return b.String()
}

// RunSeedCampaign runs one workload under every seed in parallel: point i
// is Run(cfg with Faults.Seed = seeds[i], w, o) on a private machine,
// labelled "seed<N>". Results come back ordered by seed index and the
// aggregate counters are merged in that order, so a campaign's tables are
// bit-identical whether it ran on one worker or many.
//
// What o asks of a run it asks of every point, each in a place of its own:
// auto-checkpoints go to o.AutoCkptDir/<label> (points sharing one
// auto-000.ckpt would resume from each other's seeds), and with o.Guard
// set every attempt runs in its own session, bundles under
// Guard.BundleDir/<label>-attempt<N>; a failed point retries up to
// Guard.Retries times — after a host-side backoff, from its latest
// auto-checkpoint — before it lands in the quarantine table. Without a
// Guard the engine contains a point's panic, which costs that point alone.
func RunSeedCampaign(cfg Config, seeds []uint64, w Workload, o Options, eo ExptOptions) CampaignResult {
	jobs := make([]expt.Job[Result], len(seeds))
	for i, seed := range seeds {
		scfg, po := cfg, o
		scfg.Faults.Seed = seed
		po.Label = fmt.Sprintf("seed%d", seed)
		if o.AutoCkptDir != "" {
			po.AutoCkptDir = filepath.Join(o.AutoCkptDir, po.Label)
		}
		if o.Guard != nil {
			// The bundle of a failed point replays that point.
			g := *o.Guard
			g.Spec.Seed = seed
			po.Guard = &g
		}
		jobs[i] = expt.Job[Result]{
			Name: po.Label,
			Run:  func() (Result, error) { return runAttempts(scfg, w, po) },
		}
	}
	start := time.Now()
	rs := expt.Run(eo, jobs)

	out := CampaignResult{
		Points:    make([]CampaignPoint, 0, len(seeds)),
		Aggregate: &stats.Counters{},
		Workers:   expt.Workers(eo.Workers, len(seeds)),
		Wall:      time.Since(start),
	}
	// Deterministic aggregation: merge in seed-index order, never
	// completion order. A point that failed yields a failure row instead
	// of poisoning the aggregate.
	for i, r := range rs {
		if r.Err != nil {
			out.Failed = append(out.Failed, failureFrom(seeds[i], r.Err))
			continue
		}
		out.Points = append(out.Points, CampaignPoint{Seed: seeds[i], Res: r.Value})
		out.Cycles += r.Value.Cycles
		out.Aggregate.Add(r.Value.Counters)
	}
	return out
}

// runAttempts is one campaign point: a plain Run, or under supervision the
// attempt loop — run, back off, retry, quarantine. Attempt N's bundles
// land in BundleDir/<label>-attempt<N> so no attempt overwrites another's.
func runAttempts(cfg Config, w Workload, o Options) (Result, error) {
	if o.Guard == nil {
		return Run(cfg, w, o)
	}
	attempts := max(o.Guard.Retries+1, 1)
	var last *guard.Abort
	for a := 0; a < attempts; a++ {
		res, err := Run(cfg, w, o.at(o.Label, fmt.Sprintf("%s-attempt%d", o.Label, a)))
		if err == nil {
			return res, nil
		}
		var ab *guard.Abort
		if !errors.As(err, &ab) {
			// The run's own error (bad description, unreadable
			// checkpoint): deterministic, so retrying cannot help.
			return Result{}, err
		}
		last = ab
		if a < attempts-1 {
			time.Sleep(guard.BackoffDelay(a))
		}
	}
	return Result{}, &guard.QuarantineError{Label: o.Label, Attempts: attempts, Last: last}
}

// at derives the options of one supervised attempt of a fan-out: its label,
// and sub appended to the shared bundle root, so that concurrent attempts
// never collide.
func (o Options) at(label, sub string) Options {
	o.Label = label
	if o.Guard != nil && o.Guard.BundleDir != "" {
		g := *o.Guard
		g.BundleDir = filepath.Join(g.BundleDir, sub)
		o.Guard = &g
	}
	return o
}

// CampaignSeeds expands a base seed into m consecutive seeds — the CLI's
// -seeds M convention (base, base+1, ..., base+m-1).
func CampaignSeeds(base uint64, m int) []uint64 {
	seeds := make([]uint64, m)
	for i := range seeds {
		seeds[i] = base + uint64(i)
	}
	return seeds
}
