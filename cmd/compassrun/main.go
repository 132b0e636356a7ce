// Command compassrun executes one workload on a configured simulated
// machine and prints the time profile and backend statistics.
//
// Usage:
//
//	compassrun -workload tpcc -cpus 4 -arch simple -sched affinity
//	compassrun -workload specweb -cpus 4 -requests 200
//	compassrun -workload tpcd -arch ccnuma -nodes 4 -placement first-touch
//
// Open-loop load generation (internal/loadgen) replaces the closed-loop
// trace player on the web workloads and prints a per-class tail-latency
// table alongside the time profile:
//
//	compassrun -workload specweb -load "requests=400;class=web,clients=1000000,interval=1e9"
//	compassrun -workload tier3 -load "class=dyn,rate=40,flash=2e6:4e6:8"
//
// Parallel experiment modes (the internal/expt engine):
//
//	compassrun -workload tpcc -faults "seed=7,disk.transient=0.01" -seeds 8 -parallel 4 -progress
//
// Supervised runs (internal/guard): every run is panic-contained and, with
// the flags below, watched, auto-checkpointed and retried. A failed run
// prints a single structured line (kind=panic|deadlock|watchdog|livelock|
// quarantine ...) to stderr and exits 1 instead of dumping a raw stack:
//
//	compassrun -workload tpcc -deadline 30s -stall 5s -bundle /tmp/bundles
//	compassrun -workload tpcc -seeds 4 -retries 2 -autockpt 50000:/tmp/ckpt
//	compassrun -repro /tmp/bundles/seed9-attempt0
//
// -repro replays a crash bundle from scratch and exits 0 iff the bundled
// failure reproduces with the same kind (the deterministic-replay check).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"compass"
	"compass/internal/guard"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compassrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload   = fs.String("workload", "tpcd", "tpcc | tpcd | specweb | tier3 | sor")
		cpus       = fs.Int("cpus", 4, "simulated CPUs")
		shards     = fs.Int("shards", 0, "backend lanes sharing one simulation across host cores (0/1 = serial; results are byte-identical at any value)")
		arch       = fs.String("arch", "simple", "fixed | simple | smp | ccnuma | coma")
		nodes      = fs.Int("nodes", 1, "NUMA nodes (ccnuma/coma)")
		placement  = fs.String("placement", "round-robin", "round-robin | block | first-touch")
		sched      = fs.String("sched", "fcfs", "fcfs | affinity")
		preempt    = fs.Bool("preempt", false, "preemptive scheduling")
		rtc        = fs.Bool("rtc", true, "interval timer (timer interrupts)")
		agents     = fs.Int("agents", 4, "workload processes")
		tx         = fs.Int("tx", 25, "tpcc: transactions per agent")
		rows       = fs.Int("rows", 16384, "tpcd: lineitem rows")
		requests   = fs.Int("requests", 120, "specweb: trace length")
		counters   = fs.Bool("counters", false, "dump backend counters")
		syscalls   = fs.Bool("syscalls", false, "dump per-kernel-call profile")
		syncd      = fs.Uint64("syncd", 0, "buffer-cache flush daemon interval in cycles (0 = off)")
		migrate    = fs.Int("migrate", 0, "ccnuma page-migration threshold (0 = off)")
		faults     = fs.String("faults", "", `fault plan, e.g. "seed=7,disk.transient=0.01,net.drop=0.02,mem.ecc=1e-6"`)
		load       = fs.String("load", "", `open-loop traffic plan (specweb/tier3), e.g. "requests=400;class=web,clients=1000000,interval=1e9,flash=2e6:4e6:8"`)
		parallel   = fs.Int("parallel", 1, "experiment-engine workers (0 = host cores)")
		seeds      = fs.Int("seeds", 0, "fault-seed campaign: run this many consecutive seeds from the -faults base seed")
		progress   = fs.Bool("progress", false, "print an engine progress line to stderr")
		deadline   = fs.Duration("deadline", 0, "abort a run after this much host time (0 = off)")
		stall      = fs.Duration("stall", 0, "abort a run whose event dispatch stalls for this much host time (0 = off)")
		retries    = fs.Int("retries", 0, "campaign: retry a failed seed this many times before quarantine")
		bundleDir  = fs.String("bundle", "", "write crash-repro bundles under this directory on failure")
		autockpt   = fs.String("autockpt", "", `auto-checkpointing (tpcc): "interval:dir", e.g. "50000:/tmp/ckpt"`)
		segments   = fs.Int("segments", 0, "tpcc: quiescent segments for auto-checkpointing (default 4 when -autockpt is set)")
		chaos      = fs.String("chaos", "", `failure injection: comma-separated "crashseed=N", "crashsegment=N", "block"`)
		repro      = fs.String("repro", "", "replay the crash-repro bundle in this directory and verify the failure reproduces")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
			}
		}()
	}

	gcfg := compass.GuardConfig{
		Deadline:  *deadline,
		Stall:     *stall,
		Retries:   *retries,
		BundleDir: *bundleDir,
	}

	if *repro != "" {
		return runRepro(stdout, stderr, *repro, gcfg)
	}

	spec := compass.RunSpec{
		Workload:  *workload,
		CPUs:      *cpus,
		Shards:    *shards,
		Arch:      *arch,
		Nodes:     *nodes,
		Placement: *placement,
		Sched:     *sched,
		Preempt:   *preempt,
		RTC:       *rtc,
		Agents:    *agents,
		Tx:        *tx,
		Rows:      *rows,
		Requests:  *requests,
		Syncd:     *syncd,
		Migrate:   *migrate,
		Faults:    *faults,
		Load:      *load,
		Segments:  *segments,
		Chaos:     *chaos,
	}
	if *autockpt != "" {
		interval, dir, ok := strings.Cut(*autockpt, ":")
		iv, err := strconv.ParseUint(interval, 10, 64)
		if !ok || err != nil || dir == "" {
			fmt.Fprintf(stderr, "bad -autockpt %q (want interval:dir)\n", *autockpt)
			return 2
		}
		spec.AutoCkptInterval = iv
		spec.AutoCkptDir = dir
		if spec.Segments == 0 {
			spec.Segments = 4
		}
	}

	// One translation for the single run, the campaign and (runRepro) the
	// replay of a bundle: a spec that cannot run as asked ends here.
	cfg, w, o, err := compass.FromSpec(spec, gcfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *seeds > 0 {
		opts := compass.ExptOptions{Workers: *parallel}
		if *progress {
			opts.Progress = func(p compass.Progress) { progressLine(stderr, p) }
		}
		camp := compass.RunSeedCampaign(cfg, compass.CampaignSeeds(cfg.Faults.Seed, *seeds), w, o, opts)
		if *progress {
			fmt.Fprintln(stderr)
		}
		fmt.Fprint(stdout, camp)
		if ft := camp.FaultTable(); ft != "" {
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, ft)
		}
		fmt.Fprintf(stdout, "campaign wall %.2fs on %d workers\n", camp.Wall.Seconds(), camp.Workers)
		if len(camp.Failed) > 0 {
			for _, f := range camp.Failed {
				line := fmt.Sprintf("kind=quarantine point=seed%d attempts=%d last=%s reason=%q",
					f.Seed, f.Attempts, f.Kind, f.Reason)
				if f.Bundle != "" {
					line += " bundle=" + f.Bundle
				}
				fmt.Fprintln(stderr, line)
			}
			return 1
		}
		return 0
	}

	res, err := compass.Run(cfg, w, o)
	if err != nil {
		fmt.Fprintln(stderr, guard.OneLine(err))
		return 1
	}
	fmt.Fprintln(stdout, res)
	keys := make([]string, 0, len(res.Extra))
	//det:ordered keys are sorted before printing
	for k := range res.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "  %-18s %.1f\n", k, res.Extra[k])
	}
	if res.LoadTable != "" {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, res.LoadTable)
	}
	if ft := res.FaultTable(); ft != "" {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, ft)
	}
	if *counters {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, res.Counters.String())
	}
	if *syscalls {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, res.Syscalls)
	}
	return 0
}

// runRepro replays a crash-repro bundle from scratch and reports whether
// the bundled failure reproduces. Exit status: 0 when the replay fails
// with the bundled kind (reproduced), 1 otherwise (clean run or a
// different failure — the bundle does not describe a deterministic crash).
func runRepro(stdout, stderr io.Writer, dir string, gcfg compass.GuardConfig) int {
	m, err := guard.ReadBundle(dir)
	if err != nil {
		fmt.Fprintf(stderr, "repro: %v\n", err)
		return 2
	}
	// Replay from scratch: resume salvage is for inspection, not for the
	// determinism check, so the replay ignores the bundled checkpoint by
	// redirecting auto-checkpointing to a scratch directory.
	spec := m.Spec
	if spec.AutoCkptDir != "" {
		scratch, err := os.MkdirTemp("", "compass-repro-*")
		if err != nil {
			fmt.Fprintf(stderr, "repro: %v\n", err)
			return 2
		}
		defer os.RemoveAll(scratch)
		spec.AutoCkptDir = scratch
	}
	gcfg.BundleDir = "" // a repro of a crash should not mint more bundles
	deadline := gcfg.Deadline
	if deadline <= 0 && (m.Kind == guard.KindWatchdog.String() || m.Kind == guard.KindLivelock.String()) {
		// Watchdog failures only reproduce under a watchdog.
		deadline = 30 * time.Second
		gcfg.Deadline = deadline
	}
	cfg, w, o, err := compass.FromSpec(spec, gcfg)
	if err != nil {
		fmt.Fprintf(stderr, "repro: %v\n", err)
		return 2
	}
	_, err = compass.Run(cfg, w, o)
	if err == nil {
		fmt.Fprintf(stderr, "repro: run completed cleanly; bundled failure (kind=%s) did not reproduce\n", m.Kind)
		return 1
	}
	var a *guard.Abort
	if errors.As(err, &a) && a.Kind.String() == m.Kind {
		fmt.Fprintf(stdout, "repro: reproduced %s\n", guard.OneLine(err))
		return 0
	}
	fmt.Fprintf(stderr, "repro: bundled kind=%s but replay produced %s\n", m.Kind, guard.OneLine(err))
	return 1
}

// progressLine rewrites one stderr line per engine update:
// done/total, in-flight, simulated cycles completed, ETA.
func progressLine(stderr io.Writer, p compass.Progress) {
	fmt.Fprintf(stderr, "\rexpt %d/%d done, %d in flight, %.2e sim cycles, ETA %s   ",
		p.Done, p.Total, p.InFlight, float64(p.DoneCycles), p.ETA.Round(100_000_000))
}
