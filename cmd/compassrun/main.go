// Command compassrun is the simulator's front door: it points a simulated
// machine at a workload and prints what happened. `compassrun -h` lists
// its verbs, `compassrun <verb> -h` a verb's flags. Every verb registers
// the same machine and workload flags into one compass.RunSpec (a verb
// differs in the defaults it starts from), turns it into a run with
// compass.FromSpec and gets its results from compass.Run.
//
// Every run is supervised (internal/guard): a failed one prints a single
// structured line (kind=panic|deadlock|watchdog|livelock|quarantine|error
// ...) to stderr and exits 1 instead of dumping a raw stack; a description
// that cannot run as asked is one line and exit 2.
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
	"strings"
	"time"

	"compass"
	"compass/internal/guard"
)

const usage = `usage: compassrun [verb] [flags]        (compassrun <verb> -h lists the verb's flags)

  run       one workload on one machine (the default verb): time profile, counters,
            open-loop load, fault-seed campaigns, supervision, -repro of a crash bundle
              compassrun -workload tpcc -cpus 4 -arch ccnuma -nodes 4 -counters
  arch      one workload across the target architectures (the paper's §5 study)
              compassrun arch -workload sor
  ckpt      create, inspect and resume warm-start machine snapshots
              compassrun ckpt -create warm.ckpt -workload tpcc -warmtx 10
  table1    the paper's Table 1: user vs. OS time of SPECWeb, TPCD and TPCC
              compassrun table1
  slowdown  the paper's Tables 2 and 3: simulation slowdown on 1 and on -host host CPUs
              compassrun slowdown -rows 16384
  trace     generate, show or replay a request trace file (§4.2)
              compassrun trace replay -trace specweb.trace
`

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	verbs := map[string]func(*cli, []string) int{
		"run": (*cli).run, "arch": (*cli).arch, "ckpt": (*cli).ckpt,
		"table1": (*cli).table1, "slowdown": (*cli).slowdown, "trace": (*cli).trace,
	}
	c := &cli{stdout: stdout, stderr: stderr, fs: flag.NewFlagSet("compassrun", flag.ContinueOnError)}
	c.fs.SetOutput(stderr)
	c.fs.Usage = func() { fmt.Fprint(stderr, usage) }
	verb := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		verb, args = args[0], args[1:]
		c.fs.Usage = func() {
			fmt.Fprintf(stderr, "usage: compassrun %s [flags]\n", verb)
			c.fs.PrintDefaults()
		}
	}
	do, ok := verbs[verb]
	if !ok {
		fmt.Fprintf(stderr, "compassrun: unknown verb %q\n%s", verb, usage)
		return 2
	}
	// What `compassrun` with no flag at all has always run.
	c.spec = compass.RunSpec{Workload: "tpcd", CPUs: 4, Arch: "simple", Nodes: 1, Placement: "round-robin",
		Sched: "fcfs", RTC: true, Agents: 4, Tx: 25, Rows: 16384, Requests: 120}
	return do(c, args)
}

// cli is one invocation: where it prints, and the flags every verb shares,
// parsed into the one description of a run.
type cli struct {
	stdout, stderr io.Writer
	fs             *flag.FlagSet
	spec           compass.RunSpec
	gcfg           compass.GuardConfig
}

// parse registers the shared flags beside the verb's own, with what the
// verb has put in the spec as their defaults, and parses args. It returns
// false and the exit status when the verb should stop (-h, a bad flag).
func (c *cli) parse(args []string) (int, bool) {
	fs, s, g := c.fs, &c.spec, &c.gcfg
	fs.StringVar(&s.Workload, "workload", s.Workload, "tpcc | tpcd | specweb | tier3 | sor | sordsm")
	fs.IntVar(&s.CPUs, "cpus", s.CPUs, "simulated CPUs")
	fs.IntVar(&s.Shards, "shards", s.Shards, "backend lanes sharing one simulation across host cores (0/1 = serial; results are byte-identical at any value)")
	fs.StringVar(&s.Arch, "arch", s.Arch, "fixed | simple | smp | ccnuma | coma")
	fs.IntVar(&s.Nodes, "nodes", s.Nodes, "NUMA nodes (ccnuma/coma)")
	fs.StringVar(&s.Placement, "placement", s.Placement, "round-robin | block | first-touch")
	fs.StringVar(&s.Sched, "sched", s.Sched, "fcfs | affinity")
	fs.BoolVar(&s.Preempt, "preempt", s.Preempt, "preemptive scheduling")
	fs.BoolVar(&s.RTC, "rtc", s.RTC, "interval timer (timer interrupts)")
	fs.IntVar(&s.Agents, "agents", s.Agents, "workload processes (database agents, httpd workers, sor workers)")
	fs.IntVar(&s.Tx, "tx", s.Tx, "tpcc: transactions per agent")
	fs.IntVar(&s.WarmTx, "warmtx", s.WarmTx, "tpcc: transactions per agent of a warm phase before the measured one (0 = none)")
	fs.IntVar(&s.Rows, "rows", s.Rows, "tpcd: lineitem rows")
	fs.IntVar(&s.Requests, "requests", s.Requests, "specweb, tier3: trace length")
	fs.IntVar(&s.WarmReqs, "warmreqs", s.WarmReqs, "specweb: trace length of a warm phase before the measured one (0 = none)")
	fs.IntVar(&s.Dirs, "dirs", s.Dirs, "specweb: fileset directories (0 = the default, 2)")
	fs.StringVar(&s.Trace, "trace", s.Trace, "specweb: play the requests of this trace file")
	fs.IntVar(&s.N, "n", s.N, "sor: grid dimension (0 = the default, 64)")
	fs.IntVar(&s.Iters, "iters", s.Iters, "sor: sweeps over the grid (0 = the default, 6)")
	fs.Uint64Var(&s.Syncd, "syncd", s.Syncd, "buffer-cache flush daemon interval in cycles (0 = off)")
	fs.IntVar(&s.Migrate, "migrate", s.Migrate, "ccnuma page-migration threshold (0 = off)")
	fs.StringVar(&s.Faults, "faults", s.Faults, `fault plan, e.g. "seed=7,disk.transient=0.01,net.drop=0.02,mem.ecc=1e-6"`)
	fs.StringVar(&s.Load, "load", s.Load, `open-loop traffic plan (specweb/tier3), e.g. "requests=400;class=web,clients=1000000,interval=1e9,flash=2e6:4e6:8"`)
	fs.IntVar(&s.Segments, "segments", s.Segments, "tpcc: quiescent segments for auto-checkpointing (default 4 when -autockpt is set)")
	fs.StringVar(&s.AutoCkptDir, "autockpt", s.AutoCkptDir, "tpcc: write a checkpoint into this directory at every segment boundary, and resume from the latest one found there")
	fs.StringVar(&s.Chaos, "chaos", s.Chaos, `failure injection: comma-separated "crashseed=N", "crashsegment=N", "block"`)
	fs.DurationVar(&g.Deadline, "deadline", g.Deadline, "abort a run after this much host time (0 = off)")
	fs.DurationVar(&g.Stall, "stall", g.Stall, "abort a run whose event dispatch stalls for this much host time (0 = off)")
	fs.IntVar(&g.Retries, "retries", g.Retries, "campaign: retry a failed seed this many times before quarantine")
	fs.StringVar(&g.BundleDir, "bundle", g.BundleDir, "write crash-repro bundles under this directory on failure")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return 2, false
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(c.stderr, "compassrun: unexpected argument %q\n", fs.Arg(0))
		return 2, false
	}
	if s.AutoCkptDir != "" && s.Segments == 0 {
		s.Segments = 4
	}
	return 0, true
}

// simulate is the one way a verb runs a spec: FromSpec, what the verb
// itself does to the run (adjust may be nil), Run. A spec that cannot run
// as asked is exit status 2, a run that failed its one line and 1.
func (c *cli) simulate(spec compass.RunSpec, adjust func(*compass.Options)) (compass.Result, int) {
	cfg, w, o, err := compass.FromSpec(spec, c.gcfg)
	if err != nil {
		fmt.Fprintln(c.stderr, err)
		return compass.Result{}, 2
	}
	if adjust != nil {
		adjust(&o)
	}
	res, err := compass.Run(cfg, w, o)
	if err != nil {
		return res, c.failed(err)
	}
	return res, 0
}

// failed prints a failed run's one structured line; the exit status is 1.
func (c *cli) failed(err error) int {
	fmt.Fprintln(c.stderr, guard.OneLine(err))
	return 1
}

// fail prints what stopped a verb that was not simulating (a file it could
// not read or write); the exit status is 1.
func (c *cli) fail(verb string, err error) int {
	fmt.Fprintf(c.stderr, "compassrun %s: %v\n", verb, err)
	return 1
}

// report prints a Result: its line, the workload's tallies, and the load
// and fault tables of a run that has them.
func (c *cli) report(res compass.Result) {
	fmt.Fprintln(c.stdout, res)
	keys := make([]string, 0, len(res.Extra))
	//det:ordered keys are sorted before printing
	for k := range res.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(c.stdout, "  %-18s %.1f\n", k, res.Extra[k])
	}
	if res.LoadTable != "" {
		fmt.Fprintln(c.stdout)
		fmt.Fprint(c.stdout, res.LoadTable)
	}
	if ft := res.FaultTable(); ft != "" {
		fmt.Fprintln(c.stdout)
		fmt.Fprint(c.stdout, ft)
	}
}

func (c *cli) run(args []string) int {
	var (
		counters   = c.fs.Bool("counters", false, "dump backend counters")
		syscalls   = c.fs.Bool("syscalls", false, "dump per-kernel-call profile")
		parallel   = c.fs.Int("parallel", 1, "experiment-engine workers (0 = host cores)")
		seeds      = c.fs.Int("seeds", 0, "fault-seed campaign: run this many consecutive seeds from the -faults base seed")
		progress   = c.fs.Bool("progress", false, "print an engine progress line to stderr")
		repro      = c.fs.String("repro", "", "replay the crash-repro bundle in this directory and verify the failure reproduces")
		cpuProfile = c.fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = c.fs.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	if status, ok := c.parse(args); !ok {
		return status
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(c.stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(c.stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(c.stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(c.stderr, "memprofile: %v\n", err)
			}
		}()
	}

	switch {
	case *repro != "":
		return c.repro(*repro)
	case *seeds > 0:
		return c.campaign(*seeds, *parallel, *progress)
	}
	res, status := c.simulate(c.spec, nil)
	if status != 0 {
		return status
	}
	c.report(res)
	if *counters {
		fmt.Fprintln(c.stdout)
		fmt.Fprint(c.stdout, res.Counters.String())
	}
	if *syscalls {
		fmt.Fprintln(c.stdout)
		fmt.Fprint(c.stdout, res.Syscalls)
	}
	return 0
}

// campaign runs the spec under n consecutive fault seeds on the experiment
// engine and prints the aggregate; a seed that failed past its retries is
// one quarantine line each and exit status 1.
func (c *cli) campaign(n, workers int, progress bool) int {
	cfg, w, o, err := compass.FromSpec(c.spec, c.gcfg)
	if err != nil {
		fmt.Fprintln(c.stderr, err)
		return 2
	}
	opts := compass.ExptOptions{Workers: workers}
	if progress {
		// One rewritten stderr line per engine update.
		opts.Progress = func(p compass.Progress) {
			fmt.Fprintf(c.stderr, "\rexpt %d/%d done, %d in flight, %.2e sim cycles, ETA %s   ",
				p.Done, p.Total, p.InFlight, float64(p.DoneCycles), p.ETA.Round(100_000_000))
		}
	}
	camp := compass.RunSeedCampaign(cfg, compass.CampaignSeeds(cfg.Faults.Seed, n), w, o, opts)
	if progress {
		fmt.Fprintln(c.stderr)
	}
	fmt.Fprint(c.stdout, camp)
	if ft := camp.FaultTable(); ft != "" {
		fmt.Fprintln(c.stdout)
		fmt.Fprint(c.stdout, ft)
	}
	fmt.Fprintf(c.stdout, "campaign wall %.2fs on %d workers\n", camp.Wall.Seconds(), camp.Workers)
	for _, f := range camp.Failed {
		fmt.Fprintln(c.stderr, guard.OneLine(&guard.QuarantineError{Label: fmt.Sprintf("seed%d", f.Seed),
			Attempts: f.Attempts, Last: &guard.Abort{Kind: f.Kind, Reason: f.Reason, Bundle: f.Bundle}}))
	}
	if len(camp.Failed) > 0 {
		return 1
	}
	return 0
}

// repro replays a crash-repro bundle from scratch and reports whether
// the bundled failure reproduces. Exit status: 0 when the replay fails
// with the bundled kind (reproduced), 1 otherwise (clean run or a
// different failure — the bundle does not describe a deterministic crash).
func (c *cli) repro(dir string) int {
	m, err := guard.ReadBundle(dir)
	if err != nil {
		fmt.Fprintf(c.stderr, "repro: %v\n", err)
		return 2
	}
	// Replay from scratch: the failed run's auto-checkpoints are for its
	// retries, not for the determinism check, so the replay writes its own
	// into a scratch directory.
	spec := m.Spec
	if spec.AutoCkptDir != "" {
		scratch, err := os.MkdirTemp("", "compass-repro-*")
		if err != nil {
			fmt.Fprintf(c.stderr, "repro: %v\n", err)
			return 2
		}
		defer os.RemoveAll(scratch)
		spec.AutoCkptDir = scratch
	}
	gcfg := c.gcfg
	gcfg.BundleDir = "" // a repro of a crash should not mint more bundles
	if gcfg.Deadline <= 0 && (m.Kind == guard.KindWatchdog.String() || m.Kind == guard.KindLivelock.String()) {
		// Watchdog failures only reproduce under a watchdog.
		gcfg.Deadline = 30 * time.Second
	}
	cfg, w, o, err := compass.FromSpec(spec, gcfg)
	if err != nil {
		fmt.Fprintf(c.stderr, "repro: %v\n", err)
		return 2
	}
	_, err = compass.Run(cfg, w, o)
	if err == nil {
		fmt.Fprintf(c.stderr, "repro: run completed cleanly; bundled failure (kind=%s) did not reproduce\n", m.Kind)
		return 1
	}
	var a *guard.Abort
	if errors.As(err, &a) && a.Kind.String() == m.Kind {
		fmt.Fprintf(c.stdout, "repro: reproduced %s\n", guard.OneLine(err))
		return 0
	}
	fmt.Fprintf(c.stderr, "repro: bundled kind=%s but replay produced %s\n", m.Kind, guard.OneLine(err))
	return 1
}
