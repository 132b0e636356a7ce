package main

import (
	"fmt"
	"os"
	"strings"

	"compass"
	"compass/internal/checkpoint"
	"compass/internal/trace"
)

// arch runs the spec's workload across the simulated target architectures
// (the paper's §5 study: "a variety of shared memory architectures such as
// CCNUMA, COMA and software DSM multiprocessors") and prints a comparison
// table. The study sets -arch, gives -nodes to the NUMA targets alone and
// places CC-NUMA pages by first touch.
func (c *cli) arch(args []string) int {
	c.spec.Workload, c.spec.Nodes, c.spec.N, c.spec.Iters, c.spec.Rows, c.spec.Tx = "sor", 4, 96, 5, 8192, 15
	if status, ok := c.parse(args); !ok {
		return status
	}
	type target struct {
		name string
		spec compass.RunSpec
	}
	var targets []target
	for _, name := range []string{"simple", "smp", "ccnuma", "coma"} {
		s := c.spec
		s.Arch = name
		switch name {
		case "simple", "smp":
			s.Nodes = 1
		case "ccnuma":
			s.Placement = "first-touch"
		}
		targets = append(targets, target{name, s})
	}
	if c.spec.Workload == "sor" {
		// The kernel's study leaves the one-level backend out and ends on
		// the software-DSM cluster, which is a description of its own.
		s := targets[0].spec
		s.Workload = "sordsm"
		targets = append(targets[1:], target{"sw-dsm", s})
	}
	// The same description runs on every target; only the machine differs.
	// Every machine is checked before the first one runs.
	for _, t := range targets {
		if _, _, _, err := compass.FromSpec(t.spec, c.gcfg); err != nil {
			fmt.Fprintln(c.stderr, err)
			return 2
		}
	}

	fmt.Fprintf(c.stdout, "architecture study: %s\n", c.spec.Workload)
	fmt.Fprintf(c.stdout, "%-8s %14s %8s %8s %8s\n", "target", "sim cycles", "user%", "OS%", "wall(s)")
	base := uint64(0)
	for _, t := range targets {
		res, status := c.simulate(t.spec, nil)
		if status != 0 {
			return status
		}
		if base == 0 {
			base = res.Cycles
		}
		fmt.Fprintf(c.stdout, "%-8s %14d %7.1f%% %7.1f%% %8.2f   (%.2fx of %s)\n",
			t.name, res.Cycles, res.Profile.UserPct, res.Profile.OSPct,
			res.Wall.Seconds(), float64(res.Cycles)/float64(base), targets[0].name)
	}
	return 0
}

// ckpt creates, inspects and resumes warm-start machine snapshots. A
// snapshot captures a quiescent machine after the workload's warm phase
// (-warmtx, -warmreqs); resuming it runs only the measured phase and
// produces bit-identical stats to the uninterrupted two-phase run.
func (c *cli) ckpt(args []string) int {
	c.spec.Workload, c.spec.WarmTx, c.spec.WarmReqs = "tpcc", 10, 60
	var (
		create = c.fs.String("create", "", "run the warm phase, write a snapshot to this path, and run the measured phase")
		info   = c.fs.String("info", "", "print a snapshot's header (cycle, config hash, stats summary)")
		resume = c.fs.String("resume", "", "restore this snapshot and run the measured phase")
	)
	if status, ok := c.parse(args); !ok {
		return status
	}
	given := 0
	for _, path := range []string{*create, *info, *resume} {
		if path != "" {
			given++
		}
	}
	if given != 1 {
		fmt.Fprintln(c.stderr, "compassrun ckpt: need exactly one of -create, -info, -resume")
		return 2
	}
	if *info != "" {
		return c.ckptInfo(*info)
	}
	if *create != "" {
		// A file written after the only phase would hold nothing that the
		// same flags could resume. What else is wrong, simulate says.
		if cfg, w, _, err := compass.FromSpec(c.spec, c.gcfg); err == nil {
			if n, err := compass.Phases(cfg, w); err == nil && n < 2 {
				fmt.Fprintf(c.stderr, "compass: ckpt -create saves the machine after a warm phase; this %s run has one phase\n", c.spec.Workload)
				return 2
			}
		}
	}
	res, status := c.simulate(c.spec, func(o *compass.Options) {
		o.WarmupCheckpoint, o.ResumeFrom = *create, *resume
	})
	if status != 0 {
		return status
	}
	fmt.Fprintln(c.stdout, res)
	if *create != "" {
		return c.ckptInfo(*create)
	}
	return 0
}

// ckptInfo prints a snapshot's 80-byte header.
func (c *cli) ckptInfo(path string) int {
	f, err := os.Open(path)
	if err != nil {
		return c.fail("ckpt", err)
	}
	defer f.Close()
	inf, err := checkpoint.ReadInfo(f)
	if err != nil {
		return c.fail("ckpt", err)
	}
	st, err := f.Stat()
	if err != nil {
		return c.fail("ckpt", err)
	}
	total := inf.UserCycles + inf.KernelCycles + inf.IntrCycles
	fmt.Fprintf(c.stdout, "checkpoint      %s (%d bytes)\n", path, st.Size())
	fmt.Fprintf(c.stdout, "format version  %d\n", inf.Version)
	fmt.Fprintf(c.stdout, "config hash     %x\n", inf.ConfigHash)
	fmt.Fprintf(c.stdout, "cycle           %d\n", inf.Cycle)
	fmt.Fprintf(c.stdout, "cpu cycles      %d (user %d, kernel %d, interrupt %d)\n",
		total, inf.UserCycles, inf.KernelCycles, inf.IntrCycles)
	return 0
}

// table1 regenerates the paper's Table 1 ("User vs. OS time"): the user /
// OS / interrupt-handler / kernel split of SPECWeb/httpd, TPCD/db and
// TPCC/db on the machine the flags describe as an SMP, with the paper's
// reported values alongside.
func (c *cli) table1(args []string) int {
	if status, ok := c.parse(args); !ok {
		return status
	}
	table, err := compass.Table1(c.spec)
	if err != nil {
		return c.failed(err)
	}
	fmt.Fprintln(c.stdout, "Table 1: User vs. OS time")
	fmt.Fprint(c.stdout, compass.FormatTable1(table))
	fmt.Fprintln(c.stdout)
	fmt.Fprintln(c.stdout, "Per-kernel-call breakdown (the paper's \"handful of OS calls\"):")
	for _, r := range table {
		fmt.Fprintf(c.stdout, "\n%s\n%s", r.Profile.Name, r.Syscalls)
	}
	return 0
}

// slowdown regenerates the paper's Tables 2 and 3 (simulation slowdown):
// the TPCD query run raw (simulation switch off), under the simple backend
// (one cache level) and under the complex backend (CC-NUMA), on a
// uniprocessor host (Table 2, GOMAXPROCS=1) and a -host-way host (Table 3).
func (c *cli) slowdown(args []string) int {
	host := c.fs.Int("host", 4, "host CPUs for the Table-3 run")
	if status, ok := c.parse(args); !ok {
		return status
	}
	t2, err := compass.Slowdown(c.spec, 1)
	if err != nil {
		return c.failed(err)
	}
	fmt.Fprintln(c.stdout, "Table 2: slowdown on uniprocessor host")
	fmt.Fprint(c.stdout, t2.Format())
	fmt.Fprintln(c.stdout, "(paper, 133MHz PowerPC: raw 52s; simple 16149s = 310x; complex 34841s = 670x)")
	fmt.Fprintln(c.stdout)

	t3, err := compass.Slowdown(c.spec, *host)
	if err != nil {
		return c.failed(err)
	}
	fmt.Fprintf(c.stdout, "Table 3: slowdown on %d-way SMP host\n", *host)
	fmt.Fprint(c.stdout, t3.Format())
	fmt.Fprintln(c.stdout, "(paper: COMPASS runs >2x faster on the SMP host for the complex backend)")
	fmt.Fprintln(c.stdout)

	// Cross-table speedup, the paper's headline observation.
	for i := 1; i < 3; i++ {
		sp := float64(t2.Rows[i].Wall) / float64(t3.Rows[i].Wall)
		fmt.Fprintf(c.stdout, "SMP-host speedup, %s: %.2fx\n", t2.Rows[i].Mode, sp)
	}
	return 0
}

// trace manages HTTP request trace files — the paper's intermediate trace
// mechanism (§4.2): generate the trace a specweb run of the flags would
// play and save it, inspect a saved trace, or replay one against the
// simulated web server (a specweb run with -trace set).
func (c *cli) trace(args []string) int {
	mode := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		mode, args = args[0], args[1:]
	}
	c.spec.Workload, c.spec.Requests, c.spec.Trace = "specweb", 200, "specweb.trace"
	if status, ok := c.parse(args); !ok {
		return status
	}
	file := c.spec.Trace
	fail := func(err error) int { return c.fail("trace", err) }
	switch mode {
	case "generate":
		tr := compass.SpecTrace(c.spec)
		f, err := os.Create(file)
		if err != nil {
			return fail(err)
		}
		if err := tr.Save(f); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(c.stdout, "wrote %d requests to %s\n", len(tr), file)
	case "show":
		f, err := os.Open(file)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		tr, err := trace.Load(f)
		if err != nil {
			return fail(err)
		}
		if len(tr) == 0 {
			return fail(fmt.Errorf("%s: empty trace", file))
		}
		var bytes int64
		for _, r := range tr {
			bytes += int64(r.Size)
		}
		fmt.Fprintf(c.stdout, "%s: %d requests, %d body bytes, first: %s %d\n",
			file, len(tr), bytes, tr[0].Path, tr[0].Size)
	case "replay":
		res, status := c.simulate(c.spec, nil)
		if status != 0 {
			return status
		}
		c.report(res)
	default:
		fmt.Fprintf(c.stderr, "usage: compassrun trace generate|show|replay [flags] (unknown mode %q)\n", mode)
		return 2
	}
	return 0
}
