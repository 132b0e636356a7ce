package compass

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"compass/internal/machine"
	"compass/internal/stats"
)

// Table1Row pairs a measured profile with the paper's reported numbers.
type Table1Row struct {
	Profile stats.Profile
	// Paper values for side-by-side comparison.
	PaperUser, PaperOS, PaperIntr, PaperKernel float64
	// Syscalls is the measured per-kernel-call breakdown.
	Syscalls string
}

// Table1 reproduces the paper's Table 1 ("User vs. OS time"): profiles of
// SPECWeb/httpd, TPCD/db and TPCC/db, each the run spec describes with the
// workload set (`compassrun table1`). The paper profiled a real 4-way AIX
// SMP; the two-level snooping SMP is the closest simulated target, so the
// architecture is set too.
func Table1(spec RunSpec) ([]Table1Row, error) {
	rows := []Table1Row{
		{PaperUser: 14.9, PaperOS: 85.1, PaperIntr: 37.8, PaperKernel: 47.3},
		{PaperUser: 81, PaperOS: 19, PaperIntr: 8.6, PaperKernel: 10.4},
		{PaperUser: 79, PaperOS: 21, PaperIntr: 14.6, PaperKernel: 6.4},
	}
	spec.Arch = "smp"
	for i, workload := range []string{"specweb", "tpcd", "tpcc"} {
		spec.Workload = workload
		cfg, w, o, err := FromSpec(spec, GuardConfig{})
		if err != nil {
			return nil, err
		}
		res, err := Run(cfg, w, o)
		if err != nil {
			return nil, err
		}
		rows[i].Profile, rows[i].Syscalls = res.Profile, res.Syscalls
	}
	return rows, nil
}

// FormatTable1 renders rows like the paper's Table 1, with the paper's
// numbers alongside.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %10s %10s %12s %10s   (paper: user/OS = intr + kernel)\n",
		"benchmark", "user", "OS total", "interrupt", "kernel")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %9.1f%% %9.1f%% %11.1f%% %9.1f%%   (%.1f / %.1f = %.1f + %.1f)\n",
			r.Profile.Name, r.Profile.UserPct, r.Profile.OSPct,
			r.Profile.InterruptPct, r.Profile.KernelPct,
			r.PaperUser, r.PaperOS, r.PaperIntr, r.PaperKernel)
	}
	return b.String()
}

// SlowdownRow is one row of the paper's Tables 2/3: execution time and
// slowdown versus the raw run.
type SlowdownRow struct {
	Mode     string
	Wall     time.Duration
	Cycles   uint64
	Slowdown float64
}

// SlowdownResult is a Table-2/3 reproduction.
type SlowdownResult struct {
	HostProcs int
	Rows      []SlowdownRow
}

// Format renders the table.
func (s SlowdownResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "host GOMAXPROCS=%d\n", s.HostProcs)
	fmt.Fprintf(&b, "%-16s %14s %14s %10s\n", "backend", "wall(s)", "sim cycles", "slowdown")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%-16s %14.3f %14d %9.1fx\n", r.Mode, r.Wall.Seconds(), r.Cycles, r.Slowdown)
	}
	return b.String()
}

// Slowdown reproduces the paper's Table 2 (hostProcs=1) and Table 3
// (hostProcs=4): the TPCD query (Q1+Q6 scan) of the run spec describes,
// executed raw (simulation switch off), under the simple backend, and
// under the complex (CC-NUMA, a node a CPU) backend (`compassrun
// slowdown`). hostProcs also selects the event port the paper's host would
// use: on one host CPU only one of backend and frontends can run at a
// time, which is the default port's direct hand-off; on an SMP host the
// frontends execute in parallel with the backend and rendezvous through
// shared memory (SpinPorts). Frontends execute host work proportional to
// their simulated compute (Sim.SetHostWork), which is what the raw
// baseline measures — as in the paper, where the raw run is the
// application executing natively.
func Slowdown(spec RunSpec, hostProcs int) (SlowdownResult, error) {
	spec.Workload = "tpcd"
	// The runs are unsupervised: a session's dispatch ring and watchdog
	// gauge are host time the table would count as the simulator's.
	cfg, instrumented, _, err := FromSpec(spec, GuardConfig{})
	if err != nil {
		return SlowdownResult{}, err
	}
	cfg.SpinPorts = hostProcs > 1
	prev := cfg.Observe
	cfg.Observe = func(m *machine.Machine) {
		if prev != nil {
			prev(m)
		}
		m.Sim.SetHostWork(1.0)
	}
	out := SlowdownResult{HostProcs: hostProcs}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(hostProcs))
	for _, row := range []struct {
		mode string
		arch Arch
		w    Workload
	}{
		{"raw", ArchFixed, TPCD(specTPCD(spec), QueryScanAgg, false)},
		{"simple backend", ArchSimple, instrumented},
		{"complex backend", ArchCCNUMA, instrumented},
	} {
		cfg.Arch, cfg.Nodes = row.arch, 1
		if row.arch == ArchCCNUMA {
			cfg.Nodes = cfg.CPUs
		}
		res, err := Run(cfg, row.w, Options{})
		if err != nil {
			return SlowdownResult{}, err
		}
		slowdown := 1.0
		if len(out.Rows) > 0 {
			slowdown = float64(res.Wall) / float64(out.Rows[0].Wall)
		}
		out.Rows = append(out.Rows, SlowdownRow{Mode: row.mode, Wall: res.Wall, Cycles: res.Cycles, Slowdown: slowdown})
	}
	return out, nil
}
