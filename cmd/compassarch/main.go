// Command compassarch runs one workload across the simulated target
// architectures (the paper's §5 study: "a variety of shared memory
// architectures such as CCNUMA, COMA and software DSM multiprocessors")
// and prints a comparison table.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"compass"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compassarch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "sor", "sor | tpcd | tpcc")
		nodes    = fs.Int("nodes", 4, "NUMA nodes for ccnuma/coma/dsm")
		n        = fs.Int("n", 96, "sor: grid dimension")
		rows     = fs.Int("rows", 8192, "tpcd: lineitem rows")
		tx       = fs.Int("tx", 15, "tpcc: transactions per agent")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	type cell struct {
		name string
		cfg  compass.Config
		w    compass.Workload
	}
	mk := func(arch compass.Arch, nn int) compass.Config {
		cfg := compass.DefaultConfig()
		cfg.Arch = arch
		cfg.Nodes = nn
		if arch == compass.ArchCCNUMA {
			cfg.Placement = compass.PlaceFirstTouch
		}
		return cfg
	}
	// The same description runs on every target; only the machine differs.
	targets := func(w compass.Workload) []cell {
		return []cell{
			{"simple", mk(compass.ArchSimple, 1), w},
			{"smp", mk(compass.ArchSMP, 1), w},
			{"ccnuma", mk(compass.ArchCCNUMA, *nodes), w},
			{"coma", mk(compass.ArchCOMA, *nodes), w},
		}
	}
	var cells []cell
	switch *workload {
	case "sor":
		w := compass.SORConfig{N: *n, Iters: 5, Procs: 4}
		// The kernel's study leaves the one-level backend out and ends on
		// the software-DSM cluster, which is a description of its own.
		cells = append(targets(compass.SOR(w))[1:], cell{"sw-dsm", compass.DefaultConfig(), compass.SORDSM(w)})
	case "tpcd":
		w := compass.DefaultTPCD()
		w.Rows = *rows
		cells = targets(compass.TPCD(w, compass.QueryScanAgg, true))
	case "tpcc":
		w := compass.DefaultTPCC()
		w.TxPerAgent = *tx
		cells = targets(compass.TPCC(w))
	default:
		fmt.Fprintf(stderr, "unknown workload %q\n", *workload)
		return 2
	}

	fmt.Fprintf(stdout, "architecture study: %s\n", *workload)
	fmt.Fprintf(stdout, "%-8s %14s %8s %8s %8s\n", "target", "sim cycles", "user%", "OS%", "wall(s)")
	base := uint64(0)
	for _, c := range cells {
		res, err := compass.Run(c.cfg, c.w, compass.Options{})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if base == 0 {
			base = res.Cycles
		}
		fmt.Fprintf(stdout, "%-8s %14d %7.1f%% %7.1f%% %8.2f   (%.2fx of %s)\n",
			c.name, res.Cycles, res.Profile.UserPct, res.Profile.OSPct,
			res.Wall.Seconds(), float64(res.Cycles)/float64(base), cells[0].name)
	}
	return 0
}
