// Command compassslow regenerates the paper's Tables 2 and 3 (simulation
// slowdown): the TPCD query run raw (simulation switch off), under the
// simple backend (one cache level) and under the complex backend
// (CC-NUMA), on a uniprocessor host (Table 2, GOMAXPROCS=1) and a 4-way
// host (Table 3, GOMAXPROCS=4).
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
	fs := flag.NewFlagSet("compassslow", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		rows   = fs.Int("rows", 16384, "TPCD lineitem rows")
		agents = fs.Int("agents", 4, "frontend processes")
		cpus   = fs.Int("cpus", 4, "simulated CPUs")
		host   = fs.Int("host", 4, "host CPUs for the Table-3 run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fmt.Fprintln(stdout, "Table 2: slowdown on uniprocessor host")
	t2 := compass.Slowdown(1, *cpus, *agents, *rows)
	fmt.Fprint(stdout, t2.Format())
	fmt.Fprintln(stdout, "(paper, 133MHz PowerPC: raw 52s; simple 16149s = 310x; complex 34841s = 670x)")
	fmt.Fprintln(stdout)

	fmt.Fprintf(stdout, "Table 3: slowdown on %d-way SMP host\n", *host)
	t3 := compass.Slowdown(*host, *cpus, *agents, *rows)
	fmt.Fprint(stdout, t3.Format())
	fmt.Fprintln(stdout, "(paper: COMPASS runs >2x faster on the SMP host for the complex backend)")
	fmt.Fprintln(stdout)

	// Cross-table speedup, the paper's headline observation.
	for i := 1; i < 3; i++ {
		sp := float64(t2.Rows[i].Wall) / float64(t3.Rows[i].Wall)
		fmt.Fprintf(stdout, "SMP-host speedup, %s: %.2fx\n", t2.Rows[i].Mode, sp)
	}
	return 0
}
