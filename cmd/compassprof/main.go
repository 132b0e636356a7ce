// Command compassprof regenerates the paper's Table 1 ("User vs. OS
// time"): the user / OS / interrupt-handler / kernel split for
// SPECWeb/httpd, TPCD/db and TPCC/db on a 4-way simulated machine, with
// the paper's reported values alongside.
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
	fs := flag.NewFlagSet("compassprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cpus     = fs.Int("cpus", 4, "simulated CPUs")
		tx       = fs.Int("tpcc-tx", 25, "TPCC transactions per agent")
		rows     = fs.Int("tpcd-rows", 16384, "TPCD lineitem rows")
		requests = fs.Int("web-requests", 120, "SPECWeb trace length")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	scale := compass.DefaultTable1Scale()
	scale.CPUs = *cpus
	scale.TPCCTx = *tx
	scale.TPCDRows = *rows
	scale.WebRequests = *requests
	table := compass.Table1(scale)
	fmt.Fprintln(stdout, "Table 1: User vs. OS time")
	fmt.Fprint(stdout, compass.FormatTable1(table))
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "Per-kernel-call breakdown (the paper's \"handful of OS calls\"):")
	for _, r := range table {
		fmt.Fprintf(stdout, "\n%s\n%s", r.Profile.Name, r.Syscalls)
	}
	return 0
}
