// Command compassckpt creates, inspects, and resumes warm-start machine
// snapshots. A snapshot captures a quiescent machine after a workload's
// warm phase; resuming it runs only the measured phase and produces
// bit-identical stats to the uninterrupted two-phase run.
//
// Usage:
//
//	compassckpt -create warm.ckpt -workload tpcc -cpus 4
//	compassckpt -info warm.ckpt
//	compassckpt -resume warm.ckpt -workload tpcc -tx 30
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"compass"
	"compass/internal/checkpoint"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compassckpt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		create   = fs.String("create", "", "run the warm phase and write a snapshot to this path")
		info     = fs.String("info", "", "print a snapshot's header (cycle, config hash, stats summary)")
		resume   = fs.String("resume", "", "restore this snapshot and run the measured phase")
		workload = fs.String("workload", "tpcc", "tpcc | specweb")
		cpus     = fs.Int("cpus", 4, "simulated CPUs")
		arch     = fs.String("arch", "simple", "fixed | simple | smp | ccnuma | coma")
		agents   = fs.Int("agents", 4, "workload processes (tpcc agents / httpd workers)")
		tx       = fs.Int("tx", 25, "tpcc: measured transactions per agent")
		warmTx   = fs.Int("warmtx", 10, "tpcc: warm-phase transactions per agent")
		requests = fs.Int("requests", 120, "specweb: measured trace length")
		warmReq  = fs.Int("warmreqs", 60, "specweb: warm-phase trace length")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *info != "" {
		return printInfo(stdout, stderr, *info)
	}
	if (*create == "") == (*resume == "") {
		fmt.Fprintln(stderr, "compassckpt: need exactly one of -create, -info, -resume")
		return 2
	}

	cfg := compass.DefaultConfig()
	cfg.CPUs = *cpus
	var err error
	if cfg.Arch, err = compass.ParseArch(*arch); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var w compass.Workload
	switch *workload {
	case "tpcc":
		warm := compass.DefaultTPCC()
		warm.Agents = *agents
		warm.TxPerAgent = *warmTx
		measured := warm
		measured.TxPerAgent = *tx
		measured.Seed = warm.Seed + 1
		w = compass.TPCC(warm, measured)
	case "specweb":
		warm := compass.DefaultSPECWeb()
		warm.Requests = *warmReq
		measured := warm
		measured.Requests = *requests
		measured.Seed = warm.Seed + 1
		w = compass.SPECWeb(*agents, *agents, warm, measured)
	default:
		fmt.Fprintf(stderr, "unknown workload %q\n", *workload)
		return 2
	}
	res, err := compass.Run(cfg, w, compass.Options{WarmupCheckpoint: *create, ResumeFrom: *resume})
	if err != nil {
		fmt.Fprintf(stderr, "compassckpt: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, res)
	if *create != "" {
		return printInfo(stdout, stderr, *create)
	}
	return 0
}

func printInfo(stdout, stderr io.Writer, path string) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(stderr, "compassckpt: %v\n", err)
		return 1
	}
	defer f.Close()
	inf, err := checkpoint.ReadInfo(f)
	if err != nil {
		fmt.Fprintf(stderr, "compassckpt: %v\n", err)
		return 1
	}
	st, _ := f.Stat()
	total := inf.UserCycles + inf.KernelCycles + inf.IntrCycles
	fmt.Fprintf(stdout, "checkpoint      %s (%d bytes)\n", path, st.Size())
	fmt.Fprintf(stdout, "format version  %d\n", inf.Version)
	fmt.Fprintf(stdout, "config hash     %x\n", inf.ConfigHash)
	fmt.Fprintf(stdout, "cycle           %d\n", inf.Cycle)
	fmt.Fprintf(stdout, "cpu cycles      %d (user %d, kernel %d, interrupt %d)\n",
		total, inf.UserCycles, inf.KernelCycles, inf.IntrCycles)
	return 0
}
