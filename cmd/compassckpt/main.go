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
	"os"

	"compass"
	"compass/internal/checkpoint"
)

func main() {
	var (
		create   = flag.String("create", "", "run the warm phase and write a snapshot to this path")
		info     = flag.String("info", "", "print a snapshot's header (cycle, config hash, stats summary)")
		resume   = flag.String("resume", "", "restore this snapshot and run the measured phase")
		workload = flag.String("workload", "tpcc", "tpcc | specweb")
		cpus     = flag.Int("cpus", 4, "simulated CPUs")
		arch     = flag.String("arch", "simple", "fixed | simple | smp | ccnuma | coma")
		agents   = flag.Int("agents", 4, "workload processes (tpcc agents / httpd workers)")
		tx       = flag.Int("tx", 25, "tpcc: measured transactions per agent")
		warmTx   = flag.Int("warmtx", 10, "tpcc: warm-phase transactions per agent")
		requests = flag.Int("requests", 120, "specweb: measured trace length")
		warmReq  = flag.Int("warmreqs", 60, "specweb: warm-phase trace length")
	)
	flag.Parse()

	if *info != "" {
		printInfo(*info)
		return
	}
	if (*create == "") == (*resume == "") {
		fmt.Fprintln(os.Stderr, "compassckpt: need exactly one of -create, -info, -resume")
		os.Exit(2)
	}

	cfg := compass.DefaultConfig()
	cfg.CPUs = *cpus
	var err error
	if cfg.Arch, err = compass.ParseArch(*arch); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
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
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}
	res, err := compass.Run(cfg, w, compass.Options{WarmupCheckpoint: *create, ResumeFrom: *resume})
	if err != nil {
		fmt.Fprintf(os.Stderr, "compassckpt: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(res)
	if *create != "" {
		printInfo(*create)
	}
}

func printInfo(path string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compassckpt: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	inf, err := checkpoint.ReadInfo(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compassckpt: %v\n", err)
		os.Exit(1)
	}
	st, _ := f.Stat()
	total := inf.UserCycles + inf.KernelCycles + inf.IntrCycles
	fmt.Printf("checkpoint      %s (%d bytes)\n", path, st.Size())
	fmt.Printf("format version  %d\n", inf.Version)
	fmt.Printf("config hash     %x\n", inf.ConfigHash)
	fmt.Printf("cycle           %d\n", inf.Cycle)
	fmt.Printf("cpu cycles      %d (user %d, kernel %d, interrupt %d)\n",
		total, inf.UserCycles, inf.KernelCycles, inf.IntrCycles)
}
