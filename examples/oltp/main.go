// OLTP: TPC-C-like transactions against the shared-buffer-pool database
// engine on two target architectures (bus SMP vs CC-NUMA), showing how an
// architecture study reads COMPASS output.
package main

import (
	"fmt"
	"log"

	"compass"
)

func run(arch compass.Arch, nodes int, label string) {
	cfg := compass.DefaultConfig()
	cfg.Arch = arch
	cfg.Nodes = nodes
	w := compass.DefaultTPCC()
	w.Agents = 4
	w.TxPerAgent = 20
	res, err := compass.Run(cfg, compass.TPCC(w), compass.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s %s\n", label, res)
	fmt.Printf("           pool hits %.0f, misses %.0f\n",
		res.Extra["pool.hits"], res.Extra["pool.misses"])
}

func main() {
	fmt.Println("TPCC/db on two shared-memory targets")
	run(compass.ArchSMP, 1, "smp")
	run(compass.ArchCCNUMA, 4, "ccnuma")
}
