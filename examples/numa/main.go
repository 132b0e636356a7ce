// NUMA page placement: the §3.3.1 experiment — the same SOR kernel on a
// 4-node CC-NUMA target under round-robin, block and first-touch
// placement, comparing local/remote miss ratios and completion time.
package main

import (
	"fmt"
	"log"

	"compass"
)

func run(placement int, label string) {
	cfg := compass.DefaultConfig()
	cfg.Arch = compass.ArchCCNUMA
	cfg.Nodes = 4
	switch placement {
	case 0:
		cfg.Placement = compass.PlaceRoundRobin
	case 1:
		cfg.Placement = compass.PlaceBlock
	case 2:
		cfg.Placement = compass.PlaceFirstTouch
	}
	res, err := compass.Run(cfg, compass.SOR(compass.SORConfig{N: 96, Iters: 6, Procs: 4}), compass.Options{})
	if err != nil {
		log.Fatal(err)
	}
	local := res.Counters.Get("ccnuma.miss.local")
	remote := res.Counters.Get("ccnuma.miss.remote")
	frac := 0.0
	if local+remote > 0 {
		frac = 100 * float64(local) / float64(local+remote)
	}
	fmt.Printf("%-12s %12d cycles   L2-miss locality %5.1f%% (%d local / %d remote)\n",
		label, res.Cycles, frac, local, remote)
}

func main() {
	fmt.Println("SOR on 4-node CC-NUMA under the three page-placement policies:")
	run(0, "round-robin")
	run(1, "block")
	run(2, "first-touch")
	fmt.Println("\nfirst-touch should maximize local misses: each worker touches its rows first")
}
