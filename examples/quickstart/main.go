// Quickstart: build a 4-CPU simulated machine, run a small parallel
// program (the SOR grid solver) on it, and print the time profile and the
// memory-system statistics — the minimal COMPASS session.
package main

import (
	"fmt"
	"log"

	"compass"
)

func main() {
	cfg := compass.DefaultConfig() // 4 CPUs, simple backend (1-level caches)
	res, err := compass.Run(cfg, compass.SOR(compass.SORConfig{N: 64, Iters: 8, Procs: 4}), compass.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("COMPASS quickstart — SOR on a 4-way simple-backend machine")
	fmt.Println(res)
	fmt.Println()
	fmt.Println("Backend counters:")
	fmt.Print(res.Counters.String())
}
