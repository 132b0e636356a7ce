// Three-tier: a dynamic-content web stack under simulation — trace-driven
// clients → pre-forked web workers → loopback connections → database tier
// with a shared buffer pool. This composes every category-1 OS service the
// paper models (TCP/IP, connect/send/recv, file I/O, shm) in one workload.
package main

import (
	"fmt"
	"log"

	"compass"
)

func main() {
	cfg := compass.DefaultConfig()
	res, err := compass.Run(cfg, compass.Tier3(compass.DefaultTier3(), 120), compass.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Dynamic-content stack: clients → httpd workers → db tier")
	fmt.Println(res)
	fmt.Printf("  requests completed : %.0f (all bodies validated against the oracle)\n", res.Extra["requests"])
	fmt.Printf("  db point queries   : %.0f OK\n", res.Extra["ok"])
	fmt.Printf("  mean latency       : %.0f cycles\n", res.Extra["latency.mean"])
}
