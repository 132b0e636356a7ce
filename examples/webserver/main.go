// Webserver: the paper's §4.2 experiment end to end — generate a
// SPECWeb96-like fileset on the simulated disk, record a request trace,
// and replay it against the pre-forked web server through the simulated
// Ethernet, then print the Table-1-style profile showing the server lives
// in the OS.
package main

import (
	"fmt"
	"log"
	"os"

	"compass"
)

func main() {
	web := compass.DefaultSPECWeb()
	web.Dirs = 2
	web.Requests = 150

	cfg := compass.DefaultConfig()
	res, err := compass.Run(cfg, compass.SPECWeb(4 /* workers */, 8 /* concurrent clients */, web), compass.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("SPECWeb-like trace replayed against the simulated Apache-like server")
	fmt.Println(res)
	fmt.Printf("  requests completed : %.0f\n", res.Extra["requests"])
	fmt.Printf("  bytes served       : %.0f\n", res.Extra["bytes"])
	fmt.Printf("  mean latency       : %.0f cycles\n", res.Extra["latency.mean"])
	fmt.Println()
	fmt.Println("Paper's Table 1 row: user 14.9% / OS 85.1% (interrupt 37.8%, kernel 47.3%)")
	if res.Profile.OSPct < 50 {
		fmt.Println("unexpected: server not OS-dominated")
		os.Exit(1)
	}
}
