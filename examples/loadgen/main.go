// Loadgen: a million simulated clients against the web server through
// the open-loop traffic generator — no per-client goroutines or
// connection objects, just per-class aggregate arrival state. A
// flash-crowd window multiplies the arrival rate mid-run; the printed
// table reports per-class offered/completed counts and the
// p50/p90/p99/p999 response-time quantiles next to the Table-1 profile.
package main

import (
	"fmt"
	"os"

	"compass"
)

func main() {
	lc, err := compass.ParseLoadSpec(
		"seed=42,requests=400;" +
			"class=web,clients=1000000,interval=1e9,burst=2,objects=16;" +
			"class=api,rate=40,objects=8,flash=2e6:4e6:8")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	cfg := compass.DefaultConfig()
	res, err := compass.Run(cfg, compass.LoadHTTPD(4 /* server workers */, lc), compass.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Println("one million open-loop clients against the simulated web server")
	fmt.Println(res)
	fmt.Printf("  offered            : %.0f\n", res.Extra["offered"])
	fmt.Printf("  completed          : %.0f\n", res.Extra["completed"])
	fmt.Printf("  failed             : %.0f\n", res.Extra["failed"])
	fmt.Println()
	fmt.Print(res.LoadTable)
	if res.Extra["completed"]+res.Extra["failed"] != res.Extra["offered"] {
		fmt.Println("unexpected: offered requests unaccounted for")
		os.Exit(1)
	}
}
