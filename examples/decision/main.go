// Decision support: the TPC-D-like scan/aggregate queries, including the
// mmap-based scan that exercises the paper's mmap/munmap/msync profile,
// with the buffer-cache and page-in counters that explain the OS share.
package main

import (
	"fmt"
	"log"

	"compass"
)

func main() {
	cfg := compass.DefaultConfig()
	run := func(w compass.TPCDConfig, q compass.TPCDQuery) compass.Result {
		res, err := compass.Run(cfg, compass.TPCD(w, q, true), compass.Options{})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	w := compass.DefaultTPCD()
	w.Rows = 16384
	w.Agents = 4

	scan := run(w, compass.QueryScanAgg)
	fmt.Println("Q1+Q6 partitioned scans through the shared buffer pool:")
	fmt.Println(scan)

	w.Agents = 1
	mm := run(w, compass.QueryMmap)
	fmt.Println("\nmmap-based scan (page faults page blocks in through the buffer cache):")
	fmt.Println(mm)
	fmt.Printf("  page-ins: %d, mmaps: %d, munmaps: %d\n",
		mm.Counters.Get("vm.pagein"), mm.Counters.Get("vm.mmap"), mm.Counters.Get("vm.munmap"))

	jn := run(w, compass.QueryJoin)
	fmt.Println("\norder ⋈ lineitem nested-loop join:")
	fmt.Println(jn)
}
