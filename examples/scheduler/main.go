// Scheduler study: the §3.3.2 experiment — more database processes than
// processors under the FCFS, affinity and preemptive process schedulers,
// comparing migrations, context switches and completion time.
package main

import (
	"fmt"
	"log"

	"compass"
)

func run(sched int, preempt bool, label string) {
	cfg := compass.DefaultConfig()
	cfg.CPUs = 2
	if sched == 1 {
		cfg.Scheduler = compass.SchedAffinity
	}
	cfg.Preemptive = preempt
	w := compass.DefaultTPCC()
	w.Agents = 6 // oversubscribed: 6 processes on 2 CPUs
	w.TxPerAgent = 10
	res, err := compass.Run(cfg, compass.TPCC(w), compass.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %12d cycles  ctx %6d  migrations %5d  preemptions %4d\n",
		label, res.Cycles,
		res.Counters.Get("sched.ctxswitches"),
		res.Counters.Get("sched.migrations"),
		res.Counters.Get("sched.preemptions"))
}

func main() {
	fmt.Println("TPCC with 6 agents on 2 CPUs under the three process schedulers:")
	run(0, false, "fcfs")
	run(1, false, "affinity")
	run(0, true, "fcfs+preemptive")
	fmt.Println("\naffinity should cut migrations; preemption trades switches for fairness")
}
