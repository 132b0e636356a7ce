// Package compass is a reproduction of COMPASS — the COMmercial PArallel
// Shared memory Simulator (Nanda et al., IPPS 1998) — an execution-driven
// simulator for commercial applications (OLTP, decision support, web
// serving) on shared-memory multiprocessors, with selective operating-
// system simulation.
//
// The package is the public facade: it assembles simulated machines
// (backend architecture models, kernel services, devices, OS server),
// runs the ported workloads (a DB2-like database engine under TPC-C-like
// and TPC-D-like loads, an Apache-like web server under a SPECWeb96-like
// trace), and regenerates the paper's evaluation tables.
//
// Quick start:
//
//	cfg := compass.DefaultConfig()
//	w := compass.TPCDConfig{Rows: 8192, Orders: 128, Agents: 4, PoolPages: 48, Seed: 7}
//	res, err := compass.Run(cfg, compass.TPCD(w, compass.QueryScanAgg, true), compass.Options{})
//	fmt.Println(res.Profile, err)
package compass

import (
	"fmt"
	"time"

	"compass/internal/apps/splash"
	"compass/internal/apps/tier3"
	"compass/internal/apps/tpcc"
	"compass/internal/apps/tpcd"
	"compass/internal/core"
	"compass/internal/fault"
	"compass/internal/machine"
	"compass/internal/mem"
	"compass/internal/specweb"
	"compass/internal/stats"
)

// Arch selects the simulated target architecture.
type Arch = machine.Arch

// Architecture constants.
const (
	// ArchFixed is a constant-latency memory model.
	ArchFixed = machine.ArchFixed
	// ArchSimple is the paper's simple backend (one cache level per CPU).
	ArchSimple = machine.ArchSimple
	// ArchSMP is a two-level-cache snooping-bus SMP.
	ArchSMP = machine.ArchSMP
	// ArchCCNUMA is the paper's complex backend (CC-NUMA directory).
	ArchCCNUMA = machine.ArchCCNUMA
	// ArchCOMA is a cache-only memory architecture.
	ArchCOMA = machine.ArchCOMA
)

// Placement constants (page home-node assignment, §3.3.1).
const (
	PlaceRoundRobin = mem.PlaceRoundRobin
	PlaceBlock      = mem.PlaceBlock
	PlaceFirstTouch = mem.PlaceFirstTouch
)

// Scheduler constants (§3.3.2).
const (
	SchedFCFS     = core.SchedFCFS
	SchedAffinity = core.SchedAffinity
)

// Config describes the simulated machine; see machine.Config for fields.
type Config = machine.Config

// DefaultConfig returns a 4-CPU simple-backend machine.
func DefaultConfig() Config { return machine.Default() }

// FaultConfig is the deterministic fault plan (Config.Faults); see
// fault.Config for fields. All-zero rates mean no injection.
type FaultConfig = fault.Config

// ParseFaultSpec parses a -faults command-line specification such as
// "seed=42,disk.transient=0.01,net.drop=0.02,mem.ecc=1e-6".
func ParseFaultSpec(spec string) (FaultConfig, error) { return fault.ParseSpec(spec) }

// Workload configuration aliases.
type (
	// TPCCConfig scales the OLTP workload.
	TPCCConfig = tpcc.Config
	// TPCDConfig scales the decision-support workload.
	TPCDConfig = tpcd.Config
	// SPECWebConfig scales the web fileset and trace.
	SPECWebConfig = specweb.Config
	// SORConfig scales the scientific grid solver.
	SORConfig = splash.SORConfig
)

// DefaultTPCC returns the calibrated TPCC scale.
func DefaultTPCC() TPCCConfig { return tpcc.DefaultConfig() }

// DefaultTPCD returns the calibrated TPCD scale.
func DefaultTPCD() TPCDConfig { return tpcd.DefaultConfig() }

// DefaultSPECWeb returns the calibrated SPECWeb scale.
func DefaultSPECWeb() SPECWebConfig { return specweb.DefaultConfig() }

// Result summarizes one simulation run.
type Result struct {
	// Name identifies the workload.
	Name string
	// Cycles is the final simulated time.
	Cycles uint64
	// Profile is the Table-1-style user/OS time breakdown.
	Profile stats.Profile
	// Counters are the backend's statistics (cache hits, traffic, ...).
	Counters *stats.Counters
	// Wall is the host execution time of the simulation.
	Wall time.Duration
	// Extra carries workload-specific numbers (requests served, ...).
	Extra map[string]float64
	// Syscalls is the per-kernel-call cycle breakdown (the paper's
	// "handful of OS calls" analysis), rendered as a table.
	Syscalls string
	// LoadTable is the per-class offered/completed and p50/p90/p99/p999
	// tail-latency table; empty unless the run used the open-loop
	// generator.
	LoadTable string
	// Windows and ParallelWindows count the sharded backend's
	// conservative synchronization windows (zero on a serial run). They
	// are host-side execution facts like Wall, not simulation results:
	// determinism comparisons must exclude them.
	Windows, ParallelWindows uint64
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%-14s %12d cycles  wall %8.2fs  %s",
		r.Name, r.Cycles, r.Wall.Seconds(), r.Profile.String())
}

// FaultTable renders the fault-injection and recovery counters; empty
// for a fault-free run.
func (r Result) FaultTable() string { return stats.FormatFaultTable(r.Counters) }

// Tier3Config scales the three-tier dynamic-content stack.
type Tier3Config = tier3.Config

// DefaultTier3 returns the calibrated three-tier scale.
func DefaultTier3() Tier3Config { return tier3.DefaultConfig() }
