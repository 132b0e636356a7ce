// Package machine assembles a complete simulated system: backend
// simulator, target memory model, kernel, devices, filesystem, network
// stack and OS server — the full Figure-1 stack — from a single
// configuration. Workload tests, the public facade, the command-line
// tools and the benchmarks all build machines through this package.
package machine

import (
	"fmt"

	"compass/internal/coma"
	"compass/internal/core"
	"compass/internal/dev"
	"compass/internal/directory"
	"compass/internal/event"
	"compass/internal/fault"
	"compass/internal/frontend"
	"compass/internal/fs"
	"compass/internal/kernel"
	"compass/internal/mem"
	"compass/internal/memsys"
	"compass/internal/netstack"
	"compass/internal/osserver"
	"compass/internal/snoop"
	"compass/internal/stats"
)

// Arch selects the target memory-system architecture.
type Arch int

const (
	// ArchFixed is a constant-latency memory (fastest to simulate).
	ArchFixed Arch = iota
	// ArchSimple is the paper's simple backend: one cache level per
	// processor, idealized bus.
	ArchSimple
	// ArchSMP is a two-level-cache snooping-bus SMP.
	ArchSMP
	// ArchCCNUMA is the paper's complex backend: two-level caches, per-node
	// buses and memories, full-map directory over a mesh.
	ArchCCNUMA
	// ArchCOMA is the cache-only memory architecture target.
	ArchCOMA
)

// String names the architecture.
func (a Arch) String() string {
	switch a {
	case ArchFixed:
		return "fixed"
	case ArchSimple:
		return "simple"
	case ArchSMP:
		return "smp"
	case ArchCCNUMA:
		return "ccnuma"
	case ArchCOMA:
		return "coma"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// Config shapes the whole machine.
type Config struct {
	CPUs int
	Arch Arch
	// Nodes is the NUMA node count for CCNUMA/COMA (CPUs must divide
	// evenly). Ignored for bus-based targets.
	Nodes      int
	MemFrames  uint64
	Placement  mem.Placement
	Scheduler  core.SchedPolicy
	Preemptive bool
	Quantum    uint64

	DiskBlocks  int
	CacheBlocks int // fs buffer cache capacity

	// RTC enables the interval timer (Table 1's timer interrupts).
	RTC bool

	// SpinPorts selects the paper's shared-memory spin-wait rendezvous on
	// the event ports instead of condition variables (the Table 2 vs 3
	// host-parallelism experiment).
	SpinPorts bool

	// SyncdInterval, when nonzero, starts the buffer-cache flush daemon
	// with the given period in cycles (a bottom-half kernel thread, §3.1).
	SyncdInterval uint64

	// MigrateThreshold, when nonzero, enables dynamic page migration on
	// the CC-NUMA target: a frame re-homes after this many consecutive
	// remote misses from one node (§3.3.1's "page movement").
	MigrateThreshold int

	// DiskPositionalSeek and DiskElevator select the disk's seek model and
	// request scheduling (FIFO vs SCAN).
	DiskPositionalSeek bool
	DiskElevator       bool

	// Faults is the deterministic fault plan (all rates zero = no
	// injection, bit-identical to a machine without the machinery). A
	// value, not a pointer: the checkpoint config hash covers it.
	Faults fault.Config

	// Shards is the parallel-backend lane count: 0 or 1 runs the serial
	// engine, N > 1 runs shard-affine task streams (the open-loop traffic
	// generator's classes today) in conservative windows across host
	// cores. Results are byte-identical at every shard count, so Shards is
	// a host-side performance knob like Observe: the checkpoint config
	// hash normalizes it away and snapshots are shard-count-invariant.
	Shards int

	// Observe, when non-nil, is called with the assembled machine at the
	// end of New — the seam a host-side supervisor (internal/guard) uses to
	// attach to machines that workload entry points construct internally.
	// It is host-side wiring, not machine shape: gob ignores func fields,
	// and the checkpoint config hash normalizes it away, so two configs
	// differing only in Observe accept each other's snapshots. Restore does
	// not run the hook (a snapshot cannot carry it); the facade's run
	// driver, the one place that restores machines, invokes it itself.
	Observe func(*Machine) `json:"-"`
}

// Default returns a 4-CPU simple-backend machine with a 64 MB memory, a
// 64 MB disk and the interval timer on.
func Default() Config {
	return Config{
		CPUs:        4,
		Arch:        ArchSimple,
		Nodes:       1,
		MemFrames:   16384,
		Placement:   mem.PlaceRoundRobin,
		Scheduler:   core.SchedFCFS,
		DiskBlocks:  16384,
		CacheBlocks: 64,
		RTC:         true,
	}
}

// Machine is the assembled system. Machines are self-contained: two
// Machine instances share no mutable state (every device, kernel and
// backend structure hangs off the instance), so any number of machines
// may Run concurrently on separate goroutines — the contract the
// internal/expt worker pool is built on and the race target enforces.
type Machine struct {
	Cfg  Config
	Sim  *core.Sim
	K    *kernel.Kernel
	FS   *fs.FS
	Net  *netstack.Stack
	Disk *dev.Disk
	NIC  *dev.NIC
	RTC  *dev.RTC
	OS   *osserver.Server
}

// New assembles a machine (setup context).
func New(cfg Config) *Machine {
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	if cfg.CPUs%cfg.Nodes != 0 {
		panic(fmt.Sprintf("machine: %d CPUs not divisible by %d nodes", cfg.CPUs, cfg.Nodes))
	}
	ccfg := core.DefaultConfig()
	ccfg.CPUs = cfg.CPUs
	ccfg.CPUsPerNode = cfg.CPUs / cfg.Nodes
	ccfg.MemFrames = cfg.MemFrames
	ccfg.MemNodes = cfg.Nodes
	ccfg.Placement = cfg.Placement
	ccfg.Scheduler = cfg.Scheduler
	ccfg.Preemptive = cfg.Preemptive
	if cfg.Quantum > 0 {
		ccfg.Quantum = event.Cycle(cfg.Quantum)
	}
	ccfg.NewModel = modelBuilder(cfg)
	ccfg.Shards = cfg.Shards
	// The conservative quantum: the minimum latency of the cross-shard
	// channels the current lane assignment actually uses. Lanes host the
	// client-side task streams, whose only path into the machine is the
	// NIC wire, so the wire time is the binding lookahead.
	ccfg.ShardLookahead = dev.DefaultNICConfig().WireCycles

	sim := core.New(ccfg)
	sim.Hub().SetSpinWait(cfg.SpinPorts)
	m := &Machine{Cfg: cfg, Sim: sim}
	m.K = kernel.New(sim, 4<<20)
	m.Disk = dev.NewDisk(sim, dev.DiskConfig{
		Blocks:         cfg.DiskBlocks,
		PositionalSeek: cfg.DiskPositionalSeek,
		Elevator:       cfg.DiskElevator,
	})
	m.NIC = dev.NewNIC(sim, dev.DefaultNICConfig())
	fcfg := fs.DefaultConfig()
	if cfg.CacheBlocks > 0 {
		fcfg.CacheBlocks = cfg.CacheBlocks
	}
	m.FS = fs.New(m.K, m.Disk, fcfg)
	m.Net = netstack.New(m.K, m.NIC)
	if cfg.RTC {
		m.RTC = dev.NewRTC(sim)
	}
	// Defaults are applied to a local copy only: m.Cfg must stay exactly
	// what the caller passed, or the checkpoint config hash would change.
	faults := cfg.Faults
	faults.ApplyDefaults()
	if faults.DiskEnabled() {
		m.Disk.SetInjector(fault.NewDiskInjector(faults.Seed, faults.Disk))
		m.FS.EnableFaultRecovery(faults.Disk)
	}
	if faults.NetEnabled() {
		m.NIC.SetInjector(fault.NewNetInjector(faults.Seed, faults.Net))
		m.Net.EnableFaultRecovery(faults.Net)
	}
	if faults.MemEnabled() {
		sim.SetECC(mem.NewECC(faults.Seed, faults.Mem.ECCRate, faults.Mem.ECCCost))
	}
	m.OS = osserver.New(m.K, m.FS, m.Net)
	if cfg.SyncdInterval > 0 {
		m.OS.StartSyncd(cfg.SyncdInterval)
	}
	if cfg.Observe != nil {
		cfg.Observe(m)
	}
	return m
}

// FaultCounters merges the fault-injection and recovery counters from
// every layer into c (post-run reporting). No-op on a fault-free
// machine: all sources are nil or zero.
func (m *Machine) FaultCounters(c *stats.Counters) {
	if inj := m.Disk.Injector(); inj != nil {
		c.Inc("fault.disk.transient", inj.Transients)
		c.Inc("fault.disk.slow", inj.Slows)
		c.Inc("fault.disk.badio", inj.BadIOs)
		c.Inc("fault.disk.retries", m.FS.Retries)
		c.Inc("fault.disk.remaps", m.FS.Remaps)
		c.Inc("fault.disk.unrecoverable", m.FS.Unrecoverable)
	}
	if inj := m.NIC.Injector(); inj != nil {
		c.Inc("fault.net.drops", inj.Drops)
		c.Inc("fault.net.corrupts", inj.Corrupts)
		c.Inc("fault.net.dups", inj.Dups)
		c.Inc("fault.net.flaps", inj.Flaps)
		c.Inc("fault.net.flapdrops", inj.FlapDrops)
		if arq := m.Net.ARQ(); arq != nil {
			c.Inc("fault.net.retransmits", arq.Retransmits)
			c.Inc("fault.net.dupsuppressed", arq.DupSuppressed)
			c.Inc("fault.net.acks", arq.AcksSent)
			c.Inc("fault.net.failures", arq.Failures)
		}
	}
	if ecc := m.Sim.ECC(); ecc != nil {
		c.Inc("fault.mem.ecc", ecc.Corrected)
	}
}

func modelBuilder(cfg Config) func(*mem.Physical, int) memsys.Model {
	switch cfg.Arch {
	case ArchFixed:
		return func(_ *mem.Physical, _ int) memsys.Model {
			return &memsys.Fixed{Latency: 10}
		}
	case ArchSimple:
		return func(_ *mem.Physical, cpus int) memsys.Model {
			return snoop.New(snoop.SimpleConfig(cpus))
		}
	case ArchSMP:
		return func(_ *mem.Physical, cpus int) memsys.Model {
			return snoop.New(snoop.SMPConfig(cpus))
		}
	case ArchCCNUMA:
		return func(phys *mem.Physical, cpus int) memsys.Model {
			nodes := cfg.Nodes
			dcfg := directory.DefaultConfig(nodes, cpus/nodes)
			if cfg.MigrateThreshold > 0 {
				dcfg.MigrateThreshold = cfg.MigrateThreshold
				dcfg.MigrateCost = 20000
			}
			home := func(frame uint64, node int) int { return phys.Touch(frame, node) }
			d := directory.New(dcfg, home)
			d.SetMigrator(func(frame uint64, node int) { phys.SetHome(frame, node) })
			return d
		}
	case ArchCOMA:
		return func(_ *mem.Physical, cpus int) memsys.Model {
			nodes := cfg.Nodes
			return coma.New(coma.DefaultConfig(nodes, cpus/nodes))
		}
	default:
		panic(fmt.Sprintf("machine: unknown arch %d", int(cfg.Arch)))
	}
}

// SpawnConnected spawns a process that first pairs with an OS thread
// (§3.1's connection request), then runs body.
func (m *Machine) SpawnConnected(name string, body func(p *frontend.Proc)) {
	m.Sim.Spawn(name, func(p *frontend.Proc) {
		m.OS.Connect(p)
		body(p)
	})
}
