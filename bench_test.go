package compass

// Benchmarks regenerating every table of the paper's evaluation (§3
// Table 1, §5 Tables 2 and 3) plus the ablations DESIGN.md calls out.
// Custom metrics carry the reproduced quantities:
//
//   user_pct / os_pct / intr_pct / kernel_pct — Table 1 shares
//   simcycles                                 — simulated completion time
//   slowdown                                  — wall(sim)/wall(raw), Tables 2/3
//
// Absolute ns/op values compare the simulator's own speed; the paper
// reproduction lives in the custom metrics.

import (
	"bytes"
	"fmt"
	"testing"

	"compass/internal/apps/tpcc"
	"compass/internal/checkpoint"
	"compass/internal/frontend"
	"compass/internal/isa"
	"compass/internal/machine"
	"compass/internal/mem"
	"compass/internal/osserver"
)

func reportProfile(b *testing.B, r Result) {
	b.ReportMetric(r.Profile.UserPct, "user_pct")
	b.ReportMetric(r.Profile.OSPct, "os_pct")
	b.ReportMetric(r.Profile.InterruptPct, "intr_pct")
	b.ReportMetric(r.Profile.KernelPct, "kernel_pct")
	b.ReportMetric(float64(r.Cycles), "simcycles")
}

// --- Table 1: user vs OS time ------------------------------------------------

func table1Config() Config {
	cfg := DefaultConfig()
	cfg.Arch = ArchSMP
	return cfg
}

// BenchmarkTable1SPECWeb reproduces Table 1 row 1 (paper: user 14.9%,
// OS 85.1% = interrupt 37.8% + kernel 47.3%).
func BenchmarkTable1SPECWeb(b *testing.B) {
	var r Result
	for i := 0; i < b.N; i++ {
		w := DefaultSPECWeb()
		w.Requests = 120
		r = mustRun(table1Config(), SPECWeb(4, 8, w))
	}
	reportProfile(b, r)
}

// BenchmarkTable1TPCD reproduces Table 1 row 2 (paper: user 81%, OS 19% =
// interrupt 8.6% + kernel 10.4%).
func BenchmarkTable1TPCD(b *testing.B) {
	var r Result
	for i := 0; i < b.N; i++ {
		w := DefaultTPCD()
		w.Agents = 4
		r = mustRun(table1Config(), TPCD(w, QueryScanAgg, true))
	}
	reportProfile(b, r)
}

// BenchmarkTable1TPCC reproduces Table 1 row 3 (paper: user 79%, OS 21% =
// interrupt 14.6% + kernel 6.4%).
func BenchmarkTable1TPCC(b *testing.B) {
	var r Result
	for i := 0; i < b.N; i++ {
		w := DefaultTPCC()
		w.Agents = 4
		w.TxPerAgent = 25
		r = mustRun(table1Config(), TPCC(w))
	}
	reportProfile(b, r)
}

// --- Tables 2 and 3: simulation slowdown -------------------------------------

// benchSlowdown reports one row of the table (0 raw, 1 simple, 2 complex),
// the whole of which is measured on every iteration so that the slowdown
// is against the raw run of the same minute.
func benchSlowdown(b *testing.B, hostProcs, row int) {
	var res SlowdownResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = Slowdown(RunSpec{Rows: 8192, RTC: true}, hostProcs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Rows[row].Slowdown, "slowdown")
}

// BenchmarkTable2Raw is the paper's raw run on a uniprocessor host
// (paper: 52 s, slowdown 1x).
func BenchmarkTable2Raw(b *testing.B) { benchSlowdown(b, 1, 0) }

// BenchmarkTable2Simple is the simple backend on a uniprocessor host
// (paper: 16149 s, 310x).
func BenchmarkTable2Simple(b *testing.B) { benchSlowdown(b, 1, 1) }

// BenchmarkTable2Complex is the complex backend on a uniprocessor host
// (paper: 34841 s, 670x).
func BenchmarkTable2Complex(b *testing.B) { benchSlowdown(b, 1, 2) }

// BenchmarkTable3Simple is the simple backend on a 4-way host (paper
// observes the SMP host running COMPASS >2x faster).
func BenchmarkTable3Simple(b *testing.B) { benchSlowdown(b, 4, 1) }

// BenchmarkTable3Complex is the complex backend on a 4-way host.
func BenchmarkTable3Complex(b *testing.B) { benchSlowdown(b, 4, 2) }

// --- Ablation A: process scheduler (§3.3.2) ----------------------------------

func benchScheduler(b *testing.B, affinity, preempt bool) {
	var r Result
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.CPUs = 2
		if affinity {
			cfg.Scheduler = SchedAffinity
		}
		cfg.Preemptive = preempt
		w := DefaultTPCC()
		w.Agents = 6
		w.TxPerAgent = 10
		r = mustRun(cfg, TPCC(w))
	}
	b.ReportMetric(float64(r.Cycles), "simcycles")
	b.ReportMetric(float64(r.Counters.Get("sched.migrations")), "migrations")
	b.ReportMetric(float64(r.Counters.Get("sched.ctxswitches")), "ctxswitches")
}

// BenchmarkAblationSchedulerFCFS: default scheduler, 6 procs on 2 CPUs.
func BenchmarkAblationSchedulerFCFS(b *testing.B) { benchScheduler(b, false, false) }

// BenchmarkAblationSchedulerAffinity: optimized scheduler.
func BenchmarkAblationSchedulerAffinity(b *testing.B) { benchScheduler(b, true, false) }

// BenchmarkAblationSchedulerPreemptive: preemptive scheduler.
func BenchmarkAblationSchedulerPreemptive(b *testing.B) { benchScheduler(b, false, true) }

// --- Ablation B: page placement (§3.3.1) -------------------------------------

func benchPlacement(b *testing.B, placement int) {
	var r Result
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Arch = ArchCCNUMA
		cfg.Nodes = 4
		switch placement {
		case 0:
			cfg.Placement = PlaceRoundRobin
		case 1:
			cfg.Placement = PlaceBlock
		case 2:
			cfg.Placement = PlaceFirstTouch
		}
		r = mustRun(cfg, SOR(SORConfig{N: 96, Iters: 5, Procs: 4}))
	}
	local := float64(r.Counters.Get("ccnuma.miss.local"))
	remote := float64(r.Counters.Get("ccnuma.miss.remote"))
	if local+remote > 0 {
		b.ReportMetric(100*local/(local+remote), "local_pct")
	}
	b.ReportMetric(float64(r.Cycles), "simcycles")
}

// BenchmarkAblationPlacementRoundRobin scatters pages across nodes.
func BenchmarkAblationPlacementRoundRobin(b *testing.B) { benchPlacement(b, 0) }

// BenchmarkAblationPlacementBlock places pages in contiguous runs.
func BenchmarkAblationPlacementBlock(b *testing.B) { benchPlacement(b, 1) }

// BenchmarkAblationPlacementFirstTouch homes pages at the first toucher.
func BenchmarkAblationPlacementFirstTouch(b *testing.B) { benchPlacement(b, 2) }

// --- Ablation C: interleave granularity (§2) ---------------------------------

// benchGranularity batches N memory references per event-port message:
// batch=1 is per-reference interleaving, larger batches approximate the
// paper's basic-block granularity with fewer frontend-backend rendezvous.
// On two CPUs the sweeps run in lockstep and every message is a switch to
// the backend loop and back; on one, every message is served in place
// (DESIGN.md §4.3) and batching has only the per-message bookkeeping left
// to save.
func benchGranularity(b *testing.B, cpus, batch int) {
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.CPUs = cpus
		cycles = mustRun(cfg, BatchSweep(batch, 20000)).Cycles
	}
	b.ReportMetric(float64(cycles), "simcycles")
	b.ReportMetric(float64(batch), "batchrefs")
}

// BenchmarkAblationGranularityPerRef: one rendezvous per reference.
func BenchmarkAblationGranularityPerRef(b *testing.B) { benchGranularity(b, 2, 1) }

// BenchmarkAblationGranularityBasicBlock: 16 references per rendezvous.
func BenchmarkAblationGranularityBasicBlock(b *testing.B) { benchGranularity(b, 2, 16) }

// BenchmarkAblationGranularityPerRefLone: one message per reference, one
// CPU, no rendezvous.
func BenchmarkAblationGranularityPerRefLone(b *testing.B) { benchGranularity(b, 1, 1) }

// BenchmarkAblationGranularityBasicBlockLone: 16 references per message,
// one CPU.
func BenchmarkAblationGranularityBasicBlockLone(b *testing.B) { benchGranularity(b, 1, 16) }

// BenchmarkAblationGranularityBlocks asks the same question of the traffic
// batching was for: block copies. Every process copies 512-byte blocks —
// sixteen line references and a little compute, 20 000 references in all —
// with the references posted one by one, sixteen to a batch (SetBatch),
// or as one range event per block (TouchRange). The range is as precise
// as the per-reference loop (same cycles, by construction) and crosses
// the port as often as the batch.
func BenchmarkAblationGranularityBlocks(b *testing.B) {
	const blockBytes, blocks = 512, 20000 / 16
	stores := func(p *frontend.Proc, va mem.VirtAddr) {
		for off := 0; off < blockBytes; off += 32 {
			p.Store(va+mem.VirtAddr(off), 32)
		}
	}
	modes := []struct {
		name  string
		batch int
		copy  func(p *frontend.Proc, va mem.VirtAddr)
	}{
		{"PerRef", 1, stores},
		{"Batch16", 16, stores},
		{"Range", 1, func(p *frontend.Proc, va mem.VirtAddr) { p.TouchRange(va, blockBytes, true) }},
	}
	for _, cpus := range []int{2, 1} {
		for _, mode := range modes {
			b.Run(fmt.Sprintf("%s/cpus=%d", mode.name, cpus), func(b *testing.B) {
				// The run itself ends with the machine's last timer; what
				// the copies took is when the last process finished.
				var finished uint64
				for i := 0; i < b.N; i++ {
					cfg := DefaultConfig()
					cfg.CPUs = cpus
					m := machine.New(cfg)
					finished = 0
					for c := 0; c < cpus; c++ {
						m.SpawnConnected(fmt.Sprintf("copy%d", c), func(p *frontend.Proc) {
							base := osserver.For(p).Sbrk(1 << 20)
							p.SetBatch(mode.batch)
							for j := 0; j < blocks; j++ {
								mode.copy(p, base+mem.VirtAddr((j*1536+c*512)%(1<<20-blockBytes)))
								p.Compute(isa.ALU(48))
							}
							p.SetBatch(1)
							p.Call(0, func() any { finished = max(finished, uint64(p.Now())); return nil })
						})
					}
					m.Sim.Run()
				}
				b.ReportMetric(float64(finished), "simcycles")
			})
		}
	}
}

// --- Ablation D: target architecture -----------------------------------------

func benchArch(b *testing.B, arch Arch, nodes int) {
	var r Result
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Arch = arch
		cfg.Nodes = nodes
		w := DefaultTPCD()
		w.Rows = 8192
		w.Agents = 4
		r = mustRun(cfg, TPCD(w, QueryScanAgg, true))
	}
	b.ReportMetric(float64(r.Cycles), "simcycles")
	b.ReportMetric(r.Profile.OSPct, "os_pct")
}

// BenchmarkAblationArchSimple: the paper's simple backend.
func BenchmarkAblationArchSimple(b *testing.B) { benchArch(b, ArchSimple, 1) }

// BenchmarkAblationArchSMP: two-level snooping SMP.
func BenchmarkAblationArchSMP(b *testing.B) { benchArch(b, ArchSMP, 1) }

// BenchmarkAblationArchCCNUMA: the complex backend.
func BenchmarkAblationArchCCNUMA(b *testing.B) { benchArch(b, ArchCCNUMA, 4) }

// BenchmarkAblationArchCOMA: attraction-memory target.
func BenchmarkAblationArchCOMA(b *testing.B) { benchArch(b, ArchCOMA, 4) }

// --- Ablation E: dynamic page migration (§3.3.1 "page movement") -------------

func benchMigration(b *testing.B, threshold int) {
	var r Result
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Arch = ArchCCNUMA
		cfg.Nodes = 4
		cfg.Placement = PlaceRoundRobin // worst-case static placement
		cfg.MigrateThreshold = threshold
		r = mustRun(cfg, SOR(SORConfig{N: 96, Iters: 5, Procs: 4}))
	}
	local := float64(r.Counters.Get("ccnuma.miss.local"))
	remote := float64(r.Counters.Get("ccnuma.miss.remote"))
	if local+remote > 0 {
		b.ReportMetric(100*local/(local+remote), "local_pct")
	}
	b.ReportMetric(float64(r.Counters.Get("ccnuma.migrations")), "migrations")
	b.ReportMetric(float64(r.Cycles), "simcycles")
}

// BenchmarkAblationMigrationOff: static round-robin placement.
func BenchmarkAblationMigrationOff(b *testing.B) { benchMigration(b, 0) }

// BenchmarkAblationMigrationOn: re-home after 8 remote misses.
func BenchmarkAblationMigrationOn(b *testing.B) { benchMigration(b, 8) }

// --- Extension: three-tier dynamic-content stack ------------------------------

// BenchmarkTier3 runs the composed workload (clients → web tier → database
// tier over loopback connections) — the commercial-server composition the
// paper's introduction motivates.
func BenchmarkTier3(b *testing.B) {
	var r Result
	for i := 0; i < b.N; i++ {
		r = mustRun(DefaultConfig(), Tier3(DefaultTier3(), 80))
	}
	reportProfile(b, r)
	b.ReportMetric(r.Extra["latency.mean"], "req_latency_cycles")
}

// BenchmarkAblationArchDSM: the same SOR kernel on a software-DSM cluster
// (page-grained coherence in software) — compare simcycles against
// BenchmarkAblationArchCCNUMA's hardware coherence.
func BenchmarkAblationArchDSM(b *testing.B) {
	var r Result
	for i := 0; i < b.N; i++ {
		r = mustRun(DefaultConfig(), SORDSM(SORConfig{N: 96, Iters: 5, Procs: 4}))
	}
	b.ReportMetric(float64(r.Cycles), "simcycles")
	b.ReportMetric(r.Extra["dsm.pagemoves"], "pagemoves")
	b.ReportMetric(r.Extra["dsm.faults"], "faults")
}

// BenchmarkAblationArchCCNUMASOR: hardware coherence baseline for the DSM
// comparison (same kernel, same scale).
func BenchmarkAblationArchCCNUMASOR(b *testing.B) {
	var r Result
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Arch = ArchCCNUMA
		cfg.Nodes = 4
		cfg.Placement = PlaceFirstTouch
		r = mustRun(cfg, SOR(SORConfig{N: 96, Iters: 5, Procs: 4}))
	}
	b.ReportMetric(float64(r.Cycles), "simcycles")
}

// --- Ablation F: disk request scheduling --------------------------------------

// benchDisk runs the random-I/O OLTP mix under FIFO vs SCAN (elevator)
// disk scheduling with a positional seek model.
func benchDisk(b *testing.B, elevator bool) {
	var r Result
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.DiskPositionalSeek = true
		cfg.DiskElevator = elevator
		w := DefaultTPCC()
		w.Agents = 6 // deeper I/O queue: scheduling has something to reorder
		w.TxPerAgent = 15
		r = mustRun(cfg, TPCC(w))
	}
	b.ReportMetric(float64(r.Cycles), "simcycles")
	b.ReportMetric(r.Profile.InterruptPct, "intr_pct")
}

// BenchmarkAblationDiskFIFO: submission-order service.
func BenchmarkAblationDiskFIFO(b *testing.B) { benchDisk(b, false) }

// BenchmarkAblationDiskSCAN: elevator service.
func BenchmarkAblationDiskSCAN(b *testing.B) { benchDisk(b, true) }

// --- Checkpoint: snapshot save/restore throughput ------------------------------
//
// MB/s over a warmed TPCC machine's snapshot; snapshot_bytes carries the
// serialized size.

func warmedTPCCMachine(b *testing.B) *machine.Machine {
	b.Helper()
	cfg := DefaultConfig()
	cfg.CPUs = 2
	w := DefaultTPCC()
	w.Agents = 2
	w.TxPerAgent = 4
	m := machine.New(cfg)
	wl := tpcc.Setup(m.FS, w)
	spawnEach(m, "agent", 0, w.Agents, wl.Agent)
	m.Sim.Run()
	return m
}

// BenchmarkCheckpointSave serializes a warmed machine to memory.
func BenchmarkCheckpointSave(b *testing.B) {
	m := warmedTPCCMachine(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := checkpoint.Save(&buf, m); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportMetric(float64(buf.Len()), "snapshot_bytes")
}

// BenchmarkCheckpointRestore rebuilds a machine from the snapshot.
func BenchmarkCheckpointRestore(b *testing.B) {
	m := warmedTPCCMachine(b)
	var buf bytes.Buffer
	if err := checkpoint.Save(&buf, m); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := checkpoint.RestoreFullShards(bytes.NewReader(buf.Bytes()), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "snapshot_bytes")
}
