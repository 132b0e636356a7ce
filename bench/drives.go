package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"compass/internal/cache"
	"compass/internal/checkpoint"
	"compass/internal/coma"
	"compass/internal/comm"
	"compass/internal/core"
	"compass/internal/directory"
	"compass/internal/event"
	"compass/internal/expt"
	"compass/internal/frontend"
	"compass/internal/isa"
	"compass/internal/machine"
	"compass/internal/mem"
	"compass/internal/memsys"
	"compass/internal/osserver"
	"compass/internal/snoop"
)

// A drive times one layer's public functions in isolation, from outside,
// on a seeded stream. Its unit cost times the workload's exact count
// estimates that layer's share of a workload's wall time; what the drives
// cannot explain is reported as host.unattributed_frac, not hidden.

// driveDiv shrinks every drive's chunk in -quick mode, where the drives
// only have to emit their names.
var driveDiv = 1

// chunk performs one batch of a drive's work and reports how many
// operations it did and how long the timed part took.
type chunk func() (ops int, elapsed time.Duration)

// drive is one layer measurement.
type drive struct {
	Name string
	// Unit is ns (per operation) or s (per call).
	Unit string
	new  func(seed uint64) chunk
}

// runDrive repeats chunks until dur has been measured (at least three) and
// returns the median chunk's cost per operation in the drive's unit: a
// drive is short, and one chunk that met a burst of stolen host time must
// not set its result. The first chunk warms up.
func runDrive(d drive, seed uint64, dur time.Duration) float64 {
	run := d.new(seed)
	run()
	var per []float64
	var elapsed time.Duration
	for elapsed < dur || len(per) < 3 {
		n, e := run()
		elapsed += e
		per = append(per, float64(e.Nanoseconds())/float64(n))
	}
	cost := median(per)
	if d.Unit == "s" {
		cost /= 1e9
	}
	return cost
}

// timed wraps a chunk whose whole body is the timed part.
func timed(ops int, body func()) chunk {
	return func() (int, time.Duration) {
		t0 := time.Now()
		body()
		return ops, time.Since(t0)
	}
}

var drives = []drive{
	{"comm.rendezvous_ns", "ns", func(uint64) chunk { return rendezvous(1, false) }},
	{"comm.rendezvous_4fe_ns", "ns", func(uint64) chunk { return rendezvous(4, false) }},
	{"comm.rendezvous_spin_ns", "ns", func(uint64) chunk { return rendezvous(4, true) }},
	{"comm.scan_ns", "ns", driveScan},
	{"frontend.ref_ns", "ns", func(uint64) chunk { return frontendRefs(1) }},
	{"frontend.ref_batch16_ns", "ns", func(uint64) chunk { return frontendRefs(16) }},
	{"frontend.compute_ns", "ns", driveCompute},
	{"core.fixed_ns_per_ref", "ns", func(uint64) chunk { return coreProcs(coreLoad) }},
	{"core.rmw_ns", "ns", func(uint64) chunk { return coreProcs(coreRMW) }},
	{"core.kcall_ns", "ns", func(uint64) chunk { return coreProcs(coreCall) }},
	{"core.block_wake_ns", "ns", func(uint64) chunk { return coreProcs(coreBlockWake) }},
	{"mem.translate_ns", "ns", driveTranslate},
	{"mem.touch_ns", "ns", driveTouch},
	{"cache.access_hit_ns", "ns", driveCacheHit},
	{"cache.fill_ns", "ns", driveCacheFill},
	{"snoop.access_private_ns", "ns", func(s uint64) chunk {
		return modelAccess(snoop.New(snoop.SimpleConfig(4)), privateStream(s))
	}},
	{"snoop.access_shared_ns", "ns", func(s uint64) chunk {
		return modelAccess(snoop.New(snoop.SimpleConfig(4)), sharedStream(s))
	}},
	{"snoop.smp_access_shared_ns", "ns", func(s uint64) chunk {
		return modelAccess(snoop.New(snoop.SMPConfig(4)), sharedStream(s))
	}},
	{"directory.access_private_ns", "ns", func(s uint64) chunk {
		return modelAccess(newDirectory(), privateStream(s))
	}},
	{"directory.access_shared_ns", "ns", func(s uint64) chunk {
		return modelAccess(newDirectory(), sharedStream(s))
	}},
	{"coma.access_private_ns", "ns", func(s uint64) chunk {
		return modelAccess(coma.New(coma.DefaultConfig(4, 1)), privateStream(s))
	}},
	{"coma.access_shared_ns", "ns", func(s uint64) chunk {
		return modelAccess(coma.New(coma.DefaultConfig(4, 1)), sharedStream(s))
	}},
	{"event.dispatch_ns", "ns", driveDispatch},
	{"event.window_task_ns", "ns", driveWindow},
	{"osserver.kreadv_warm_ns", "ns", func(uint64) chunk { return kreadv(16) }},
	{"osserver.kreadv_cold_ns", "ns", func(uint64) chunk { return kreadv(1024) }},
	{"checkpoint.save_s", "s", func(uint64) chunk { return ckpt().save }},
	{"checkpoint.restore_s", "s", func(uint64) chunk { return ckpt().restore }},
}

// --- comm ------------------------------------------------------------------

// backendLoop is the communicator's consumer side as core.Sim.Run drives
// it: scan under the hub lock, reply to the pick, and otherwise wait for
// a running frontend — by polling the activity counter in spin mode, then
// by arming the wake flag, re-scanning and sleeping.
//
// One difference from core.Sim.Run: the poll, which drops the lock, runs
// only before the wake flag is armed. core polls again on the armed
// re-scan, so a post that lands between its last poll and its re-lock is
// signalled to nobody and the backend sleeps on it; four frontends posting
// back to back hit that window about once in 10^7 posts and hang the run.
func backendLoop(hub *comm.Hub, live int, handle func(ev *comm.Event) comm.Reply) {
	hub.Lock()
	defer hub.Unlock()
	armed := false
	for live > 0 {
		pick, _, running, _ := hub.Scan()
		if pick != nil {
			armed = false
			ev := pick.Pending()
			if ev.Kind == comm.KExit {
				pick.ReplyExit(comm.Reply{Done: ev.Time, CPU: -1})
				live--
				continue
			}
			pick.Reply(handle(ev))
			continue
		}
		if running == 0 {
			panic("bench: posted events but nothing to pick and nothing running")
		}
		if hub.SpinWait() && !armed {
			act := hub.Activity()
			hub.Unlock()
			moved := false
			for i := 0; i < 20000; i++ {
				if hub.Activity() != act {
					moved = true
					break
				}
				if i&255 == 255 {
					runtime.Gosched()
				}
			}
			hub.Lock()
			if moved {
				continue
			}
		}
		if !armed {
			hub.ArmWait()
			armed = true
			continue
		}
		hub.WaitBackend()
		armed = false
	}
}

func rendezvousPosts() int { return 20_000 / driveDiv }

// rendezvous measures one Port.Post round trip: frontends goroutines post
// memory events, the harness backend replies at once.
func rendezvous(frontends int, spin bool) chunk {
	posts := rendezvousPosts()
	return timed(frontends*posts, func() {
		hub := comm.NewHub(frontends)
		hub.SetSpinWait(spin)
		var wg sync.WaitGroup
		for i := 0; i < frontends; i++ {
			p := hub.NewPort(comm.StateRunning)
			wg.Add(1)
			go func() {
				defer wg.Done()
				var t event.Cycle
				for k := 0; k < posts; k++ {
					t = p.Post(comm.Event{Kind: comm.KMem, Time: t + 10}).Done
				}
				p.Post(comm.Event{Kind: comm.KExit, Time: t})
			}()
		}
		backendLoop(hub, frontends, func(ev *comm.Event) comm.Reply { return comm.Reply{Done: ev.Time + 1} })
		wg.Wait()
	})
}

// driveScan times Hub.Scan over eight ports: four blocked, two running
// and two posted — the mix a 4-CPU run presents between phases.
func driveScan(uint64) chunk {
	hub := comm.NewHub(4)
	for i := 0; i < 8; i++ {
		p := hub.NewPort(comm.StateBlocked)
		switch {
		case i >= 6:
			p.SetState(comm.StatePosted)
		case i >= 4:
			p.SetState(comm.StateRunning)
		}
	}
	const n = 1_000_000
	return timed(n, func() {
		hub.Lock()
		for i := 0; i < n; i++ {
			hub.Scan()
		}
		hub.Unlock()
	})
}

// --- frontend ----------------------------------------------------------------

// frontendProc runs body as one instrumented process against a harness
// backend that completes every memory event ten cycles later.
func frontendProc(body func(p *frontend.Proc)) {
	hub := comm.NewHub(1)
	port := hub.NewPort(comm.StateRunning)
	p := frontend.New(port.ID(), "drive", port, isa.DefaultTiming())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Start(comm.Reply{})
		body(p)
		p.Exit()
	}()
	backendLoop(hub, 1, func(ev *comm.Event) comm.Reply {
		return comm.Reply{Done: ev.Time + 10 + event.Cycle(len(ev.Batch))}
	})
	wg.Wait()
}

func frontendRefs(batch int) chunk {
	const n = 64_000
	return timed(n, func() {
		frontendProc(func(p *frontend.Proc) {
			p.SetBatch(batch)
			for i := 0; i < n; i++ {
				p.Load(mem.VirtAddr(0x1000+(i*32)%65536), 4)
			}
			p.SetBatch(1)
		})
	})
}

func driveCompute(uint64) chunk {
	const n = 400_000
	return timed(n, func() {
		frontendProc(func(p *frontend.Proc) {
			for i := 0; i < n; i++ {
				p.Compute(isa.ALU(3))
			}
		})
	})
}

// --- core --------------------------------------------------------------------

func coreOps() int { return 20_000 / driveDiv } // per process

// coreProcs runs body on four processes of a backend with the
// constant-latency memory model: the whole reference path (frontend, port,
// interleave pick, handler, translation) with the model's own cost at zero.
func coreProcs(body func(s *core.Sim, p *frontend.Proc, base mem.VirtAddr)) chunk {
	return timed(4*coreOps(), func() {
		s := core.New(core.DefaultConfig())
		for i := 0; i < 4; i++ {
			s.Spawn(fmt.Sprintf("drive%d", i), func(p *frontend.Proc) {
				base := p.Call(50, func() any {
					va, err := s.Sbrk(p.ID(), 64<<10)
					if err != nil {
						panic(err)
					}
					return va
				}).(mem.VirtAddr)
				body(s, p, base)
			})
		}
		s.Run()
	})
}

func coreLoad(_ *core.Sim, p *frontend.Proc, base mem.VirtAddr) {
	for i, n := 0, coreOps(); i < n; i++ {
		p.Load(base+mem.VirtAddr((i*32)%(64<<10)), 4)
	}
}

func coreRMW(_ *core.Sim, p *frontend.Proc, base mem.VirtAddr) {
	for i, n := 0, coreOps(); i < n; i++ {
		p.RMW(base, 4, comm.RMWAdd, 1, 0, false)
	}
}

func coreCall(_ *core.Sim, p *frontend.Proc, _ mem.VirtAddr) {
	fn := func() any { return nil }
	for i, n := 0, coreOps(); i < n; i++ {
		p.Call(0, fn)
	}
}

// coreBlockWake is the blocking-call stub pair of §3.3.3: the call books a
// wake-up task and blocks; the task's Wake reschedules the process.
func coreBlockWake(s *core.Sim, p *frontend.Proc, _ mem.VirtAddr) {
	pid := p.ID()
	wake := func() { s.Wake(pid, s.CurTime()) }
	fn := func() any {
		s.ScheduleTask(100, "drive-wake", false, wake)
		s.BlockCurrent()
		return nil
	}
	for i, n := 0, coreOps(); i < n; i++ {
		p.Call(60, fn)
	}
}

// --- mem ---------------------------------------------------------------------

const memRegion = 1 << 20

func mappedRegion() (*mem.Physical, *mem.Space, mem.VirtAddr) {
	phys := mem.NewPhysical(16384, 1, mem.PlaceRoundRobin)
	sp := mem.NewSpace(phys)
	base, err := sp.Sbrk(memRegion)
	if err != nil {
		panic(err)
	}
	return phys, sp, base
}

func driveTranslate(seed uint64) chunk {
	_, sp, base := mappedRegion()
	rng := rand.New(rand.NewSource(int64(seed >> 1)))
	offs := make([]mem.VirtAddr, 1<<16)
	for i := range offs {
		offs[i] = base + mem.VirtAddr(rng.Intn(memRegion-8))
	}
	return timed(len(offs), func() {
		for i, va := range offs {
			if _, f := sp.Translate(va, i&3 == 0); f != nil {
				panic(f)
			}
		}
	})
}

func driveTouch(seed uint64) chunk {
	phys, sp, base := mappedRegion()
	rng := rand.New(rand.NewSource(int64(seed >> 1)))
	frames := make([]uint64, 1<<16)
	for i := range frames {
		pa, _ := sp.Translate(base+mem.VirtAddr(rng.Intn(memRegion-8)), false)
		frames[i] = pa.Frame()
	}
	return timed(len(frames), func() {
		for _, f := range frames {
			phys.Touch(f, 0)
		}
	})
}

// --- cache -------------------------------------------------------------------

func driveCacheHit(uint64) chunk {
	c := cache.New(snoop.DefaultL1())
	const span = 16 << 10 // half the L1: every access after the fill hits
	for pa := 0; pa < span; pa += 32 {
		c.Fill(mem.PhysAddr(pa), cache.Shared)
	}
	const n = 1 << 18
	return timed(n, func() {
		for i := 0; i < n; i++ {
			if _, hit := c.Access(mem.PhysAddr((i*32)%span), false); !hit {
				panic("bench: cache hit drive missed")
			}
		}
	})
}

func driveCacheFill(uint64) chunk {
	c := cache.New(snoop.DefaultL1())
	const n = 1 << 18
	next := 0
	return timed(n, func() {
		for i := 0; i < n; i++ {
			c.Fill(mem.PhysAddr(next), cache.Shared) // streaming: every fill evicts
			next = (next + 32) % (1 << 20)
		}
	})
}

// --- memory models ------------------------------------------------------------

type memOp struct {
	cpu   int
	pa    mem.PhysAddr
	write bool
}

const streamOps = 1 << 16

// privateStream gives each CPU its own 256 KB region, 70 % loads.
func privateStream(seed uint64) []memOp {
	rng := rand.New(rand.NewSource(int64(seed >> 1)))
	ops := make([]memOp, streamOps)
	for i := range ops {
		cpu := i & 3
		ops[i] = memOp{
			cpu:   cpu,
			pa:    mem.PhysAddr(cpu<<20 + rng.Intn(256<<10)&^3),
			write: rng.Intn(10) >= 7,
		}
	}
	return ops
}

// sharedStream has all four CPUs hit one 64 KB region, 50 % stores.
func sharedStream(seed uint64) []memOp {
	rng := rand.New(rand.NewSource(int64(seed >> 1)))
	ops := make([]memOp, streamOps)
	for i := range ops {
		ops[i] = memOp{cpu: i & 3, pa: mem.PhysAddr(8<<20 + rng.Intn(64<<10)&^3), write: rng.Intn(2) == 0}
	}
	return ops
}

func newDirectory() memsys.Model {
	return directory.New(directory.DefaultConfig(4, 1), func(frame uint64, _ int) int { return int(frame % 4) })
}

func modelAccess(m memsys.Model, ops []memOp) chunk {
	var now event.Cycle
	return timed(len(ops), func() {
		for _, op := range ops {
			now = m.Access(now, op.cpu, op.pa, op.write)
		}
	})
}

// --- event -------------------------------------------------------------------

// driveDispatch is the steady schedule-from-dispatch pattern: 64 tasks in
// flight, each dispatch books its replacement a short delta ahead.
func driveDispatch(uint64) chunk {
	q := event.NewQueue()
	var fn func()
	fn = func() { q.After(800, "t", fn) }
	for i := 0; i < 64; i++ {
		q.After(event.Cycle(i%800)+1, "t", fn)
	}
	const n = 1_000_000
	return timed(n, func() {
		for i := 0; i < n; i++ {
			q.Step()
		}
	})
}

// driveWindow runs self-rescheduling lane tasks through the conservative-
// window engine on two lanes, the shape web_open's arrival streams have.
func driveWindow(uint64) chunk {
	const gens = 100_000
	return timed(gens, func() {
		q := event.NewQueue()
		eng := event.NewSharded(q, 2, 5000, nil)
		l := eng.Lane(1)
		left := gens
		var fn func()
		fn = func() {
			if left--; left > 0 {
				l.AfterKeep(800, "drive", fn)
			}
		}
		l.AfterKeep(1, "drive", fn)
		const horizon = event.Cycle(1) << 62
		for eng.RunWindow(horizon) || q.Step() {
		}
	})
}

// --- osserver / fs / dev ------------------------------------------------------

// kreadv has one connected process read a file of `blocks` 4 KB blocks
// sequentially, 4 KB a call. Sixteen blocks fit the 64-block buffer cache
// (every call after the first pass hits); 1024 do not (every call goes to
// the disk task, its interrupt and the wake).
func kreadv(blocks int) chunk {
	calls := 512 / driveDiv
	return func() (int, time.Duration) {
		m := machine.New(machine.Default())
		m.FS.SetupCreate("drive.dat", make([]byte, blocks*4096))
		spawnConnected(m, "reader", func(p *frontend.Proc) {
			os := osserver.For(p)
			fd, err := os.Open("drive.dat")
			if err != nil {
				panic(err)
			}
			iov := []osserver.IOVec{{Len: 4096}}
			for i := 0; i < calls; i++ {
				if i%blocks == 0 {
					os.Lseek(fd, 0, 0)
				}
				if n, err := os.Kreadv(fd, iov); err != nil || n != 4096 {
					panic(fmt.Sprintf("bench: kreadv = %d, %v", n, err))
				}
			}
			os.Close(fd)
		})
		t0 := time.Now()
		m.Sim.Run()
		return calls, time.Since(t0)
	}
}

// --- checkpoint ----------------------------------------------------------------

type ckptChunks struct {
	save, restore chunk
	bytes         int
}

// ckpt warms the sweep machine at full size, once, and times snapshotting
// and restoring it.
var ckpt = sync.OnceValue(func() ckptChunks {
	cfg := machine.Default()
	cfg.CPUs = sweepCPUs
	m := machine.New(cfg)
	spawnStores(m, 0, 1, fullSizes().SweepWarmStores)
	m.Sim.Run()
	snap, err := expt.TakeSnapshot(m, nil)
	if err != nil {
		panic(err)
	}
	var n countWriter
	if err := checkpoint.Save(&n, m); err != nil {
		panic(err)
	}
	return ckptChunks{
		save: timed(1, func() {
			if _, err := expt.TakeSnapshot(m, nil); err != nil {
				panic(err)
			}
		}),
		restore: timed(1, func() {
			if _, err := snap.Restore(); err != nil {
				panic(err)
			}
		}),
		bytes: int(n),
	}
})

type countWriter int

func (c *countWriter) Write(p []byte) (int, error) { *c += countWriter(len(p)); return len(p), nil }
