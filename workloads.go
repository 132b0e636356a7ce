package compass

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"os"

	"compass/internal/apps/db"
	"compass/internal/apps/httpd"
	"compass/internal/apps/splash"
	"compass/internal/apps/tier3"
	"compass/internal/apps/tpcc"
	"compass/internal/apps/tpcd"
	"compass/internal/checkpoint"
	"compass/internal/dsm"
	"compass/internal/fault"
	"compass/internal/frontend"
	"compass/internal/isa"
	"compass/internal/machine"
	"compass/internal/mem"
	"compass/internal/osserver"
	"compass/internal/simsync"
	"compass/internal/specweb"
	"compass/internal/trace"
)

// spawnEach spawns n connected processes named <prefix><base+i>, each
// running body with its index i among the n.
func spawnEach(m *machine.Machine, prefix string, base, n int, body func(p *frontend.Proc, i int)) {
	for i := 0; i < n; i++ {
		m.SpawnConnected(fmt.Sprintf("%s%d", prefix, base+i), func(p *frontend.Proc) { body(p, i) })
	}
}

// encoding/gob numbers the types it meets process-wide, in order of first
// use, and every stream carries the numbers of its types: left to itself a
// checkpoint's bytes depend on what else the process encoded before it (a
// sweep's bare machine, or a TPCC section). So every type a checkpoint's
// streams are made of gets its number here, before any stream is written, in
// the order a process whose first stream is a TPCC warm-up checkpoint meets
// them — the order testdata/facade_digests.json was generated in.
func init() {
	pin := func(zero ...any) {
		for _, v := range zero {
			if err := gob.NewEncoder(io.Discard).Encode(v); err != nil {
				panic(fmt.Sprintf("compass: %v", err))
			}
		}
	}
	pin(db.PoolState{}, tpcc.Meta{})
	checkpoint.PinTypeIDs()
	pin(specwebMeta{}, loadMeta{}, autoMeta{})
}

func gobSection(name string, v any) ([]checkpoint.Section, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return []checkpoint.Section{{Name: name, Data: buf.Bytes()}}, nil
}

// ungobSection decodes a section a run cannot resume without.
func ungobSection(section func(string) []byte, name string, v any) error {
	raw := section(name)
	if raw == nil {
		return fmt.Errorf("compass: checkpoint has no %q section", name)
	}
	return gob.NewDecoder(bytes.NewReader(raw)).Decode(v)
}

// tpccRun is a TPCC description and, once begun, the state of one run of
// it: begin hands Run a copy, so the description itself never changes.
type tpccRun struct {
	plans []TPCCConfig // one per phase
	// segmented marks the phases as equal slices of one transaction
	// budget, not a warm phase and a measured one: an empty slice is
	// skipped.
	segmented bool
	// tx is what Extra["transactions"] reports. Pinned, not fixed: the
	// measured phase's count in a warm/measured run and the whole budget
	// in a segmented one, while the pool tallies (and the Result's profile
	// and counters) are cumulative in both. TestFacadeDigests holds each.
	tx int

	cur  *tpcc.Workload // the handle bound to the machine's current state
	base int            // next agent index: names and RNG streams continue across phases
}

// TPCC describes the OLTP workload. With two configurations the first is a
// warm phase and the second the measured phase run on the same, warmed
// machine; the measured one may change Agents, TxPerAgent, Seed and the
// transaction mix, but not the schema scale.
func TPCC(phases ...TPCCConfig) Workload {
	r := tpccRun{plans: append([]TPCCConfig(nil), phases...)}
	if n := len(phases); n > 0 {
		r.tx = phases[n-1].Agents * phases[n-1].TxPerAgent
	}
	return r
}

// TPCCSegments describes the OLTP workload with its transaction budget cut
// into n equal slices, each run to quiescence: n-1 boundaries at which the
// run can be auto-checkpointed (Options.AutoCkptDir). The schedule is a
// pure function of w and n, so an uninterrupted segmented run and one
// resumed from any of its own checkpoints do identical work.
func TPCCSegments(w TPCCConfig, n int) Workload {
	d := tpccRun{segmented: true, tx: w.Agents * w.TxPerAgent}
	for k := 0; k < max(n, 1); k++ {
		seg := w
		seg.TxPerAgent = w.TxPerAgent*(k+1)/max(n, 1) - w.TxPerAgent*k/max(n, 1)
		d.plans = append(d.plans, seg)
	}
	return d
}

func (r tpccRun) begin(*Config) (workloadRun, error) { return &r, nil }

const tpccSection = "tpcc"

func (r *tpccRun) name() string                { return "TPCC/db" }
func (r *tpccRun) phases() int                 { return len(r.plans) }
func (r *tpccRun) populate(m *machine.Machine) { r.cur = tpcc.Setup(m.FS, r.plans[0]) }

func (r *tpccRun) attach(section func(string) []byte) (err error) {
	state := section(tpccSection)
	if state == nil {
		return fmt.Errorf("compass: checkpoint has no %q section", tpccSection)
	}
	r.cur, r.base, err = tpcc.AttachRestore(state)
	return err
}

func (r *tpccRun) start(m *machine.Machine, k int) (bool, error) {
	c := r.plans[k]
	if r.segmented && c.TxPerAgent == 0 {
		return false, nil
	}
	wl, err := r.cur.WithConfig(c)
	if err != nil {
		return false, err
	}
	base := r.base
	spawnEach(m, "agent", base, c.Agents, func(p *frontend.Proc, i int) { wl.Agent(p, base+i) })
	r.base += c.Agents
	r.cur = wl
	return true, nil
}

func (r *tpccRun) sections() ([]checkpoint.Section, error) {
	state, err := r.cur.SaveState(r.base)
	return []checkpoint.Section{{Name: tpccSection, Data: state}}, err
}

func (r *tpccRun) fold(res *Result) {
	res.Extra["transactions"] = float64(r.tx)
	hits, misses := db.Stats(r.cur.Cat)
	res.Extra["pool.hits"] = float64(hits)
	res.Extra["pool.misses"] = float64(misses)
}

// TPCDQuery selects which decision-support queries a run executes.
type TPCDQuery int

// Query sets.
const (
	// QueryScanAgg runs Q1 + Q6 (partitioned scans).
	QueryScanAgg TPCDQuery = iota
	// QueryJoin runs the order/lineitem join.
	QueryJoin
	// QueryMmap runs the mmap-based scan.
	QueryMmap
)

// TPCD describes a decision-support query mix run by w.Agents parallel
// agents; instrument=false runs with the simulation switch off (the
// paper's "raw" execution for Table 2).
func TPCD(w TPCDConfig, q TPCDQuery, instrument bool) Workload {
	label := "TPCD/db"
	if !instrument {
		label = "TPCD/raw"
	}
	return single{label: label, spawn: func(m *machine.Machine) (func(*Result), error) {
		wl := tpcd.Setup(m.FS, w)
		pages := wl.LineitemPages()
		spawnEach(m, "agent", 0, w.Agents, func(p *frontend.Proc, i int) {
			if !instrument {
				p.SetInstrumentation(false)
			}
			a := db.NewAgent(p, wl.Cat)
			first, last := pages*i/w.Agents, pages*(i+1)/w.Agents
			switch q {
			case QueryScanAgg:
				wl.Q1(p, a, first, last, 1500)
				wl.Q6(p, a, first, last, 100, 1800, 5, 30)
			case QueryJoin:
				wl.Q3Join(p, a, w.Orders*i/w.Agents, w.Orders*(i+1)/w.Agents, 2)
			case QueryMmap:
				if _, err := wl.QMmapScan(p, 1500); err != nil {
					panic(err)
				}
			}
			a.Close()
		})
		return func(res *Result) { res.Extra["rows"] = float64(w.Rows) }, nil
	}}
}

// httpdServer is the server half of the two web workloads: pre-forked
// workers whose names go on from phase to phase. Worker processes exit
// between phases (a coroutine cannot be checkpointed) and fresh ones
// re-attach to the listener, so only the last phase's tallies are kept.
type httpdServer struct {
	cfg  httpd.Config
	base int
	st   []httpd.Stats
}

func newHTTPDServer(workers int) httpdServer {
	cfg := httpd.DefaultConfig()
	cfg.Workers = workers
	return httpdServer{cfg: cfg}
}

func (s *httpdServer) spawn(m *machine.Machine) {
	st := make([]httpd.Stats, s.cfg.Workers)
	spawnEach(m, "httpd", s.base, len(st), func(p *frontend.Proc, i int) { httpd.Worker(p, s.cfg, &st[i]) })
	s.st = st
	s.base += len(st)
}

func (s *httpdServer) fold(res *Result) {
	var served, sent uint64
	for _, st := range s.st {
		served += st.Served
		sent += st.BytesSent
	}
	res.Extra["served"] = float64(served)
	res.Extra["bytes"] = float64(sent)
}

// netFaults is the machine's network fault plan, if it injects any: the
// external clients (trace player, load generator) then arm link-level
// retransmission, the same recovery discipline as the host stack's.
func netFaults(m *machine.Machine) (fault.NetConfig, bool) {
	fc := m.Cfg.Faults
	fc.ApplyDefaults()
	return fc.Net, fc.NetEnabled()
}

func startPlayer(m *machine.Machine, reqs trace.Trace, pc trace.PlayerConfig) *trace.Player {
	player := trace.NewPlayer(m.Sim, m.NIC, reqs, pc)
	if net, ok := netFaults(m); ok {
		player.EnableARQ(net)
	}
	player.Start()
	return player
}

func foldPlayer(res *Result, player *trace.Player) {
	res.Extra["requests"] = float64(player.Completed)
	res.Extra["latency.mean"] = player.Latency.Mean()
	if arq := player.ARQ(); arq != nil {
		res.Extra["client.failures"] = float64(arq.Failures)
	}
}

// SPECWeb describes the web server under the closed-loop trace player.
// With two configurations the first one's trace warms the machine (buffer
// cache, bound listener, populated log) against a fileset generated from
// it, and the second one's trace is the measured phase.
func SPECWeb(workers, concurrency int, phases ...SPECWebConfig) Workload {
	return specwebRun{plans: append([]SPECWebConfig(nil), phases...), concurrency: concurrency, srv: newHTTPDServer(workers)}
}

// SPECWebReplay describes the web server under the trace player, playing
// the requests in the trace file at path (§4.2's intermediate trace: one
// SpecTrace generated, or one recorded elsewhere) against w's fileset.
func SPECWebReplay(workers, concurrency int, w SPECWebConfig, path string) Workload {
	return specwebRun{plans: []SPECWebConfig{w}, concurrency: concurrency, srv: newHTTPDServer(workers), file: path}
}

// specwebRun is a description and, once begun, one run of it, like tpccRun.
type specwebRun struct {
	plans       []SPECWebConfig // one per phase
	concurrency int
	file        string // when set, the one phase plays this trace file

	srv      httpdServer
	recorded trace.Trace // the file's requests
	player   *trace.Player
}

func (r specwebRun) begin(*Config) (workloadRun, error) {
	if r.file == "" {
		return &r, nil
	}
	f, err := os.Open(r.file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if r.recorded, err = trace.Load(f); err != nil {
		return nil, fmt.Errorf("%s: %w", r.file, err)
	}
	if len(r.recorded) == 0 {
		return nil, fmt.Errorf("%s: empty trace", r.file)
	}
	return &r, nil
}

// specwebSection names the SPECWeb host-side state section, and
// specwebMeta is what it holds: the next worker index, so that resumed
// spawns continue the uninterrupted run's process names.
const specwebSection = "specweb"

type specwebMeta struct{ WorkerBase int }

func (r *specwebRun) name() string { return "SPECWeb/httpd" }
func (r *specwebRun) phases() int  { return len(r.plans) }

func (r *specwebRun) populate(m *machine.Machine) {
	specweb.GenerateFileset(m.FS, r.plans[0])
	m.FS.SetupCreate(r.srv.cfg.LogFile, nil)
}

func (r *specwebRun) attach(section func(string) []byte) error {
	var meta specwebMeta
	err := ungobSection(section, specwebSection, &meta)
	r.srv.base = meta.WorkerBase
	return err
}

func (r *specwebRun) start(m *machine.Machine, k int) (bool, error) {
	r.srv.spawn(m)
	reqs := r.recorded
	if reqs == nil {
		reqs = specweb.GenerateTrace(r.plans[k])
	}
	r.player = startPlayer(m, reqs, trace.PlayerConfig{
		Concurrency: r.concurrency,
		ThinkCycles: 20_000,
		Workers:     r.srv.cfg.Workers,
		Port:        r.srv.cfg.Port,
	})
	return true, nil
}

func (r *specwebRun) sections() ([]checkpoint.Section, error) {
	return gobSection(specwebSection, specwebMeta{WorkerBase: r.srv.base})
}

func (r *specwebRun) fold(res *Result) {
	foldPlayer(res, r.player)
	r.srv.fold(res)
	if r.recorded != nil {
		// Responses whose body was not the size the file records: a trace
		// replayed against a fileset it was not recorded from.
		res.Extra["badbytes"] = float64(r.player.BadBytes)
	}
}

// spawnTier3 spawns the stack's server half, the database workers before
// the web workers, and returns the web workers' tallies.
func spawnTier3(m *machine.Machine, w Tier3Config, wl *tier3.Workload) []tier3.Stats {
	st := make([]tier3.Stats, w.WebWorkers)
	spawnEach(m, "db", 0, w.DBWorkers, func(p *frontend.Proc, _ int) { wl.DBWorker(p) })
	spawnEach(m, "web", 0, len(st), func(p *frontend.Proc, i int) { wl.WebWorker(p, &st[i]) })
	return st
}

func foldTier3(res *Result, st []tier3.Stats) {
	var ok uint64
	for _, s := range st {
		ok += s.OK
	}
	res.Extra["ok"] = float64(ok)
}

// Tier3 describes the dynamic-content stack: trace-driven clients hit
// pre-forked web workers, which query a database tier over loopback
// connections (the full commercial-server composition of §1).
func Tier3(w Tier3Config, requests int) Workload {
	return single{label: "tier3", spawn: func(m *machine.Machine) (func(*Result), error) {
		wl := tier3.Setup(m.FS, w)
		st := spawnTier3(m, w, wl)
		rng := rand.New(rand.NewSource(424242))
		reqs := make(trace.Trace, requests)
		for i := range reqs {
			reqs[i].Path, reqs[i].Size = dynPage(wl, rng.Intn(w.Rows))
		}
		player := startPlayer(m, reqs, trace.PlayerConfig{
			Concurrency: w.WebWorkers,
			ThinkCycles: 30_000,
			Workers:     w.WebWorkers,
			Port:        w.WebPort,
		})
		return func(res *Result) {
			foldPlayer(res, player)
			foldTier3(res, st)
		}, nil
	}}
}

// SOR describes the scientific grid solver (the OS-light contrast
// workload).
func SOR(w SORConfig) Workload {
	return single{label: "SOR/splash", spawn: func(m *machine.Machine) (func(*Result), error) {
		s := splash.NewSOR(w)
		spawnEach(m, "sor", 0, w.Procs, s.Worker)
		return nil, nil
	}}
}

// SORDSM describes the SOR kernel on a software-DSM cluster (the paper's
// third target class, §5): each worker is a cluster node; the grid lives
// in a DSM region whose pages migrate and replicate through IVY-style
// page faults, while per-access traffic stays node-local. Compare with
// SOR on ArchCCNUMA for the hardware-vs-software coherence trade.
func SORDSM(w SORConfig) Workload {
	return single{
		label: "SOR/dsm",
		shape: func(cfg *Config) { cfg.CPUs = w.Procs }, // one node per worker
		spawn: func(m *machine.Machine) (func(*Result), error) {
			proto := dsm.New(dsm.DefaultConfig(w.Procs))
			n := w.N
			gridBytes := uint32(n*n*8 + mem.PageSize) // + page for the barrier
			gridBytes = (gridBytes + mem.PageMask) &^ uint32(mem.PageMask)

			spawnEach(m, "node", 0, w.Procs, func(p *frontend.Proc, i int) {
				os := osserver.For(p)
				segID, err := os.ShmGet(0xD50A, gridBytes)
				if err != nil {
					panic(err)
				}
				base, err := os.ShmAt(segID)
				if err != nil {
					panic(err)
				}
				region := dsm.NewRegion(m.Sim, proto, base+mem.PageSize, gridBytes-mem.PageSize)
				view := region.NewView(i)
				bar := &simsync.Barrier{Addr: base, N: uint64(w.Procs)}

				cell := func(r, c int) mem.VirtAddr {
					return region.Base + mem.VirtAddr((r*n+c)*8)
				}
				lo := 1 + (n-2)*i/w.Procs
				hi := 1 + (n-2)*(i+1)/w.Procs
				for it := 0; it < w.Iters; it++ {
					for r := lo; r < hi; r++ {
						// Row-granular rights checks (pages hold whole rows
						// when n*8 <= PageSize), then the stencil traffic.
						view.LoadRange(p, cell(r-1, 1), (n-2)*8)
						view.LoadRange(p, cell(r+1, 1), (n-2)*8)
						view.StoreRange(p, cell(r, 1), (n-2)*8)
						p.Compute(isa.InstrMix{FPAdd: uint64(3 * (n - 2)), FPMul: uint64(n - 2), Int: uint64(8 * (n - 2)), Branch: uint64(n - 2)})
					}
					bar.Wait(p)
				}
			})
			return func(res *Result) {
				proto.AddCounters(res.Counters)
				res.Extra["dsm.pagemoves"] = float64(proto.PageMoves)
				res.Extra["dsm.faults"] = float64(proto.ReadFaults + proto.WriteFaults)
			}, nil
		},
	}
}

// sweepDesc is rounds of strided stores, one a phase, each with `batch`
// references to an event-port message.
type sweepDesc struct{ rounds []sweepRound }

type sweepRound struct{ batch, stores int }

// BatchSweep describes the interleave-granularity experiment (§2): one
// process per CPU performs a fixed strided store sweep with `batch`
// references coalesced per event-port message. batch=1 is per-reference
// interleaving; larger batches approximate the paper's basic-block
// granularity, trading interleave fidelity for fewer frontend-backend
// rendezvous. The memory traffic is the same at every batch, so the
// Result's Cycles should barely move while host time drops.
func BatchSweep(batch, stores int) Workload {
	return sweepDesc{rounds: []sweepRound{{batch, stores}}}
}

func (d sweepDesc) name() string { return "batchsweep" }
func (d sweepDesc) phases() int  { return len(d.rounds) }

// A sweep keeps nothing on the host: a warm machine is all of its state,
// and the description can stand for every run of itself.
func (d sweepDesc) begin(*Config) (workloadRun, error)      { return d, nil }
func (d sweepDesc) populate(*machine.Machine)               {}
func (d sweepDesc) attach(func(string) []byte) error        { return nil }
func (d sweepDesc) sections() ([]checkpoint.Section, error) { return nil, nil }
func (d sweepDesc) fold(*Result)                            {}

func (d sweepDesc) start(m *machine.Machine, k int) (bool, error) {
	ph, n := d.rounds[k], m.Cfg.CPUs
	spawnEach(m, "sweep", k*n, n, func(p *frontend.Proc, i int) {
		sbase := osserver.For(p).Sbrk(1 << 20)
		p.SetBatch(ph.batch)
		for j := 0; j < ph.stores; j++ {
			p.Store(sbase+mem.VirtAddr((j*96+i*32)%(1<<20-8)), 4)
			p.Compute(isa.ALU(3))
		}
		p.SetBatch(1)
	})
	return true, nil
}
