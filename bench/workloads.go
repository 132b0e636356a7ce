package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"compass/internal/apps/db"
	"compass/internal/apps/httpd"
	"compass/internal/apps/tpcc"
	"compass/internal/apps/tpcd"
	"compass/internal/expt"
	"compass/internal/frontend"
	"compass/internal/isa"
	"compass/internal/loadgen"
	"compass/internal/machine"
	"compass/internal/mem"
	"compass/internal/osserver"
	"compass/internal/stats"
)

// sizes fixes how much work each workload does. The sizes are constants of
// the benchmark: the seed changes the inputs drawn, never how many.
type sizes struct {
	OLTPWarmTx, OLTPTx int // transactions per agent
	DSSRows            int
	// WebWarmReqs warm the server; WebReqs are offered in the measured phase.
	WebWarmReqs, WebReqs uint64
	SweepWarmStores      int // per CPU
	SweepStores          int // per CPU and point
	SweepBatches         []int
}

// Sized on the 2-core sandbox so the measured phase lasts a little over two
// seconds and a twelve-second run holds six reps: the host is a
// shared VM whose stolen time comes in bursts, and the median of six short
// reps rides them out where that of three long ones does not.
func fullSizes() sizes {
	return sizes{
		OLTPWarmTx: 100, OLTPTx: 280,
		DSSRows:     416 * 1024,
		WebWarmReqs: 2000, WebReqs: 20000,
		SweepWarmStores: 100_000, SweepStores: 300_000,
		SweepBatches: []int{1, 2, 4, 8, 16, 32, 64, 128},
	}
}

// quickSizes is about a fiftieth of fullSizes: enough to exercise every
// code path and emit every metric name, far too short to time anything.
func quickSizes() sizes {
	return sizes{
		OLTPWarmTx: 4, OLTPTx: 5,
		DSSRows:     8 * 1024,
		WebWarmReqs: 60, WebReqs: 400,
		SweepWarmStores: 2_000, SweepStores: 6_000,
		SweepBatches: []int{1, 2, 4, 8, 16, 32, 64, 128},
	}
}

// Offered web load, in sessions per million simulated cycles. The 4-worker
// server saturates at 36–38 requests per Mcycle on this fileset (README,
// "Sizing web_open"); steady + crowd base is 70 % of 36, and the crowd
// class triples for a tenth of the run, which lifts the total to about
// capacity while the window is open.
const (
	webSteadyRate = 20.0
	webCrowdRate  = 5.25
	webFlashMult  = 3
)

// derive splits the run's one seed into independent per-use seeds
// (splitmix64 over the seed and a label hash).
func derive(seed uint64, label string) uint64 {
	h := sha256.Sum256([]byte(label))
	x := seed
	for i := 0; i < 8; i++ {
		x ^= uint64(h[i]) << (8 * i)
	}
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// rep is one repetition of a workload: one set-up, one measured phase on
// the machine it built (a Sim.Run, or one whole sweep), its statistics and
// the oracle's verdict. Reps of one run have identical inputs, so their
// digests must be equal.
type rep struct {
	SetupS float64
	// Host is what the measured phase cost the host.
	Host hostCost
	// Refs and SimCycles are the references serviced and the simulated
	// cycles covered by the measured phase. Crossings is the estimated
	// number of event-port messages (equal to Refs except where references
	// travel batched).
	Refs, SimCycles, Crossings uint64
	Attempted                  int
	Failed                     int
	Digest                     string
	OSSharePct                 float64
	Goroutines                 int
	// Counts are exact (simulated) per-layer counts over the measured phase.
	Counts map[string]float64
	// ParallelEff and Workers are set by sweep_warm_par only.
	ParallelEff float64
	Workers     int
}

// nsPerRef is the headline: measured-phase wall over references serviced.
func (r *rep) nsPerRef() float64 { return float64(r.Host.Wall.Nanoseconds()) / float64(r.Refs) }

// workload is one named benchmark input.
type workload struct {
	Name string
	Why  string
	// PaperOSPct is the Table 1 OS share this workload is compared with;
	// zero means the paper has no such row.
	PaperOSPct float64
	// new returns a runner holding state shared by the reps of one run.
	new func(sz sizes, seed uint64) runner
}

type runner interface {
	rep(sp *spans) (rep, error)
}

var workloads = []workload{
	{
		Name:       "oltp_simple",
		Why:        "TPCC on the simple backend: store/RMW-heavy with the most references per queue task, so the event port and interleave pick do nearly all the work",
		PaperOSPct: 21.0,
		new:        func(sz sizes, seed uint64) runner { return &phased{&oltpJob{sz: sz, seed: seed}} },
	},
	{
		Name:       "dss_ccnuma",
		Why:        "TPC-D Q1+Q6 scan on CC-NUMA: load-heavy with almost no sharing, the most directory/noc/translate work and a disk read, interrupt and wake on every page",
		PaperOSPct: 19.0,
		new:        func(sz sizes, seed uint64) runner { return &phased{&dssJob{sz: sz, seed: seed}} },
	},
	{
		Name:       "web_open",
		Why:        "httpd under open-loop load with a flash crowd on two shards: few references per queue task, so event, netstack, NIC and OS server dominate and the port does the least",
		PaperOSPct: 85.1,
		new:        func(sz sizes, seed uint64) runner { return &phased{&webJob{sz: sz, seed: seed}} },
	},
	{
		Name: "sweep_warm_par",
		Why:  "batch sweep restored from one warm snapshot on two workers: batched store-only port traffic, checkpoint restore, and two simulations contending for the host cores",
		new:  func(sz sizes, _ uint64) runner { return &sweepRunner{sz: sz} },
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// modelPrefixes are the counter prefixes of the five memory models.
var modelPrefixes = []string{"simple", "smp", "ccnuma", "coma"}

// refsOf is references serviced: loads + stores of whichever model ran
// (RMWs and kernel/interrupt touches are already inside those two).
func refsOf(c *stats.Counters) uint64 {
	n := c.Get("fixed.accesses")
	for _, p := range modelPrefixes {
		n += c.Get(p+".loads") + c.Get(p+".stores")
	}
	return n
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerCounts reduces a measured-phase counter diff to the per-layer
// counts BENCHMARK.json names.
func layerCounts(c *stats.Counters, refs uint64) map[string]float64 {
	return map[string]float64{
		"core.refs":                   float64(refs),
		"core.rmw":                    float64(c.Get("sync.rmw")),
		"core.ctxswitches":            float64(c.Get("sched.ctxswitches")),
		"core.migrations":             float64(c.Get("sched.migrations")),
		"core.interrupts":             float64(c.Get("intr.delivered")),
		"mem.faults":                  float64(c.Get("vm.faults")),
		"event.tasks":                 float64(c.Get("backend.tasks")),
		"event.tasks_per_kref":        1000 * ratio(c.Get("backend.tasks"), refs),
		"snoop.l1_hit_ratio":          ratio(c.Get("simple.l1.hits")+c.Get("smp.l1.hits"), c.Get("simple.l1.lookups")+c.Get("smp.l1.lookups")),
		"snoop.invalidations":         float64(c.Get("simple.invalidations") + c.Get("smp.invalidations")),
		"directory.threehop":          float64(c.Get("ccnuma.threehop")),
		"noc.messages":                float64(c.Get("ccnuma.net.messages")),
		"directory.l1_hit_ratio":      ratio(c.Get("ccnuma.l1.hits"), c.Get("ccnuma.loads")+c.Get("ccnuma.stores")),
		"directory.remote_miss_ratio": ratio(c.Get("ccnuma.miss.remote"), c.Get("ccnuma.miss.remote")+c.Get("ccnuma.miss.local")),
	}
}

// simSnap is the simulated state a measured phase is diffed against.
type simSnap struct {
	cycle    uint64
	counters *stats.Counters
	account  stats.TimeAccount
	syscalls uint64
	devIntr  uint64
	windows  uint64
	parallel uint64
}

func snapSim(m *machine.Machine) simSnap {
	s := simSnap{
		cycle:    uint64(m.Sim.CurTime()),
		counters: m.Sim.Counters(),
		account:  m.Sim.TotalAccount(),
		devIntr:  m.Disk.Reads + m.Disk.Writes + m.NIC.RxPackets + m.NIC.TxPackets,
	}
	_, calls := m.OS.SyscallProfile()
	for _, n := range calls {
		s.syscalls += n
	}
	s.windows, s.parallel, _ = m.Sim.WindowStats()
	return s
}

// connectMu serializes osserver.Server.Connect. machine.SpawnConnected calls
// it from each new process's own goroutine with no lock, and processes
// spawned together start together, so appends to the server's thread list
// race and one can be lost; the lost thread's calls then vanish from the
// syscall profile (seen on dss_ccnuma, about one run in ten). Connect
// posts no event, so taking a host lock around it leaves the simulation
// untouched. Fixing Connect itself is a change to the program, not to its
// benchmark.
var connectMu sync.Mutex

// spawnConnected is machine.SpawnConnected with Connect serialized.
func spawnConnected(m *machine.Machine, name string, body func(p *frontend.Proc)) {
	m.Sim.Spawn(name, func(p *frontend.Proc) {
		connectMu.Lock()
		m.OS.Connect(p)
		connectMu.Unlock()
		body(p)
	})
}

// digester accumulates the exact-repeat surface of a measured phase.
type digester struct{ b strings.Builder }

func (d *digester) add(label, body string) { fmt.Fprintf(&d.b, "== %s ==\n%s\n", label, body) }

func (d *digester) sum() string {
	h := sha256.Sum256([]byte(d.b.String()))
	return hex.EncodeToString(h[:])
}

// job is one workload on a single machine, composed from the same public
// functions the facade's Run*WithOptions variants use.
type job interface {
	config() machine.Config
	// setup loads the workload's files and spawns the warm phase.
	setup(m *machine.Machine) error
	// arm spawns the measured phase on the quiescent, warm machine.
	arm(m *machine.Machine) error
	// table is the measured phase's output that belongs in the digest.
	table() string
	// extra adds workload-specific exact counts.
	extra(counts map[string]float64)
	// verify runs the oracle after the measured phase's statistics are
	// taken (it may simulate further): operations attempted and failed.
	verify(m *machine.Machine) (attempted, failed int)
}

// phased runs a job: set-up (machine, files, warm phase to quiescence),
// then the measured Sim.Run on the same machine.
type phased struct{ job job }

func (p *phased) rep(sp *spans) (rep, error) {
	j := p.job
	var (
		r   rep
		m   *machine.Machine
		err error
		d   digester
	)
	runtime.GC()
	t0 := time.Now()
	sp.do("machine.new", func() uint64 { m = machine.New(j.config()); return 1 })
	sp.do("apps.setup", func() uint64 { err = j.setup(m); return 1 })
	if err != nil {
		return r, err
	}
	sp.do("core.run.warm", func() uint64 { m.Sim.Run(); return refsOf(m.Sim.Counters()) })
	// The baseline is read while the machine is quiescent: a spawned process
	// starts executing (and charging its account) at once.
	warm := snapSim(m)
	sp.do("apps.setup", func() uint64 { err = j.arm(m); return 1 })
	if err != nil {
		return r, err
	}
	r.SetupS = time.Since(t0).Seconds()
	r.Goroutines = runtime.NumGoroutine()
	sp.do("core.run", func() uint64 {
		r.Host = measureHost(func() { m.Sim.Run() })
		return refsOf(m.Sim.Counters()) - refsOf(warm.counters)
	})

	sp.do("stats.collect", func() uint64 {
		end := snapSim(m)
		diff := end.counters.Diff(warm.counters)
		r.Refs = refsOf(diff)
		r.Crossings = r.Refs
		r.SimCycles = end.cycle - warm.cycle
		r.Counts = layerCounts(diff, r.Refs)
		r.Counts["osserver.syscalls"] = float64(end.syscalls - warm.syscalls)
		r.Counts["dev.interrupts"] = float64(end.devIntr - warm.devIntr)
		r.Counts["event.windows"] = float64(end.windows - warm.windows)
		r.Counts["event.parallel_windows"] = float64(end.parallel - warm.parallel)
		j.extra(r.Counts)

		user := end.account.Cycles(stats.ModeUser) - warm.account.Cycles(stats.ModeUser)
		kern := end.account.Cycles(stats.ModeKernel) - warm.account.Cycles(stats.ModeKernel)
		intr := end.account.Cycles(stats.ModeInterrupt) - warm.account.Cycles(stats.ModeInterrupt)
		if total := user + kern + intr; total > 0 {
			r.OSSharePct = 100 * float64(kern+intr) / float64(total)
		}
		d.add("measured", fmt.Sprintf("cycles %d %d\n%s%s", warm.cycle, end.cycle, diff.String(), j.table()))
		d.add("profile", fmt.Sprintf("user %d kernel %d interrupt %d", user, kern, intr))
		d.add("syscalls", m.OS.FormatSyscallProfile(0))
		r.Digest = d.sum()
		return uint64(len(diff.Names()))
	})

	sp.do("bench.verify", func() uint64 {
		r.Attempted, r.Failed = j.verify(m)
		return uint64(r.Attempted)
	})
	return r, nil
}

// --- oltp_simple -----------------------------------------------------------

type oltpJob struct {
	sz   sizes
	seed uint64
	wl   *tpcc.Workload // the phase last spawned; both share the warm catalog
}

func (j *oltpJob) config() machine.Config { return machine.Default() }

func spawnAgents(m *machine.Machine, wl *tpcc.Workload, base int) {
	for i := 0; i < wl.Cfg.Agents; i++ {
		idx := base + i
		spawnConnected(m, fmt.Sprintf("agent%d", idx), func(p *frontend.Proc) { wl.Agent(p, idx) })
	}
}

func (j *oltpJob) setup(m *machine.Machine) error {
	c := tpcc.DefaultConfig()
	c.TxPerAgent = j.sz.OLTPWarmTx
	c.Seed = int64(derive(j.seed, "oltp.warm") >> 1)
	j.wl = tpcc.Setup(m.FS, c)
	spawnAgents(m, j.wl, 0)
	return nil
}

func (j *oltpJob) arm(m *machine.Machine) error {
	c := j.wl.Cfg
	c.TxPerAgent = j.sz.OLTPTx
	c.Seed = int64(derive(j.seed, "oltp.measured") >> 1)
	wl, err := j.wl.WithConfig(c)
	if err != nil {
		return err
	}
	j.wl = wl
	spawnAgents(m, wl, c.Agents)
	return nil
}

func (j *oltpJob) table() string { return "" }

func (j *oltpJob) extra(counts map[string]float64) {
	hits, misses := db.Stats(j.wl.Cat)
	counts["db.pool_hit_ratio"] = ratio(hits, hits+misses)
}

// verify runs VerifyOrders as one more simulated process: the district
// next-order ids must sum to the global order counter and every order
// must be findable through the index.
func (j *oltpJob) verify(m *machine.Machine) (int, int) {
	tx := j.wl.Cfg.Agents * j.wl.Cfg.TxPerAgent
	var verr error
	spawnConnected(m, "verify", func(p *frontend.Proc) { verr = j.wl.VerifyOrders(p) })
	m.Sim.Run()
	if verr != nil {
		fmt.Fprintln(stderr, "oltp_simple:", verr)
		return tx, tx
	}
	return tx, 0
}

// --- dss_ccnuma ------------------------------------------------------------

// The scan predicates of the facade's RunTPCD.
const (
	q1Cutoff                   = 1500
	q6D0, q6D1, q6Disc, q6QMax = 100, 1800, 5, 30
)

type dssJob struct {
	sz   sizes
	seed uint64
	wl   *tpcd.Workload
	// q1 and q6 hold the measured phase's per-agent partial results.
	q1 []tpcd.Q1Result
	q6 []uint64
}

func (j *dssJob) config() machine.Config {
	c := machine.Default()
	c.Arch = machine.ArchCCNUMA
	c.Nodes = 4
	return c
}

// spawnScan gives each agent its page partition of lineitem, the way the
// facade's RunTPCDQueries does.
func (j *dssJob) spawnScan(m *machine.Machine, base int, body func(p *frontend.Proc, a *db.Agent, i, first, last int)) {
	agents, pages := j.wl.Cfg.Agents, j.wl.LineitemPages()
	for i := 0; i < agents; i++ {
		i := i
		spawnConnected(m, fmt.Sprintf("agent%d", base+i), func(p *frontend.Proc) {
			a := db.NewAgent(p, j.wl.Cat)
			body(p, a, i, pages*i/agents, pages*(i+1)/agents)
			a.Close()
		})
	}
}

func (j *dssJob) setup(m *machine.Machine) error {
	c := tpcd.DefaultConfig()
	c.Rows = j.sz.DSSRows
	c.Orders = c.Rows / 64
	c.Seed = int64(derive(j.seed, "dss") >> 1)
	j.wl = tpcd.Setup(m.FS, c)
	// Warm phase: one Q6 pass fills page tables, caches and the pool.
	j.spawnScan(m, 0, func(p *frontend.Proc, a *db.Agent, _, first, last int) {
		j.wl.Q6(p, a, first, last, q6D0, q6D1, q6Disc, q6QMax)
	})
	return nil
}

func (j *dssJob) arm(m *machine.Machine) error {
	agents := j.wl.Cfg.Agents
	j.q1, j.q6 = make([]tpcd.Q1Result, agents), make([]uint64, agents)
	j.spawnScan(m, agents, func(p *frontend.Proc, a *db.Agent, i, first, last int) {
		j.q1[i] = j.wl.Q1(p, a, first, last, q1Cutoff)
		j.q6[i] = j.wl.Q6(p, a, first, last, q6D0, q6D1, q6Disc, q6QMax)
	})
	return nil
}

func (j *dssJob) table() string { return fmt.Sprintf("q1 %v\nq6 %v\n", j.q1, j.q6) }

func (j *dssJob) extra(counts map[string]float64) {
	hits, misses := db.Stats(j.wl.Cat)
	counts["db.pool_hit_ratio"] = ratio(hits, hits+misses)
}

// verify compares the partitioned scan results with the host-side oracle
// over the generator's retained rows. Each agent ran two queries.
func (j *dssJob) verify(*machine.Machine) (int, int) {
	agents := j.wl.Cfg.Agents
	var q1 tpcd.Q1Result
	var q6 uint64
	for i := 0; i < agents; i++ {
		q1.Count += j.q1[i].Count
		q1.SumQty += j.q1[i].SumQty
		q1.SumPrice += j.q1[i].SumPrice
		q6 += j.q6[i]
	}
	failed := 0
	if want := j.wl.HostQ1(q1Cutoff); q1 != want {
		fmt.Fprintf(stderr, "dss_ccnuma: Q1 = %+v, oracle %+v\n", q1, want)
		failed += agents
	}
	if want := j.wl.HostQ6(q6D0, q6D1, q6Disc, q6QMax); q6 != want {
		fmt.Fprintf(stderr, "dss_ccnuma: Q6 = %d, oracle %d\n", q6, want)
		failed += agents
	}
	return 2 * agents, failed
}

// --- web_open --------------------------------------------------------------

const webWorkers = 4

// webFilesetSeed fixes the served fileset. Object sizes are heavy-tailed,
// so a fileset drawn from the run's seed moves the bytes per request — and
// with them the server's capacity — by a factor of four between seeds. The
// fileset is therefore a constant of the benchmark, like SPECweb's; the
// seed drives who asks for what and when.
const webFilesetSeed = 3

type webJob struct {
	sz   sizes
	seed uint64
	hcfg httpd.Config
	plan loadgen.Config // the warm phase's plan; the measured one extends it
	gen  *loadgen.Generator
	// st holds every worker's tallies: webWorkers warm workers, then the
	// measured phase's.
	st [2 * webWorkers]httpd.Stats
	// offered0, completed0 are the warm phase's tallies: the generator's
	// budget and counts are cumulative across phases.
	offered0, completed0 uint64
}

func (j *webJob) config() machine.Config {
	c := machine.Default()
	c.Shards = 2
	return c
}

func (j *webJob) spawnWorkers(m *machine.Machine, base int) {
	for i := base; i < base+webWorkers; i++ {
		st := &j.st[i]
		spawnConnected(m, fmt.Sprintf("httpd%d", i), func(p *frontend.Proc) {
			httpd.Worker(p, j.hcfg, st)
		})
	}
}

// catalogs derives the per-class object catalogs, a pure function of the
// class list and the fileset seed (the facade's staticCatalogs).
func (j *webJob) catalogs() []loadgen.Catalog {
	cats := make([]loadgen.Catalog, len(j.plan.Classes))
	for i, cl := range j.plan.Classes {
		sizes := cl.Sizes(webFilesetSeed, i)
		cat := make(loadgen.Catalog, len(sizes))
		for k, sz := range sizes {
			cat[k] = loadgen.Object{Path: "/" + loadgen.ObjectPath(cl.Name, k), Size: sz}
		}
		cats[i] = cat
	}
	return cats
}

func (j *webJob) setup(m *machine.Machine) error {
	j.hcfg = httpd.DefaultConfig()
	j.hcfg.Workers = webWorkers
	j.st = [2 * webWorkers]httpd.Stats{}
	j.plan = loadgen.Config{
		Seed:     derive(j.seed, "web"),
		Requests: j.sz.WebWarmReqs,
		Classes: []loadgen.ClassConfig{
			{Name: "steady", Clients: 1_000_000, Interval: 1e12 / webSteadyRate},
			{Name: "crowd", Clients: 1_000_000, Interval: 1e12 / webCrowdRate},
		},
	}
	j.plan.ApplyDefaults()
	cats := j.catalogs()
	for i, cl := range j.plan.Classes {
		for k := range cats[i] {
			data := make([]byte, cats[i][k].Size)
			for b := range data {
				data[b] = byte('a' + (k+b)%26)
			}
			m.FS.SetupCreate(loadgen.ObjectPath(cl.Name, k), data)
		}
	}
	m.FS.SetupCreate(j.hcfg.LogFile, nil)
	j.spawnWorkers(m, 0)
	g, err := loadgen.New(m.Sim, m.NIC, j.plan, cats, webWorkers, j.hcfg.Port)
	if err != nil {
		return err
	}
	j.gen = g
	g.Start()
	return nil
}

// arm continues the warm generator's draw streams into the measured plan.
// The crowd class's flash window opens a third of the way into the phase
// and stays open for a tenth of its expected length.
func (j *webJob) arm(m *machine.Machine) error {
	state, err := j.gen.Snapshot()
	if err != nil {
		return err
	}
	j.offered0, j.completed0 = j.gen.Offered(), j.gen.Completed()
	if j.offered0 != j.sz.WebWarmReqs || j.completed0 != j.offered0 || j.gen.Failed()+j.gen.BadBytes() != 0 {
		return fmt.Errorf("web_open: warm phase offered %d completed %d failed %d bad %d",
			j.offered0, j.completed0, j.gen.Failed(), j.gen.BadBytes())
	}
	plan := j.plan
	plan.Classes = append([]loadgen.ClassConfig(nil), j.plan.Classes...)
	plan.Requests = j.sz.WebWarmReqs + j.sz.WebReqs
	expected := float64(j.sz.WebReqs) / (webSteadyRate + webCrowdRate) * 1e6 // cycles
	now := float64(m.Sim.CurTime())
	plan.Classes[1].Flash = []loadgen.Window{{
		Start: uint64(now + expected/3), Dur: uint64(expected / 10), Mult: webFlashMult,
	}}
	j.spawnWorkers(m, webWorkers)
	g, err := loadgen.New(m.Sim, m.NIC, plan, j.catalogs(), webWorkers, j.hcfg.Port)
	if err != nil {
		return err
	}
	if err := g.Restore(state); err != nil {
		return err
	}
	j.gen = g
	g.Start()
	return nil
}

func (j *webJob) table() string { return stats.FormatLoadTable(j.gen.Rows()) }

// extra reports the load table. The latency histogram is cumulative, so
// the quantiles include the warm phase's requests.
func (j *webJob) extra(counts map[string]float64) {
	var lat stats.Histogram
	for _, r := range j.gen.Rows() {
		lat.Merge(r.Latency)
	}
	counts["loadgen.offered"] = float64(j.gen.Offered() - j.offered0)
	counts["loadgen.completed"] = float64(j.gen.Completed() - j.completed0)
	counts["loadgen.failed"] = float64(j.gen.Failed() + j.gen.BadBytes())
	counts["loadgen.p50_cycles"] = lat.Quantile(0.50)
	counts["loadgen.p99_cycles"] = lat.Quantile(0.99)
	// An open-loop generator in simulated time sends exactly on schedule.
	counts["loadgen.late_cycles"] = 0
}

// verify counts a request as failed when the generator abandoned it, its
// body length disagreed with the catalog, or it never completed; the
// workers' own served count must agree.
func (j *webJob) verify(*machine.Machine) (int, int) {
	offered := j.gen.Offered() - j.offered0
	completed := j.gen.Completed() - j.completed0
	failed := j.gen.Failed() + j.gen.BadBytes() + (offered - completed)
	var served uint64
	for _, s := range j.st {
		served += s.Served
	}
	if served != j.gen.Completed() {
		fmt.Fprintf(stderr, "web_open: workers served %d, generator completed %d\n", served, j.gen.Completed())
		failed = offered
	}
	if offered != j.sz.WebReqs {
		fmt.Fprintf(stderr, "web_open: offered %d of %d\n", offered, j.sz.WebReqs)
		failed = offered
	}
	return int(offered), int(failed)
}

// --- sweep_warm_par --------------------------------------------------------

const sweepCPUs = 4

// sweepPoint is one batch setting's measurement.
type sweepPoint struct {
	Batch    int
	End      uint64
	Measured uint64
	Counters *stats.Counters
	restore  [2]time.Time
	run      [2]time.Time
}

type sweepRunner struct {
	sz sizes
	// serialTable and serialWall come from the Workers=1 pass, made once
	// per run from the first rep's snapshot and reused as every rep's
	// oracle.
	serialTable string
	serialWall  time.Duration
	// goroutinePeak is the largest goroutine count a sweep job observed.
	goroutinePeak atomic.Int64
}

// spawnStores spawns the strided-store processes of the interleave sweep
// (EXPERIMENTS ablation C, the facade's spawnSweepProcs). The kernel has
// no random input: every store opens a new line of a private region, so the
// simulation is the same whatever the addresses, and the run's seed has
// nothing to draw here.
func spawnStores(m *machine.Machine, base, batch, stores int) {
	for i := 0; i < sweepCPUs; i++ {
		i := i
		spawnConnected(m, fmt.Sprintf("sweep%d", base+i), func(p *frontend.Proc) {
			sbase := osserver.For(p).Sbrk(1 << 20)
			p.SetBatch(batch)
			for k := 0; k < stores; k++ {
				p.Store(sbase+mem.VirtAddr((k*96+i*32)%(1<<20-8)), 4)
				p.Compute(isa.ALU(3))
			}
			p.SetBatch(1)
		})
	}
}

func (s *sweepRunner) jobs(snap *expt.Snapshot, warmEnd uint64) []expt.Job[sweepPoint] {
	jobs := make([]expt.Job[sweepPoint], len(s.sz.SweepBatches))
	for i, b := range s.sz.SweepBatches {
		b := b
		jobs[i] = expt.Job[sweepPoint]{
			Name: fmt.Sprintf("batch%d", b),
			Run: func() (sweepPoint, error) {
				pt := sweepPoint{Batch: b}
				pt.restore[0] = time.Now()
				rm, err := snap.Restore()
				pt.restore[1] = time.Now()
				if err != nil {
					return pt, err
				}
				spawnStores(rm, sweepCPUs, b, s.sz.SweepStores)
				if n := int64(runtime.NumGoroutine()); n > s.goroutinePeak.Load() {
					s.goroutinePeak.Store(n)
				}
				pt.run[0] = time.Now()
				pt.End = uint64(rm.Sim.Run())
				pt.run[1] = time.Now()
				pt.Measured = pt.End - warmEnd
				pt.Counters = rm.Sim.Counters()
				return pt, nil
			},
		}
	}
	return jobs
}

// sweepTable renders points as the byte-equality surface between the
// serial and the parallel pass, full counter dump included.
func sweepTable(points []sweepPoint, warmEnd uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "warm end %d\n%8s %14s %14s\n", warmEnd, "batch", "end", "measured")
	for _, p := range points {
		fmt.Fprintf(&b, "%8d %14d %14d\n", p.Batch, p.End, p.Measured)
	}
	for _, p := range points {
		fmt.Fprintf(&b, "-- batch %d counters --\n%s", p.Batch, p.Counters.String())
	}
	return b.String()
}

// rep warms one machine, snapshots it, and runs the whole sweep from that
// snapshot on a two-worker pool.
func (s *sweepRunner) rep(sp *spans) (rep, error) {
	var (
		r      rep
		m      *machine.Machine
		snap   *expt.Snapshot
		points []sweepPoint
		err    error
		d      digester
	)
	runtime.GC()
	t0 := time.Now()
	cfg := machine.Default()
	cfg.CPUs = sweepCPUs
	sp.do("machine.new", func() uint64 { m = machine.New(cfg); return 1 })
	sp.do("apps.setup", func() uint64 { spawnStores(m, 0, 1, s.sz.SweepWarmStores); return 1 })
	sp.do("core.run.warm", func() uint64 { m.Sim.Run(); return refsOf(m.Sim.Counters()) })
	warm := snapSim(m)
	sp.do("checkpoint.save", func() uint64 {
		if snap, err = expt.TakeSnapshot(m, nil); err != nil {
			return 0
		}
		return uint64(snap.Size())
	})
	if err != nil {
		return r, err
	}
	r.SetupS = time.Since(t0).Seconds()

	r.Workers = expt.Workers(2, len(s.sz.SweepBatches))
	s.goroutinePeak.Store(0)
	sp.do("expt.run", func() uint64 {
		var results []expt.Result[sweepPoint]
		r.Host = measureHost(func() {
			results = expt.Run(expt.Config{Workers: r.Workers}, s.jobs(snap, warm.cycle))
		})
		if err = expt.FirstErr(results); err != nil {
			return 0
		}
		points = expt.Values(results)
		// The jobs ran on the pool's goroutines; their spans join the
		// trace here, one track per point.
		for i, p := range points {
			sp.record("checkpoint.restore", 1+i, p.restore[0], p.restore[1], uint64(snap.Size()))
			sp.record("core.run", 1+i, p.run[0], p.run[1], refsOf(p.Counters)-refsOf(warm.counters))
		}
		return uint64(len(points))
	})
	if err != nil {
		return r, err
	}
	var table string
	sp.do("stats.collect", func() uint64 {
		total := &stats.Counters{}
		for _, p := range points {
			diff := p.Counters.Diff(warm.counters)
			total.Add(diff)
			refs := refsOf(diff)
			r.Refs += refs
			r.SimCycles += p.Measured
			r.Crossings += (refs + uint64(p.Batch) - 1) / uint64(p.Batch)
		}
		r.Goroutines = int(s.goroutinePeak.Load())
		r.Counts = layerCounts(total, r.Refs)
		table = sweepTable(points, warm.cycle)
		d.add("sweep", table)
		r.Digest = d.sum()
		return uint64(len(points))
	})

	sp.do("bench.verify", func() uint64 {
		if s.serialTable == "" {
			t := time.Now()
			serial := expt.Run(expt.Config{Workers: 1}, s.jobs(snap, warm.cycle))
			s.serialWall = time.Since(t)
			if err = expt.FirstErr(serial); err != nil {
				return 0
			}
			s.serialTable = sweepTable(expt.Values(serial), warm.cycle)
		}
		r.Attempted = len(points)
		if table != s.serialTable {
			fmt.Fprintln(stderr, "sweep_warm_par: table differs from the Workers=1 pass")
			r.Failed = len(points)
		}
		r.ParallelEff = s.serialWall.Seconds() / (float64(r.Workers) * r.Host.Wall.Seconds())
		return uint64(r.Attempted)
	})
	return r, err
}
