package compass

import (
	"fmt"

	"compass/internal/apps/tier3"
	"compass/internal/checkpoint"
	"compass/internal/fs"
	"compass/internal/loadgen"
	"compass/internal/machine"
	"compass/internal/stats"
)

// LoadConfig is the open-loop traffic plan (internal/loadgen); see
// loadgen.Config for fields and the -load grammar.
type LoadConfig = loadgen.Config

// ParseLoadSpec parses a -load command-line specification such as
// "seed=42,requests=400;class=web,clients=1000000,interval=1e9,flash=2e6:4e6:8".
func ParseLoadSpec(spec string) (LoadConfig, error) { return loadgen.ParseSpec(spec) }

// staticCatalogs derives the per-class object catalogs of a static-file
// plan — a pure function of the plan, so a resumed run rebuilds the
// identical catalogs without touching the restored filesystem.
func staticCatalogs(lc LoadConfig) []loadgen.Catalog {
	cats := make([]loadgen.Catalog, len(lc.Classes))
	for i, cl := range lc.Classes {
		sizes := cl.Sizes(lc.Seed, i)
		cat := make(loadgen.Catalog, len(sizes))
		for j, sz := range sizes {
			cat[j] = loadgen.Object{Path: "/" + loadgen.ObjectPath(cl.Name, j), Size: sz}
		}
		cats[i] = cat
	}
	return cats
}

// materializeStatic creates the catalog files in the simulated
// filesystem (fresh machines only; restored machines carry them).
func materializeStatic(filesys *fs.FS, lc LoadConfig, cats []loadgen.Catalog) {
	for i, cl := range lc.Classes {
		for j := range cats[i] {
			data := make([]byte, cats[i][j].Size)
			for k := range data {
				data[k] = byte('a' + (j+k)%26)
			}
			filesys.SetupCreate(loadgen.ObjectPath(cl.Name, j), data)
		}
	}
}

// dynPage is the three-tier stack's page for a key: its path, and the size
// the oracle gives its body, so that response bodies validate.
func dynPage(wl *tier3.Workload, key int) (path string, size int) {
	body := fmt.Sprintf("<html>key %d -> VAL %d</html>", key, wl.OracleValue(key))
	return fmt.Sprintf("/dyn/%d", key), len(body)
}

// tier3Catalogs derives per-class /dyn/<key> catalogs against the
// database tier.
func tier3Catalogs(lc LoadConfig, w Tier3Config, wl *tier3.Workload) []loadgen.Catalog {
	cats := make([]loadgen.Catalog, len(lc.Classes))
	for i, cl := range lc.Classes {
		keys := cl.Keys(lc.Seed, i, w.Rows)
		cat := make(loadgen.Catalog, len(keys))
		for j, key := range keys {
			cat[j].Path, cat[j].Size = dynPage(wl, key)
		}
		cats[i] = cat
	}
	return cats
}

// startGenerator builds phase k's open-loop generator against the
// machine's NIC, continues the previous phase's draw streams and tallies
// when there was one, and starts it.
func startGenerator(m *machine.Machine, lc LoadConfig, cats []loadgen.Catalog, workers, port int, prev *loadgen.State) (*loadgen.Generator, error) {
	g, err := loadgen.New(m.Sim, m.NIC, lc, cats, workers, port)
	if err != nil {
		return nil, err
	}
	if prev != nil {
		if err := g.Restore(*prev); err != nil {
			return nil, err
		}
	}
	if net, ok := netFaults(m); ok {
		g.EnableARQ(net)
	}
	g.Start()
	return g, nil
}

func foldGenerator(res *Result, g *loadgen.Generator) {
	res.LoadTable = stats.FormatLoadTable(g.Rows())
	res.Extra["offered"] = float64(g.Offered())
	res.Extra["completed"] = float64(g.Completed())
	res.Extra["failed"] = float64(g.Failed())
	res.Extra["badbytes"] = float64(g.BadBytes())
}

// LoadHTTPD describes the web server under the open-loop generator: the
// million-client analogue of SPECWeb's closed-loop trace player. With two
// plans the first is a warm phase and the second continues its draw
// streams on the same machine. The second plan's Requests budget is
// cumulative (it counts the warm phase's offered requests), so a warm plan
// of 100 and a measured plan of 300 offer 200 requests in the second
// phase. Flash windows are absolute simulated cycles, so a window opened
// late in the warm phase is still surging when the measured phase starts —
// including across a checkpoint.
func LoadHTTPD(workers int, phases ...LoadConfig) Workload {
	return loadHTTPDRun{plans: append([]LoadConfig(nil), phases...), srv: newHTTPDServer(workers)}
}

// loadHTTPDRun is a description and, once begun, one run of it, like tpccRun.
type loadHTTPDRun struct {
	plans []LoadConfig // one per phase

	srv   httpdServer
	gen   *loadgen.Generator // the current phase's generator
	state *loadgen.State     // what a restored run's first generator continues from
}

// loadSection names the generator's host-side state section in a
// checkpoint, and loadMeta is what it holds: the worker-name base plus the
// generator's aggregate state (draw counters, tallies, histograms).
const loadSection = "loadgen"

type loadMeta struct {
	WorkerBase int
	Gen        loadgen.State
}

func (r loadHTTPDRun) begin(*Config) (workloadRun, error) {
	for _, lc := range r.plans {
		if err := lc.Validate(); err != nil {
			return nil, err
		}
	}
	return &r, nil
}

func (r *loadHTTPDRun) name() string { return "load/httpd" }
func (r *loadHTTPDRun) phases() int  { return len(r.plans) }

func (r *loadHTTPDRun) populate(m *machine.Machine) {
	materializeStatic(m.FS, r.plans[0], staticCatalogs(r.plans[0]))
	m.FS.SetupCreate(r.srv.cfg.LogFile, nil)
}

func (r *loadHTTPDRun) attach(section func(string) []byte) error {
	var meta loadMeta
	err := ungobSection(section, loadSection, &meta)
	r.srv.base, r.state = meta.WorkerBase, &meta.Gen
	return err
}

func (r *loadHTTPDRun) start(m *machine.Machine, k int) (_ bool, err error) {
	if r.gen != nil {
		st, err := r.gen.Snapshot()
		if err != nil {
			return false, err
		}
		r.state = &st
	}
	r.srv.spawn(m)
	lc := r.plans[k]
	r.gen, err = startGenerator(m, lc, staticCatalogs(lc), r.srv.cfg.Workers, r.srv.cfg.Port, r.state)
	return true, err
}

func (r *loadHTTPDRun) sections() ([]checkpoint.Section, error) {
	st, err := r.gen.Snapshot()
	if err != nil {
		return nil, err
	}
	return gobSection(loadSection, loadMeta{WorkerBase: r.srv.base, Gen: st})
}

func (r *loadHTTPDRun) fold(res *Result) {
	foldGenerator(res, r.gen)
	r.srv.fold(res)
}

// LoadTier3 describes the three-tier dynamic-content stack under the
// open-loop generator.
func LoadTier3(w Tier3Config, lc LoadConfig) Workload {
	return single{label: "load/tier3", err: lc.Validate(), spawn: func(m *machine.Machine) (func(*Result), error) {
		wl := tier3.Setup(m.FS, w)
		st := spawnTier3(m, w, wl)
		g, err := startGenerator(m, lc, tier3Catalogs(lc, w, wl), w.WebWorkers, w.WebPort, nil)
		return func(res *Result) {
			foldGenerator(res, g)
			foldTier3(res, st)
		}, err
	}}
}
