package compass

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"compass/internal/loadgen"
)

// loadPlan is the shared two-class open-loop plan: a client-population
// class and an explicit-rate class with a flash-crowd window.
func loadPlan() LoadConfig {
	lc := LoadConfig{
		Seed:     11,
		Requests: 140,
		Classes: []loadgen.ClassConfig{
			{Name: "web", Clients: 200_000, Interval: 2e9, Burst: 2, Objects: 16},
			{Name: "api", Rate: 40, Objects: 8, Flash: []loadgen.Window{{Start: 200_000, Dur: 600_000, Mult: 8}}},
		},
	}
	lc.ApplyDefaults()
	return lc
}

func loadCfg() Config {
	cfg := DefaultConfig()
	cfg.CPUs = 2
	return cfg
}

// keepRun is a Workload that also hands the test the state of the run it
// began — the generator, the database handle — which belongs to the run and
// is gone from the Result.
type keepRun struct {
	Workload
	kept *workloadRun
}

func (k keepRun) begin(cfg *Config) (workloadRun, error) {
	r, err := k.Workload.begin(cfg)
	*k.kept = r
	return r, err
}

// runKeepingGenerator runs httpd under the open-loop generator and returns
// the generator beside the Result, for tests that assert on its pool
// (memory proportional to in-flight requests, not clients) and tallies.
func runKeepingGenerator(cfg Config, lc LoadConfig, workers int) (Result, *loadgen.Generator, error) {
	var r workloadRun
	res, err := Run(cfg, keepRun{LoadHTTPD(workers, lc), &r}, Options{})
	if err != nil {
		return Result{}, nil, err
	}
	return res, r.(*loadHTTPDRun).gen, nil
}

// The open-loop run's latency table is golden: the exact quantile bytes
// gate the whole pipeline — arrival draws, flash thinning, server
// timing, histogram quantiles and table rendering. Any divergence here
// is a determinism regression or a deliberate table change.
func TestLoadHTTPDGoldenTable(t *testing.T) {
	res, err := Run(loadCfg(), LoadHTTPD(2, loadPlan()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const golden = `class          offered      done  failed        p50        p90        p99       p999        max
web                100       100       0   10385896   19673271   20759291   20867893   20879959
api                 40        40       0   13981013   17210306   17383543   17400866   17402790
total              140       140       0   12183454   19657866   20757751   20867739   20879959
`
	if res.LoadTable != golden {
		t.Fatalf("load table diverged from golden:\n--- got ---\n%s--- want ---\n%s", res.LoadTable, golden)
	}
	for _, col := range []string{"p50", "p90", "p99", "p999"} {
		if !strings.Contains(res.LoadTable, col) {
			t.Fatalf("load table missing %s column:\n%s", col, res.LoadTable)
		}
	}
	if res.Extra["offered"] != 140 || res.Extra["completed"] != 140 || res.Extra["badbytes"] != 0 {
		t.Fatalf("tallies wrong: %+v", res.Extra)
	}
}

// A plan modeling over a million concurrent clients completes with
// connection-record memory proportional to in-flight requests and
// traffic classes — never to the client population. This is the
// subsystem's reason to exist: the closed-loop player holds one flight
// per virtual client; the generator holds aggregate state per class.
func TestLoadMillionClients(t *testing.T) {
	lc := LoadConfig{
		Seed:     5,
		Requests: 150,
		Classes: []loadgen.ClassConfig{
			{Name: "bulk", Clients: 1_000_000, Interval: 1e10, Burst: 2, Objects: 8},
			{Name: "long", Clients: 500_000, Interval: 1e10, Burst: 2, Objects: 8},
		},
	}
	lc.ApplyDefaults()
	res, g, err := runKeepingGenerator(loadCfg(), lc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Offered(); got != 150 {
		t.Fatalf("offered %d, want the full 150 budget", got)
	}
	if g.Completed() != g.Offered() {
		t.Fatalf("fault-free run left requests behind: offered %d completed %d", g.Offered(), g.Completed())
	}
	// 1.5M simulated clients; records allocated must track in-flight
	// requests (bounded by the budget plus the quit handshakes), with
	// the pool recycling burst continuations onto existing records.
	clients := int(lc.Classes[0].Clients + lc.Classes[1].Clients)
	if g.Allocs() > 200 {
		t.Fatalf("allocated %d connection records for %d clients: not O(in-flight)", g.Allocs(), clients)
	}
	if g.Allocs() != g.MaxLive() {
		t.Fatalf("pool leaked: %d allocs vs %d peak live (alloc must only grow the pool at the high-water mark)", g.Allocs(), g.MaxLive())
	}
	if g.Allocs() >= int(g.Offered()) {
		t.Fatalf("no recycling: %d allocs for %d requests (burst continuations must reuse records)", g.Allocs(), g.Offered())
	}
	if res.LoadTable == "" {
		t.Fatal("no latency table")
	}
}

// The warm/measured two-phase run, the same run checkpointed between
// the phases, and the run resumed from that checkpoint produce
// byte-identical result tables — with the flash-crowd window still open
// across the phase boundary, so the resumed generator continues the
// surge mid-window.
func TestLoadCheckpointResumeMidFlashCrowd(t *testing.T) {
	cfg := loadCfg()
	// One window covering the whole horizon of both phases: the warm
	// phase ends (and the checkpoint is taken) strictly inside it.
	flash := []loadgen.Window{{Start: 300_000, Dur: 60_000_000, Mult: 6}}
	warm := LoadConfig{
		Seed:     21,
		Requests: 60,
		Classes: []loadgen.ClassConfig{
			{Name: "web", Clients: 100_000, Interval: 2e9, Burst: 2, Objects: 12, Flash: flash},
		},
	}
	warm.ApplyDefaults()
	measured := warm
	measured.Requests = 160 // cumulative: 100 more requests after the warm 60

	straight, err := Run(cfg, LoadHTTPD(2, warm, measured), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(straight.Cycles) >= flash[0].Start+flash[0].Dur {
		t.Fatalf("run outlived the flash window (%d cycles): the checkpoint is not mid-crowd", straight.Cycles)
	}

	ckpt := filepath.Join(t.TempDir(), "load.ckpt")
	saved, err := Run(cfg, LoadHTTPD(2, warm, measured), Options{WarmupCheckpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Run(cfg, LoadHTTPD(2, warm, measured), Options{ResumeFrom: ckpt})
	if err != nil {
		t.Fatal(err)
	}

	a, b, c := resultTable(straight), resultTable(saved), resultTable(resumed)
	if a != b {
		t.Fatalf("checkpointing perturbed the run:\n--- straight ---\n%s\n--- saved ---\n%s", a, b)
	}
	if a != c {
		t.Fatalf("resume diverged from the uninterrupted run:\n--- straight ---\n%s\n--- resumed ---\n%s", a, c)
	}
	if straight.LoadTable == "" || !strings.Contains(straight.LoadTable, "web") {
		t.Fatalf("no latency table:\n%s", straight.LoadTable)
	}
}

// The fault-plan × flash-crowd matrix: every combination runs twice and
// must be byte-identical, and the tallies must account for every
// offered request. No prior PR exercised faults against a rate surge.
func TestLoadFaultFlashMatrix(t *testing.T) {
	flashless := loadPlan()
	flashless.Classes[1].Flash = nil
	for _, tc := range []struct {
		name   string
		faults bool
		plan   LoadConfig
	}{
		{"clean-steady", false, flashless},
		{"clean-flash", false, loadPlan()},
		{"faults-steady", true, flashless},
		{"faults-flash", true, loadPlan()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := loadCfg()
			if tc.faults {
				cfg.Faults = faultPlan()
			}
			first, g, err := runKeepingGenerator(cfg, tc.plan, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got := g.Completed() + g.Failed(); got != g.Offered() {
				t.Fatalf("requests unaccounted: offered %d, completed+failed %d", g.Offered(), got)
			}
			second, err := Run(cfg, LoadHTTPD(2, tc.plan), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if a, b := resultTable(first), resultTable(second); a != b {
				t.Fatalf("same-seed runs differ:\n--- first ---\n%s\n--- second ---\n%s", a, b)
			}
		})
	}
}

// The generator drives the three-tier dynamic-content stack through
// the same wire: /dyn/<key> catalogs sized by the database oracle, so
// body validation holds end to end.
func TestLoadTier3(t *testing.T) {
	w := DefaultTier3()
	lc := LoadConfig{
		Seed:     3,
		Requests: 40,
		Classes: []loadgen.ClassConfig{
			{Name: "dyn", Clients: 50_000, Interval: 5e9, Objects: 12,
				MMPP: loadgen.MMPP{Period: 1_000_000, On: 250_000, Mult: 4}},
		},
	}
	lc.ApplyDefaults()
	cfg := loadCfg()
	first, err := Run(cfg, LoadTier3(w, lc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Extra["completed"] != 40 || first.Extra["badbytes"] != 0 {
		t.Fatalf("tier3 load run wrong: %+v", first.Extra)
	}
	if first.Extra["ok"] == 0 {
		t.Fatal("web tier served nothing")
	}
	if !strings.Contains(first.LoadTable, "dyn") {
		t.Fatalf("no dyn row:\n%s", first.LoadTable)
	}
	second, err := Run(cfg, LoadTier3(w, lc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := resultTable(first), resultTable(second); a != b {
		t.Fatalf("same-seed tier3 runs differ:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// ARQ give-up exhaustion: a long link-down window with a short retransmit
// budget makes every frame sent into the window exhaust its retries, so
// the generator must book those requests as failed — in FormatLoadTable's
// failed column and in the offered = completed + failed invariant — and
// the whole accounting must be byte-deterministic. This is the oracle for
// guard's livelock detector: the same give-up storm is what dominates the
// dispatch ring of a livelocked run.
func TestLoadARQGiveUpExhaustion(t *testing.T) {
	cfg := loadCfg()
	// Seed 1 flaps the link on an early session's SYN, before any other
	// session is in flight: the 2M-cycle down window then covers every
	// remaining session open (clean client-side give-ups, the server never
	// accepts) and the re-armed quit handshake lands after the window.
	// (The seed was re-tuned when session launches moved to the lane→home
	// forward path, which shifts every open by one send latency.)
	fc, err := ParseFaultSpec("seed=1,net.flap=0.02,net.flapdown=2000000,net.timeout=50000,net.retries=1")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fc

	lc := LoadConfig{
		Seed:     21,
		Requests: 80,
		Classes: []loadgen.ClassConfig{
			{Name: "web", Clients: 150_000, Interval: 1e9, Objects: 8},
		},
	}
	lc.ApplyDefaults()

	first, g, err := runKeepingGenerator(cfg, lc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Failed() == 0 {
		t.Fatalf("no request exhausted its retransmits under a 2M-cycle down window:\n%s", first.LoadTable)
	}
	if got := g.Completed() + g.Failed(); got != g.Offered() {
		t.Fatalf("requests unaccounted: offered %d, completed+failed %d", g.Offered(), got)
	}
	if first.Extra["failed"] != float64(g.Failed()) {
		t.Fatalf("Extra[failed] = %v, generator says %d", first.Extra["failed"], g.Failed())
	}

	// The failed column of the rendered table must carry the count: parse
	// the web row (class offered done failed ...).
	var rowOffered, rowDone, rowFailed uint64
	for _, line := range strings.Split(first.LoadTable, "\n") {
		if strings.HasPrefix(line, "web") {
			if _, err := fmt.Sscanf(line, "web %d %d %d", &rowOffered, &rowDone, &rowFailed); err != nil {
				t.Fatalf("unparseable web row %q: %v", line, err)
			}
		}
	}
	if rowFailed != g.Failed() || rowOffered != rowDone+rowFailed {
		t.Fatalf("table row disagrees with tallies: offered=%d done=%d failed=%d, generator failed=%d",
			rowOffered, rowDone, rowFailed, g.Failed())
	}

	second, err := Run(cfg, LoadHTTPD(2, lc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := resultTable(first), resultTable(second); a != b {
		t.Fatalf("same-seed exhaustion runs differ:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}
