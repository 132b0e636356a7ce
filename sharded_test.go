package compass

import (
	"os"
	"path/filepath"
	"testing"

	"compass/internal/loadgen"
)

// The tentpole contract of the sharded backend: -shards N is a pure
// host-side performance knob. Every workload family must produce a
// byte-identical result surface (Table-1 profile, cycles, every backend
// counter, fault table, syscall profile, load table, extras) at shards
// 1, 2 and 4 as it does serially — conservative quantum windows, lane
// merges and cross-shard forwards notwithstanding.
func TestShardedByteIdentityWorkloads(t *testing.T) {
	runners := []struct {
		name string
		run  func(cfg Config) Result
	}{
		{"tpcc-faults", func(cfg Config) Result {
			cfg.Faults = faultPlan()
			w := DefaultTPCC()
			w.Agents = 2
			w.TxPerAgent = 4
			return mustRun(cfg, TPCC(w))
		}},
		{"specweb", func(cfg Config) Result {
			w := DefaultSPECWeb()
			w.Requests = 40
			return mustRun(cfg, SPECWeb(2, 4, w))
		}},
		{"load-httpd-flash", func(cfg Config) Result {
			res, err := Run(cfg, LoadHTTPD(2, loadPlan()), Options{})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
		{"load-httpd-arq-faults", func(cfg Config) Result {
			fc, err := ParseFaultSpec("seed=9,net.drop=0.05,net.corrupt=0.02,net.dup=0.02")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = fc
			res, err := Run(cfg, LoadHTTPD(2, loadPlan()), Options{})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
		{"load-tier3", func(cfg Config) Result {
			lc := LoadConfig{
				Seed:     3,
				Requests: 30,
				Classes: []loadgen.ClassConfig{
					{Name: "dyn", Clients: 50_000, Interval: 5e9, Objects: 12},
				},
			}
			lc.ApplyDefaults()
			res, err := Run(cfg, LoadTier3(DefaultTier3(), lc), Options{})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
	}
	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			serial := r.run(loadCfg())
			want := resultTable(serial)
			if serial.Windows != 0 {
				t.Fatalf("serial run opened %d windows", serial.Windows)
			}
			for _, shards := range []int{1, 2, 4} {
				cfg := loadCfg()
				cfg.Shards = shards
				res := r.run(cfg)
				if got := resultTable(res); got != want {
					t.Fatalf("shards=%d diverged from serial:\n--- serial ---\n%s\n--- shards=%d ---\n%s",
						shards, want, shards, got)
				}
			}
		})
	}
}

// A sharded open-loop run actually exercises the window machinery: the
// generator's arrival streams land on non-home lanes, so the engine must
// open conservative windows — identity above would be vacuous if the
// sharded path silently degenerated to serial stepping.
func TestShardedLoadRunOpensWindows(t *testing.T) {
	cfg := loadCfg()
	cfg.Shards = 2
	res, err := Run(cfg, LoadHTTPD(2, loadPlan()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows == 0 {
		t.Fatal("sharded open-loop run opened no conservative windows")
	}
}

// Checkpoints are shard-count-invariant: the same warm phase written at
// shards 0 and shards 2 produces byte-identical checkpoint files, and a
// checkpoint taken at one shard count resumes at any other with a
// byte-identical measured phase.
func TestShardedCheckpointInvarianceAndResume(t *testing.T) {
	cfg := loadCfg()
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
	measured.Requests = 160

	dir := t.TempDir()
	ckptSerial := filepath.Join(dir, "serial.ckpt")
	straight, err := Run(cfg, LoadHTTPD(2, warm, measured), Options{WarmupCheckpoint: ckptSerial})
	if err != nil {
		t.Fatal(err)
	}
	want := resultTable(straight)

	shardedCfg := cfg
	shardedCfg.Shards = 2
	ckptSharded := filepath.Join(dir, "sharded.ckpt")
	if _, err := Run(shardedCfg, LoadHTTPD(2, warm, measured), Options{WarmupCheckpoint: ckptSharded}); err != nil {
		t.Fatal(err)
	}

	a, err := os.ReadFile(ckptSerial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(ckptSharded)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("checkpoint bytes differ between shards=0 (%d bytes) and shards=2 (%d bytes)", len(a), len(b))
	}

	// Resume the serial checkpoint at several shard counts, and the
	// sharded checkpoint serially: all must replay the measured phase
	// byte-identically.
	for _, tc := range []struct {
		name   string
		ckpt   string
		shards int
	}{
		{"serial-ckpt-serial-resume", ckptSerial, 0},
		{"serial-ckpt-sharded-resume", ckptSerial, 2},
		{"serial-ckpt-4shard-resume", ckptSerial, 4},
		{"sharded-ckpt-serial-resume", ckptSharded, 0},
	} {
		rcfg := cfg
		rcfg.Shards = tc.shards
		resumed, err := Run(rcfg, LoadHTTPD(2, warm, measured), Options{ResumeFrom: tc.ckpt})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := resultTable(resumed); got != want {
			t.Fatalf("%s diverged:\n--- straight ---\n%s\n--- resumed ---\n%s", tc.name, want, got)
		}
	}
}

// Two tenants' lane tasks really run at once: on three lanes the plan's
// two classes get lanes 1 and 2, so windows hold both arrival processes
// and run them on two goroutines, and the result is still the serial
// run's byte for byte. Under -race (make race) this is the run-time half
// of the lane rule compassvet's lanescope checks statically.
func TestShardedLoadRunsLanesInParallel(t *testing.T) {
	serial, err := Run(loadCfg(), LoadHTTPD(2, loadPlan()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := loadCfg()
	cfg.Shards = 3
	res, err := Run(cfg, LoadHTTPD(2, loadPlan()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ParallelWindows == 0 {
		t.Fatalf("two classes on two lanes ran no parallel window (%d windows)", res.Windows)
	}
	if got, want := resultTable(res), resultTable(serial); got != want {
		t.Fatalf("shards=3 diverged from serial:\n--- serial ---\n%s\n--- shards=3 ---\n%s", want, got)
	}
	t.Logf("%d windows, %d parallel", res.Windows, res.ParallelWindows)
}
