package compass

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"compass/internal/checkpoint"
	"compass/internal/guard"
	"compass/internal/loadgen"
	"compass/internal/machine"
)

// A restored machine does not go through machine.New, which is where the
// Observe hook runs, so the driver runs it: once for every machine a run
// builds or restores, from a file or from the sweep's snapshot. Without
// that a resumed run never reaches its supervisor — no watchdog, no
// dispatch ring, no classification — which the last leg shows the other
// way round: a supervised resume that can never finish ends as a watchdog
// abort instead of running unwatched.
func TestResumedRunIsObserved(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPUs = 2
	calls := 0
	cfg.Observe = func(*machine.Machine) { calls++ }

	warmT, measuredT := tpccPhases()
	warmW := DefaultSPECWeb()
	warmW.Requests = 20
	measuredW := warmW
	measuredW.Requests = 30
	warmL := LoadConfig{Seed: 21, Requests: 60, Classes: []loadgen.ClassConfig{
		{Name: "web", Clients: 100_000, Interval: 2e9, Burst: 2, Objects: 12}}}
	warmL.ApplyDefaults()
	measuredL := warmL
	measuredL.Requests = 160

	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		w    Workload
	}{
		{"tpcc", TPCC(warmT, measuredT)},
		{"specweb", SPECWeb(2, 4, warmW, measuredW)},
		{"load-httpd", LoadHTTPD(2, warmL, measuredL)},
	} {
		path := filepath.Join(dir, tc.name+".ckpt")
		calls = 0
		ref, err := Run(cfg, tc.w, Options{WarmupCheckpoint: path})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if calls != 1 {
			t.Errorf("%s: Observe ran %d times for the machine the run built, want 1", tc.name, calls)
		}
		calls = 0
		got, err := Run(cfg, tc.w, Options{ResumeFrom: path})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if calls != 1 {
			t.Errorf("%s: Observe ran %d times for the machine the run restored, want 1", tc.name, calls)
		}
		if resultTable(ref) != resultTable(got) {
			t.Errorf("%s: the observed resume diverged from the uninterrupted run", tc.name)
		}
	}

	calls = 0
	if _, failed, _, err := RunBatchSweepWarm(cfg, []int{1, 8, 64}, 400, 300, Options{}, ExptOptions{Workers: 1}); err != nil || len(failed) != 0 {
		t.Fatalf("sweep: %v\n%s", err, FormatSweepFailures(failed))
	}
	if calls != 4 {
		t.Errorf("Observe ran %d times over a warm machine and three restored points, want 4", calls)
	}

	blocked := cfg
	blocked.Observe = observeBlock
	_, err := Run(blocked, TPCC(warmT, measuredT), Options{
		ResumeFrom: filepath.Join(dir, "tpcc.ckpt"),
		Guard:      &GuardConfig{Deadline: time.Second}, Label: "resume",
	})
	var a *guard.Abort
	if !errors.As(err, &a) || a.Kind != guard.KindWatchdog {
		t.Fatalf("supervised resume with a blocked process returned %v, want a watchdog abort", err)
	}
}

// Every point of a campaign keeps its auto-checkpoints in a directory of
// its own, <dir>/<label>, the way it keeps its bundles. In one shared
// directory every seed writes auto-000.ckpt over the others', so a failed
// point retries from whichever seed wrote last — a checkpoint of another
// configuration, which the resume scan then skips — and two workers write
// one path at once.
func TestCampaignAutoCkptDirsAreSeparate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPUs = 2
	cfg.Faults = faultPlan()
	w := DefaultTPCC()
	w.Agents = 2
	w.TxPerAgent = 4
	seeds := CampaignSeeds(11, 3)
	info := func(path string) checkpoint.Info {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		inf, err := checkpoint.ReadInfo(f)
		if err != nil {
			t.Fatal(err)
		}
		return inf
	}

	dir := t.TempDir()
	straight := RunSeedCampaign(cfg, seeds, TPCCSegments(w, 4),
		Options{AutoCkptDir: dir}, ExptOptions{Workers: 2})
	if len(straight.Failed) != 0 {
		t.Fatalf("clean campaign failed points:\n%s", straight.FailureTable())
	}
	if entries, _ := os.ReadDir(dir); len(entries) != len(seeds) {
		t.Fatalf("%d entries in the campaign's checkpoint directory, want one sub-directory a seed", len(entries))
	}
	hashes := map[[32]byte]uint64{}
	for _, seed := range seeds {
		sub := filepath.Join(dir, fmt.Sprintf("seed%d", seed))
		files, _ := filepath.Glob(filepath.Join(sub, "auto-*.ckpt"))
		if len(files) != 3 {
			t.Fatalf("seed %d left %d auto-checkpoints in %s, want one a boundary (3)", seed, len(files), sub)
		}
		scfg := cfg
		scfg.Faults.Seed = seed
		for _, f := range files {
			if info(f).ConfigHash != checkpoint.ConfigHash(scfg) {
				t.Errorf("%s was not written under seed %d's configuration", f, seed)
			}
		}
		hashes[checkpoint.ConfigHash(scfg)] = seed
	}
	if len(hashes) != len(seeds) {
		t.Fatalf("config hashes do not tell the seeds apart: %d distinct", len(hashes))
	}

	// Every seed crashes once after its second segment and is retried: the
	// retry must restore that seed's own segment-2 checkpoint and run only
	// the two segments that are left.
	var mu sync.Mutex
	restoredAt := map[uint64][]uint64{} // seed → cycle of each machine restored for it
	built := map[uint64]int{}
	crashing := cfg
	crashing.Observe = func(m *machine.Machine) {
		mu.Lock()
		defer mu.Unlock()
		if at := uint64(m.Sim.CurTime()); at == 0 {
			built[m.Cfg.Faults.Seed]++
		} else {
			restoredAt[m.Cfg.Faults.Seed] = append(restoredAt[m.Cfg.Faults.Seed], at)
		}
	}
	dir = t.TempDir()
	retried := RunSeedCampaign(crashing, seeds, TPCCSegments(w, 4), Options{
		AutoCkptDir: dir, CrashSegment: 2,
		Guard: &GuardConfig{Retries: 1},
	}, ExptOptions{Workers: 2})
	if len(retried.Failed) != 0 {
		t.Fatalf("retried campaign quarantined points:\n%s", retried.FailureTable())
	}
	for i, seed := range seeds {
		boundary := info(filepath.Join(dir, fmt.Sprintf("seed%d", seed), "auto-001.ckpt")).Cycle
		if got := restoredAt[seed]; built[seed] != 1 || len(got) != 1 || got[0] != boundary {
			t.Errorf("seed %d: %d machines built, restored at cycles %v; want one built and one restored at its own segment-2 boundary %d",
				seed, built[seed], got, boundary)
		}
		if a, b := resultTable(straight.Points[i].Res), resultTable(retried.Points[i].Res); a != b {
			t.Errorf("seed %d: crashed-and-resumed point differs from the straight run:\n--- straight ---\n%s\n--- retried ---\n%s", seed, a, b)
		}
	}
	if a, b := straight.String()+straight.FaultTable(), retried.String()+retried.FaultTable(); a != b {
		t.Errorf("campaign tables differ:\n--- straight ---\n%s\n--- retried ---\n%s", a, b)
	}
}

// A spec that asks for something its run would not do is rejected with the
// reason, not run with the field ignored; sizes that merely do not apply
// have defaults and are left alone.
func TestSpecRejectsIneffectiveFields(t *testing.T) {
	const load = "requests=40;class=web,clients=100000,interval=2e9"
	for _, tc := range []struct {
		name   string
		spec   RunSpec
		reason string // "" = accepted
	}{
		{"load on tpcc", RunSpec{Workload: "tpcc", Load: load}, "-load"},
		{"load on tpcd", RunSpec{Workload: "tpcd", Load: load}, "-load"},
		{"load on sor", RunSpec{Workload: "sor", Load: load}, "-load"},
		{"segments on tpcd", RunSpec{Workload: "tpcd", Segments: 3}, "-segments"},
		{"segments on specweb", RunSpec{Workload: "specweb", Segments: 4}, "-segments"},
		{"autockpt on tier3", RunSpec{Workload: "tier3", AutoCkptDir: "/tmp/x"}, "-autockpt"},
		{"autockpt on sor", RunSpec{Workload: "sor", AutoCkptDir: "/tmp/x"}, "-autockpt"},
		{"warm phase and load on specweb", RunSpec{Workload: "specweb", Load: load, WarmReqs: 60}, "-warmreqs adds a warm phase of generated requests; a -load or -trace run"},
		{"warm phase and trace on specweb", RunSpec{Workload: "specweb", Trace: "x.trace", WarmReqs: 60}, "-warmreqs adds a warm phase of generated requests; a -load or -trace run"},
		{"bad load on specweb", RunSpec{Workload: "specweb", Load: "class="}, "spec load"},
		{"bad chaos", RunSpec{Workload: "tpcc", Chaos: "crashseed=x"}, "-chaos"},
		{"unknown workload", RunSpec{Workload: "tpce"}, "unknown workload"},
		{"negative cpus", RunSpec{Workload: "tpcd", CPUs: -3}, "-cpus -3"},
		{"negative rows", RunSpec{Workload: "tpcd", Rows: -1}, "-rows -1"},
		{"nodes that do not divide the cpus", RunSpec{Workload: "tpcc", Arch: "ccnuma", Nodes: 3}, "4 CPUs not divisible by 3 nodes"},
		{"more cpus than a snooping bus takes", RunSpec{Workload: "tpcc", Arch: "smp", CPUs: 65}, "65 CPUs on a snooping bus"},
		{"trace on tpcc", RunSpec{Workload: "tpcc", Trace: "x.trace"}, "-trace"},
		{"trace and load", RunSpec{Workload: "specweb", Trace: "x.trace", Load: load}, "-trace"},
		{"warm phase and segments", RunSpec{Workload: "tpcc", WarmTx: 4, Segments: 2}, "-warmtx"},

		{"segments and autockpt on tpcc", RunSpec{Workload: "tpcc", Segments: 4, AutoCkptDir: "/tmp/x"}, ""},
		{"load on specweb", RunSpec{Workload: "specweb", Load: load}, ""},
		{"load on tier3", RunSpec{Workload: "tier3", Load: load}, ""},
		{"sizes of other workloads on tpcd", RunSpec{Workload: "tpcd", Tx: 25, Requests: 120, Segments: 1}, ""},
		{"sizes of other workloads on sor", RunSpec{Workload: "sor", Rows: 16384, Tx: 25, Requests: 120}, ""},
		{"every chaos element", RunSpec{Workload: "tpcc", Chaos: "block,crashseed=13,crashsegment=2"}, ""},
		{"warm sizes of other workloads on tpcc", RunSpec{Workload: "tpcc", WarmTx: 10, WarmReqs: 60}, ""},
	} {
		_, w, _, err := FromSpec(tc.spec, GuardConfig{})
		switch {
		case tc.reason == "" && (err != nil || w == nil):
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.reason != "" && err == nil:
			t.Errorf("%s: accepted, want an error naming %s", tc.name, tc.reason)
		case tc.reason != "" && (!strings.Contains(err.Error(), tc.reason) || strings.Contains(err.Error(), "\n")):
			t.Errorf("%s: reason %q is not one line naming %s", tc.name, err, tc.reason)
		}
	}
}

// A machine that cannot be built is an error from Run, the reason machine.New
// would have panicked with, for a description's own shaping of it too.
func TestUnbuildableMachineIsAnError(t *testing.T) {
	w := DefaultTPCC()
	w.Agents, w.TxPerAgent = 1, 1
	for _, tc := range []struct {
		cpus, nodes int
		reason      string
	}{
		{4, 3, "compass: 4 CPUs not divisible by 3 nodes"},
		{0, 1, "compass: 0 CPUs"},
		{4, 0, "compass: 0 nodes"},
	} {
		cfg := DefaultConfig()
		cfg.Arch, cfg.CPUs, cfg.Nodes = ArchCCNUMA, tc.cpus, tc.nodes
		if _, err := Run(cfg, TPCC(w), Options{}); err == nil || err.Error() != tc.reason {
			t.Errorf("%d CPUs, %d nodes: %v, want %q", tc.cpus, tc.nodes, err, tc.reason)
		}
	}
	// The snoop filter keeps a line's holders in one 64-bit mask.
	for _, arch := range []Arch{ArchSimple, ArchSMP} {
		cfg := DefaultConfig()
		cfg.Arch, cfg.CPUs = arch, 65
		if _, err := Run(cfg, TPCC(w), Options{}); err == nil || err.Error() != "compass: 65 CPUs on a snooping bus, at most 64" {
			t.Errorf("65 CPUs on arch %d: %v", arch, err)
		}
	}
	cfg := DefaultConfig()
	cfg.Arch, cfg.Nodes = ArchCCNUMA, 4
	if _, err := Run(cfg, SORDSM(SORConfig{N: 16, Iters: 1, Procs: 3}), Options{}); err == nil {
		t.Error("a 3-node DSM cluster ran on a 4-node machine")
	}
}
