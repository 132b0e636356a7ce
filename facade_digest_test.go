package compass

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"compass/internal/loadgen"
)

// The other root tests compare the simulator with itself: two runs, two
// ports, two shard counts, a run and its resumed twin. A facade that
// spawned its processes in another order, or counted a tally from another
// phase, would pass every one of them. This test pins the bytes instead:
// the sha256 of the full result surface of every workload family and run
// mode, and of the checkpoint files the checkpointable ones write, against
// testdata/facade_digests.json. The file was generated before the facade
// became one run driver and must not change with it.
func TestFacadeDigests(t *testing.T) {
	digest := func(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }
	got := map[string]string{}
	result := func(name string, res Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = digest([]byte(resultTable(res)))
	}
	file := func(name, path string) {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = digest(b)
	}
	dir := t.TempDir()

	two := DefaultConfig()
	two.CPUs = 2
	faulted := two
	faulted.Faults = faultPlan()

	tpccW := DefaultTPCC()
	tpccW.Agents = 2
	tpccW.TxPerAgent = 6
	result("tpcc", mustRun(faulted, TPCC(tpccW)), nil)

	for _, q := range []struct {
		name       string
		query      TPCDQuery
		instrument bool
	}{
		{"tpcd/scan", QueryScanAgg, true},
		{"tpcd/join", QueryJoin, true},
		{"tpcd/mmap", QueryMmap, true},
		{"tpcd/raw", QueryScanAgg, false},
	} {
		result(q.name, mustRun(DefaultConfig(), TPCD(smallTPCD(), q.query, q.instrument)), nil)
	}

	webW := DefaultSPECWeb()
	webW.Requests = 25
	result("specweb", mustRun(faulted, SPECWeb(2, 4, webW)), nil)

	numa := DefaultConfig()
	numa.Arch, numa.Nodes, numa.Placement = ArchCCNUMA, 4, PlaceFirstTouch
	result("sor/ccnuma", mustRun(numa, SOR(SORConfig{N: 26, Iters: 4, Procs: 4})), nil)
	result("sor/dsm", mustRun(DefaultConfig(), SORDSM(SORConfig{N: 32, Iters: 2, Procs: 4})), nil)

	result("tier3", mustRun(DefaultConfig(), Tier3(DefaultTier3(), 30)), nil)

	res, err := Run(faulted, LoadHTTPD(2, loadPlan()), Options{})
	result("load/httpd", res, err)
	dyn := LoadConfig{
		Seed:     3,
		Requests: 40,
		Classes: []loadgen.ClassConfig{
			{Name: "dyn", Clients: 50_000, Interval: 5e9, Objects: 12,
				MMPP: loadgen.MMPP{Period: 1_000_000, On: 250_000, Mult: 4}},
		},
	}
	dyn.ApplyDefaults()
	res, err = Run(two, LoadTier3(DefaultTier3(), dyn), Options{})
	result("load/tier3", res, err)

	warmT, measuredT := tpccPhases()
	path := filepath.Join(dir, "tpcc.ckpt")
	res, err = Run(faulted, TPCC(warmT, measuredT), Options{WarmupCheckpoint: path})
	result("tpcc/warm+measured", res, err)
	file("tpcc/warm.ckpt", path)

	warmW := DefaultSPECWeb()
	warmW.Requests = 20
	measuredW := warmW
	measuredW.Requests = 30
	measuredW.Seed = warmW.Seed + 1
	path = filepath.Join(dir, "web.ckpt")
	res, err = Run(faulted, SPECWeb(2, 4, warmW, measuredW), Options{WarmupCheckpoint: path})
	result("specweb/warm+measured", res, err)
	file("specweb/warm.ckpt", path)

	warmL := LoadConfig{
		Seed:     21,
		Requests: 60,
		Classes: []loadgen.ClassConfig{
			{Name: "web", Clients: 100_000, Interval: 2e9, Burst: 2, Objects: 12,
				Flash: []loadgen.Window{{Start: 300_000, Dur: 60_000_000, Mult: 6}}},
		},
	}
	warmL.ApplyDefaults()
	measuredL := warmL
	measuredL.Requests = 160
	path = filepath.Join(dir, "load.ckpt")
	res, err = Run(two, LoadHTTPD(2, warmL, measuredL), Options{WarmupCheckpoint: path})
	result("load/warm+measured", res, err)
	file("load/warm.ckpt", path)

	segW := tpccW
	segW.TxPerAgent = 4
	autoDir := filepath.Join(dir, "auto")
	res, err = Run(faulted, TPCCSegments(segW, 4), Options{AutoCkptDir: autoDir})
	result("tpcc/4 segments", res, err)
	file("tpcc/auto-000.ckpt", filepath.Join(autoDir, "auto-000.ckpt"))

	points, failed, warmEnd, err := RunBatchSweepWarm(two, []int{1, 8, 64}, 400, 300, Options{}, ExptOptions{Workers: 1})
	if err != nil || len(failed) != 0 {
		t.Fatalf("sweep: %v\n%s", err, FormatSweepFailures(failed))
	}
	got["sweep/warm 3 points"] = digest([]byte(FormatSweepTable(points, warmEnd)))

	campW := tpccW
	campW.TxPerAgent = 3
	camp := RunSeedCampaign(faulted, CampaignSeeds(11, 3), TPCC(campW), Options{}, ExptOptions{Workers: 2})
	got["campaign/3 seeds"] = digest([]byte(camp.String() + camp.FaultTable()))

	gotJSON, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON = append(gotJSON, '\n')
	want, err := os.ReadFile(filepath.Join("testdata", "facade_digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(want) {
		t.Fatalf("facade digests differ from testdata/facade_digests.json:\n--- got ---\n%s--- want ---\n%s", gotJSON, want)
	}
}

// A checkpoint's bytes do not depend on what the process gob-encoded before
// it: encoding/gob numbers types process-wide in order of first use, and the
// pinned files were written by a process whose first stream was a TPCC
// section. A process whose first stream is a sweep's bare machine writes the
// same files, the numbers having been handed out at start-up (the init in
// workloads.go). Only a new process has numbers left to hand out, so the test
// runs the pair in a copy of itself.
func TestFacadeDigestsAfterABareSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a second test process")
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^(TestDeterminismBatchSweepSerialSerialParallel|TestFacadeDigests)$", "-test.v")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, name := range []string{"TestDeterminismBatchSweepSerialSerialParallel", "TestFacadeDigests"} {
		if !strings.Contains(string(out), "--- PASS: "+name+" ") {
			t.Errorf("the copy did not run %s:\n%s", name, out)
		}
	}
}
