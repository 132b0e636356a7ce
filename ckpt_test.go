package compass

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"compass/internal/checkpoint"
	"compass/internal/machine"
)

// sameResult compares every deterministic Result field (Wall is host time
// and legitimately differs).
func sameResult(t *testing.T, ref, got Result) {
	t.Helper()
	if got.Cycles != ref.Cycles {
		t.Errorf("cycles: resumed %d, uninterrupted %d", got.Cycles, ref.Cycles)
	}
	if got.Profile != ref.Profile {
		t.Errorf("profile:\nresumed       %+v\nuninterrupted %+v", got.Profile, ref.Profile)
	}
	if g, r := got.Counters.String(), ref.Counters.String(); g != r {
		t.Errorf("counters diverge:\nresumed:\n%s\nuninterrupted:\n%s", g, r)
	}
	if !reflect.DeepEqual(got.Extra, ref.Extra) {
		t.Errorf("extra: resumed %v, uninterrupted %v", got.Extra, ref.Extra)
	}
	if got.Syscalls != ref.Syscalls {
		t.Errorf("syscalls diverge:\nresumed:\n%s\nuninterrupted:\n%s", got.Syscalls, ref.Syscalls)
	}
}

func tpccPhases() (TPCCConfig, TPCCConfig) {
	warm := DefaultTPCC()
	warm.Agents = 2
	warm.TxPerAgent = 4
	measured := warm
	measured.TxPerAgent = 6
	measured.Seed = warm.Seed + 1
	return warm, measured
}

// Auto-checkpoint numbers are padded to three digits only, so from the
// thousandth file on name order is not write order: the resume scan must
// pick the highest number, auto-1000 over auto-999.
func TestLatestAutoCkptPicksHighestNumber(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPUs = 2
	w := DefaultTPCC()
	w.Agents = 2
	w.TxPerAgent = 4
	src := t.TempDir()
	if _, err := Run(cfg, TPCCSegments(w, 2), Options{AutoCkptDir: src}); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(filepath.Join(src, "auto-000.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"auto-999.ckpt", "auto-1000.ckpt"} {
		if err := os.WriteFile(filepath.Join(dir, name), ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := latestAutoCkpt(dir, cfg), filepath.Join(dir, "auto-1000.ckpt"); got != want {
		t.Fatalf("latestAutoCkpt = %q, want %q", got, want)
	}
}

// Resuming a TPCC warm snapshot and running the measured phase must
// produce bit-identical stats to the uninterrupted two-phase run.
func TestCheckpointResumeDeterministicTPCC(t *testing.T) {
	warm, measured := tpccPhases()
	cfg := DefaultConfig()
	cfg.CPUs = 2
	path := filepath.Join(t.TempDir(), "tpcc.ckpt")

	ref, err := Run(cfg, TPCC(warm, measured), Options{WarmupCheckpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(cfg, TPCC(warm, measured), Options{ResumeFrom: path})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, ref, got)
	if ref.Extra["transactions"] != float64(measured.Agents*measured.TxPerAgent) {
		t.Errorf("transactions = %f", ref.Extra["transactions"])
	}
}

// A resume with no phase left to run is an error that names the
// checkpoint and both counts, not a run that simulates nothing (or
// panics folding a phase it never started). A one-phase run's warm
// checkpoint still resumes under the two-phase description.
func TestResumeWithNoPhaseLeftIsAnError(t *testing.T) {
	warm, measured := tpccPhases()
	cfg := DefaultConfig()
	cfg.CPUs = 2
	dir := t.TempDir()
	warmCkpt := func(t *testing.T, w Workload) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "warm.ckpt")
		if _, err := Run(cfg, w, Options{WarmupCheckpoint: path}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name        string
		resume      func(t *testing.T) (Result, error)
		ckpt        string
		done, total int
	}{
		{
			name: "httpd-one-phase",
			resume: func(t *testing.T) (Result, error) {
				w := LoadHTTPD(2, loadPlan())
				return Run(loadCfg(), w, Options{ResumeFrom: warmCkpt(t, w)})
			},
			ckpt: "warm.ckpt", done: 1, total: 1,
		},
		{
			name: "tpcc-one-phase",
			resume: func(t *testing.T) (Result, error) {
				return Run(cfg, TPCC(warm), Options{ResumeFrom: warmCkpt(t, TPCC(warm))})
			},
			ckpt: "warm.ckpt", done: 1, total: 1,
		},
		{
			name: "auto-past-the-end",
			resume: func(t *testing.T) (Result, error) {
				if _, err := Run(cfg, TPCCSegments(warm, 4), Options{AutoCkptDir: dir}); err != nil {
					t.Fatal(err)
				}
				return Run(cfg, TPCCSegments(warm, 2), Options{AutoCkptDir: dir})
			},
			ckpt: "auto-002.ckpt", done: 3, total: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.resume(t)
			if err == nil {
				t.Fatalf("resumed with no phase left: %d cycles, extra %v", res.Cycles, res.Extra)
			}
			for _, want := range []string{tc.ckpt, fmt.Sprintf("after %d phase", tc.done), fmt.Sprintf("describes %d", tc.total)} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%q does not say %q", err, want)
				}
			}
		})
	}
	t.Run("one-phase-warm-resumes-two", func(t *testing.T) {
		ref, err := Run(cfg, TPCC(warm, measured), Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(cfg, TPCC(warm, measured), Options{ResumeFrom: warmCkpt(t, TPCC(warm))})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, ref, got)
	})
}

// A snapshot resumes only under the configuration it was written under:
// the file's machine is the one restored, so a run that asks for another is
// refused, not answered with the file's. The shard count is not part of it.
func TestResumeFromChecksTheConfiguration(t *testing.T) {
	warm, measured := tpccPhases()
	cfg := DefaultConfig()
	cfg.CPUs = 2
	path := filepath.Join(t.TempDir(), "tpcc.ckpt")
	ref, err := Run(cfg, TPCC(warm, measured), Options{WarmupCheckpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.CPUs = 4
	wrote, asked := checkpoint.ConfigHash(cfg), checkpoint.ConfigHash(other)
	_, err = Run(other, TPCC(warm, measured), Options{ResumeFrom: path})
	if err == nil {
		t.Fatal("a 2-CPU snapshot resumed as a 4-CPU run")
	}
	for _, hash := range []string{fmt.Sprintf("%x", wrote[:8]), fmt.Sprintf("%x", asked[:8])} {
		if !strings.Contains(err.Error(), hash) {
			t.Errorf("%q does not name configuration %s", err, hash)
		}
	}
	sharded := cfg
	sharded.Shards = 2
	got, err := Run(sharded, TPCC(warm, measured), Options{ResumeFrom: path})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, ref, got)
}

// Same property for the web workload: warmed buffer cache, bound listener
// and populated log survive the snapshot.
func TestCheckpointResumeDeterministicSPECWeb(t *testing.T) {
	warm := DefaultSPECWeb()
	warm.Requests = 20
	measured := warm
	measured.Requests = 30
	measured.Seed = warm.Seed + 1
	cfg := DefaultConfig()
	cfg.CPUs = 2
	path := filepath.Join(t.TempDir(), "web.ckpt")

	ref, err := Run(cfg, SPECWeb(2, 4, warm, measured), Options{WarmupCheckpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(cfg, SPECWeb(2, 4, warm, measured), Options{ResumeFrom: path})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, ref, got)
	if ref.Extra["requests"] != float64(measured.Requests) {
		t.Errorf("requests = %f", ref.Extra["requests"])
	}
}

// The snapshot header must be inspectable without decoding the body and
// must carry the machine's config hash.
func TestCheckpointReadInfo(t *testing.T) {
	warm, measured := tpccPhases()
	cfg := DefaultConfig()
	cfg.CPUs = 2
	path := filepath.Join(t.TempDir(), "tpcc.ckpt")
	if _, err := Run(cfg, TPCC(warm, measured), Options{WarmupCheckpoint: path}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	inf, err := checkpoint.ReadInfo(f)
	if err != nil {
		t.Fatal(err)
	}
	if inf.Version != checkpoint.Version {
		t.Errorf("version = %d", inf.Version)
	}
	if inf.Cycle == 0 {
		t.Error("zero snapshot cycle")
	}
	if inf.ConfigHash != checkpoint.ConfigHash(cfg) {
		t.Error("config hash mismatch")
	}
	if inf.UserCycles == 0 || inf.KernelCycles == 0 {
		t.Errorf("empty stats summary: %+v", inf)
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	garbage := make([]byte, 256)
	copy(garbage, "not a checkpoint file at all...")
	if err := os.WriteFile(path, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := checkpoint.ReadInfo(f); !errors.Is(err, checkpoint.ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

// Configurations with live daemon state that cannot quiesce are refused,
// not silently mis-snapshotted.
func TestCheckpointGatesNonQuiescentConfigs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Preemptive = true
	m := machine.New(cfg)
	m.Sim.Run()
	if _, err := m.Checkpoint(); !errors.Is(err, machine.ErrNotCheckpointable) {
		t.Errorf("preemptive: err = %v, want ErrNotCheckpointable", err)
	}

	cfg = DefaultConfig()
	cfg.SyncdInterval = 100_000
	m = machine.New(cfg)
	if _, err := m.Checkpoint(); !errors.Is(err, machine.ErrNotCheckpointable) {
		t.Errorf("syncd: err = %v, want ErrNotCheckpointable", err)
	}
}

// A warm-started sweep simulates the warm phase once, so its total
// simulated cycles must come in below N cold runs of the same points.
func TestWarmBatchSweepSkipsWarmup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPUs = 2
	batches := []int{1, 8, 64}
	const warmStores, stores = 400, 300

	points, failed, warmEnd, err := RunBatchSweepWarm(cfg, batches, warmStores, stores, Options{}, ExptOptions{Workers: 1})
	if err != nil || len(failed) != 0 {
		t.Fatalf("sweep: %v\n%s", err, FormatSweepFailures(failed))
	}
	if len(points) != len(batches) || warmEnd == 0 {
		t.Fatalf("points=%d warmEnd=%d", len(points), warmEnd)
	}
	warmTotal := warmEnd
	var coldTotal uint64
	for _, p := range points {
		if p.End <= warmEnd {
			t.Errorf("batch %d: end %d not past warm end %d", p.Batch, p.End, warmEnd)
		}
		if p.Measured != p.End-warmEnd {
			t.Errorf("batch %d: measured %d != end-warm %d", p.Batch, p.Measured, p.End-warmEnd)
		}
		warmTotal += p.Measured
		coldTotal += p.End // a cold run re-simulates the warm phase every point
	}
	if warmTotal >= coldTotal {
		t.Errorf("warm sweep simulated %d cycles, cold baseline %d", warmTotal, coldTotal)
	}
}
