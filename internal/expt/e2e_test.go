package expt

import (
	"fmt"
	"testing"

	"compass/internal/checkpoint"
	"compass/internal/frontend"
	"compass/internal/isa"
	"compass/internal/machine"
	"compass/internal/mem"
	"compass/internal/osserver"
)

// spawnStores spawns n strided-store processes (a miniature of the root
// package's batch sweep) named st<base+i>.
func spawnStores(m *machine.Machine, n, base, stores int) {
	for i := 0; i < n; i++ {
		i := i
		m.SpawnConnected(fmt.Sprintf("st%d", base+i), func(p *frontend.Proc) {
			os := osserver.For(p)
			sbase := os.Sbrk(1 << 18)
			for j := 0; j < stores; j++ {
				p.Store(sbase+mem.VirtAddr((j*96+i*32)%(1<<18-8)), 4)
				p.Compute(isa.ALU(3))
			}
		})
	}
}

// pointTable reduces one fanned-out run to a deterministic byte string:
// final cycle plus the full backend counter dump.
func runPoint(s *Snapshot, stores int) (string, error) {
	m, err := s.Restore()
	if err != nil {
		return "", err
	}
	spawnStores(m, m.Cfg.CPUs, m.Cfg.CPUs, stores)
	end := m.Sim.Run()
	return fmt.Sprintf("end=%d\n%s", uint64(end), m.Sim.Counters().String()), nil
}

// The e2e contract: N workers restoring one shared warm snapshot and
// running independent measurement phases produce byte-identical result
// tables to a 1-worker pass over the same jobs. Run under -race this is
// also the shared-snapshot-restore race test.
func TestSnapshotFanOutSerialParallelIdentical(t *testing.T) {
	cfg := machine.Default()
	cfg.CPUs = 2
	m := machine.New(cfg)
	spawnStores(m, cfg.CPUs, 0, 200)
	m.Sim.Run()

	snap, err := TakeSnapshot(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Size() == 0 || snap.cycle == 0 {
		t.Fatalf("snapshot size=%d cycle=%d", snap.Size(), snap.cycle)
	}

	mkJobs := func() []Job[string] {
		jobs := make([]Job[string], 6)
		for i := range jobs {
			stores := 100 + 40*i
			jobs[i] = Job[string]{
				Name: fmt.Sprintf("pt%d", i),
				Run:  func() (string, error) { return runPoint(snap, stores) },
			}
		}
		return jobs
	}

	serial := Run(Config{Workers: 1}, mkJobs())
	parallel := Run(Config{Workers: 4}, mkJobs())
	if err := FirstErr(serial); err != nil {
		t.Fatal(err)
	}
	if err := FirstErr(parallel); err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].Value != parallel[i].Value {
			t.Errorf("point %d: serial and parallel result tables differ\nserial:\n%s\nparallel:\n%s",
				i, serial[i].Value, parallel[i].Value)
		}
	}
}

// Snapshot sections ride along and come back by name.
func TestSnapshotSections(t *testing.T) {
	cfg := machine.Default()
	cfg.CPUs = 1
	m := machine.New(cfg)
	spawnStores(m, 1, 0, 50)
	m.Sim.Run()

	snap, err := TakeSnapshot(m, []checkpoint.Section{{Name: "meta", Data: []byte{1, 2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Section("meta"); len(got) != 3 || got[0] != 1 {
		t.Errorf("Section(meta) = %v, want [1 2 3]", got)
	}
	if got := snap.Section("absent"); got != nil {
		t.Errorf("Section(absent) = %v, want nil", got)
	}
	rm, err := snap.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := uint64(rm.Sim.CurTime()), snap.cycle; got != want {
		t.Errorf("restored cycle %d, want %d", got, want)
	}
}
