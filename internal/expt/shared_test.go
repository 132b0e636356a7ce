package expt

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"testing"

	"compass/internal/apps/httpd"
	"compass/internal/apps/tpcc"
	"compass/internal/checkpoint"
	"compass/internal/frontend"
	"compass/internal/loadgen"
	"compass/internal/machine"
)

// sharedKind is one kind of warm snapshot: warm builds and runs the warm
// phase on m and returns the host-side sections to save with it; measure
// restores a machine from the snapshot, runs a measured phase on it and
// reduces it to a string.
type sharedKind struct {
	name    string
	cfg     machine.Config
	warm    func(t *testing.T, m *machine.Machine) []checkpoint.Section
	measure func(s *Snapshot) (string, error)
}

func reduce(m *machine.Machine) string {
	return fmt.Sprintf("end=%d\n%s", uint64(m.Sim.CurTime()), m.Sim.Counters().String())
}

func tpccKind() sharedKind {
	c := tpcc.DefaultConfig()
	c.Agents, c.TxPerAgent = 2, 4
	return sharedKind{
		name: "tpcc", cfg: machine.Default(),
		warm: func(t *testing.T, m *machine.Machine) []checkpoint.Section {
			wl := tpcc.Setup(m.FS, c)
			for i := 0; i < c.Agents; i++ {
				m.SpawnConnected(fmt.Sprintf("agent%d", i), func(p *frontend.Proc) { wl.Agent(p, i) })
			}
			m.Sim.Run()
			state, err := wl.SaveState(c.Agents)
			if err != nil {
				t.Fatal(err)
			}
			return []checkpoint.Section{{Name: "tpcc", Data: state}}
		},
		measure: func(s *Snapshot) (string, error) {
			m, err := s.Restore()
			if err != nil {
				return "", err
			}
			wl, base, err := tpcc.AttachRestore(s.Section("tpcc"))
			if err != nil {
				return "", err
			}
			if wl, err = wl.WithConfig(c); err != nil {
				return "", err
			}
			for i := 0; i < c.Agents; i++ {
				m.SpawnConnected(fmt.Sprintf("agent%d", base+i), func(p *frontend.Proc) { wl.Agent(p, base+i) })
			}
			m.Sim.Run()
			return reduce(m), nil
		},
	}
}

func webKind() sharedKind {
	plan := func(requests uint64) loadgen.Config {
		lc := loadgen.Config{Seed: 5, Requests: requests, Classes: []loadgen.ClassConfig{{Name: "web", Rate: 2, Objects: 16}}}
		lc.ApplyDefaults()
		return lc
	}
	srv := httpd.DefaultConfig()
	srv.Workers = 2
	catalog := func(lc loadgen.Config) []loadgen.Catalog {
		cl := lc.Classes[0]
		var cat loadgen.Catalog
		for j, size := range cl.Sizes(lc.Seed, 0) {
			cat = append(cat, loadgen.Object{Path: "/" + loadgen.ObjectPath(cl.Name, j), Size: size})
		}
		return []loadgen.Catalog{cat}
	}
	// serve spawns the workers and starts the generator, continuing from
	// state when there is one.
	serve := func(m *machine.Machine, base int, lc loadgen.Config, state *loadgen.State) (*loadgen.Generator, error) {
		for i := 0; i < srv.Workers; i++ {
			m.SpawnConnected(fmt.Sprintf("httpd%d", base+i), func(p *frontend.Proc) { httpd.Worker(p, srv, new(httpd.Stats)) })
		}
		g, err := loadgen.New(m.Sim, m.NIC, lc, catalog(lc), srv.Workers, srv.Port)
		if err == nil && state != nil {
			err = g.Restore(*state)
		}
		if err != nil {
			return nil, err
		}
		g.Start()
		return g, nil
	}
	return sharedKind{
		name: "web", cfg: func() machine.Config { c := machine.Default(); c.CPUs = 2; return c }(),
		warm: func(t *testing.T, m *machine.Machine) []checkpoint.Section {
			lc := plan(60)
			for j, obj := range catalog(lc)[0] {
				data := bytes.Repeat([]byte{byte('a' + j%26)}, obj.Size)
				m.FS.SetupCreate(obj.Path[1:], data)
			}
			m.FS.SetupCreate(srv.LogFile, nil)
			g, err := serve(m, 0, lc, nil)
			if err != nil {
				t.Fatal(err)
			}
			m.Sim.Run()
			st, err := g.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(st); err != nil {
				t.Fatal(err)
			}
			return []checkpoint.Section{{Name: "loadgen", Data: buf.Bytes()}}
		},
		measure: func(s *Snapshot) (string, error) {
			m, err := s.Restore()
			if err != nil {
				return "", err
			}
			var st loadgen.State
			if err := gob.NewDecoder(bytes.NewReader(s.Section("loadgen"))).Decode(&st); err != nil {
				return "", err
			}
			g, err := serve(m, srv.Workers, plan(120), &st)
			if err != nil {
				return "", err
			}
			m.Sim.Run()
			if g.Completed() != 120 {
				return "", fmt.Errorf("web: %d of 120 requests completed", g.Completed())
			}
			return reduce(m), nil
		},
	}
}

func sweepKind() sharedKind {
	return sharedKind{
		name: "sweep", cfg: func() machine.Config { c := machine.Default(); c.CPUs = 2; return c }(),
		warm: func(t *testing.T, m *machine.Machine) []checkpoint.Section {
			spawnStores(m, m.Cfg.CPUs, 0, 200)
			m.Sim.Run()
			return nil
		},
		measure: func(s *Snapshot) (string, error) { return runPoint(s, 300) },
	}
}

// A decoded snapshot is shared by every restore and must never be written:
// for each kind, two machines restored from one snapshot at once run their
// measured phases to the same result, and the snapshot encodes afterwards to
// the very bytes the warm machine was saved as. Under -race (make race) this
// is also the test that concurrent restores share nothing they write.
func TestSharedSnapshotIsNeverWritten(t *testing.T) {
	for _, k := range []sharedKind{tpccKind(), webKind(), sweepKind()} {
		t.Run(k.name, func(t *testing.T) {
			m := machine.New(k.cfg)
			sections := k.warm(t, m)
			snap, err := TakeSnapshot(m, sections)
			if err != nil {
				t.Fatal(err)
			}
			var saved bytes.Buffer
			if err := checkpoint.SaveSections(&saved, m, sections); err != nil {
				t.Fatal(err)
			}
			if snap.Size() != saved.Len() {
				t.Errorf("Size() = %d, the saved checkpoint is %d bytes", snap.Size(), saved.Len())
			}

			var (
				wg   sync.WaitGroup
				got  [2]string
				errs [2]error
			)
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = k.measure(snap)
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if got[0] != got[1] {
				t.Errorf("two machines restored from one snapshot differ\nfirst:\n%s\nsecond:\n%s", got[0], got[1])
			}

			var again bytes.Buffer
			if err := checkpoint.Encode(&again, snap.snap, sections); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), saved.Bytes()) {
				t.Errorf("the shared snapshot re-encodes to %d bytes unlike the %d saved: a restore wrote to it", again.Len(), saved.Len())
			}
		})
	}
}
