package osserver

import (
	"testing"

	"strings"

	"compass/internal/dev"
	"compass/internal/event"
	"compass/internal/frontend"
	"compass/internal/isa"
)

func TestSyncdFlushesDirtyBlocks(t *testing.T) {
	r := newRig(2)
	r.fs.SetupCreate("dirtyfile", make([]byte, 16*4096))
	r.srv.StartSyncd(2_000_000) // 2M cycles
	r.sim.Spawn("writer", func(p *frontend.Proc) {
		os := r.srv.Connect(p)
		fd, _ := os.Open("dirtyfile")
		for i := 0; i < 16; i++ {
			os.Write(fd, []byte{0xAA}, 0, 0)
			os.Lseek(fd, int64(i+1)*4096, 0)
		}
		// Wait past a couple of syncd periods without touching the cache.
		os.SleepCycles(5_000_000)
		os.Close(fd)
	})
	r.sim.Run()
	_, dirty := r.fs.CacheOccupancy()
	if dirty != 0 {
		t.Errorf("%d blocks still dirty despite syncd", dirty)
	}
	if r.disk.Writes == 0 {
		t.Error("syncd wrote nothing")
	}
}

func TestSyncdDoesNotKeepSimulationAlive(t *testing.T) {
	r := newRig(1)
	r.srv.StartSyncd(1_000_000)
	r.sim.Spawn("quick", func(p *frontend.Proc) {
		r.srv.Connect(p)
		p.Compute(isa.ALU(100))
	})
	end := r.sim.Run() // must terminate promptly, not loop on syncd sleeps
	if end > 50_000_000 {
		t.Errorf("simulation dragged to %d cycles", end)
	}
}

func TestForkCreatesConnectedChild(t *testing.T) {
	r := newRig(2)
	r.fs.SetupCreate("forked", make([]byte, 4096))
	childRead := false
	r.sim.Spawn("master", func(p *frontend.Proc) {
		os := r.srv.Connect(p)
		os.Fork("child", func(cp *frontend.Proc) {
			// The child must have its own OS thread and fd table.
			cos := For(cp)
			fd, err := cos.Open("forked")
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := cos.Read(fd, nil, 4096, 0); err != nil {
				t.Error(err)
				return
			}
			childRead = true
		})
		p.Compute(isa.ALU(1000))
	})
	r.sim.Run()
	if !childRead {
		t.Error("forked child never ran")
	}
}

func TestPreforkMasterPattern(t *testing.T) {
	// Master forks 3 workers that share a listener; each serves one
	// connection, like Apache's prefork MPM.
	r := newRig(4)
	served := make([]bool, 3)
	r.sim.Spawn("master", func(p *frontend.Proc) {
		os := r.srv.Connect(p)
		if _, err := os.Listen(80); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 3; i++ {
			i := i
			os.Fork("worker", func(cp *frontend.Proc) {
				cos := For(cp)
				lfd, err := cos.AttachListener(80)
				if err != nil {
					t.Error(err)
					return
				}
				cfd, _ := cos.Naccept(lfd)
				seg, _ := cos.Recv(cfd, 0)
				if len(seg) > 0 {
					served[i] = true
				}
				cos.Close(cfd)
			})
		}
	})
	for conn := 0; conn < 3; conn++ {
		r.nic.Inject(devSYN(100+conn, 80), 1000*eventCycle(conn+1))
		r.nic.Inject(devData(100+conn, "req"), 500_000*eventCycle(conn+1))
	}
	r.sim.Run()
	for i, ok := range served {
		if !ok {
			t.Errorf("worker %d served nothing", i)
		}
	}
}

// test helpers for packet construction.
func devSYN(conn, port int) dev.Packet {
	return dev.Packet{Conn: conn, Flags: dev.FlagSYN, Payload: []byte{byte(port >> 8), byte(port)}}
}

func devData(conn int, s string) dev.Packet {
	return dev.Packet{Conn: conn, Payload: []byte(s)}
}

func eventCycle(n int) event.Cycle { return event.Cycle(n) }

func TestSyscallProfile(t *testing.T) {
	r := newRig(2)
	r.fs.SetupCreate("pf", make([]byte, 8*4096))
	r.sim.Spawn("io", func(p *frontend.Proc) {
		os := r.srv.Connect(p)
		fd, _ := os.Open("pf")
		for i := 0; i < 8; i++ {
			os.Read(fd, nil, 4096, 0)
		}
		os.Statx("pf")
		os.Close(fd)
	})
	r.sim.Run()
	cycles, calls := r.srv.SyscallProfile()
	if calls["kreadv"] != 8 || calls["open"] != 1 || calls["statx"] != 1 {
		t.Errorf("call counts: %v", calls)
	}
	if cycles["kreadv"] == 0 {
		t.Error("kreadv charged no kernel cycles")
	}
	// kreadv (8 cold reads) must dominate the kernel profile — the
	// paper's "handful of OS calls" observation.
	for name, c := range cycles {
		if name != "kreadv" && c > cycles["kreadv"] {
			t.Errorf("%s (%d cycles) above kreadv (%d)", name, c, cycles["kreadv"])
		}
	}
	out := r.srv.FormatSyscallProfile(5)
	if !strings.Contains(out, "kreadv") || !strings.Contains(out, "share") {
		t.Errorf("profile format:\n%s", out)
	}
	// Only the calls somebody made have a row, under the names the counts
	// are kept by ordinal for.
	if len(calls) != 4 || len(cycles) != 4 || calls["close"] != 1 {
		t.Errorf("profile rows: calls %v cycles %v, want open, kreadv, statx and close", calls, cycles)
	}
	for call, name := range sysNames {
		if name == "" {
			t.Errorf("system call %d has no name", call)
		}
	}

	// The profile survives a checkpoint as rows by name; a row for a call
	// this server does not have is refused.
	sn, err := r.srv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh := newRig(2)
	if err := fresh.srv.Restore(sn); err != nil {
		t.Fatal(err)
	}
	if got := fresh.srv.FormatSyscallProfile(5); got != out {
		t.Errorf("profile after restore:\n%swant:\n%s", got, out)
	}
	sn.Profile = append(sn.Profile, SyscallSnap{Name: "kexotic", Cycles: 1, Calls: 1})
	if err := newRig(2).srv.Restore(sn); err == nil || !strings.Contains(err.Error(), "kexotic") {
		t.Errorf("restoring a profile with an unknown call: %v, want an error naming it", err)
	}
}

func TestPipeProducerConsumer(t *testing.T) {
	r := newRig(2)
	var received []byte
	r.sim.Spawn("producer", func(p *frontend.Proc) {
		os := r.srv.Connect(p)
		_, w := os.Pipe(256) // small capacity: writers must block
		pp, _ := os.PipeHandle(w)
		// Hand the read end to a child, UNIX-style.
		os.Fork("consumer", func(cp *frontend.Proc) {
			cos := For(cp)
			rfd := cos.AdoptPipe(pp, true)
			for {
				seg, err := cos.PipeRead(rfd, 128)
				if err != nil {
					t.Error(err)
					return
				}
				if seg == nil {
					break // EOF
				}
				received = append(received, seg...)
			}
			cos.Close(rfd)
		})
		msg := make([]byte, 2000) // ≫ capacity: forces blocking round trips
		for i := range msg {
			msg[i] = byte(i % 251)
		}
		if n, err := os.PipeWrite(w, msg); err != nil || n != 2000 {
			t.Errorf("wrote %d err=%v", n, err)
		}
		os.Close(w)
	})
	r.sim.Run()
	if len(received) != 2000 {
		t.Fatalf("consumer got %d bytes, want 2000", len(received))
	}
	for i, b := range received {
		if b != byte(i%251) {
			t.Fatalf("byte %d corrupted", i)
		}
	}
}

func TestPipeEPIPE(t *testing.T) {
	r := newRig(2)
	var short int
	r.sim.Spawn("w", func(p *frontend.Proc) {
		os := r.srv.Connect(p)
		rfd, wfd := os.Pipe(64)
		os.Close(rfd) // reader gone
		short, _ = os.PipeWrite(wfd, make([]byte, 500))
		os.Close(wfd)
	})
	r.sim.Run()
	if short >= 500 {
		t.Errorf("write to closed pipe wrote %d", short)
	}
}

func TestPipeWrongEndErrors(t *testing.T) {
	r := newRig(1)
	r.sim.Spawn("x", func(p *frontend.Proc) {
		os := r.srv.Connect(p)
		rfd, wfd := os.Pipe(64)
		if _, err := os.PipeWrite(rfd, []byte("x")); err == nil {
			t.Error("write on read end succeeded")
		}
		if _, err := os.PipeRead(wfd, 8); err == nil {
			t.Error("read on write end succeeded")
		}
		if _, err := os.PipeHandle(99); err == nil {
			t.Error("handle of bad fd succeeded")
		}
	})
	r.sim.Run()
}
