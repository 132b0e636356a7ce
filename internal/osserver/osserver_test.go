package osserver

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"compass/internal/core"
	"compass/internal/dev"
	"compass/internal/event"
	"compass/internal/fault"
	"compass/internal/frontend"
	"compass/internal/fs"
	"compass/internal/isa"
	"compass/internal/kernel"
	"compass/internal/mem"
	"compass/internal/memsys"
	"compass/internal/netstack"
	"compass/internal/snoop"
	"compass/internal/stats"
)

// rig is a full simulated machine for OS-layer tests.
type rig struct {
	sim  *core.Sim
	k    *kernel.Kernel
	fs   *fs.FS
	net  *netstack.Stack
	disk *dev.Disk
	nic  *dev.NIC
	srv  *Server
}

func newRig(cpus int) *rig {
	cfg := core.DefaultConfig()
	cfg.CPUs = cpus
	cfg.MemFrames = 8192
	cfg.NewModel = func(_ *mem.Physical, n int) memsys.Model {
		return snoop.New(snoop.SimpleConfig(n))
	}
	sim := core.New(cfg)
	k := kernel.New(sim, 1<<20)
	disk := dev.NewDisk(sim, dev.DiskConfig{Blocks: 4096})
	nic := dev.NewNIC(sim, dev.DefaultNICConfig())
	filesys := fs.New(k, disk, fs.DefaultConfig())
	net := netstack.New(k, nic)
	srv := New(k, filesys, net)
	return &rig{sim: sim, k: k, fs: filesys, net: net, disk: disk, nic: nic, srv: srv}
}

func TestFileReadWriteRoundTrip(t *testing.T) {
	r := newRig(1)
	r.fs.SetupCreate("data.db", bytes.Repeat([]byte("0123456789abcdef"), 1024)) // 16 KB
	var got []byte
	r.sim.Spawn("reader", func(p *frontend.Proc) {
		os := r.srv.Connect(p)
		fd, err := os.Open("data.db")
		if err != nil {
			t.Error(err)
			return
		}
		got = make([]byte, 100)
		n, err := os.Read(fd, got, 100, 0)
		if err != nil || n != 100 {
			t.Errorf("read: n=%d err=%v", n, err)
		}
		// Overwrite and read back through the cache.
		os.Lseek(fd, 4096, 0)
		if _, err := os.Write(fd, []byte("COMPASS WAS HERE"), 0, 0); err != nil {
			t.Error(err)
		}
		os.Lseek(fd, 4096, 0)
		chk := make([]byte, 16)
		os.Read(fd, chk, 16, 0)
		if string(chk) != "COMPASS WAS HERE" {
			t.Errorf("readback %q", chk)
		}
		os.Fsync(fd)
		os.Close(fd)
	})
	r.sim.Run()
	if want := []byte("0123456789abcdef"); !bytes.HasPrefix(got, want) {
		t.Errorf("file content %q", got[:16])
	}
	// Fsync must have pushed the dirty block to the disk.
	if r.disk.Writes == 0 {
		t.Error("fsync wrote nothing to disk")
	}
}

func TestReadBlocksOnDiskAndChargesKernelTime(t *testing.T) {
	r := newRig(1)
	r.fs.SetupCreate("big", make([]byte, 64*1024))
	var kern uint64
	r.sim.Spawn("io", func(p *frontend.Proc) {
		os := r.srv.Connect(p)
		fd, _ := os.Open("big")
		for i := 0; i < 16; i++ {
			os.Read(fd, nil, 4096, 0)
		}
		kern = p.Account().Cycles(stats.ModeKernel)
	})
	end := r.sim.Run()
	if kern == 0 {
		t.Error("no kernel time charged for file reads")
	}
	if r.disk.Reads != 16 {
		t.Errorf("disk reads = %d, want 16 (cold cache)", r.disk.Reads)
	}
	// Disk latency must dominate: 16 reads × ~840k cycles each.
	if end < 10_000_000 {
		t.Errorf("simulated time %d too small for 16 disk I/Os", end)
	}
}

func TestBufferCacheHitsAvoidDisk(t *testing.T) {
	r := newRig(1)
	r.fs.SetupCreate("hot", make([]byte, 8192))
	r.sim.Spawn("hitter", func(p *frontend.Proc) {
		os := r.srv.Connect(p)
		fd, _ := os.Open("hot")
		for i := 0; i < 10; i++ {
			os.Lseek(fd, 0, 0)
			os.Read(fd, nil, 4096, 0)
		}
	})
	r.sim.Run()
	// One demand read plus at most one sequential read-ahead of block 1.
	if r.disk.Reads > 2 {
		t.Errorf("disk reads = %d, want <= 2 (cache hits + read-ahead)", r.disk.Reads)
	}
	if r.fs.Hits < 9 {
		t.Errorf("cache hits = %d, want >= 9", r.fs.Hits)
	}
}

func TestConcurrentReadersSameBlock(t *testing.T) {
	r := newRig(4)
	r.fs.SetupCreate("shared", make([]byte, 4096))
	for i := 0; i < 4; i++ {
		r.sim.Spawn(fmt.Sprintf("r%d", i), func(p *frontend.Proc) {
			os := r.srv.Connect(p)
			fd, _ := os.Open("shared")
			os.Read(fd, nil, 4096, 0)
		})
	}
	r.sim.Run()
	// All four pile up on one in-flight read: exactly one media access.
	if r.disk.Reads != 1 {
		t.Errorf("disk reads = %d, want 1 (request merging via buffer busy-wait)", r.disk.Reads)
	}
}

func TestCacheEvictionWritesBackDirty(t *testing.T) {
	r := newRig(1)
	// Cache is 64 blocks; write 80 blocks to force dirty evictions.
	r.fs.SetupCreate("churn", make([]byte, 80*4096))
	r.sim.Spawn("w", func(p *frontend.Proc) {
		os := r.srv.Connect(p)
		fd, _ := os.Open("churn")
		buf := bytes.Repeat([]byte{0xAB}, 4096)
		for i := 0; i < 80; i++ {
			os.Write(fd, buf, 0, 0)
		}
	})
	r.sim.Run()
	if r.disk.Writes == 0 {
		t.Error("no write-back despite cache overflow")
	}
	_, dirty := r.fs.CacheOccupancy()
	if dirty == 0 {
		t.Error("expected some blocks still dirty (write-back, not write-through)")
	}
}

func TestMmapFaultPagesIn(t *testing.T) {
	r := newRig(1)
	content := bytes.Repeat([]byte("tpcd"), 4096) // 16 KB
	r.fs.SetupCreate("table", content)
	r.sim.Spawn("scanner", func(p *frontend.Proc) {
		os := r.srv.Connect(p)
		fd, _ := os.Open("table")
		base, err := os.Mmap(fd, 16384)
		if err != nil {
			t.Error(err)
			return
		}
		// Touch every page: 4 precise traps, 4 disk reads.
		for pg := 0; pg < 4; pg++ {
			p.TouchRange(base+mem.VirtAddr(pg*4096), 256, false)
		}
		// Dirty one page and msync it.
		p.Store(base+8192, 8)
		if err := os.Msync(base); err != nil {
			t.Error(err)
		}
		if err := os.Munmap(base); err != nil {
			t.Error(err)
		}
	})
	r.sim.Run()
	if got := r.sim.Counters().Get("vm.pagein"); got != 4 {
		t.Errorf("pageins = %d, want 4", got)
	}
	if r.disk.Reads != 4 {
		t.Errorf("disk reads = %d, want 4", r.disk.Reads)
	}
}

// A page-in whose disk read fails for good is not attached zeroed: the
// fault handler panics with the file, the offset and the cause, and the
// panic surfaces from Run.
func TestMmapPageInFailurePanics(t *testing.T) {
	r := newRig(1)
	ino := r.fs.SetupCreate("table", bytes.Repeat([]byte("tpcd"), 2048)) // 8 KB
	cfg := fault.DiskConfig{TransientRate: 1, MaxRetries: 2, RetryBackoff: 200_000}
	r.disk.SetInjector(fault.NewDiskInjector(1, cfg))
	r.fs.EnableFaultRecovery(cfg)
	r.sim.Spawn("scanner", func(p *frontend.Proc) {
		os := r.srv.Connect(p)
		fd, _ := os.Open("table")
		base, err := os.Mmap(fd, 8192)
		if err != nil {
			t.Error(err)
			return
		}
		p.Load(base+4096, 8)
	})
	rec := func() (rec any) {
		defer func() { rec = recover() }()
		r.sim.Run()
		return nil
	}()
	err, ok := rec.(error)
	if !ok {
		t.Fatalf("Run recovered %v, want the page-in error", rec)
	}
	want := fmt.Sprintf("page-in of file %d at offset 4096", ino.ID)
	if !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "I/O error reading block") {
		t.Errorf("panic %q, want %q and the read's I/O error", err, want)
	}
}

func TestSocketEndToEnd(t *testing.T) {
	r := newRig(2)
	var served []byte
	var response []byte
	responded := false
	// External client side: collect server transmissions; after the
	// response arrives, close the connection so the server's Recv sees EOF.
	r.nic.OnTransmit = func(pkt dev.Packet, at event.Cycle) {
		if pkt.Flags&dev.FlagFIN != 0 {
			return
		}
		response = append(response, pkt.Payload...)
		if !responded {
			responded = true
			r.nic.Inject(dev.Packet{Conn: 500, Flags: dev.FlagFIN}, 1000)
		}
	}
	r.sim.Spawn("server", func(p *frontend.Proc) {
		os := r.srv.Connect(p)
		lfd, err := os.Listen(80)
		if err != nil {
			t.Error(err)
			return
		}
		cfd, err := os.Naccept(lfd)
		if err != nil {
			t.Error(err)
			return
		}
		req, err := os.Recv(cfd, 0)
		if err != nil {
			t.Error(err)
			return
		}
		served = req
		os.Send(cfd, []byte("HTTP/1.0 200 OK\r\n\r\nhello"), 0)
		// Drain until EOF.
		for {
			seg, _ := os.Recv(cfd, 0)
			if seg == nil {
				break
			}
		}
		os.Close(cfd)
		os.Close(lfd)
	})
	// Client: SYN on port 80 with conn id 500, then the request.
	r.nic.Inject(dev.Packet{Conn: 500, Flags: dev.FlagSYN, Payload: []byte{0, 80}}, 100)
	r.nic.Inject(dev.Packet{Conn: 500, Payload: []byte("GET /index.html HTTP/1.0\r\n\r\n")}, 50_000)
	r.sim.Run()
	if string(served) != "GET /index.html HTTP/1.0\r\n\r\n" {
		t.Errorf("server saw request %q", served)
	}
	if string(response) != "HTTP/1.0 200 OK\r\n\r\nhello" {
		t.Errorf("client saw response %q", response)
	}
	if r.net.Accepts != 1 {
		t.Errorf("accepts = %d", r.net.Accepts)
	}
}

func TestSelectMultiplexing(t *testing.T) {
	r := newRig(1)
	var readyIdx int
	r.sim.Spawn("selector", func(p *frontend.Proc) {
		os := r.srv.Connect(p)
		lfd, _ := os.Listen(8080)
		// Select over just the listener; data arrives later.
		idx, err := os.Select(lfd)
		if err != nil {
			t.Error(err)
			return
		}
		readyIdx = idx
		cfd, _ := os.Naccept(lfd)
		seg, _ := os.Recv(cfd, 0)
		if string(seg) != "ping" {
			t.Errorf("got %q", seg)
		}
	})
	r.nic.Inject(dev.Packet{Conn: 7, Flags: dev.FlagSYN, Payload: []byte{0x1f, 0x90}}, 200_000)
	r.nic.Inject(dev.Packet{Conn: 7, Payload: []byte("ping")}, 400_000)
	r.sim.Run()
	if readyIdx != 0 {
		t.Errorf("select returned %d", readyIdx)
	}
}

func TestInterruptTimeFromDevices(t *testing.T) {
	r := newRig(1)
	r.fs.SetupCreate("f", make([]byte, 32*4096))
	r.sim.Spawn("io", func(p *frontend.Proc) {
		os := r.srv.Connect(p)
		fd, _ := os.Open("f")
		for i := 0; i < 32; i++ {
			os.Read(fd, nil, 4096, 0)
			p.Compute(isa.ALU(2000))
		}
	})
	r.sim.Run()
	total := r.sim.TotalAccount()
	if total.Cycles(stats.ModeInterrupt) == 0 {
		t.Error("no interrupt-handler time from disk completions")
	}
	p := stats.ProfileOf("io", &total)
	if p.OSPct < 5 {
		t.Errorf("OS share %.1f%% suspiciously low for an I/O-bound run", p.OSPct)
	}
}

func TestSleepCycles(t *testing.T) {
	r := newRig(1)
	var before, after uint64
	r.sim.Spawn("sleeper", func(p *frontend.Proc) {
		os := r.srv.Connect(p)
		before = uint64(p.Now())
		os.SleepCycles(1_000_000)
		after = uint64(p.Now())
	})
	r.sim.Run()
	if after-before < 1_000_000 {
		t.Errorf("slept %d cycles, want >= 1M", after-before)
	}
}

func TestBadFDErrors(t *testing.T) {
	r := newRig(1)
	r.sim.Spawn("bad", func(p *frontend.Proc) {
		os := r.srv.Connect(p)
		if _, err := os.Read(42, nil, 10, 0); err == nil {
			t.Error("read on bad fd succeeded")
		}
		if _, err := os.Open("missing"); err == nil {
			t.Error("open of missing file succeeded")
		}
		if _, err := os.Statx("missing"); err == nil {
			t.Error("statx of missing file succeeded")
		}
		fd, _ := os.Creat("new")
		os.Close(fd)
		if _, err := os.Write(fd, []byte("x"), 0, 0); err == nil {
			t.Error("write on closed fd succeeded")
		}
	})
	r.sim.Run()
}

func TestKreadvKwritev(t *testing.T) {
	r := newRig(1)
	r.fs.SetupCreate("vec", make([]byte, 32768))
	r.sim.Spawn("v", func(p *frontend.Proc) {
		os := r.srv.Connect(p)
		fd, _ := os.Open("vec")
		heap := os.Sbrk(32768)
		iov := []IOVec{
			{UserVA: heap, Len: 8192},
			{UserVA: heap + 8192, Len: 8192},
		}
		n, err := os.Kreadv(fd, iov)
		if err != nil || n != 16384 {
			t.Errorf("kreadv: n=%d err=%v", n, err)
		}
		os.Lseek(fd, 0, 0)
		n, err = os.Kwritev(fd, iov)
		if err != nil || n != 16384 {
			t.Errorf("kwritev: n=%d err=%v", n, err)
		}
	})
	r.sim.Run()
}

func TestDeterministicOSWorkload(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		r := newRig(2)
		r.fs.SetupCreate("db", make([]byte, 48*4096))
		for i := 0; i < 3; i++ {
			r.sim.Spawn(fmt.Sprintf("agent%d", i), func(p *frontend.Proc) {
				os := r.srv.Connect(p)
				fd, _ := os.Open("db")
				for j := 0; j < 12; j++ {
					os.Lseek(fd, int64((j*7)%48)*4096, 0)
					os.Read(fd, nil, 4096, 0)
					p.Compute(isa.ALU(3000))
					if j%3 == 0 {
						os.Lseek(fd, int64((j*5)%48)*4096, 0)
						os.Write(fd, nil, 512, 0)
					}
				}
			})
		}
		end := r.sim.Run()
		total := r.sim.TotalAccount()
		return uint64(end), total.Total(), r.disk.Reads + r.disk.Writes
	}
	e1, t1, d1 := run()
	e2, t2, d2 := run()
	if e1 != e2 || t1 != t2 || d1 != d2 {
		t.Errorf("nondeterministic: end %d/%d total %d/%d disk %d/%d", e1, e2, t1, t2, d1, d2)
	}
}

// Connect may be called from many goroutines at once: with threaded ports
// each process connects from its own goroutine as it starts
// (machine.SpawnConnected), and processes spawned together start together.
// n goroutines released at one instant connect n processes, and all n
// threads are counted and recorded, each the one its process holds. Under
// -race (make race) a Connect that touched the server's records unguarded
// is also reported as a race.
func TestConcurrentConnectsRecordEveryThread(t *testing.T) {
	const n = 32
	r := newRig(4)
	procs := make([]*frontend.Proc, n)
	for i := range procs {
		procs[i] = r.sim.Spawn(fmt.Sprintf("p%d", i), func(*frontend.Proc) {})
	}
	threads := make([]*OSThread, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range procs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			threads[i] = r.srv.Connect(procs[i])
		}(i)
	}
	close(start)
	wg.Wait()

	if r.srv.paired != n || r.srv.peakPaired != n || len(r.srv.threads) != n {
		t.Fatalf("%d connections: paired %d, peak %d, %d threads recorded", n, r.srv.paired, r.srv.peakPaired, len(r.srv.threads))
	}
	recorded := map[*OSThread]bool{}
	for _, th := range r.srv.threads {
		recorded[th] = true
	}
	for i, p := range procs {
		if For(p) != threads[i] || !recorded[threads[i]] {
			t.Errorf("proc %d: its thread is not the one Connect returned, or was not recorded", i)
		}
	}
	r.sim.Run()
}
