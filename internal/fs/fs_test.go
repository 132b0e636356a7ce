package fs

import (
	"bytes"
	"fmt"
	"testing"

	"compass/internal/core"
	"compass/internal/dev"
	"compass/internal/frontend"
	"compass/internal/kernel"
	"compass/internal/mem"
)

type rig struct {
	sim  *core.Sim
	k    *kernel.Kernel
	disk *dev.Disk
	fs   *FS
}

func newRig(cacheBlocks int) *rig {
	cfg := core.DefaultConfig()
	cfg.CPUs = 2
	cfg.MemFrames = 4096
	sim := core.New(cfg)
	k := kernel.New(sim, 1<<20)
	disk := dev.NewDisk(sim, dev.DiskConfig{Blocks: 2048})
	fcfg := DefaultConfig()
	fcfg.CacheBlocks = cacheBlocks
	return &rig{sim: sim, k: k, disk: disk, fs: New(k, disk, fcfg)}
}

func TestSetupCreateRoundTrip(t *testing.T) {
	r := newRig(8)
	content := bytes.Repeat([]byte("abcdefgh"), 1000) // 8000 bytes, 2 blocks
	ino := r.fs.SetupCreate("f", content)
	if ino.Size != 8000 || len(ino.Blocks) != 2 {
		t.Fatalf("size=%d blocks=%d", ino.Size, len(ino.Blocks))
	}
	var got []byte
	r.sim.Spawn("reader", func(p *frontend.Proc) {
		got = make([]byte, 8000)
		n, err := r.fs.ReadAt(p, ino, 0, 8000, got, 0)
		if err != nil || n != 8000 {
			t.Errorf("n=%d err=%v", n, err)
		}
	})
	r.sim.Run()
	if !bytes.Equal(got, content) {
		t.Error("content mismatch")
	}
}

func TestSetupCreateDuplicatePanics(t *testing.T) {
	r := newRig(8)
	r.fs.SetupCreate("dup", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.fs.SetupCreate("dup", nil)
}

func TestReadPastEOF(t *testing.T) {
	r := newRig(8)
	ino := r.fs.SetupCreate("short", []byte("xyz"))
	r.sim.Spawn("p", func(p *frontend.Proc) {
		buf := make([]byte, 10)
		n, err := r.fs.ReadAt(p, ino, 0, 10, buf, 0)
		if err != nil || n != 3 {
			t.Errorf("short read n=%d err=%v", n, err)
		}
		n, err = r.fs.ReadAt(p, ino, 100, 10, buf, 0)
		if err != nil || n != 0 {
			t.Errorf("past-EOF read n=%d err=%v", n, err)
		}
	})
	r.sim.Run()
}

func TestWriteExtendsFile(t *testing.T) {
	r := newRig(8)
	r.sim.Spawn("w", func(p *frontend.Proc) {
		ino, err := r.fs.Create(p, "grow")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := r.fs.WriteAt(p, ino, 10000, 0, []byte("tail"), 0); err != nil {
			t.Error(err)
		}
		if got := r.fs.Stat(p, ino); got != 10004 {
			t.Errorf("size = %d, want 10004", got)
		}
		buf := make([]byte, 4)
		r.fs.ReadAt(p, ino, 10000, 4, buf, 0)
		if string(buf) != "tail" {
			t.Errorf("readback %q", buf)
		}
	})
	r.sim.Run()
}

func TestLRUEvictionWritesBackAndRereads(t *testing.T) {
	r := newRig(4) // tiny cache
	data := make([]byte, 10*4096)
	for i := range data {
		data[i] = byte(i / 4096)
	}
	ino := r.fs.SetupCreate("big", data)
	r.sim.Spawn("churn", func(p *frontend.Proc) {
		// Dirty every block, forcing evictions of dirty victims.
		for blk := 0; blk < 10; blk++ {
			r.fs.WriteAt(p, ino, int64(blk)*4096+100, 0, []byte{0xEE}, 0)
		}
		// Read everything back: evicted blocks must return the merged
		// content (original + the 0xEE byte).
		buf := make([]byte, 4096)
		for blk := 0; blk < 10; blk++ {
			r.fs.ReadAt(p, ino, int64(blk)*4096, 4096, buf, 0)
			if buf[100] != 0xEE || buf[0] != byte(blk) {
				t.Errorf("block %d content lost: [0]=%#x [100]=%#x", blk, buf[0], buf[100])
			}
		}
	})
	r.sim.Run()
	if r.fs.Misses == 0 || r.disk.Writes == 0 {
		t.Errorf("misses=%d diskWrites=%d — expected eviction traffic", r.fs.Misses, r.disk.Writes)
	}
}

func TestSyncAllCleansEverything(t *testing.T) {
	r := newRig(16)
	ino := r.fs.SetupCreate("d", make([]byte, 8*4096))
	r.sim.Spawn("sync", func(p *frontend.Proc) {
		for blk := 0; blk < 8; blk++ {
			r.fs.WriteAt(p, ino, int64(blk)*4096, 0, []byte{1}, 0)
		}
		_, dirtyBefore := r.fs.CacheOccupancy()
		if dirtyBefore == 0 {
			t.Error("nothing dirty before SyncAll")
		}
		r.fs.SyncAll(p)
		_, dirtyAfter := r.fs.CacheOccupancy()
		if dirtyAfter != 0 {
			t.Errorf("%d blocks still dirty after SyncAll", dirtyAfter)
		}
	})
	r.sim.Run()
}

func TestConcurrentWritersDifferentBlocks(t *testing.T) {
	r := newRig(16)
	ino := r.fs.SetupCreate("shared", make([]byte, 8*4096))
	var got [4]byte
	var wrote [4]bool
	for i := 0; i < 4; i++ {
		i := i
		r.sim.Spawn(fmt.Sprintf("w%d", i), func(p *frontend.Proc) {
			for j := 0; j < 10; j++ {
				off := int64(i*2*4096) + int64(j%2)*4096
				r.fs.WriteAt(p, ino, off, 0, []byte{byte(i + 1)}, 0)
			}
			wrote[i] = true
			buf := make([]byte, 1)
			r.fs.ReadAt(p, ino, int64(i*2*4096), 1, buf, 0)
			got[i] = buf[0]
		})
	}
	r.sim.Run()
	for i := 0; i < 4; i++ {
		if !wrote[i] || got[i] != byte(i+1) {
			t.Errorf("writer %d: wrote=%v got=%d", i, wrote[i], got[i])
		}
	}
}

func TestLookupMissingFile(t *testing.T) {
	r := newRig(8)
	r.sim.Spawn("p", func(p *frontend.Proc) {
		if _, err := r.fs.Lookup(p, "ghost"); err == nil {
			t.Error("lookup of missing file succeeded")
		}
		if _, err := r.fs.Create(p, "x"); err != nil {
			t.Error(err)
		}
		if _, err := r.fs.Create(p, "x"); err == nil {
			t.Error("duplicate create succeeded")
		}
		if ino, err := r.fs.Lookup(p, "x"); err != nil || ino.Name != "x" {
			t.Errorf("lookup after create: %v %v", ino, err)
		}
	})
	r.sim.Run()
}

func TestInodeByID(t *testing.T) {
	r := newRig(8)
	a := r.fs.SetupCreate("a", nil)
	b := r.fs.SetupCreate("b", nil)
	if r.fs.InodeByID(a.ID) != a || r.fs.InodeByID(b.ID) != b {
		t.Error("InodeByID mismatch")
	}
}

func TestPhysSpaceIsolation(t *testing.T) {
	// The fs charges kernel-space addresses; make sure buffer kvas do not
	// collide as buffers recycle.
	r := newRig(2)
	ino := r.fs.SetupCreate("f", make([]byte, 6*4096))
	seen := map[mem.VirtAddr]bool{}
	r.sim.Spawn("p", func(p *frontend.Proc) {
		for blk := 0; blk < 6; blk++ {
			buf, err := r.fs.getblk(p, ino.Blocks[blk], true)
			if err != nil {
				t.Error(err)
				return
			}
			seen[buf.kva] = true
		}
	})
	r.sim.Run()
	// With a 2-block cache, kvas recycle: at most 2 + a few distinct.
	if len(seen) > 3 {
		t.Errorf("%d distinct kvas for a 2-slot cache — arena leak", len(seen))
	}
}

func TestReadAheadPrefetchesSequentialScan(t *testing.T) {
	run := func(readAhead bool) (uint64, uint64) {
		cfg := core.DefaultConfig()
		cfg.CPUs = 1
		cfg.MemFrames = 4096
		sim := core.New(cfg)
		k := kernel.New(sim, 1<<20)
		disk := dev.NewDisk(sim, dev.DiskConfig{Blocks: 2048})
		fcfg := DefaultConfig()
		fcfg.ReadAhead = readAhead
		f := New(k, disk, fcfg)
		ino := f.SetupCreate("seq", make([]byte, 32*4096))
		var end uint64
		sim.Spawn("scan", func(p *frontend.Proc) {
			for blk := 0; blk < 32; blk++ {
				f.ReadAt(p, ino, int64(blk)*4096, 4096, nil, 0)
			}
			end = uint64(p.Now())
		})
		sim.Run()
		return end, f.Prefetches
	}
	off, pf0 := run(false)
	on, pf1 := run(true)
	if pf0 != 0 {
		t.Errorf("prefetches with read-ahead off: %d", pf0)
	}
	if pf1 == 0 {
		t.Error("no prefetches with read-ahead on")
	}
	if on >= off {
		t.Errorf("read-ahead did not speed the scan: %d vs %d cycles", on, off)
	}
	t.Logf("sequential 32-block scan: %d cycles without read-ahead, %d with (%.1fx)",
		off, on, float64(off)/float64(on))
}

func TestReadAheadDataCorrect(t *testing.T) {
	r := newRig(16)
	data := make([]byte, 8*4096)
	for i := range data {
		data[i] = byte(i * 7)
	}
	ino := r.fs.SetupCreate("radata", data)
	r.sim.Spawn("scan", func(p *frontend.Proc) {
		buf := make([]byte, 4096)
		for blk := 0; blk < 8; blk++ {
			r.fs.ReadAt(p, ino, int64(blk)*4096, 4096, buf, 0)
			for i, b := range buf {
				if b != byte((blk*4096+i)*7) {
					t.Fatalf("block %d byte %d wrong", blk, i)
				}
			}
		}
	})
	r.sim.Run()
}

// The victim is the idle buffer with the least (lruSeq, block) wherever it
// sits in the list the scan walks, and that list holds exactly the buffers
// the block index does through any order of evictions.
func TestVictimScanAndBufferListStayConsistent(t *testing.T) {
	f := newRig(8).fs
	for i, seq := range []uint64{5, 3, 9, 3, 7, 1} {
		f.insert(&buffer{block: 10 + i, lruSeq: seq, kernelBusy: seq == 1})
	}
	// A block published a second time (getblk after flushing a victim)
	// replaces its first buffer in the index and in the list alike.
	f.insert(&buffer{block: 12, lruSeq: 2})
	again := &buffer{block: 12, lruSeq: 9}
	f.insert(again)
	if len(f.bufs) != 6 || len(f.cache) != 6 || f.cache[12] != again || f.bufs[again.slot] != again {
		t.Fatalf("%d buffers listed, %d indexed after a block was published three times, want 6 and the last one", len(f.bufs), len(f.cache))
	}
	for _, want := range []int{11, 13, 10, 14, 12} {
		victim := f.pickVictim()
		if victim == nil || victim.block != want {
			t.Fatalf("victim %+v, want block %d", victim, want)
		}
		f.evict(victim)
		if len(f.bufs) != len(f.cache) {
			t.Fatalf("%d buffers listed, %d indexed", len(f.bufs), len(f.cache))
		}
		for i, b := range f.bufs {
			if b.slot != i || f.cache[b.block] != b {
				t.Errorf("after evicting block %d: buffer %d of the list has slot %d, index has %p for its block", want, i, b.slot, f.cache[b.block])
			}
		}
	}
	if victim := f.pickVictim(); victim != nil {
		t.Errorf("victim %+v with only a busy buffer left", victim)
	}
}

// A buffer getblk has handed out may be evicted before its holder is done
// with it: ReadAt and WriteAt drop the fs lock between getblk and their copy,
// and pickVictim skips only buffers with I/O in flight. So an evicted buffer
// is reused for the next block read only when nobody holds it: here A holds
// block X's buffer while B forces X out and reads Y, and A's copy still
// reads X.
func TestEvictedBufferKeepsItsBytes(t *testing.T) {
	r := newRig(1)
	ino := r.fs.SetupCreate("xy", append(bytes.Repeat([]byte{'X'}, dev.BlockSize), bytes.Repeat([]byte{'Y'}, dev.BlockSize)...))
	var got []byte
	r.sim.Spawn("A", func(p *frontend.Proc) {
		buf, err := r.fs.getblk(p, ino.Blocks[0], true)
		if err != nil {
			t.Error(err)
			return
		}
		p.ComputeCycles(10_000_000) // B reads Y meanwhile, on the other CPU
		r.fs.lock.Lock(p)
		got = append(got, buf.data...)
		r.fs.lock.Unlock(p)
	})
	r.sim.Spawn("B", func(p *frontend.Proc) {
		p.ComputeCycles(2_000_000) // after A's read of X has completed
		if _, err := r.fs.ReadAt(p, ino, dev.BlockSize, 1, make([]byte, 1), 0); err != nil {
			t.Error(err)
		}
		if r.fs.cache[ino.Blocks[0]] != nil {
			t.Error("block X is still cached: B did not force it out")
		}
	})
	r.sim.Run()
	if !bytes.Equal(got, bytes.Repeat([]byte{'X'}, dev.BlockSize)) {
		t.Errorf("A's buffer for X holds %.8q...", got)
	}
}

// A read-ahead holds its buffer until its completion has filled it. Evicted
// while the media read is in flight, the buffer must not be reused for the
// block read next, or the completion would fill that block's buffer with
// the read-ahead's bytes: here A's read of X0 starts a read-ahead of X1, B
// touches X0 again and misses on Y while X1 is still on its way, so X1 is
// the victim.
func TestEvictedReadAheadKeepsItsBuffer(t *testing.T) {
	r := newRig(2)
	fill := func(c byte) []byte { return bytes.Repeat([]byte{c}, dev.BlockSize) }
	ino := r.fs.SetupCreate("x0x1y", append(append(fill('A'), fill('B')...), fill('C')...))
	x1, y := ino.Blocks[1], ino.Blocks[2]
	var ahead *buffer
	var got []byte
	r.sim.Spawn("A", func(p *frontend.Proc) {
		if _, err := r.fs.ReadAt(p, ino, 0, 1, make([]byte, 1), 0); err != nil {
			t.Error(err)
		}
	})
	r.sim.Spawn("B", func(p *frontend.Proc) {
		p.ComputeCycles(1_000_000) // after A's read of X0, during the read-ahead of X1
		r.fs.lock.Lock(p)
		ahead = r.fs.cache[x1]
		r.fs.lock.Unlock(p)
		if ahead == nil || !ahead.loading {
			t.Error("the read-ahead of X1 is not in flight")
			return
		}
		if _, err := r.fs.ReadAt(p, ino, 0, 1, make([]byte, 1), 0); err != nil {
			t.Error(err)
		}
		got = make([]byte, dev.BlockSize)
		if _, err := r.fs.ReadAt(p, ino, 2*dev.BlockSize, dev.BlockSize, got, 0); err != nil {
			t.Error(err)
		}
		if r.fs.cache[x1] != nil {
			t.Error("X1 is still cached: B did not force it out")
		}
	})
	r.sim.Run()
	if ahead == nil {
		return
	}
	if r.fs.cache[y] == ahead {
		t.Error("Y was read into the buffer of the read-ahead still in flight")
	}
	if !bytes.Equal(got, fill('C')) {
		t.Errorf("B read Y as %.8q...", got)
	}
	if !bytes.Equal(ahead.data, fill('B')) {
		t.Errorf("the read-ahead's buffer holds %.8q..., want X1's bytes", ahead.data)
	}
}

// WriteAt holds its buffer from getblk to its copy. Evicted in between, the
// buffer loses the write (ROADMAP item 5), but must not be reused for the
// next block read, or the copy would land in that block: here A overwrites
// X with a copy slow enough for B to force X out and read Y meanwhile.
func TestEvictedWriteBufferIsNotReused(t *testing.T) {
	r := newRig(1)
	r.fs.cfg.CopyCyclesPerByte = 1000 // A's copy is charged 4M cycles before it is made
	fill := func(c byte) []byte { return bytes.Repeat([]byte{c}, dev.BlockSize) }
	ino := r.fs.SetupCreate("xy", append(fill('X'), fill('Y')...))
	y := ino.Blocks[1]
	var got []byte
	r.sim.Spawn("A", func(p *frontend.Proc) {
		if _, err := r.fs.WriteAt(p, ino, 0, 0, fill('W'), 0); err != nil {
			t.Error(err)
		}
	})
	r.sim.Spawn("B", func(p *frontend.Proc) {
		p.ComputeCycles(100_000) // after A's getblk of X, before its copy
		if _, err := r.fs.ReadAt(p, ino, dev.BlockSize, 1, make([]byte, 1), 0); err != nil {
			t.Error(err)
		}
		if r.fs.cache[ino.Blocks[0]] != nil {
			t.Error("block X is still cached: B did not force it out")
		}
		p.ComputeCycles(10_000_000) // after A's copy
		got = make([]byte, dev.BlockSize)
		if _, err := r.fs.ReadAt(p, ino, dev.BlockSize, dev.BlockSize, got, 0); err != nil {
			t.Error(err)
		}
	})
	r.sim.Run()
	if !bytes.Equal(got, fill('Y')) {
		t.Errorf("B read Y as %.8q...", got)
	}
	if buf := r.fs.cache[y]; buf == nil || buf.dirty || !bytes.Equal(buf.data, fill('Y')) {
		t.Error("Y's cached buffer took A's write to X")
	}
}
