package fs

import (
	"bytes"
	"testing"

	"compass/internal/dev"
	"compass/internal/fault"
	"compass/internal/frontend"
)

// These tests pin the media-error recovery paths one I/O at a time, end
// cycle and disk traffic included, so a change to how an I/O reaches the
// disk that moves simulated time shows here, not only in whole-run digests
// (no pinned workload run gives up or remaps a read-ahead).

// faulted installs a disk fault plan and turns recovery on (setup context).
func (r *rig) faulted(seed uint64, cfg fault.DiskConfig) {
	r.disk.SetInjector(fault.NewDiskInjector(seed, cfg))
	r.fs.EnableFaultRecovery(cfg)
}

// badSeed returns the first seed whose bad-block plan at rate marks every
// block of bad and none of good.
func badSeed(rate float64, bad, good []int) uint64 {
	for seed := uint64(1); ; seed++ {
		ok := true
		for _, b := range bad {
			ok = ok && fault.BadBlock(seed, b, rate)
		}
		for _, b := range good {
			ok = ok && !fault.BadBlock(seed, b, rate)
		}
		if ok {
			return seed
		}
	}
}

func fill(c byte) []byte { return bytes.Repeat([]byte{c}, dev.BlockSize) }

func (r *rig) block(b int) []byte {
	got := make([]byte, dev.BlockSize)
	r.disk.ReadBlock(b, got)
	return got
}

// A read whose retries all fail is an EIO, and leaves the buffer failed in
// the cache; the next read claims it and reruns the media read.
func TestReadGivesUpThenRepairs(t *testing.T) {
	r := newRig(8)
	ino := r.fs.SetupCreate("f", fill('F'))
	r.faulted(1, fault.DiskConfig{TransientRate: 1, MaxRetries: 2, RetryBackoff: 200_000})
	var end uint64
	r.sim.Spawn("reader", func(p *frontend.Proc) {
		got := make([]byte, dev.BlockSize)
		if _, err := r.fs.ReadAt(p, ino, 0, dev.BlockSize, got, 0); err == nil {
			t.Error("a read whose every attempt failed succeeded")
		}
		if r.fs.Unrecoverable != 1 || r.fs.Retries != 2 {
			t.Errorf("Unrecoverable %d, Retries %d after the give-up, want 1 and 2", r.fs.Unrecoverable, r.fs.Retries)
		}
		p.Call(0, func() any { r.disk.SetInjector(nil); return nil })
		if n, err := r.fs.ReadAt(p, ino, 0, dev.BlockSize, got, 0); err != nil || n != dev.BlockSize {
			t.Errorf("repairing read: n=%d err=%v", n, err)
		}
		if !bytes.Equal(got, fill('F')) {
			t.Errorf("repaired read returned %.8q...", got)
		}
		end = uint64(p.Now())
	})
	r.sim.Run()
	if end != readGiveUpEnd || r.disk.Reads != 4 {
		t.Errorf("ended at cycle %d after %d disk reads, want %d after 4", end, r.disk.Reads, readGiveUpEnd)
	}
}

// A flush whose retries all fail is logged and dropped: the block keeps its
// old bytes and the buffer is clean, so no later sync wedges on it.
func TestFlushGivesUp(t *testing.T) {
	r := newRig(8)
	ino := r.fs.SetupCreate("f", fill('O'))
	r.faulted(1, fault.DiskConfig{TransientRate: 1, MaxRetries: 1, RetryBackoff: 200_000})
	var end uint64
	r.sim.Spawn("writer", func(p *frontend.Proc) {
		if _, err := r.fs.WriteAt(p, ino, 0, 0, fill('N'), 0); err != nil {
			t.Error(err)
		}
		r.fs.SyncAll(p)
		end = uint64(p.Now())
	})
	r.sim.Run()
	if r.fs.Unrecoverable != 1 || r.fs.Retries != 1 {
		t.Errorf("Unrecoverable %d, Retries %d, want 1 and 1", r.fs.Unrecoverable, r.fs.Retries)
	}
	if _, dirty := r.fs.CacheOccupancy(); dirty != 0 {
		t.Errorf("%d dirty buffers after the flush gave up", dirty)
	}
	if !bytes.Equal(r.block(ino.Blocks[0]), fill('O')) {
		t.Error("the failed flush changed the block")
	}
	if end != flushGiveUpEnd || r.disk.Writes != 2 {
		t.Errorf("ended at cycle %d after %d disk writes, want %d after 2", end, r.disk.Writes, flushGiveUpEnd)
	}
}

// A bad block on a read is remapped once, and the reread finds the bytes the
// drive salvaged onto the spare.
func TestBadBlockReadRemapsWithItsBytes(t *testing.T) {
	r := newRig(8)
	ino := r.fs.SetupCreate("f", fill('S'))
	b := ino.Blocks[0]
	r.faulted(badSeed(0.5, []int{b}, []int{b + 1}), fault.DiskConfig{BadBlockRate: 0.5, MaxRetries: 2, RetryBackoff: 200_000})
	var end uint64
	got := make([]byte, dev.BlockSize)
	r.sim.Spawn("reader", func(p *frontend.Proc) {
		if _, err := r.fs.ReadAt(p, ino, 0, dev.BlockSize, got, 0); err != nil {
			t.Error(err)
		}
		end = uint64(p.Now())
	})
	r.sim.Run()
	if r.fs.Remaps != 1 || r.fs.remap[b] != b+1 || r.fs.Retries != 0 {
		t.Errorf("Remaps %d (block %d → %d), Retries %d, want one remap to %d", r.fs.Remaps, b, r.fs.remap[b], r.fs.Retries, b+1)
	}
	if !bytes.Equal(got, fill('S')) || !bytes.Equal(r.block(b+1), fill('S')) {
		t.Errorf("read %.8q... through the remap, spare holds %.8q...", got, r.block(b+1))
	}
	if end != badReadEnd || r.disk.Reads != 2 {
		t.Errorf("ended at cycle %d after %d disk reads, want %d after 2", end, r.disk.Reads, badReadEnd)
	}
}

// A bad block on a write is remapped, and the bytes land on the spare.
func TestBadBlockWriteLandsOnTheSpare(t *testing.T) {
	r := newRig(8)
	ino := r.fs.SetupCreate("f", fill('O'))
	b := ino.Blocks[0]
	r.faulted(badSeed(0.5, []int{b}, []int{b + 1}), fault.DiskConfig{BadBlockRate: 0.5, MaxRetries: 2, RetryBackoff: 200_000})
	var end uint64
	r.sim.Spawn("writer", func(p *frontend.Proc) {
		if _, err := r.fs.WriteAt(p, ino, 0, 0, fill('N'), 0); err != nil {
			t.Error(err)
		}
		r.fs.SyncAll(p)
		end = uint64(p.Now())
	})
	r.sim.Run()
	if r.fs.Remaps != 1 || r.fs.remap[b] != b+1 || r.fs.Unrecoverable != 0 {
		t.Errorf("Remaps %d (block %d → %d), Unrecoverable %d, want one remap to %d", r.fs.Remaps, b, r.fs.remap[b], r.fs.Unrecoverable, b+1)
	}
	if !bytes.Equal(r.block(b+1), fill('N')) || !bytes.Equal(r.block(b), fill('O')) {
		t.Errorf("spare holds %.8q..., bad block %.8q...", r.block(b+1), r.block(b))
	}
	if _, dirty := r.fs.CacheOccupancy(); dirty != 0 {
		t.Errorf("%d dirty buffers after the flush", dirty)
	}
	if end != badWriteEnd || r.disk.Writes != 2 {
		t.Errorf("ended at cycle %d after %d disk writes, want %d after 2", end, r.disk.Writes, badWriteEnd)
	}
}

// A read-ahead does not retry: one that fails leaves its buffer failed, and
// the demand read that reaches it claims it and reads it with recovery.
// Here the read of block 0 starts a read-ahead of block 1, which is bad.
func TestFailedReadAheadIsRepairedOnDemand(t *testing.T) {
	r := newRig(8)
	ino := r.fs.SetupCreate("f", append(fill('A'), fill('B')...))
	b0, b1 := ino.Blocks[0], ino.Blocks[1]
	r.faulted(badSeed(0.5, []int{b1}, []int{b0, b1 + 1}), fault.DiskConfig{BadBlockRate: 0.5, MaxRetries: 2, RetryBackoff: 200_000})
	var end uint64
	got := make([]byte, dev.BlockSize)
	r.sim.Spawn("scan", func(p *frontend.Proc) {
		if _, err := r.fs.ReadAt(p, ino, 0, 1, got[:1], 0); err != nil {
			t.Error(err)
		}
		p.ComputeCycles(1_000_000) // the read-ahead of block 1 has failed
		r.fs.lock.Lock(p)
		ahead := r.fs.cache[b1]
		r.fs.lock.Unlock(p)
		if ahead == nil || ahead.loading || !ahead.failed {
			t.Error("the read-ahead of block 1 did not fail")
		}
		if _, err := r.fs.ReadAt(p, ino, dev.BlockSize, dev.BlockSize, got, 0); err != nil {
			t.Error(err)
		}
		end = uint64(p.Now())
	})
	r.sim.Run()
	if !bytes.Equal(got, fill('B')) {
		t.Errorf("block 1 read as %.8q...", got)
	}
	if r.fs.Prefetches != 1 || r.fs.Remaps != 1 || r.fs.Unrecoverable != 0 {
		t.Errorf("Prefetches %d, Remaps %d, Unrecoverable %d, want 1, 1, 0", r.fs.Prefetches, r.fs.Remaps, r.fs.Unrecoverable)
	}
	if end != readAheadRepairEnd || r.disk.Reads != 4 {
		t.Errorf("ended at cycle %d after %d disk reads, want %d after 4", end, r.disk.Reads, readAheadRepairEnd)
	}
}

// Fault-free I/O takes the fs lock only for the work it does (DESIGN.md
// §8.1): a demand-read miss, its read-ahead and a flush cost 28 simulated
// RMWs without recovery, and with recovery on and no fault drawn exactly one
// more fs-lock round trip (two RMWs) per I/O, for the remap lookup.
func TestRemapLookupOnlyWithRecovery(t *testing.T) {
	run := func(rec bool) (rmws, end uint64) {
		r := newRig(8)
		ino := r.fs.SetupCreate("f", append(fill('A'), fill('B')...))
		if rec {
			r.faulted(1, fault.DiskConfig{MaxRetries: 2, RetryBackoff: 200_000})
		}
		r.sim.Spawn("p", func(p *frontend.Proc) {
			if _, err := r.fs.ReadAt(p, ino, 0, 1, make([]byte, 1), 0); err != nil {
				t.Error(err)
			}
			if _, err := r.fs.WriteAt(p, ino, 0, 0, []byte("w"), 0); err != nil {
				t.Error(err)
			}
			r.fs.SyncAll(p)
			end = uint64(p.Now())
		})
		r.sim.Run()
		if r.disk.Reads != 2 || r.disk.Writes != 1 || !bytes.Equal(r.block(ino.Blocks[0])[:2], []byte("wA")) {
			t.Errorf("recovery %v: %d disk reads, %d writes, block 0 %.2q, want 2, 1, \"wA\"", rec, r.disk.Reads, r.disk.Writes, r.block(ino.Blocks[0]))
		}
		return r.sim.Counters().Get("sync.rmw"), end
	}
	rmws, end := run(false)
	rmwsRec, endRec := run(true)
	if rmws != 28 || rmwsRec != 28+3*2 {
		t.Errorf("sync.rmw %d without recovery, %d with, want 28 and 34", rmws, rmwsRec)
	}
	if end != lockTrafficEnd || endRec != lockTrafficRecEnd {
		t.Errorf("ended at cycles %d and %d, want %d and %d", end, endRec, lockTrafficEnd, lockTrafficRecEnd)
	}
}

// The end cycles the tests above pin.
const (
	readGiveUpEnd      = 3_972_112
	flushGiveUpEnd     = 1_887_346
	badReadEnd         = 1_688_954
	badWriteEnd        = 1_688_800
	readAheadRepairEnd = 3_531_451
	lockTrafficEnd     = 2_525_144
	lockTrafficRecEnd  = 2_525_196
)
