// Package fs is the category-1 filesystem service: the OS functions where
// the paper's database workloads spend their kernel time — kreadv,
// kwritev, open, close, statx, lseek, fsync, and the mmap/munmap/msync
// family (§3, Table 1) — implemented over a write-back buffer cache and
// the simulated disk.
//
// Kernel code here runs on application goroutines in kernel mode (the
// paper's paired OS threads): shared structures are guarded by a simulated
// fs spinlock, buffer I/O flags are owned by backend context, and every
// data movement is charged through instrumented kernel-space touches, so
// file I/O pollutes the caches and memory system of the simulated target.
package fs

import (
	"fmt"
	"sync/atomic"

	"compass/internal/dev"
	"compass/internal/event"
	"compass/internal/fault"
	"compass/internal/frontend"
	"compass/internal/kernel"
	"compass/internal/mem"
	"compass/internal/simsync"
)

// Config sizes the filesystem.
type Config struct {
	// CacheBlocks is the buffer cache capacity in 4 KB blocks.
	CacheBlocks int
	// CopyCyclesPerByte approximates the bcopy cost beyond the memory
	// traffic itself.
	CopyCyclesPerByte float64
	// ReadAhead enables one-block sequential prefetch: when a read misses
	// on block k of a file and block k+1 is uncached, the next block's
	// media read is started asynchronously so a sequential scan overlaps
	// computation with rotation.
	ReadAhead bool
}

// DefaultConfig gives a 64-block (256 KB) cache with read-ahead on.
func DefaultConfig() Config {
	return Config{CacheBlocks: 64, CopyCyclesPerByte: 0.25, ReadAhead: true}
}

// Inode describes one file.
type Inode struct {
	ID     int
	Name   string
	Size   int64
	Blocks []int // absolute disk block numbers, one per 4 KB page
	kva    mem.VirtAddr
}

type buffer struct {
	f     *FS
	block int
	slot  int // index in FS.bufs
	data  []byte
	kva   mem.VirtAddr
	// holds counts who still holds the buffer: getblk's caller from getblk
	// until its last touch of data, and a read-ahead until its completion. An
	// evicted buffer nobody holds goes back to the fs free list whole; one
	// still held is left to its holders and then to the GC. Frontend and
	// backend both change it, so it is atomic.
	holds atomic.Int32
	// Frontend-owned (under the fs lock):
	dirty      bool
	version    uint64
	kernelBusy bool
	lruSeq     uint64
	// Backend-owned:
	loading bool
	failed  bool // media read gave up; repaired on the next demand access
	ioWait  kernel.WaitQueue
	waker   int // the process a read or write completion wakes
	// op is the I/O ioFn starts and phys the block it goes to, set by the
	// process that owns the buffer's I/O (its loader, read-ahead or flusher)
	// before its call; status is the outcome the completion leaves. out is a
	// flush's snapshot on its way to the disk; a write that goes through
	// leaves in it the array the block had before, nil if it had none.
	op     ioOp
	phys   int
	status fault.DiskStatus
	out    []byte
	// waitFn is waitIO's backend body, ioFn the I/O's and doneFn its disk
	// completion, bound to the buffer when it is made.
	waitFn, ioFn func() any
	doneFn       func(done event.Cycle, st fault.DiskStatus)
}

// ioOp is the I/O a buffer's ioFn starts.
type ioOp uint8

const (
	opRead      ioOp = iota // demand read: the loader waits
	opReadAhead             // read-ahead: nobody waits, the completion drops its hold
	opWrite                 // flush of out: the flusher waits
)

// newBuffer returns a buffer for block over the kernel buffer at kva, from
// the free list when it has one, its array cleared. loading is set before
// the buffer is published in the cache: another process may hit it and
// reach waitIO before the loader's read is processed, and must not read an
// unfilled buffer. Caller holds the fs lock, or runs before the simulation.
func (f *FS) newBuffer(block int, kva mem.VirtAddr, loading bool) *buffer {
	var buf *buffer
	if n := len(f.free); n > 0 {
		buf, f.free = f.free[n-1], f.free[:n-1]
		clear(buf.data)
		buf.dirty, buf.version, buf.kernelBusy, buf.failed = false, 0, false, false
	} else {
		buf = &buffer{f: f, data: make([]byte, dev.BlockSize), ioWait: f.k.MakeWaitQueue()}
		buf.waitFn, buf.ioFn, buf.doneFn = buf.sleepWhileLoading, buf.startIO, buf.ioDone
	}
	buf.block, buf.kva, buf.loading = block, kva, loading
	return buf
}

// release drops a hold taken by getblk or a read-ahead.
func (buf *buffer) release() { buf.holds.Add(-1) }

// FS is the filesystem instance.
type FS struct {
	k    *kernel.Kernel    //ckpt:skip backend wiring, re-created by New
	disk *dev.Disk         //ckpt:skip backend wiring, re-created by New
	cfg  Config            //ckpt:skip rebuilt by New from the machine's Config
	lock *simsync.SpinLock //ckpt:skip lock word lives in simulated memory, restored with the kernel space

	files     map[string]*Inode
	inodes    []*Inode
	nextBlock int

	// cache finds a buffer by its block and bufs lists the same buffers, at
	// most cfg.CacheBlocks of them, in no order that matters: what the
	// victim scan walks.
	cache    map[int]*buffer
	bufs     []*buffer
	lruSeq   uint64
	freeKVAs []mem.VirtAddr

	// free holds evicted buffers nobody held, and spare the block arrays
	// that writes gave back, for flushes to snapshot into. Both are
	// frontend-owned under the fs lock, like freeKVAs.
	free  []*buffer //ckpt:skip host-side records of evicted buffers, out of the cache and holding no state
	spare [][]byte  //ckpt:skip host-side arrays whose bytes are dead; every taker overwrites them

	// rec, when non-nil, enables media-error recovery: bounded retry with
	// exponential backoff plus bad-block remapping through remap
	// (logical → spare physical block; the cache stays keyed by logical).
	rec   *fault.DiskConfig //ckpt:skip recovery config wiring, re-installed from the machine's Config
	remap map[int]int

	Hits, Misses    uint64
	ReadsB, WritesB uint64
	Prefetches      uint64
	// Graceful-degradation counters (recovery enabled only).
	Retries, Remaps, Unrecoverable uint64
	inodeTableKVA                  mem.VirtAddr //ckpt:skip fixed kernel-layout address assigned at construction
}

// New builds a filesystem over disk (setup context).
func New(k *kernel.Kernel, disk *dev.Disk, cfg Config) *FS {
	f := &FS{
		k: k, disk: disk, cfg: cfg,
		lock:  k.SetupLock(),
		files: make(map[string]*Inode),
		cache: make(map[int]*buffer),
	}
	f.inodeTableKVA = k.SetupAlloc(mem.PageSize)
	return f
}

// EnableFaultRecovery turns on the media-error recovery machinery (setup
// context): retries with exponential backoff, bad-block remapping, and an
// EIO path when a read exhausts its retries. Every I/O takes the same path
// either way; recovery adds only the remap lookup under the fs lock before
// each attempt and the handling of a failed one. Fault-free configurations
// never call this, so they take no lock for a lookup; a disk with a fault
// injector needs it, as nothing else handles a failed I/O.
func (f *FS) EnableFaultRecovery(cfg fault.DiskConfig) {
	f.rec = &cfg
	f.remap = make(map[int]int)
}

// physOf resolves a logical block through the remap table (caller holds
// the fs lock, or runs before/after the simulation).
func (f *FS) physOf(block int) int {
	if f.remap != nil {
		if spare, ok := f.remap[block]; ok {
			return spare
		}
	}
	return block
}

// allocSpare grabs a fresh block for remapping, skipping blocks the
// fault plan has marked permanently bad (caller holds the fs lock).
func (f *FS) allocSpare() int {
	inj := f.disk.Injector()
	for {
		b := f.allocBlock()
		if inj == nil || !inj.Bad(b) {
			return b
		}
	}
}

// --- Setup-time (pre-Run) population ----------------------------------------

// SetupCreate makes a file with the given contents before the simulation
// starts (mkfs / SPECWeb fileset generation / database load).
func (f *FS) SetupCreate(name string, data []byte) *Inode {
	if _, ok := f.files[name]; ok {
		panic(fmt.Sprintf("fs: SetupCreate duplicate %q", name))
	}
	ino := &Inode{ID: len(f.inodes), Name: name, Size: int64(len(data)), kva: f.k.SetupAlloc(128)}
	for off := 0; off < len(data) || (len(data) == 0 && off == 0); off += dev.BlockSize {
		b := f.allocBlock()
		ino.Blocks = append(ino.Blocks, b)
		end := off + dev.BlockSize
		if end > len(data) {
			end = len(data)
		}
		if off < len(data) {
			f.disk.WriteBlock(b, data[off:end])
		}
		if len(data) == 0 {
			break
		}
	}
	f.files[name] = ino
	f.inodes = append(f.inodes, ino)
	return ino
}

func (f *FS) allocBlock() int {
	b := f.nextBlock
	f.nextBlock++
	if b >= f.disk.Capacity() {
		panic("fs: disk full")
	}
	return b
}

// --- Buffer cache -----------------------------------------------------------

// getblk returns the cached buffer for a disk block, reading it from disk
// if needed. needRead=false skips the media read when the whole block will
// be overwritten. Returns with no locks held and a hold on the buffer, which
// the caller releases after its last touch of the data; the buffer data is
// stable until somebody writes it (under the fs lock). With fault recovery
// enabled a read that exhausts its retries surfaces as an error (EIO).
func (f *FS) getblk(p *frontend.Proc, block int, needRead bool) (*buffer, error) {
	for {
		f.lock.Lock(p)
		buf := f.cache[block]
		if buf != nil {
			f.Hits++
			f.lruSeq++
			buf.lruSeq = f.lruSeq
			buf.holds.Add(1)
			p.KTouchRange(buf.kva, 64, false) // buffer header
			f.lock.Unlock(p)
			// If an I/O is still in flight, sleep until it completes.
			f.waitIO(p, buf)
			if f.rec != nil && !f.repairIfFailed(p, buf) {
				buf.release()
				return nil, fmt.Errorf("fs: I/O error reading block %d", block)
			}
			return buf, nil
		}
		f.Misses++
		// Need a free buffer: evict if at capacity.
		if len(f.cache) >= f.cfg.CacheBlocks {
			victim := f.pickVictim()
			if victim == nil {
				// Everything busy: yield so the in-flight I/O owners can
				// run, then retry.
				f.lock.Unlock(p)
				p.ComputeCycles(500)
				p.Yield()
				continue
			}
			if victim.dirty {
				f.flushLocked(p, victim) // unlocks, writes, relocks
				if victim.dirty {
					f.lock.Unlock(p)
					continue // re-dirtied during flush; retry
				}
			}
			f.freeKVAs = append(f.freeKVAs, victim.kva)
			f.evict(victim)
		}
		var kva mem.VirtAddr
		if n := len(f.freeKVAs); n > 0 {
			kva = f.freeKVAs[n-1]
			f.freeKVAs = f.freeKVAs[:n-1]
		} else {
			kva = f.k.KmemAlloc(p, dev.BlockSize)
		}
		buf = f.newBuffer(block, kva, needRead)
		f.lruSeq++
		buf.lruSeq = f.lruSeq
		buf.kernelBusy = needRead
		buf.holds.Add(1)
		f.insert(buf)
		f.lock.Unlock(p)
		if needRead {
			ok := f.io(p, buf, opRead)
			f.lock.Lock(p)
			buf.kernelBusy = false
			f.lock.Unlock(p)
			if !ok {
				buf.release()
				return nil, fmt.Errorf("fs: I/O error reading block %d", block)
			}
		}
		return buf, nil
	}
}

// repairIfFailed handles a buffer whose speculative or earlier read gave
// up: the first process to claim it reruns the media read on the demand
// path. Returns false when the reread also exhausts its retries.
func (f *FS) repairIfFailed(p *frontend.Proc, buf *buffer) bool {
	for {
		claim := p.Call(40, func() any {
			if buf.loading {
				return 2 // somebody else is mid-repair
			}
			if buf.failed {
				buf.failed = false
				buf.loading = true
				return 1 // we own the repair
			}
			return 0 // healthy
		})
		switch claim.(int) {
		case 0:
			return true
		case 1:
			if !f.io(p, buf, opRead) {
				return false
			}
		case 2:
			f.waitIO(p, buf)
		}
	}
}

// pickVictim returns the least-recently-used idle clean-or-dirty buffer
// (caller holds the fs lock), or nil when every buffer is mid-I/O.
func (f *FS) pickVictim() *buffer {
	var victim *buffer
	// The least (lruSeq, block), a total order: the same buffer in whatever
	// order bufs lists them.
	for _, b := range f.bufs {
		if b.kernelBusy {
			continue
		}
		if victim == nil || b.lruSeq < victim.lruSeq ||
			(b.lruSeq == victim.lruSeq && b.block < victim.block) {
			victim = b
		}
	}
	return victim
}

// insert publishes buf in the cache and evict withdraws it (caller holds the
// fs lock). A block can be published twice: getblk releases the lock to
// flush a dirty victim and does not look again afterwards, so another
// process may have loaded the same block meanwhile. The later buffer then
// takes the earlier one's place, in the index as a map assignment always
// did and in the list with it; the earlier one lives on only in the hands
// of whoever holds it (ROADMAP item 5 has the bug). An evicted buffer that
// nobody holds goes to the free list for the next newBuffer; one still held
// stays its holders' until they are done, and is never reused.
func (f *FS) insert(buf *buffer) {
	if old := f.cache[buf.block]; old != nil {
		buf.slot = old.slot
		f.bufs[buf.slot] = buf
	} else {
		buf.slot = len(f.bufs)
		f.bufs = append(f.bufs, buf)
	}
	f.cache[buf.block] = buf
}

func (f *FS) evict(buf *buffer) {
	delete(f.cache, buf.block)
	last := len(f.bufs) - 1
	f.bufs[buf.slot] = f.bufs[last]
	f.bufs[buf.slot].slot = buf.slot
	f.bufs[last] = nil
	f.bufs = f.bufs[:last]
	if buf.holds.Load() == 0 {
		f.free = append(f.free, buf)
	}
}

// flushLocked writes a dirty buffer to disk. Caller holds the fs lock;
// the function releases it around the disk I/O and retakes it. A write
// that exhausts its retries still clears the dirty bit — the OS logs the
// loss (Unrecoverable counter) and drops the buffer rather than wedging
// every future sync on it.
func (f *FS) flushLocked(p *frontend.Proc, buf *buffer) {
	// The snapshot is the flush's own, and becomes the disk block's array
	// when the write goes through (dev.Disk.StoreBlock); a failed attempt
	// stores nothing and the retry sends the same bytes. What is left in out
	// afterwards, the array the block had or the snapshot of a write that gave
	// up, is nobody's and comes back for the next flush.
	var snap []byte
	if n := len(f.spare); n > 0 {
		snap, f.spare = f.spare[n-1], f.spare[:n-1]
	} else {
		snap = make([]byte, dev.BlockSize)
	}
	copy(snap, buf.data)
	v := buf.version
	buf.kernelBusy = true
	buf.out = snap
	f.lock.Unlock(p)
	f.io(p, buf, opWrite)
	f.lock.Lock(p)
	if buf.out != nil {
		f.spare = append(f.spare, buf.out)
		buf.out = nil
	}
	buf.kernelBusy = false
	if buf.version == v {
		buf.dirty = false
	}
}

// waitIO sleeps until the buffer's backend loading flag clears. The check
// and the sleep registration happen in one backend call, so the wakeup
// cannot be lost.
func (f *FS) waitIO(p *frontend.Proc, buf *buffer) {
	for p.Call(40, buf.waitFn).(bool) {
	}
}

// sleepWhileLoading is waitIO's backend body: it puts the caller to sleep on
// the buffer and reports true while the buffer is loading.
func (buf *buffer) sleepWhileLoading() any {
	if buf.loading {
		buf.ioWait.Sleep()
		return true
	}
	return false
}

// startIO is the I/O's backend body: it submits the read, read-ahead or write
// op names to phys, and blocks the caller unless it is a read-ahead.
func (buf *buffer) startIO() any {
	sim := buf.f.k.Sim
	if buf.op == opReadAhead {
		buf.f.disk.Submit(buf.phys, false, dev.BlockSize, buf.doneFn)
		return nil
	}
	buf.waker = sim.CallerID()
	buf.f.disk.Submit(buf.phys, buf.op == opWrite, dev.BlockSize, buf.doneFn)
	sim.BlockCurrent()
	return nil
}

// ioDone is startIO's disk completion (backend context). It leaves the
// outcome in status and acts only on success: a read fills the buffer,
// clears the loading flag and wakes whoever piled up on it; a write gives out
// to the disk and takes back the array the block had. A failed read-ahead is
// not retried: it gives up at once, and the next demand access claims the
// buffer and reruns the read with recovery. The read-ahead drops its hold
// last, after its last touch of the buffer; a loader or flusher is woken.
func (buf *buffer) ioDone(done event.Cycle, st fault.DiskStatus) {
	f := buf.f
	buf.status = st
	if st == fault.DiskOK {
		if buf.op == opWrite {
			buf.out = f.disk.StoreBlock(buf.phys, buf.out)
		} else {
			f.disk.ReadBlock(buf.phys, buf.data)
			buf.loading = false
			buf.ioWait.WakeAllBackend()
		}
	}
	if buf.op != opReadAhead {
		f.k.Sim.Wake(buf.waker, done)
		return
	}
	if st != fault.DiskOK {
		buf.giveUp()
	}
	buf.release()
}

// giveUp marks a read that gave up (backend context): the buffer is failed,
// no longer loading, and whoever waited on it wakes to find it so.
func (buf *buffer) giveUp() any {
	buf.failed = true
	buf.loading = false
	buf.ioWait.WakeAllBackend()
	return nil
}

// io performs buf's demand read or write (op) and blocks the caller until
// the completion interrupt fires. With fault recovery enabled each attempt
// looks the block's remap up under the fs lock, transient errors are retried
// with exponential backoff and bad blocks are remapped to a spare (a read's
// with the salvaged content, a write's without: the data in hand is about to
// be written). io returns false when the retries run out; a read's buffer is
// then marked failed, with loading cleared.
func (f *FS) io(p *frontend.Proc, buf *buffer, op ioOp) bool {
	var backoff event.Cycle
	if f.rec != nil {
		backoff = event.Cycle(f.rec.RetryBackoff)
	}
	for attempt := 0; ; attempt++ {
		f.target(p, buf)
		buf.op = op
		p.Call(150, buf.ioFn)
		if op == opWrite {
			f.WritesB += dev.BlockSize
		} else {
			f.ReadsB += dev.BlockSize
		}
		switch buf.status {
		case fault.DiskOK:
			return true
		case fault.DiskBadBlock:
			// Grown defect: remap to a spare and retry there. On a read the
			// drive's internal recovery salvaged the sector contents into it.
			f.remapBlock(p, buf.block, op == opRead)
		case fault.DiskTransient:
			if attempt >= f.rec.MaxRetries {
				f.Unrecoverable++
				if op == opRead {
					p.Call(40, buf.giveUp)
				}
				return false
			}
			f.Retries++
			// The retry backoff timer: blocked time, not spin. The call
			// takes a copy, which keeps backoff off the heap.
			d := backoff
			p.Call(60, func() any {
				f.k.Sim.SleepCurrent(d, "fs-backoff", false)
				return nil
			})
			backoff *= 2
		}
	}
}

// target sets the block buf's next I/O goes to: its remap, looked up under
// the fs lock, with recovery enabled, and its own block otherwise.
func (f *FS) target(p *frontend.Proc, buf *buffer) {
	if f.rec == nil {
		buf.phys = buf.block
		return
	}
	f.lock.Lock(p)
	buf.phys = f.physOf(buf.block)
	f.lock.Unlock(p)
}

// remapBlock retires a logical block onto a fresh spare (kernel context).
// When copyContent is set the old physical contents are carried over —
// the read path depends on the salvaged bytes; the write path is about to
// overwrite them anyway.
func (f *FS) remapBlock(p *frontend.Proc, logical int, copyContent bool) {
	f.lock.Lock(p)
	old := f.physOf(logical)
	spare := f.allocSpare()
	f.remap[logical] = spare
	f.Remaps++
	// Defect-list bookkeeping: inode-table traffic plus CPU time.
	p.KTouchRange(f.inodeTableKVA, 256, true)
	p.ComputeCycles(2000)
	f.lock.Unlock(p)
	if copyContent {
		// Backend context: the disk's block store is only ever touched by
		// backend closures during the run.
		p.Call(100, func() any {
			tmp := make([]byte, dev.BlockSize)
			f.disk.ReadBlock(old, tmp)
			f.disk.StoreBlock(spare, tmp) // nobody else holds tmp
			return nil
		})
	}
}

// prefetch starts an asynchronous media read for a block if it is not
// already cached or in flight. The caller does not wait; a later getblk
// either hits or piles onto the in-flight read.
func (f *FS) prefetch(p *frontend.Proc, block int) {
	f.lock.Lock(p)
	if _, ok := f.cache[block]; ok || len(f.cache) >= f.cfg.CacheBlocks {
		// Cached already, or the cache is full: skipping beats evicting a
		// hot block for speculation.
		f.lock.Unlock(p)
		return
	}
	var kva mem.VirtAddr
	if n := len(f.freeKVAs); n > 0 {
		kva = f.freeKVAs[n-1]
		f.freeKVAs = f.freeKVAs[:n-1]
	} else {
		kva = f.k.KmemAlloc(p, dev.BlockSize)
	}
	buf := f.newBuffer(block, kva, true)
	f.lruSeq++
	buf.lruSeq = f.lruSeq
	buf.holds.Add(1) // the read-ahead's, dropped by its completion
	f.insert(buf)
	f.lock.Unlock(p)
	f.Prefetches++
	f.target(p, buf)
	buf.op = opReadAhead
	p.Call(80, buf.ioFn)
}

// --- File operations (kernel context) ---------------------------------------

// Lookup resolves a file name (open path). Charges an inode-table touch.
func (f *FS) Lookup(p *frontend.Proc, name string) (*Inode, error) {
	f.lock.Lock(p)
	defer f.lock.Unlock(p)
	p.KTouchRange(f.inodeTableKVA, 128, false)
	p.ComputeCycles(uint64(40 + 4*len(name)))
	ino, ok := f.files[name]
	if !ok {
		return nil, fmt.Errorf("fs: %q: no such file", name)
	}
	return ino, nil
}

// Create makes an empty file at run time.
func (f *FS) Create(p *frontend.Proc, name string) (*Inode, error) {
	f.lock.Lock(p)
	defer f.lock.Unlock(p)
	if _, ok := f.files[name]; ok {
		return nil, fmt.Errorf("fs: %q exists", name)
	}
	p.KTouchRange(f.inodeTableKVA, 128, true)
	ino := &Inode{ID: len(f.inodes), Name: name, kva: f.k.KmemAlloc(p, 128)}
	f.files[name] = ino
	f.inodes = append(f.inodes, ino)
	return ino, nil
}

// InodeByID resolves an inode id (mmap fault path; backend or kernel
// context — the inode slice is append-only).
func (f *FS) InodeByID(id int) *Inode {
	return f.inodes[id]
}

// Stat charges the statx path and returns the file size.
func (f *FS) Stat(p *frontend.Proc, ino *Inode) int64 {
	f.lock.Lock(p)
	defer f.lock.Unlock(p)
	p.KTouchRange(ino.kva, 96, false)
	p.ComputeCycles(60)
	return ino.Size
}

// blockFor returns the disk block holding file offset off, growing the
// file if extend is set. Caller holds the fs lock.
func (f *FS) blockFor(p *frontend.Proc, ino *Inode, off int64, extend bool) (int, error) {
	idx := int(off / dev.BlockSize)
	for idx >= len(ino.Blocks) {
		if !extend {
			return -1, fmt.Errorf("fs: %q: offset %d beyond EOF %d", ino.Name, off, ino.Size)
		}
		ino.Blocks = append(ino.Blocks, f.allocBlock())
		p.KTouchRange(ino.kva, 32, true)
	}
	return ino.Blocks[idx], nil
}

// ReadAt reads n bytes at offset off into dst (dst may be nil when the
// caller only needs the traffic, e.g. the web server streaming a file).
// userVA, when nonzero, charges the copy-out to the user buffer. Returns
// the bytes read.
func (f *FS) ReadAt(p *frontend.Proc, ino *Inode, off int64, n int, dst []byte, userVA mem.VirtAddr) (int, error) {
	f.lock.Lock(p)
	size := ino.Size
	f.lock.Unlock(p)
	if off >= size {
		return 0, nil
	}
	if int64(n) > size-off {
		n = int(size - off)
	}
	read := 0
	for read < n {
		cur := off + int64(read)
		f.lock.Lock(p)
		block, err := f.blockFor(p, ino, cur, false)
		var next = -1
		if f.cfg.ReadAhead {
			if idx := int(cur/dev.BlockSize) + 1; idx < len(ino.Blocks) {
				next = ino.Blocks[idx]
			}
		}
		f.lock.Unlock(p)
		if err != nil {
			return read, err
		}
		buf, err := f.getblk(p, block, true)
		if err != nil {
			return read, err
		}
		if next >= 0 {
			f.prefetch(p, next)
		}
		bo := int(cur % dev.BlockSize)
		chunk := dev.BlockSize - bo
		if chunk > n-read {
			chunk = n - read
		}
		// Host-visible copy under the lock (short); the simulated copy
		// traffic is charged after release so the global fs lock is not
		// held across hundreds of memory events.
		kva := buf.kva
		if dst != nil {
			f.lock.Lock(p)
			copy(dst[read:read+chunk], buf.data[bo:bo+chunk])
			f.lock.Unlock(p)
		}
		buf.release()
		p.KTouchRange(kva+mem.VirtAddr(bo), chunk, false)
		if userVA != 0 {
			p.TouchRange(userVA+mem.VirtAddr(read), chunk, true)
		}
		p.ComputeCycles(uint64(float64(chunk) * f.cfg.CopyCyclesPerByte))
		read += chunk
	}
	return read, nil
}

// WriteAt writes src (or n anonymous bytes when src is nil) at offset off,
// extending the file as needed. Write-back: blocks are dirtied in the
// cache and reach the disk on eviction or fsync.
func (f *FS) WriteAt(p *frontend.Proc, ino *Inode, off int64, n int, src []byte, userVA mem.VirtAddr) (int, error) {
	if src != nil {
		n = len(src)
	}
	written := 0
	for written < n {
		cur := off + int64(written)
		f.lock.Lock(p)
		block, err := f.blockFor(p, ino, cur, true)
		f.lock.Unlock(p)
		if err != nil {
			return written, err
		}
		bo := int(cur % dev.BlockSize)
		chunk := dev.BlockSize - bo
		if chunk > n-written {
			chunk = n - written
		}
		// A full-block overwrite needs no media read.
		buf, err := f.getblk(p, block, !(bo == 0 && chunk == dev.BlockSize))
		if err != nil {
			return written, err
		}
		if userVA != 0 {
			p.TouchRange(userVA+mem.VirtAddr(written), chunk, false)
		}
		p.KTouchRange(buf.kva+mem.VirtAddr(bo), chunk, true)
		p.ComputeCycles(uint64(float64(chunk) * f.cfg.CopyCyclesPerByte))
		f.lock.Lock(p)
		if src != nil {
			copy(buf.data[bo:bo+chunk], src[written:written+chunk])
		}
		buf.dirty = true
		buf.version++
		buf.release()
		if cur+int64(chunk) > ino.Size {
			ino.Size = cur + int64(chunk)
			p.KTouchRange(ino.kva, 32, true)
		}
		f.lock.Unlock(p)
		written += chunk
	}
	return written, nil
}

// Fsync flushes every dirty cached block of the file to disk.
func (f *FS) Fsync(p *frontend.Proc, ino *Inode) {
	for {
		f.lock.Lock(p)
		var target *buffer
		for _, b := range ino.Blocks {
			if buf := f.cache[b]; buf != nil && buf.dirty && !buf.kernelBusy {
				target = buf
				break
			}
		}
		if target == nil {
			f.lock.Unlock(p)
			return
		}
		f.flushLocked(p, target) // unlocks/relocks internally
		f.lock.Unlock(p)
	}
}

// SyncAll flushes every dirty buffer (shutdown, the syncd daemon).
func (f *FS) SyncAll(p *frontend.Proc) {
	for {
		f.lock.Lock(p)
		var target *buffer
		//det:ordered min-compare keyed by block, a total order
		for _, buf := range f.cache {
			if buf.dirty && !buf.kernelBusy && (target == nil || buf.block < target.block) {
				target = buf
			}
		}
		if target == nil {
			f.lock.Unlock(p)
			return
		}
		f.flushLocked(p, target)
		f.lock.Unlock(p)
	}
}

// CacheOccupancy returns cached and dirty block counts (reporting).
func (f *FS) CacheOccupancy() (cached, dirty int) {
	cached = len(f.cache)
	//det:ordered a count commutes
	for _, b := range f.cache {
		if b.dirty {
			dirty++
		}
	}
	return cached, dirty
}
