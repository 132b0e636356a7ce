package fs

import (
	"fmt"
	"sort"

	"compass/internal/mem"
)

// InodeSnap is one file's metadata, including the kernel address of its
// instrumented inode record.
type InodeSnap struct {
	ID     int
	Name   string
	Size   int64
	Blocks []int
	KVA    uint32
}

// BufferSnap is one buffer-cache entry. Only frontend-owned fields appear:
// at a quiescent checkpoint no I/O is in flight, so loading/kernelBusy are
// false and the wait queue is empty.
type BufferSnap struct {
	Block   int
	Data    []byte
	KVA     uint32
	Dirty   bool
	Version uint64
	LRUSeq  uint64
	// Failed marks a buffer whose speculative read never completed (fault
	// injection); its data is not valid until the recovery path re-reads
	// it. Losing the flag across a restore would serve the stale bytes.
	Failed bool
}

// Snapshot is the filesystem's serializable state. Inodes are ID-ordered
// (their creation order) and buffers block-sorted for deterministic
// encoding.
type Snapshot struct {
	Inodes    []InodeSnap
	NextBlock int
	Buffers   []BufferSnap
	LRUSeq    uint64
	FreeKVAs  []uint32

	Hits, Misses    uint64
	ReadsB, WritesB uint64
	Prefetches      uint64

	// Fault-recovery state (zero/nil when recovery is disabled).
	Remap                          map[int]int
	Retries, Remaps, Unrecoverable uint64
}

// Snapshot captures the namespace, buffer cache, and counters. It returns
// an error if any buffer still has I/O in flight (not quiescent).
func (f *FS) Snapshot() (Snapshot, error) {
	s := Snapshot{
		NextBlock:  f.nextBlock,
		LRUSeq:     f.lruSeq,
		Hits:       f.Hits,
		Misses:     f.Misses,
		ReadsB:     f.ReadsB,
		WritesB:    f.WritesB,
		Prefetches: f.Prefetches,

		Retries:       f.Retries,
		Remaps:        f.Remaps,
		Unrecoverable: f.Unrecoverable,
	}
	if f.remap != nil {
		s.Remap = make(map[int]int, len(f.remap))
		//det:ordered a map-to-map copy writes each key once
		for k, v := range f.remap {
			s.Remap[k] = v
		}
	}
	for _, ino := range f.inodes {
		s.Inodes = append(s.Inodes, InodeSnap{
			ID: ino.ID, Name: ino.Name, Size: ino.Size,
			Blocks: append([]int(nil), ino.Blocks...), KVA: uint32(ino.kva),
		})
	}
	for _, kva := range f.freeKVAs {
		s.FreeKVAs = append(s.FreeKVAs, uint32(kva))
	}
	//det:ordered s.Buffers is sorted by Block below
	for block, buf := range f.cache {
		if buf.loading || buf.kernelBusy {
			return Snapshot{}, fmt.Errorf("fs: buffer for block %d has I/O in flight", block)
		}
		s.Buffers = append(s.Buffers, BufferSnap{
			Block: buf.block, Data: append([]byte(nil), buf.data...), KVA: uint32(buf.kva),
			Dirty: buf.dirty, Version: buf.version, LRUSeq: buf.lruSeq,
			Failed: buf.failed,
		})
	}
	sort.Slice(s.Buffers, func(i, j int) bool { return s.Buffers[i].Block < s.Buffers[j].Block })
	return s, nil
}

// Restore overwrites the filesystem's state. Fresh wait queues are created
// for every buffer; they were empty at save time.
func (f *FS) Restore(s Snapshot) error {
	f.files = make(map[string]*Inode, len(s.Inodes))
	f.inodes = f.inodes[:0]
	for i, is := range s.Inodes {
		if is.ID != i {
			return fmt.Errorf("fs: snapshot inode %q has ID %d at position %d", is.Name, is.ID, i)
		}
		ino := &Inode{
			ID: is.ID, Name: is.Name, Size: is.Size,
			Blocks: append([]int(nil), is.Blocks...), kva: mem.VirtAddr(is.KVA),
		}
		f.files[ino.Name] = ino
		f.inodes = append(f.inodes, ino)
	}
	f.nextBlock = s.NextBlock
	f.lruSeq = s.LRUSeq
	f.freeKVAs = f.freeKVAs[:0]
	for _, kva := range s.FreeKVAs {
		f.freeKVAs = append(f.freeKVAs, mem.VirtAddr(kva))
	}
	f.cache = make(map[int]*buffer, len(s.Buffers))
	f.bufs = f.bufs[:0]
	for _, bs := range s.Buffers {
		buf := f.newBuffer(bs.Block, mem.VirtAddr(bs.KVA), false)
		copy(buf.data, bs.Data)
		buf.dirty, buf.version, buf.lruSeq = bs.Dirty, bs.Version, bs.LRUSeq
		buf.failed = bs.Failed
		f.insert(buf)
	}
	f.Hits = s.Hits
	f.Misses = s.Misses
	f.ReadsB = s.ReadsB
	f.WritesB = s.WritesB
	f.Prefetches = s.Prefetches
	f.Retries = s.Retries
	f.Remaps = s.Remaps
	f.Unrecoverable = s.Unrecoverable
	if s.Remap != nil {
		if f.remap == nil {
			f.remap = make(map[int]int, len(s.Remap))
		}
		//det:ordered a map-to-map copy writes each key once
		for k, v := range s.Remap {
			f.remap[k] = v
		}
	}
	return nil
}
