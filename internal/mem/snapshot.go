package mem

import (
	"fmt"
	"sort"
)

// FrameSnap is one allocated physical frame: its number, home node, and
// backing bytes (nil when the frame was never functionally written — the
// lazy-allocation distinction is preserved across restore).
type FrameSnap struct {
	PFN  uint64
	Home int
	Data []byte
}

// PhysSnapshot is the serializable state of physical memory. Frames are
// in PFN order, for byte-deterministic encoding.
type PhysSnapshot struct {
	NextFrame   uint64
	FreeList    []uint64
	PlaceCursor uint64
	BlockRun    uint64
	Allocated   uint64
	Frames      []FrameSnap
}

// Snapshot captures the allocator cursors and every allocated frame.
func (p *Physical) Snapshot() PhysSnapshot {
	s := PhysSnapshot{
		NextFrame:   p.nextFrame,
		FreeList:    append([]uint64(nil), p.freeList...),
		PlaceCursor: p.placeCursor,
		BlockRun:    p.blockRun,
		Allocated:   p.allocated,
	}
	for pfn := range p.frames {
		fr := &p.frames[pfn]
		if !fr.used {
			continue
		}
		fs := FrameSnap{PFN: uint64(pfn), Home: fr.home}
		if fr.data != nil {
			fs.Data = append([]byte(nil), fr.data[:]...)
		}
		s.Frames = append(s.Frames, fs)
	}
	return s
}

// Restore overwrites the physical memory's state. Geometry (total frames,
// nodes, policy) comes from construction and must match the saved machine.
func (p *Physical) Restore(s PhysSnapshot) error {
	for _, fs := range s.Frames {
		if fs.PFN >= p.totalFrames {
			return fmt.Errorf("mem: snapshot frame %d beyond %d total frames", fs.PFN, p.totalFrames)
		}
		if fs.PFN >= s.NextFrame {
			return fmt.Errorf("mem: snapshot frame %d beyond the allocator's high-water mark %d", fs.PFN, s.NextFrame)
		}
	}
	p.nextFrame = s.NextFrame
	p.freeList = append([]uint64(nil), s.FreeList...)
	p.placeCursor = s.PlaceCursor
	p.blockRun = s.BlockRun
	p.allocated = s.Allocated
	p.frames = make([]frame, s.NextFrame)
	for _, fs := range s.Frames {
		fr := &p.frames[fs.PFN]
		*fr = frame{home: fs.Home, used: true}
		if fs.Data != nil {
			fr.data = new([PageSize]byte)
			copy(fr.data[:], fs.Data)
		}
	}
	return nil
}

// PTESnap is one page-table entry keyed by virtual page number.
type PTESnap struct {
	VPN uint32
	PTE PTE
}

// SpaceSnapshot is the serializable state of an address space, in VPN order.
type SpaceSnapshot struct {
	Brk     uint32
	MmapPtr uint32
	PTEs    []PTESnap
}

// Snapshot captures the space's break, mmap cursor, and page table.
func (s *Space) Snapshot() SpaceSnapshot {
	sn := SpaceSnapshot{Brk: uint32(s.brk), MmapPtr: uint32(s.mmapPtr)}
	if s.mapped > 0 {
		sn.PTEs = make([]PTESnap, 0, s.mapped)
	}
	for i, leaf := range s.pt {
		if leaf == nil {
			continue
		}
		for j, pte := range leaf {
			if pte != nil {
				sn.PTEs = append(sn.PTEs, PTESnap{VPN: uint32(i<<ptLeafBits | j), PTE: *pte})
			}
		}
	}
	return sn
}

// Restore overwrites the space's state, replacing the entire page table.
// The entries are copied, in VPN order, into blocks as a region's are.
func (s *Space) Restore(sn SpaceSnapshot) {
	s.brk = VirtAddr(sn.Brk)
	s.mmapPtr = VirtAddr(sn.MmapPtr)
	s.pt = nil
	for done := 0; done < len(sn.PTEs); {
		blk := newBlock(uint32(len(sn.PTEs) - done))
		for i := range blk {
			e := &sn.PTEs[done+i]
			blk[i] = e.PTE
			*s.slot(e.VPN) = &blk[i]
		}
		done += len(blk)
	}
	s.mapped = len(sn.PTEs)
}

// SegmentSnap is one shared-memory segment, including its attach count:
// checkpoints are taken after processes exit, but exited database agents
// never shmdt, so live reference counts are part of the state.
type SegmentSnap struct {
	ID     int
	Key    int
	Size   uint32
	Frames []uint64
	Refs   int
}

// ShmSnapshot is the serializable state of the shm registry, ID-sorted.
type ShmSnapshot struct {
	NextID   int
	Segments []SegmentSnap
}

// Snapshot captures every segment descriptor.
func (r *ShmRegistry) Snapshot() ShmSnapshot {
	sn := ShmSnapshot{NextID: r.nextID}
	//det:ordered sn.Segments is sorted by ID below
	for _, seg := range r.byID {
		sn.Segments = append(sn.Segments, SegmentSnap{
			ID: seg.ID, Key: seg.Key, Size: seg.Size,
			Frames: append([]uint64(nil), seg.Frames...), Refs: seg.refs,
		})
	}
	sort.Slice(sn.Segments, func(i, j int) bool { return sn.Segments[i].ID < sn.Segments[j].ID })
	return sn
}

// Restore overwrites the registry. Segment frames must already be restored
// in physical memory (Physical.Restore runs first).
func (r *ShmRegistry) Restore(sn ShmSnapshot) {
	r.nextID = sn.NextID
	r.byKey = make(map[int]*Segment, len(sn.Segments))
	r.byID = make(map[int]*Segment, len(sn.Segments))
	for _, s := range sn.Segments {
		seg := &Segment{
			ID: s.ID, Key: s.Key, Size: s.Size,
			Frames: append([]uint64(nil), s.Frames...), refs: s.Refs,
		}
		r.byKey[seg.Key] = seg
		r.byID[seg.ID] = seg
	}
}
