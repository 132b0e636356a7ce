package mem

import "fmt"

// Segment is a System-V-style shared memory segment: a run of physical
// frames that multiple simulated processes attach into their private
// address spaces. This is the paper's "common shared memory descriptor ...
// common to all processes" created on shmget (§3.3.1).
type Segment struct {
	ID     int
	Key    int
	Size   uint32
	Frames []uint64
	refs   int
}

// ShmRegistry is the backend's table of shared memory descriptors, keyed
// by the shmget key. It is owned by the backend VM manager.
type ShmRegistry struct {
	phys   *Physical //ckpt:skip subsystem wiring; Physical.Restore runs first
	byKey  map[int]*Segment
	byID   map[int]*Segment
	nextID int
}

// NewShmRegistry creates an empty registry allocating from phys.
func NewShmRegistry(phys *Physical) *ShmRegistry {
	return &ShmRegistry{
		phys:  phys,
		byKey: make(map[int]*Segment),
		byID:  make(map[int]*Segment),
	}
}

// Get implements shmget: it returns the segment with the given key,
// creating it with the given size if absent and create is set.
func (r *ShmRegistry) Get(key int, size uint32, create bool) (*Segment, error) {
	if seg, ok := r.byKey[key]; ok {
		if create && seg.Size < size {
			return nil, fmt.Errorf("shmget: key %d exists with smaller size %d < %d", key, seg.Size, size)
		}
		return seg, nil
	}
	if !create {
		return nil, fmt.Errorf("shmget: no segment with key %d", key)
	}
	n := pagesFor(size)
	seg := &Segment{ID: r.nextID, Key: key, Size: size, Frames: make([]uint64, 0, n)}
	r.nextID++
	for i := uint32(0); i < n; i++ {
		f, err := r.phys.AllocFrame()
		if err != nil {
			for _, fr := range seg.Frames {
				r.phys.FreeFrame(fr)
			}
			return nil, err
		}
		seg.Frames = append(seg.Frames, f)
	}
	r.byKey[key] = seg
	r.byID[seg.ID] = seg
	return seg, nil
}

// Attach implements shmat: it reserves a region in space and maps every
// segment frame into it read-write, returning the attach address.
func (r *ShmRegistry) Attach(space *Space, id int) (VirtAddr, error) {
	seg, ok := r.byID[id]
	if !ok {
		return 0, fmt.Errorf("shmat: no segment %d", id)
	}
	base, err := space.ReserveRegion(seg.Size)
	if err != nil {
		return 0, err
	}
	for done := 0; done < len(seg.Frames); {
		blk := newBlock(uint32(len(seg.Frames) - done))
		for i := range blk {
			blk[i] = PTE{
				Frame: seg.Frames[done+i], Present: true, Prot: ProtRead | ProtWrite,
				Shared: true, SegID: seg.ID, FileID: -1,
			}
		}
		space.mapBlock(base.VPN()+uint32(done), blk)
		done += len(blk)
	}
	seg.refs++
	return base, nil
}

// Detach implements shmdt: it unmaps the segment mapped at base from space.
func (r *ShmRegistry) Detach(space *Space, base VirtAddr) error {
	pte := space.Lookup(base)
	if pte == nil || !pte.Shared {
		return fmt.Errorf("shmdt: 0x%08x is not an attached segment", uint32(base))
	}
	seg, ok := r.byID[pte.SegID]
	if !ok {
		return fmt.Errorf("shmdt: stale segment id %d", pte.SegID)
	}
	for i := range seg.Frames {
		space.Unmap(base.VPN() + uint32(i))
	}
	seg.refs--
	return nil
}
