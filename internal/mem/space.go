package mem

import (
	"errors"
	"fmt"
)

// Protection bits on a page-table entry. Software DSM downgrades these to
// force faults, exactly as a real SVM system drives its protocol through
// mprotect.
type Prot uint8

const (
	// ProtNone forces a fault on any access (DSM invalid state).
	ProtNone Prot = 0
	// ProtRead allows loads.
	ProtRead Prot = 1 << iota
	// ProtWrite allows stores.
	ProtWrite
)

// PTE is a page-table entry in a simulated process's page table.
type PTE struct {
	Frame   uint64
	Present bool // a frame is attached; if false the page is lazy/file-backed
	Prot    Prot
	Shared  bool // part of a shm segment (not copied, not freed with space)
	SegID   int  // owning shm segment when Shared
	// Lazy pages: filled in by the VM manager on first touch.
	FileID  int   // backing file for mmap regions, -1 otherwise
	FileOff int64 // offset of this page within the backing file
	Dirty   bool
}

// FaultKind classifies a translation fault.
type FaultKind int

const (
	// FaultUnmapped means no PTE exists for the page.
	FaultUnmapped FaultKind = iota
	// FaultNotPresent means the PTE exists but no frame is attached
	// (lazy mmap page, or DSM-invalid page).
	FaultNotPresent
	// FaultProt means the access violates the PTE protection
	// (e.g. store to a DSM read-only page).
	FaultProt
)

// Fault describes a failed translation; the VM manager resolves it.
type Fault struct {
	Kind  FaultKind
	Addr  VirtAddr
	Write bool
}

// Error implements error.
func (f *Fault) Error() string {
	kinds := map[FaultKind]string{
		FaultUnmapped: "unmapped", FaultNotPresent: "not-present", FaultProt: "protection",
	}
	rw := "read"
	if f.Write {
		rw = "write"
	}
	return fmt.Sprintf("page fault: %s %s at 0x%08x", kinds[f.Kind], rw, uint32(f.Addr))
}

// ErrOutOfSpace is returned when a 32-bit address space is exhausted.
var ErrOutOfSpace = errors.New("mem: virtual address space exhausted")

// Layout constants for the simulated 32-bit space. The heap grows upward
// from the bottom; mmap/shm regions grow downward from just under the top.
const (
	heapBase VirtAddr = 0x0001_0000 // leave page 0 unmapped to catch nils
	mmapTop  VirtAddr = 0xF000_0000
)

// The page table is a two-level array indexed by VPN: the directory holds
// one leaf per ptLeafSize consecutive pages (4 MB of address space), a leaf
// one PTE pointer per page, nil where nothing is mapped.
const (
	ptLeafBits = 10
	ptLeafSize = 1 << ptLeafBits
)

type ptLeaf [ptLeafSize]*PTE

// blockSizes are the entry counts a region's PTEs are taken in, largest
// first: one heap object a block instead of one a page. Each block's bytes
// (48 an entry) are exactly one of the Go allocator's size classes, so a
// region costs no more bytes than its pages did as separate objects; the
// largest stays below 32 KB, above which an object rounds up to whole
// pages. The leaves point into the blocks, and a block lives while any cell
// points into it, so an entry stays valid for as long as a per-page object
// would.
var blockSizes = [...]uint32{568, 512, 384, 256, 144, 136, 128, 112, 72, 64, 56, 48, 32, 24, 16, 12, 10, 8, 6, 5, 4, 3, 2, 1}

// newBlock returns zeroed storage for the first entries of a region of n
// more pages: as many as the largest block size that fits.
func newBlock(n uint32) []PTE {
	for _, k := range blockSizes {
		if k <= n {
			return make([]PTE, k)
		}
	}
	return nil
}

// Space is one simulated process's virtual address space and page table.
type Space struct {
	phys *Physical //ckpt:skip subsystem wiring; Physical.Restore runs first
	// pt is the page-table directory. It grows to the highest leaf ever
	// mapped, so a process that only has a heap keeps a directory of a few
	// entries and the walk's bounds check is also its "no such leaf" test.
	pt      []*ptLeaf
	brk     VirtAddr
	mmapPtr VirtAddr
	mapped  int
}

// NewSpace creates an empty address space backed by phys.
func NewSpace(phys *Physical) *Space {
	return &Space{
		phys:    phys,
		brk:     heapBase,
		mmapPtr: mmapTop,
	}
}

// pte walks the page table; nil when vpn is unmapped.
func (s *Space) pte(vpn uint32) *PTE {
	if i := int(vpn >> ptLeafBits); i < len(s.pt) {
		if leaf := s.pt[i]; leaf != nil {
			return leaf[vpn&(ptLeafSize-1)]
		}
	}
	return nil
}

// slot returns the page-table cell of vpn, growing the directory and
// allocating the leaf as needed.
func (s *Space) slot(vpn uint32) **PTE {
	i := int(vpn >> ptLeafBits)
	if i >= len(s.pt) {
		s.pt = append(s.pt, make([]*ptLeaf, i+1-len(s.pt))...)
	}
	if s.pt[i] == nil {
		s.pt[i] = new(ptLeaf)
	}
	return &s.pt[i][vpn&(ptLeafSize-1)]
}

// Lookup returns the PTE for the page containing va, or nil.
func (s *Space) Lookup(va VirtAddr) *PTE { return s.pte(va.VPN()) }

// mapBlock installs the entries of blk at consecutive pages from vpn.
func (s *Space) mapBlock(vpn uint32, blk []PTE) {
	for i := range blk {
		s.install(vpn+uint32(i), &blk[i])
	}
}

func (s *Space) install(vpn uint32, p *PTE) {
	cell := s.slot(vpn)
	if *cell != nil {
		panic(fmt.Sprintf("mem: double map of vpn 0x%x", vpn))
	}
	*cell = p
	s.mapped++
}

// Unmap removes the PTE for vpn and returns it; ok is false if none existed.
// Private present frames are freed; shared frames belong to their segment.
func (s *Space) Unmap(vpn uint32) (PTE, bool) {
	pte := s.pte(vpn)
	if pte == nil {
		return PTE{}, false
	}
	*s.slot(vpn) = nil
	s.mapped--
	if pte.Present && !pte.Shared {
		s.phys.FreeFrame(pte.Frame)
	}
	return *pte, true
}

// Translate resolves va to a physical address, enforcing protections.
// On failure it returns a *Fault for the VM manager.
func (s *Space) Translate(va VirtAddr, write bool) (PhysAddr, *Fault) {
	pte := s.pte(va.VPN())
	if pte == nil {
		return 0, &Fault{Kind: FaultUnmapped, Addr: va, Write: write}
	}
	if !pte.Present {
		return 0, &Fault{Kind: FaultNotPresent, Addr: va, Write: write}
	}
	if write {
		if pte.Prot&ProtWrite == 0 {
			return 0, &Fault{Kind: FaultProt, Addr: va, Write: true}
		}
		pte.Dirty = true
	} else if pte.Prot&ProtRead == 0 {
		return 0, &Fault{Kind: FaultProt, Addr: va, Write: false}
	}
	return PhysAddr(pte.Frame)<<PageShift | PhysAddr(va.Offset()), nil
}

func pagesFor(size uint32) uint32 { return (size + PageMask) >> PageShift }

// Sbrk extends the heap by size bytes (rounded up to whole pages), eagerly
// mapping fresh private read-write pages, and returns the base address of
// the new region.
func (s *Space) Sbrk(size uint32) (VirtAddr, error) {
	if size == 0 {
		return s.brk, nil
	}
	n := pagesFor(size)
	base := s.brk
	if VirtAddr(uint64(base)+uint64(n)*PageSize) >= s.mmapPtr || uint64(base)+uint64(n)*PageSize > 0xFFFF_FFFF {
		return 0, ErrOutOfSpace
	}
	vpn := base.VPN()
	for done := uint32(0); done < n; {
		blk := newBlock(n - done)
		for i := range blk {
			f, err := s.phys.AllocFrame()
			if err != nil {
				// Roll back this request, freeing its frames in page order:
				// the mapped blocks, then the one being filled.
				for j := uint32(0); j < done; j++ {
					s.Unmap(vpn + j)
				}
				for _, pte := range blk[:i] {
					s.phys.FreeFrame(pte.Frame)
				}
				return 0, err
			}
			blk[i] = PTE{Frame: f, Present: true, Prot: ProtRead | ProtWrite, FileID: -1}
		}
		s.mapBlock(vpn+done, blk)
		done += uint32(len(blk))
	}
	s.brk += VirtAddr(n * PageSize)
	return base, nil
}

// ReserveRegion carves size bytes out of the mmap area (top-down) without
// installing any PTEs; the caller maps pages into it (shm attach, mmap).
func (s *Space) ReserveRegion(size uint32) (VirtAddr, error) {
	n := pagesFor(size)
	need := VirtAddr(n * PageSize)
	if s.mmapPtr < need || s.mmapPtr-need <= s.brk {
		return 0, ErrOutOfSpace
	}
	s.mmapPtr -= need
	return s.mmapPtr, nil
}

// MapFile installs lazy file-backed PTEs for an mmap region: size bytes of
// file fileID starting at fileOff, at virtual base va (page-aligned).
func (s *Space) MapFile(va VirtAddr, size uint32, fileID int, fileOff int64, prot Prot) {
	n := pagesFor(size)
	for done := uint32(0); done < n; {
		blk := newBlock(n - done)
		for i := range blk {
			blk[i] = PTE{Prot: prot, FileID: fileID, FileOff: fileOff + int64(done+uint32(i))*PageSize}
		}
		s.mapBlock(va.VPN()+done, blk)
		done += uint32(len(blk))
	}
}

// UnmapRegion removes n pages starting at va and returns the removed PTEs
// (for msync-style writeback decisions by the kernel).
func (s *Space) UnmapRegion(va VirtAddr, size uint32) []PTE {
	n := pagesFor(size)
	out := make([]PTE, 0, n)
	for i := uint32(0); i < n; i++ {
		if pte, ok := s.Unmap(va.VPN() + i); ok {
			out = append(out, pte)
		}
	}
	return out
}
