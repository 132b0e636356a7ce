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

// Phys returns the backing physical memory.
func (s *Space) Phys() *Physical { return s.phys }

// MappedPages returns the number of pages with a PTE.
func (s *Space) MappedPages() int { return s.mapped }

// Lookup returns the PTE for the page containing va, or nil.
func (s *Space) Lookup(va VirtAddr) *PTE { return s.pte(va.VPN()) }

// Map installs a PTE for vpn. Mapping over an existing entry panics: the
// kernel must unmap first.
func (s *Space) Map(vpn uint32, pte PTE) {
	cell := s.slot(vpn)
	if *cell != nil {
		panic(fmt.Sprintf("mem: double map of vpn 0x%x", vpn))
	}
	p := pte
	*cell = &p
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
	for i := uint32(0); i < n; i++ {
		f, err := s.phys.AllocFrame()
		if err != nil {
			// Roll back already-mapped pages of this request.
			for j := uint32(0); j < i; j++ {
				s.Unmap(base.VPN() + j)
			}
			return 0, err
		}
		s.Map(base.VPN()+i, PTE{Frame: f, Present: true, Prot: ProtRead | ProtWrite, FileID: -1})
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
	for i := uint32(0); i < n; i++ {
		s.Map(va.VPN()+i, PTE{
			Present: false,
			Prot:    prot,
			FileID:  fileID,
			FileOff: fileOff + int64(i)*PageSize,
		})
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

// ReadBytes copies simulated memory at va into dst, faulting on any
// untranslatable page. Used by the kernel for copyin.
func (s *Space) ReadBytes(va VirtAddr, dst []byte) *Fault {
	for len(dst) > 0 {
		pa, fault := s.Translate(va, false)
		if fault != nil {
			return fault
		}
		chunk := PageSize - int(va.Offset())
		if chunk > len(dst) {
			chunk = len(dst)
		}
		s.phys.ReadBytes(pa, dst[:chunk])
		dst = dst[chunk:]
		va += VirtAddr(chunk)
	}
	return nil
}

// WriteBytes copies src into simulated memory at va (copyout).
func (s *Space) WriteBytes(va VirtAddr, src []byte) *Fault {
	for len(src) > 0 {
		pa, fault := s.Translate(va, true)
		if fault != nil {
			return fault
		}
		chunk := PageSize - int(va.Offset())
		if chunk > len(src) {
			chunk = len(src)
		}
		s.phys.WriteBytes(pa, src[:chunk])
		src = src[chunk:]
		va += VirtAddr(chunk)
	}
	return nil
}
