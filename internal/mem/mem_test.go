package mem

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFrameAllocFree(t *testing.T) {
	p := NewPhysical(4, 1, PlaceRoundRobin)
	var frames []uint64
	for i := 0; i < 4; i++ {
		f, err := p.AllocFrame()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		frames = append(frames, f)
	}
	if _, err := p.AllocFrame(); err == nil {
		t.Fatal("allocation beyond capacity succeeded")
	}
	p.FreeFrame(frames[2])
	if p.Allocated() != 3 {
		t.Errorf("Allocated = %d, want 3", p.Allocated())
	}
	f, err := p.AllocFrame()
	if err != nil {
		t.Fatalf("re-alloc after free: %v", err)
	}
	if f != frames[2] {
		t.Errorf("free list not reused: got %d, want %d", f, frames[2])
	}
}

func TestFreeUnallocatedPanics(t *testing.T) {
	p := NewPhysical(4, 1, PlaceRoundRobin)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad free")
		}
	}()
	p.FreeFrame(99)
}

func TestRoundRobinPlacement(t *testing.T) {
	p := NewPhysical(16, 4, PlaceRoundRobin)
	for i := 0; i < 8; i++ {
		f, _ := p.AllocFrame()
		if got := p.Home(f); got != i%4 {
			t.Errorf("frame %d home = %d, want %d", f, got, i%4)
		}
	}
}

func TestBlockPlacement(t *testing.T) {
	p := NewPhysical(8, 2, PlaceBlock) // blockSize = 4
	homes := make([]int, 8)
	for i := 0; i < 8; i++ {
		f, _ := p.AllocFrame()
		homes[i] = p.Home(f)
	}
	want := []int{0, 0, 0, 0, 1, 1, 1, 1}
	for i := range want {
		if homes[i] != want[i] {
			t.Fatalf("block homes = %v, want %v", homes, want)
		}
	}
}

func TestFirstTouchPlacement(t *testing.T) {
	p := NewPhysical(8, 4, PlaceFirstTouch)
	f, _ := p.AllocFrame()
	if p.Home(f) != HomeUnassigned {
		t.Fatal("first-touch frame has home before touch")
	}
	if got := p.Touch(f, 2); got != 2 {
		t.Errorf("Touch = %d, want 2", got)
	}
	// Second touch from a different node must not move the page.
	if got := p.Touch(f, 3); got != 2 {
		t.Errorf("second Touch moved home to %d", got)
	}
	p.SetHome(f, 1)
	if p.Home(f) != 1 {
		t.Error("SetHome (migration) did not move page")
	}
}

func TestPhysReadWriteAcrossFrames(t *testing.T) {
	p := NewPhysical(4, 1, PlaceRoundRobin)
	f0, _ := p.AllocFrame()
	f1, _ := p.AllocFrame()
	if f1 != f0+1 {
		t.Fatalf("frames not contiguous: %d %d", f0, f1)
	}
	src := make([]byte, 100)
	for i := range src {
		src[i] = byte(i)
	}
	base := PhysAddr(f0)<<PageShift + PageSize - 50 // straddles boundary
	p.WriteBytes(base, src)
	dst := make([]byte, 100)
	p.ReadBytes(base, dst)
	if !bytes.Equal(src, dst) {
		t.Error("read-back mismatch across frame boundary")
	}
}

func TestPhysUintBigEndian(t *testing.T) {
	p := NewPhysical(1, 1, PlaceRoundRobin)
	f, _ := p.AllocFrame()
	pa := PhysAddr(f) << PageShift
	p.WriteUint(pa, 4, 0x01020304)
	var buf [4]byte
	p.ReadBytes(pa, buf[:])
	if buf != [4]byte{1, 2, 3, 4} {
		t.Errorf("big-endian layout: %v", buf)
	}
	for _, size := range []int{1, 2, 4, 8} {
		v := uint64(0xDEADBEEFCAFEF00D) & (1<<(8*size) - 1)
		p.WriteUint(pa+64, size, v)
		if got := p.ReadUint(pa+64, size); got != v {
			t.Errorf("size %d: got %#x, want %#x", size, got, v)
		}
	}
}

// A word is read and written in place when it lies within a frame and
// through a buffer when it straddles two: the same bytes either way, at every
// offset around a frame boundary and for every size.
func TestPhysUintAroundFrameBoundary(t *testing.T) {
	p := NewPhysical(2, 1, PlaceRoundRobin)
	f0, _ := p.AllocFrame()
	f1, _ := p.AllocFrame()
	if f1 != f0+1 {
		t.Fatalf("frames %d and %d are not adjacent", f0, f1)
	}
	boundary := PhysAddr(f1) << PageShift
	for _, size := range []int{1, 2, 4, 8} {
		for back := 0; back <= size+1; back++ {
			pa := boundary - PhysAddr(back)
			v := uint64(0x1122334455667788) >> (8 * (8 - size)) // the top size bytes
			p.WriteUint(pa, size, v)
			if got := p.ReadUint(pa, size); got != v {
				t.Errorf("size %d, %d bytes before the boundary: read %#x, wrote %#x", size, back, got, v)
			}
			raw := make([]byte, size)
			p.ReadBytes(pa, raw)
			if want := []byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88}[:size]; !bytes.Equal(raw, want) {
				t.Errorf("size %d, %d bytes before the boundary: bytes %x, want %x", size, back, raw, want)
			}
		}
	}
}

func TestSbrkAndTranslate(t *testing.T) {
	p := NewPhysical(64, 1, PlaceRoundRobin)
	s := NewSpace(p)
	base, err := s.Sbrk(2*PageSize + 1) // 3 pages
	if err != nil {
		t.Fatal(err)
	}
	if s.MappedPages() != 3 {
		t.Errorf("mapped %d pages, want 3", s.MappedPages())
	}
	pa, fault := s.Translate(base+5000, true)
	if fault != nil {
		t.Fatalf("translate: %v", fault)
	}
	p.WriteUint(pa, 4, 42)
	pa2, _ := s.Translate(base+5000, false)
	if p.ReadUint(pa2, 4) != 42 {
		t.Error("value lost through translation")
	}
	// Address 0 must fault (nil guard page).
	if _, fault := s.Translate(0, false); fault == nil || fault.Kind != FaultUnmapped {
		t.Error("page 0 did not fault")
	}
}

func TestTranslateProtection(t *testing.T) {
	p := NewPhysical(8, 1, PlaceRoundRobin)
	s := NewSpace(p)
	f, _ := p.AllocFrame()
	s.Map(0x100, PTE{Frame: f, Present: true, Prot: ProtRead, FileID: -1})
	va := VirtAddr(0x100 << PageShift)
	if _, fault := s.Translate(va, false); fault != nil {
		t.Errorf("read faulted: %v", fault)
	}
	_, fault := s.Translate(va, true)
	if fault == nil || fault.Kind != FaultProt || !fault.Write {
		t.Errorf("write to read-only page: fault=%v", fault)
	}
	if fault.Error() == "" {
		t.Error("empty fault message")
	}
}

func TestDirtyTracking(t *testing.T) {
	p := NewPhysical(8, 1, PlaceRoundRobin)
	s := NewSpace(p)
	base, _ := s.Sbrk(PageSize)
	pte := s.Lookup(base)
	if pte.Dirty {
		t.Fatal("fresh page dirty")
	}
	s.Translate(base, false)
	if pte.Dirty {
		t.Fatal("read dirtied page")
	}
	s.Translate(base, true)
	if !pte.Dirty {
		t.Fatal("write did not dirty page")
	}
}

func TestMapFileLazyFault(t *testing.T) {
	p := NewPhysical(8, 1, PlaceRoundRobin)
	s := NewSpace(p)
	base, err := s.ReserveRegion(3 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	s.MapFile(base, 3*PageSize, 7, 8192, ProtRead|ProtWrite)
	_, fault := s.Translate(base+PageSize, false)
	if fault == nil || fault.Kind != FaultNotPresent {
		t.Fatalf("lazy page fault = %v", fault)
	}
	pte := s.Lookup(base + PageSize)
	if pte.FileID != 7 || pte.FileOff != 8192+PageSize {
		t.Errorf("file backing: id=%d off=%d", pte.FileID, pte.FileOff)
	}
	// VM manager resolves the fault:
	f, _ := p.AllocFrame()
	pte.Frame, pte.Present = f, true
	if _, fault := s.Translate(base+PageSize, false); fault != nil {
		t.Errorf("still faulting after resolve: %v", fault)
	}
	removed := s.UnmapRegion(base, 3*PageSize)
	if len(removed) != 3 {
		t.Errorf("UnmapRegion removed %d, want 3", len(removed))
	}
}

func TestDoubleMapPanics(t *testing.T) {
	p := NewPhysical(8, 1, PlaceRoundRobin)
	s := NewSpace(p)
	f, _ := p.AllocFrame()
	s.Map(5, PTE{Frame: f, Present: true, Prot: ProtRead, FileID: -1})
	defer func() {
		if recover() == nil {
			t.Fatal("double map did not panic")
		}
	}()
	s.Map(5, PTE{Frame: f, Present: true, Prot: ProtRead, FileID: -1})
}

func TestSpaceReadWriteBytes(t *testing.T) {
	p := NewPhysical(64, 1, PlaceRoundRobin)
	s := NewSpace(p)
	base, _ := s.Sbrk(3 * PageSize)
	msg := bytes.Repeat([]byte("compass!"), 700) // 5600 bytes, crosses pages
	if fault := s.WriteBytes(base+100, msg); fault != nil {
		t.Fatal(fault)
	}
	got := make([]byte, len(msg))
	if fault := s.ReadBytes(base+100, got); fault != nil {
		t.Fatal(fault)
	}
	if !bytes.Equal(msg, got) {
		t.Error("cross-page read-back mismatch")
	}
	if fault := s.WriteBytes(0xE000_0000, []byte{1}); fault == nil {
		t.Error("write to unmapped region did not fault")
	}
}

func TestShmSharingAcrossSpaces(t *testing.T) {
	p := NewPhysical(64, 2, PlaceRoundRobin)
	reg := NewShmRegistry(p)
	seg, err := reg.Get(0x1234, 2*PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Pages() != 2 {
		t.Fatalf("segment pages = %d", seg.Pages())
	}
	// shmget with same key returns same segment.
	seg2, err := reg.Get(0x1234, PageSize, true)
	if err != nil || seg2.ID != seg.ID {
		t.Fatalf("re-get: %v %v", seg2, err)
	}
	if _, err := reg.Get(0x9999, 0, false); err == nil {
		t.Error("get of missing key without create succeeded")
	}

	s1, s2 := NewSpace(p), NewSpace(p)
	a1, err := reg.Attach(s1, seg.ID)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := reg.Attach(s2, seg.ID)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Refs() != 2 {
		t.Errorf("refs = %d, want 2", seg.Refs())
	}
	// A write through space 1 must be visible through space 2.
	if fault := s1.WriteBytes(a1+123, []byte("shared state")); fault != nil {
		t.Fatal(fault)
	}
	got := make([]byte, 12)
	if fault := s2.ReadBytes(a2+123, got); fault != nil {
		t.Fatal(fault)
	}
	if string(got) != "shared state" {
		t.Errorf("got %q through second space", got)
	}

	if err := reg.Detach(s1, a1); err != nil {
		t.Fatal(err)
	}
	if err := reg.Remove(seg.ID); err == nil {
		t.Error("Remove succeeded while still attached")
	}
	if err := reg.Detach(s2, a2); err != nil {
		t.Fatal(err)
	}
	allocBefore := p.Allocated()
	if err := reg.Remove(seg.ID); err != nil {
		t.Fatal(err)
	}
	if p.Allocated() != allocBefore-2 {
		t.Error("segment frames not freed")
	}
}

func TestDetachBogusAddress(t *testing.T) {
	p := NewPhysical(8, 1, PlaceRoundRobin)
	reg := NewShmRegistry(p)
	s := NewSpace(p)
	if err := reg.Detach(s, 0x5000); err == nil {
		t.Error("detach of non-segment succeeded")
	}
}

// Property: round-robin placement distributes frames across nodes evenly
// (difference of at most 1 between any two nodes).
func TestQuickRoundRobinBalance(t *testing.T) {
	f := func(nAlloc uint8, nodes uint8) bool {
		nn := int(nodes%7) + 1
		p := NewPhysical(260, nn, PlaceRoundRobin)
		counts := make([]int, nn)
		for i := 0; i < int(nAlloc); i++ {
			fr, err := p.AllocFrame()
			if err != nil {
				return false
			}
			counts[p.Home(fr)]++
		}
		min, max := 1<<30, 0
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: any sequence of writes at random virtual offsets reads back the
// most recent value (read-your-writes through translation).
func TestQuickReadYourWrites(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewPhysical(64, 2, PlaceRoundRobin)
		s := NewSpace(p)
		base, err := s.Sbrk(8 * PageSize)
		if err != nil {
			return false
		}
		shadow := make(map[uint32]byte)
		for i := 0; i < 200; i++ {
			off := uint32(rng.Intn(8 * PageSize))
			if rng.Intn(2) == 0 {
				v := byte(rng.Intn(256))
				if fault := s.WriteBytes(base+VirtAddr(off), []byte{v}); fault != nil {
					return false
				}
				shadow[off] = v
			} else {
				var got [1]byte
				if fault := s.ReadBytes(base+VirtAddr(off), got[:]); fault != nil {
					return false
				}
				if want, ok := shadow[off]; ok && got[0] != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Sbrk never hands out overlapping regions and translation of every
// byte in every region succeeds.
func TestQuickSbrkDisjoint(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) > 8 {
			sizes = sizes[:8]
		}
		p := NewPhysical(1024, 1, PlaceRoundRobin)
		s := NewSpace(p)
		type region struct {
			base VirtAddr
			size uint32
		}
		var regions []region
		for _, sz := range sizes {
			size := uint32(sz%8192) + 1
			base, err := s.Sbrk(size)
			if err != nil {
				return false
			}
			regions = append(regions, region{base, size})
		}
		for i, r := range regions {
			for j, q := range regions {
				if i != j && uint64(r.base) < uint64(q.base)+uint64(q.size) && uint64(q.base) < uint64(r.base)+uint64(r.size) {
					return false
				}
			}
			if _, fault := s.Translate(r.base+VirtAddr(r.size-1), true); fault != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPlacementString(t *testing.T) {
	for p, want := range map[Placement]string{
		PlaceRoundRobin: "round-robin", PlaceBlock: "block", PlaceFirstTouch: "first-touch",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
}

// The page table is a two-level array and the frame table a slice, both
// walked in index order: snapshots list PTEs by VPN and frames by PFN with
// no sort, across leaves, gaps, unmapped pages and freed frames, and a
// restored space and memory snapshot to the same values.
func TestSnapshotsAreIndexOrdered(t *testing.T) {
	phys := NewPhysical(64, 2, PlaceRoundRobin)
	sp := NewSpace(phys)
	// Scattered over four leaves, mapped out of order, one at the very top.
	vpns := []uint32{0xF0000, 0x10, 0x7FF, 0x400, 0xFFFFF, 0x11, 0x3FF, 0xEFFFF}
	for i, vpn := range vpns {
		f, err := phys.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		sp.Map(vpn, PTE{Frame: f, Present: true, Prot: ProtRead, FileID: i})
	}
	if _, ok := sp.Unmap(0x7FF); !ok { // frees frame 2
		t.Fatal("unmap of a mapped page failed")
	}
	if _, ok := sp.Unmap(0x7FE); ok {
		t.Error("unmap of an unmapped page in a mapped leaf succeeded")
	}
	if _, ok := sp.Unmap(0x80000); ok {
		t.Error("unmap of a page with no leaf succeeded")
	}
	if sp.Lookup(0x80000<<PageShift) != nil || sp.Lookup(0x7FF<<PageShift) != nil {
		t.Error("lookup of an unmapped page found a PTE")
	}
	if sp.MappedPages() != len(vpns)-1 {
		t.Errorf("%d pages mapped, want %d", sp.MappedPages(), len(vpns)-1)
	}
	phys.WriteUint(PhysAddr(5)<<PageShift, 4, 0xFEEDFACE)

	ss := sp.Snapshot()
	var got []uint32
	for _, e := range ss.PTEs {
		got = append(got, e.VPN)
	}
	if want := []uint32{0x10, 0x11, 0x3FF, 0x400, 0xEFFFF, 0xF0000, 0xFFFFF}; !reflect.DeepEqual(got, want) {
		t.Errorf("PTEs snapshot in order %#x, want %#x", got, want)
	}
	ps := phys.Snapshot()
	var pfns []uint64
	for _, f := range ps.Frames {
		pfns = append(pfns, f.PFN)
	}
	if want := []uint64{0, 1, 3, 4, 5, 6, 7}; !reflect.DeepEqual(pfns, want) {
		t.Errorf("frames snapshot in order %v, want %v", pfns, want)
	}

	phys2 := NewPhysical(64, 2, PlaceRoundRobin)
	if err := phys2.Restore(ps); err != nil {
		t.Fatal(err)
	}
	sp2 := NewSpace(phys2)
	sp2.Restore(ss)
	if !reflect.DeepEqual(sp2.Snapshot(), ss) || !reflect.DeepEqual(phys2.Snapshot(), ps) {
		t.Error("restored space and memory do not snapshot to what they were restored from")
	}
	if phys2.Home(2) != HomeUnassigned || phys2.Home(3) != phys.Home(3) {
		t.Errorf("restored homes: freed frame 2 %d, frame 3 %d (want %d)", phys2.Home(2), phys2.Home(3), phys.Home(3))
	}
	if f, err := phys2.AllocFrame(); err != nil || f != 2 {
		t.Errorf("restored allocator handed out frame %d (%v), want the freed frame 2", f, err)
	}
	if got := phys2.ReadUint(PhysAddr(5)<<PageShift, 4); got != 0xFEEDFACE {
		t.Errorf("restored frame 5 reads %#x", got)
	}
	bad := ps
	bad.Frames = append([]FrameSnap(nil), ps.Frames...)
	bad.Frames[0].PFN = ps.NextFrame
	if err := NewPhysical(64, 2, PlaceRoundRobin).Restore(bad); err == nil {
		t.Error("a frame beyond the allocator's high-water mark restored")
	}
}
