package mem

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"
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
	if p.allocated != 3 {
		t.Errorf("Allocated = %d, want 3", p.allocated)
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
	if s.mapped != 3 {
		t.Errorf("mapped %d pages, want 3", s.mapped)
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
	s.install(0x100, &PTE{Frame: f, Present: true, Prot: ProtRead, FileID: -1})
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
	s.install(5, &PTE{Frame: f, Present: true, Prot: ProtRead, FileID: -1})
	defer func() {
		if recover() == nil {
			t.Fatal("double map did not panic")
		}
	}()
	s.install(5, &PTE{Frame: f, Present: true, Prot: ProtRead, FileID: -1})
}

func TestShmSharingAcrossSpaces(t *testing.T) {
	p := NewPhysical(64, 2, PlaceRoundRobin)
	reg := NewShmRegistry(p)
	seg, err := reg.Get(0x1234, 2*PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.Frames) != 2 {
		t.Fatalf("segment pages = %d", len(seg.Frames))
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
	if seg.refs != 2 {
		t.Errorf("refs = %d, want 2", seg.refs)
	}
	// A write through space 1 must be visible through space 2.
	pa1, fault := s1.Translate(a1+123, true)
	if fault != nil {
		t.Fatal(fault)
	}
	p.WriteUint(pa1, 8, 0x5348415245440a)
	pa2, fault := s2.Translate(a2+123, false)
	if fault != nil {
		t.Fatal(fault)
	}
	if got := p.ReadUint(pa2, 8); got != 0x5348415245440a {
		t.Errorf("got %#x through second space", got)
	}

	if err := reg.Detach(s1, a1); err != nil {
		t.Fatal(err)
	}
	if err := reg.Detach(s2, a2); err != nil {
		t.Fatal(err)
	}
	if seg.refs != 0 {
		t.Errorf("refs = %d after both detaches, want 0", seg.refs)
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
				pa, fault := s.Translate(base+VirtAddr(off), true)
				if fault != nil {
					return false
				}
				p.WriteUint(pa, 1, uint64(v))
				shadow[off] = v
			} else {
				pa, fault := s.Translate(base+VirtAddr(off), false)
				if fault != nil {
					return false
				}
				if want, ok := shadow[off]; ok && byte(p.ReadUint(pa, 1)) != want {
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
		sp.install(vpn, &PTE{Frame: f, Present: true, Prot: ProtRead, FileID: i})
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
	if sp.mapped != len(vpns)-1 {
		t.Errorf("%d pages mapped, want %d", sp.mapped, len(vpns)-1)
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

// A region's entries come in blocks whose bytes are each exactly a size
// class of the Go allocator, below 32 KB, so taking a region in blocks costs
// no more bytes than a heap object a page did; a region of 1000 pages is
// three blocks (568 + 384 + 48).
func TestRegionEntriesComeInBlocks(t *testing.T) {
	for i, k := range blockSizes {
		if i > 0 && k >= blockSizes[i-1] || k == 0 {
			t.Fatalf("block sizes %v are not strictly decreasing to 1", blockSizes)
		}
		size := uint64(unsafe.Sizeof(PTE{})) * uint64(k)
		if size > 32<<10 {
			t.Errorf("a block of %d entries is %d bytes, past the 32 KB small-object limit", k, size)
		}
		// The allocator counts the bytes of the size class an object takes.
		got := ^uint64(0)
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			blockSink = newBlock(k)
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		if got != size {
			t.Errorf("a block of %d entries takes %d bytes of the heap, not its %d", k, got, size)
		}
	}
	if last := blockSizes[len(blockSizes)-1]; last != 1 {
		t.Errorf("the smallest block holds %d entries: a region of one page does not fit", last)
	}

	s := NewSpace(NewPhysical(8, 1, PlaceRoundRobin))
	base, err := s.ReserveRegion(1000 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		s.MapFile(base, 1000*PageSize, 3, 0, ProtRead)
		s.UnmapRegion(base, 1000*PageSize)
	}
	cycle() // the leaves
	// Three blocks, and the slice of entries UnmapRegion returns.
	if got := testing.AllocsPerRun(10, cycle); got != 4 {
		t.Errorf("mapping and unmapping 1000 pages made %v objects, want 4", got)
	}
}

var blockSink []PTE

// A failed Sbrk maps nothing and frees the frames it took in page order,
// across blocks, as it did when every page was its own object.
func TestSbrkRollsBackAcrossBlocks(t *testing.T) {
	p := NewPhysical(1000, 1, PlaceRoundRobin)
	s := NewSpace(p)
	if _, err := s.Sbrk(200 * PageSize); err != nil {
		t.Fatal(err)
	}
	brk, err := s.Sbrk(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sbrk(900 * PageSize); err == nil {
		t.Fatal("Sbrk past the end of physical memory succeeded")
	}
	if s.mapped != 200 || p.allocated != 200 {
		t.Errorf("after a failed Sbrk: %d pages mapped, %d frames allocated, want 200 and 200", s.mapped, p.allocated)
	}
	if now, _ := s.Sbrk(0); now != brk {
		t.Errorf("a failed Sbrk moved the break from %#x to %#x", uint32(brk), uint32(now))
	}
	for i := uint32(0); i < 900; i++ {
		if s.Lookup(brk+VirtAddr(i*PageSize)) != nil {
			t.Fatalf("page %d of the failed Sbrk is mapped", i)
		}
	}
	free := p.Snapshot().FreeList
	if len(free) != 800 {
		t.Fatalf("%d frames on the free list, want the 800 the failed Sbrk took", len(free))
	}
	for i, f := range free {
		if f != uint64(200+i) {
			t.Fatalf("free list entry %d is frame %d, want %d: not freed in page order", i, f, 200+i)
		}
	}
	if _, err := s.Sbrk(800 * PageSize); err != nil {
		t.Errorf("the rolled-back frames do not map again: %v", err)
	}
}

// Unmapping a region, or part of one, leaves its pages free to map again;
// the entries still mapped in the same block keep their values.
func TestUnmapRegionThenRemap(t *testing.T) {
	p := NewPhysical(8, 1, PlaceRoundRobin)
	s := NewSpace(p)
	base, err := s.ReserveRegion(1000 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	s.MapFile(base, 1000*PageSize, 1, 0, ProtRead)
	if removed := s.UnmapRegion(base, 1000*PageSize); len(removed) != 1000 || removed[999].FileOff != 999*PageSize {
		t.Fatalf("UnmapRegion returned %d entries", len(removed))
	}
	s.MapFile(base, 1000*PageSize, 2, 0, ProtRead|ProtWrite)
	if s.mapped != 1000 {
		t.Fatalf("%d pages mapped after the re-map, want 1000", s.mapped)
	}
	// Take pages 600..799 out of the middle, across the first block's end,
	// and map them again from another file.
	mid := base + 600*PageSize
	removed := s.UnmapRegion(mid, 200*PageSize)
	if len(removed) != 200 || removed[0].FileID != 2 || removed[0].FileOff != 600*PageSize {
		t.Fatalf("partial unmap returned %d entries, first %+v", len(removed), removed[0])
	}
	s.MapFile(mid, 200*PageSize, 3, 0, ProtRead)
	for i, want := range map[uint32]PTE{
		0:   {Prot: ProtRead | ProtWrite, FileID: 2},
		599: {Prot: ProtRead | ProtWrite, FileID: 2, FileOff: 599 * PageSize},
		600: {Prot: ProtRead, FileID: 3},
		799: {Prot: ProtRead, FileID: 3, FileOff: 199 * PageSize},
		800: {Prot: ProtRead | ProtWrite, FileID: 2, FileOff: 800 * PageSize},
		999: {Prot: ProtRead | ProtWrite, FileID: 2, FileOff: 999 * PageSize},
	} {
		if got := s.Lookup(base + VirtAddr(i*PageSize)); got == nil || *got != want {
			t.Errorf("page %d: %+v, want %+v", i, got, want)
		}
	}
	if s.mapped != 1000 {
		t.Errorf("%d pages mapped, want 1000", s.mapped)
	}
}

// A space with regions of several blocks each snapshots, restores and
// snapshots again to the same entries, and the restored entries are the
// space's own: writing through them leaves the snapshot as it was.
func TestSpaceSnapshotRestoreSnapshot(t *testing.T) {
	p := NewPhysical(4096, 2, PlaceRoundRobin)
	s := NewSpace(p)
	heap, err := s.Sbrk(1500 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	file, err := s.ReserveRegion(700 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	s.MapFile(file, 700*PageSize, 4, 8192, ProtRead)
	shm := NewShmRegistry(p)
	seg, err := shm.Get(9, 800*PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shm.Attach(s, seg.ID); err != nil {
		t.Fatal(err)
	}
	s.Translate(heap+PageSize, true) // one dirty page
	s.UnmapRegion(heap+690*PageSize, 20*PageSize)

	sn := s.Snapshot()
	if len(sn.PTEs) != 1500-20+700+800 {
		t.Fatalf("snapshot has %d entries", len(sn.PTEs))
	}
	r := NewSpace(p)
	r.Restore(sn)
	again := r.Snapshot()
	if !reflect.DeepEqual(again, sn) {
		t.Fatal("a restored space snapshots to other entries than it was restored from")
	}
	r.Translate(heap+2*PageSize, true)
	r.Lookup(file).Prot = ProtNone
	if !reflect.DeepEqual(sn, s.Snapshot()) {
		t.Error("writing through a restored space changed the snapshot it was restored from")
	}
	if reflect.DeepEqual(r.Snapshot(), sn) {
		t.Error("writes through the restored space did not reach its entries")
	}
}
