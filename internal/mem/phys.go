// Package mem implements the simulated memory substrate: physical frames
// with real backing bytes, per-process page tables and 32-bit virtual
// address spaces, System-V-style shared-memory segments, and the home-node
// placement policies from the paper's virtual-memory model (§3.3.1):
// round-robin, block, and first-touch.
//
// Backing bytes are keyed by *physical* frame, so processes that attach the
// same shm segment genuinely share data — the execution-driven workloads
// (database buffer pool, kernel buffer cache) depend on that.
package mem

import (
	"encoding/binary"
	"fmt"
)

const (
	// PageShift is log2 of the page size.
	PageShift = 12
	// PageSize is the simulated page size in bytes (4 KB, as on AIX/PowerPC).
	PageSize = 1 << PageShift
	// PageMask extracts the offset within a page.
	PageMask = PageSize - 1
)

// PhysAddr is a simulated physical byte address.
type PhysAddr uint64

// Frame returns the physical frame number containing the address.
func (p PhysAddr) Frame() uint64 { return uint64(p) >> PageShift }

// Offset returns the byte offset within the frame.
func (p PhysAddr) Offset() uint64 { return uint64(p) & PageMask }

// VirtAddr is a simulated 32-bit virtual address. The paper stresses that
// each simulated process gets a full private 32-bit space (unlike MINT,
// where all processes squeeze into one).
type VirtAddr uint32

// VPN returns the virtual page number.
func (v VirtAddr) VPN() uint32 { return uint32(v) >> PageShift }

// Offset returns the byte offset within the page.
func (v VirtAddr) Offset() uint32 { return uint32(v) & PageMask }

// Placement selects how physical pages are assigned home nodes.
type Placement int

const (
	// PlaceRoundRobin assigns homes cyclically at allocation time.
	PlaceRoundRobin Placement = iota
	// PlaceBlock assigns homes in contiguous runs at allocation time, so
	// consecutive allocations land on the same node until its share fills.
	PlaceBlock
	// PlaceFirstTouch defers assignment until the first reference; the
	// referencing CPU's node becomes the home.
	PlaceFirstTouch
)

// String names the policy.
func (p Placement) String() string {
	switch p {
	case PlaceRoundRobin:
		return "round-robin"
	case PlaceBlock:
		return "block"
	case PlaceFirstTouch:
		return "first-touch"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// HomeUnassigned marks a frame whose home node is not yet decided
// (first-touch placement before the first reference).
const HomeUnassigned = -1

type frame struct {
	data *[PageSize]byte
	home int
	used bool // allocated; a freed or never-allocated cell is the zero frame
}

// Physical models the machine's physical memory: a frame allocator, the
// per-frame backing bytes, and the frame→home-node map the paper keeps
// "in a separate structure in the backend ... hashed by physical address".
type Physical struct {
	totalFrames uint64
	nextFrame   uint64
	freeList    []uint64
	frames      []frame   // indexed by PFN: PFNs are dense from 0, len == nextFrame
	nodes       int       //ckpt:skip geometry from config; Restore requires identical geometry
	policy      Placement //ckpt:skip placement policy from config
	placeCursor uint64    // round-robin / block cursor
	blockRun    uint64    // frames placed on current node in block mode
	blockSize   uint64    //ckpt:skip geometry from config
	allocated   uint64
}

// NewPhysical creates a physical memory of totalFrames frames distributed
// over nodes NUMA nodes under the given placement policy.
func NewPhysical(totalFrames uint64, nodes int, policy Placement) *Physical {
	if nodes < 1 {
		nodes = 1
	}
	blockSize := totalFrames / uint64(nodes)
	if blockSize == 0 {
		blockSize = 1
	}
	return &Physical{
		totalFrames: totalFrames,
		nodes:       nodes,
		policy:      policy,
		blockSize:   blockSize,
	}
}

// AllocFrame allocates a zeroed physical frame and assigns its home node
// per the placement policy (or defers it for first-touch).
func (p *Physical) AllocFrame() (uint64, error) {
	var f uint64
	switch {
	case len(p.freeList) > 0:
		f = p.freeList[len(p.freeList)-1]
		p.freeList = p.freeList[:len(p.freeList)-1]
	case p.nextFrame < p.totalFrames:
		f = p.nextFrame
		p.nextFrame++
		p.frames = append(p.frames, frame{})
	default:
		return 0, fmt.Errorf("mem: out of physical memory (%d frames)", p.totalFrames)
	}
	fr := &p.frames[f]
	*fr = frame{home: HomeUnassigned, used: true}
	switch p.policy {
	case PlaceRoundRobin:
		fr.home = int(p.placeCursor % uint64(p.nodes))
		p.placeCursor++
	case PlaceBlock:
		fr.home = int(p.placeCursor)
		p.blockRun++
		if p.blockRun >= p.blockSize {
			p.blockRun = 0
			p.placeCursor = (p.placeCursor + 1) % uint64(p.nodes)
		}
	case PlaceFirstTouch:
		// stays HomeUnassigned until Touch.
	}
	p.allocated++
	return f, nil
}

// FreeFrame returns a frame to the allocator. Freeing an unallocated frame
// is a simulator bug and panics.
func (p *Physical) FreeFrame(f uint64) {
	if p.frame(f) == nil {
		panic(fmt.Sprintf("mem: free of unallocated frame %d", f))
	}
	p.frames[f] = frame{}
	p.freeList = append(p.freeList, f)
	p.allocated--
}

// frame returns the cell of allocated frame f, or nil.
func (p *Physical) frame(f uint64) *frame {
	if f < uint64(len(p.frames)) && p.frames[f].used {
		return &p.frames[f]
	}
	return nil
}

// Home returns the home node of frame f, or HomeUnassigned.
func (p *Physical) Home(f uint64) int {
	fr := p.frame(f)
	if fr == nil {
		return HomeUnassigned
	}
	return fr.home
}

// Touch records a reference to frame f from node. Under first-touch
// placement the first such reference fixes the home node. It returns the
// frame's (possibly just-assigned) home.
func (p *Physical) Touch(f uint64, node int) int {
	fr := p.frame(f)
	if fr == nil {
		return HomeUnassigned
	}
	if fr.home == HomeUnassigned {
		fr.home = node % p.nodes
	}
	return fr.home
}

// SetHome forcibly reassigns the home of frame f (page migration).
func (p *Physical) SetHome(f uint64, node int) {
	if fr := p.frame(f); fr != nil {
		fr.home = node % p.nodes
	}
}

func (p *Physical) data(f uint64) *[PageSize]byte {
	fr := p.frame(f)
	if fr == nil {
		panic(fmt.Sprintf("mem: access to unallocated frame %d", f))
	}
	if fr.data == nil {
		fr.data = new([PageSize]byte)
	}
	return fr.data
}

// ReadBytes copies n bytes starting at physical address pa into dst,
// crossing frame boundaries as needed.
func (p *Physical) ReadBytes(pa PhysAddr, dst []byte) {
	for len(dst) > 0 {
		d := p.data(pa.Frame())
		off := pa.Offset()
		n := copy(dst, d[off:])
		dst = dst[n:]
		pa += PhysAddr(n)
	}
}

// WriteBytes copies src into physical memory starting at pa.
func (p *Physical) WriteBytes(pa PhysAddr, src []byte) {
	for len(src) > 0 {
		d := p.data(pa.Frame())
		off := pa.Offset()
		n := copy(d[off:], src)
		src = src[n:]
		pa += PhysAddr(n)
	}
}

// word returns the size bytes at pa in place when they lie within one frame
// (every aligned word does: a latch, a counter), and nil when they straddle
// two.
func (p *Physical) word(pa PhysAddr, size int) []byte {
	off := pa.Offset()
	if off+uint64(size) > PageSize {
		return nil
	}
	return p.data(pa.Frame())[off : off+uint64(size)]
}

// ReadUint reads a size-byte big-endian unsigned integer at pa
// (size 1, 2, 4, or 8 — PowerPC is big-endian).
func (p *Physical) ReadUint(pa PhysAddr, size int) uint64 {
	var buf [8]byte
	b := p.word(pa, size)
	if b == nil {
		b = buf[:size]
		p.ReadBytes(pa, b)
	}
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.BigEndian.Uint16(b))
	case 4:
		return uint64(binary.BigEndian.Uint32(b))
	case 8:
		return binary.BigEndian.Uint64(b)
	default:
		panic(fmt.Sprintf("mem: ReadUint size %d", size))
	}
}

// WriteUint writes a size-byte big-endian unsigned integer at pa.
func (p *Physical) WriteUint(pa PhysAddr, size int, v uint64) {
	var buf [8]byte
	b := p.word(pa, size)
	straddles := b == nil
	if straddles {
		b = buf[:size]
	}
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.BigEndian.PutUint16(b, uint16(v))
	case 4:
		binary.BigEndian.PutUint32(b, uint32(v))
	case 8:
		binary.BigEndian.PutUint64(b, v)
	default:
		panic(fmt.Sprintf("mem: WriteUint size %d", size))
	}
	if straddles {
		p.WriteBytes(pa, b)
	}
}
