package dsm

import (
	"fmt"

	"compass/internal/core"
	"compass/internal/event"
	"compass/internal/frontend"
	"compass/internal/mem"
)

// Region is a shared-virtual-memory region managed by the protocol, in the
// style of a user-level SVM library (IVY/TreadMarks): each participating
// process is a cluster node; before touching a page without rights, the
// runtime takes a page fault that fetches or invalidates whole pages over
// the cluster network. The per-access memory traffic stays node-local
// (the machine's ordinary memory model).
type Region struct {
	Proto *Protocol
	sim   *core.Sim
	// Base is the region's virtual base; all nodes attach the backing shm
	// segment, so addresses coincide.
	Base  mem.VirtAddr
	Pages int
}

// NewRegion wraps an attached shared segment in DSM management.
func NewRegion(sim *core.Sim, proto *Protocol, base mem.VirtAddr, bytes uint32) *Region {
	return &Region{
		Proto: proto,
		sim:   sim,
		Base:  base,
		Pages: int((bytes + mem.PageMask) >> mem.PageShift),
	}
}

func (r *Region) vpn(va mem.VirtAddr) uint32 {
	if va < r.Base || va >= r.Base+mem.VirtAddr(r.Pages*mem.PageSize) {
		panic(fmt.Sprintf("dsm: address %#x outside region", uint32(va)))
	}
	return va.VPN()
}

// View is one node's window onto a region. It caches the node's page
// rights so the fast path (rights already held) costs only a few compare
// instructions, like a hardware TLB check after mprotect.
type View struct {
	R    *Region
	Node int
}

// NewView creates node `node`'s view.
func (r *Region) NewView(node int) *View {
	return &View{R: r, Node: node}
}

// ensure obtains the required access right, taking a simulated SVM fault
// if the node lacks it. The fault's network time (page transfer,
// invalidations) passes in simulated time: the process blocks until the
// protocol's completion cycle.
func (v *View) ensure(p *frontend.Proc, va mem.VirtAddr, write bool) {
	vpn := v.R.vpn(va)
	proto := v.R.Proto
	sim := v.R.sim
	node := v.Node
	// Check + fault in backend context so rights are never stale.
	p.Call(40, func() any {
		rights := proto.Rights(vpn, node)
		if (write && rights == Write) || (!write && rights != None) {
			return nil
		}
		var done event.Cycle
		if write {
			done = proto.WriteFault(sim.CurTime(), vpn, node)
		} else {
			done = proto.ReadFault(sim.CurTime(), vpn, node)
		}
		// The faulting process sleeps until the page arrives.
		sim.SleepCurrent(done-sim.CurTime(), "dsm-fault", false)
		return nil
	})
}

// Load performs a DSM-checked load: SVM fault if needed, then a normal
// node-local reference.
func (v *View) Load(p *frontend.Proc, va mem.VirtAddr, size int) {
	v.ensure(p, va, false)
	p.Load(va, size)
}

// Store performs a DSM-checked store.
func (v *View) Store(p *frontend.Proc, va mem.VirtAddr, size int) {
	v.ensure(p, va, true)
	p.Store(va, size)
}

// LoadRange checks rights once per covered page, then touches the range
// (the common scan pattern — per-access ensure would double the events).
func (v *View) LoadRange(p *frontend.Proc, va mem.VirtAddr, n int) {
	for pg := va &^ mem.PageMask; pg < va+mem.VirtAddr(n); pg += mem.PageSize {
		v.ensure(p, pg, false)
	}
	p.TouchRange(va, n, false)
}

// StoreRange is LoadRange for writes.
func (v *View) StoreRange(p *frontend.Proc, va mem.VirtAddr, n int) {
	for pg := va &^ mem.PageMask; pg < va+mem.VirtAddr(n); pg += mem.PageSize {
		v.ensure(p, pg, true)
	}
	p.TouchRange(va, n, true)
}
