// Package dev implements the physical-device models of §3.4: "the real
// time clock, the Ethernet and the hard disk drives". Devices live in the
// backend: they schedule completion tasks in the global event queue, raise
// interrupts through the CPU-states structure, and wake blocked processes.
package dev

import (
	"fmt"

	"compass/internal/core"
	"compass/internal/event"
	"compass/internal/fault"
	"compass/internal/mem"
)

// pickCPU distributes device interrupts round-robin over the CPUs, like an
// interrupt controller.
type irqRouter struct {
	sim  *core.Sim
	next int
}

func (r *irqRouter) route() int {
	c := r.next % r.sim.CPUs()
	r.next++
	return c
}

// --- Real-time clock --------------------------------------------------------

// The interval timer is a 10 ms / 100 MHz-style timer.
const (
	// RTCTickCycles is the interval-timer period (10 ms at 100 MHz = 1M).
	RTCTickCycles event.Cycle = 1_000_000
	// RTCHandlerCycles is the tick handler's CPU cost.
	RTCHandlerCycles event.Cycle = 1200
)

// RTC is the real-time clock: a periodic daemon task that charges
// interval-timer interrupt time on every CPU — the "interval timer" share
// of TPCC/TPCD interrupt time in Table 1.
type RTC struct {
	sim    *core.Sim
	tickFn func() //ckpt:skip prebound function value, re-created by NewRTC
	Ticks  uint64
}

// NewRTC starts the clock (backend setup context).
func NewRTC(sim *core.Sim) *RTC {
	r := &RTC{sim: sim}
	r.tickFn = r.tick // bound once; re-arming allocates nothing per tick
	r.armAt(RTCTickCycles)
	return r
}

func (r *RTC) armAt(delay event.Cycle) {
	r.sim.ScheduleTask(delay, "rtc-tick", true, r.tickFn)
}

func (r *RTC) tick() {
	r.Ticks++
	for c := 0; c < r.sim.CPUs(); c++ {
		r.sim.RaiseInterrupt(c, r.sim.CurTime(), RTCHandlerCycles, nil)
	}
	r.armAt(RTCTickCycles)
}

// --- Hard disk --------------------------------------------------------------

// The disk timings model a late-90s 7200 rpm disk against a 100 MHz CPU:
// ~8 ms seek+rotate = 800k cycles, ~10 MB/s transfer = 10 cycles/byte.
const (
	DiskSeekCycles    event.Cycle = 800_000 // average seek + rotational delay
	DiskPerByteCycles float64     = 10      // media transfer rate
	DiskHandlerCycles event.Cycle = 14000   // completion interrupt handler cost
	// DiskHandlerTouches is how many kernel-space lines the handler touches
	// (buffer headers, queue entries) per completion.
	DiskHandlerTouches int = 16
)

// DiskConfig sizes a disk and picks its seek model and scheduling.
type DiskConfig struct {
	Blocks int // capacity in 4 KB blocks
	// PositionalSeek makes the seek portion depend on head travel: a
	// quarter of DiskSeekCycles for rotation plus travel-proportional cost
	// up to ~1.75x DiskSeekCycles for a full stroke.
	PositionalSeek bool
	// Elevator enables SCAN request scheduling: the arm serves the
	// pending request nearest ahead of the sweep direction instead of
	// FIFO.
	Elevator bool
}

// BlockSize is the disk block size in bytes (one page).
const BlockSize = mem.PageSize

// Disk is a hard disk with a request queue (FIFO or SCAN), an optional
// positional seek model, and DMA completion interrupts. Block contents are
// functional: the filesystem reads and writes real bytes.
type Disk struct {
	sim  *core.Sim //ckpt:skip backend wiring, re-created by NewDisk
	cfg  DiskConfig
	irq  irqRouter
	inj  *fault.DiskInjector //ckpt:skip machine.Restore restores the injector's own snapshot
	data map[int][]byte
	//ckpt:skip fixed kernel-layout address assigned at construction
	ringVA mem.VirtAddr // kernel addresses the handler touches

	// Backend-owned arm state.
	pending []diskReq
	busy    bool
	head    int
	sweepUp bool
	seq     uint64

	// In-flight completion state: the arm serves one request at a time, so
	// the completion task is a single bound method reading cur/curStatus,
	// and the handler's kernel-touch list is built in a reusable buffer
	// (RaiseInterrupt consumes it synchronously or copies on deferral).
	cur        diskReq            //ckpt:skip in-flight completion state; Snapshot rejects a non-quiescent disk
	curStatus  fault.DiskStatus   //ckpt:skip in-flight completion state; Snapshot rejects a non-quiescent disk
	completeFn func()             //ckpt:skip prebound function value, re-created by NewDisk
	touchBuf   []core.KernelTouch //ckpt:skip reusable scratch, dead between interrupt raises

	Reads, Writes uint64
	BusyCycles    event.Cycle
	SeekSum       event.Cycle
}

type diskReq struct {
	block  int
	bytes  int
	seq    uint64
	onDone func(done event.Cycle, st fault.DiskStatus)
}

// NewDisk creates a disk (setup context). A small kernel-space ring of
// buffer headers is allocated so completion handlers generate kernel
// memory traffic.
func NewDisk(sim *core.Sim, cfg DiskConfig) *Disk {
	ring, err := sim.KernelSbrk(mem.PageSize)
	if err != nil {
		panic(fmt.Sprintf("dev: disk ring alloc: %v", err))
	}
	return &Disk{
		sim: sim, cfg: cfg,
		irq:     irqRouter{sim: sim},
		data:    make(map[int][]byte),
		ringVA:  ring,
		sweepUp: true,
	}
}

// Capacity returns the number of blocks.
func (d *Disk) Capacity() int { return d.cfg.Blocks }

// ReadBlock returns the stored contents of a block (setup/kernel context;
// timing is accounted separately via Submit).
func (d *Disk) ReadBlock(block int, dst []byte) {
	if b, ok := d.data[block]; ok {
		copy(dst, b)
		return
	}
	for i := range dst {
		dst[i] = 0
	}
}

// WriteBlock stores block contents (setup/kernel context).
func (d *Disk) WriteBlock(block int, src []byte) {
	b := make([]byte, BlockSize)
	copy(b, src)
	d.StoreBlock(block, b)
}

// StoreBlock is WriteBlock for a caller that hands its array over: b, a
// whole block that nobody else keeps or will write to, becomes the block's
// contents as it is. It returns the array the block had, or nil: the disk
// was its only holder, since ReadBlock, Snapshot and Restore all copy, so
// it is the caller's now to reuse.
func (d *Disk) StoreBlock(block int, b []byte) []byte {
	if block < 0 || block >= d.cfg.Blocks {
		panic(fmt.Sprintf("dev: block %d out of range", block))
	}
	if len(b) != BlockSize {
		panic(fmt.Sprintf("dev: StoreBlock of %d bytes", len(b)))
	}
	old := d.data[block]
	d.data[block] = b
	return old
}

// SetInjector installs a deterministic fault injector (setup context).
// Nil disables fault injection (the default).
func (d *Disk) SetInjector(inj *fault.DiskInjector) { d.inj = inj }

// Injector returns the installed fault injector, or nil.
func (d *Disk) Injector() *fault.DiskInjector { return d.inj }

// Submit queues an I/O for `bytes` bytes targeting `block` and arranges for
// onDone (if non-nil) to run at completion time, after the completion
// interrupt is raised (backend context), with the I/O outcome: OK, a
// transient media error, or a permanent bad block. Queued requests are
// served FIFO or by the SCAN elevator per the configuration. Failed
// requests still occupy the arm for the full service time and raise a
// completion interrupt — the controller reports the error, it does not
// vanish.
func (d *Disk) Submit(block int, write bool, bytes int, onDone func(done event.Cycle, st fault.DiskStatus)) {
	if write {
		d.Writes++
	} else {
		d.Reads++
	}
	d.seq++
	d.pending = append(d.pending, diskReq{block: block, bytes: bytes, seq: d.seq, onDone: onDone})
	d.kick()
}

// kick starts the arm on the next pending request if idle (backend
// context).
func (d *Disk) kick() {
	if d.busy || len(d.pending) == 0 {
		return
	}
	idx := d.pickNext()
	req := d.pending[idx]
	d.pending = append(d.pending[:idx], d.pending[idx+1:]...)
	d.busy = true

	service := d.serviceTime(req)
	status := fault.DiskOK
	if d.inj != nil {
		st, slowMul := d.inj.Decide(uint64(d.sim.CurTime()), req.block)
		status = st
		if slowMul > 1 {
			// Stuck/slow sector: extra retries inside the drive.
			service *= event.Cycle(slowMul)
		}
	}
	d.BusyCycles += service
	d.head = req.block
	d.cur = req
	d.curStatus = status
	if d.completeFn == nil {
		d.completeFn = d.complete
	}
	d.sim.ScheduleTask(service, "disk-complete", false, d.completeFn)
}

// complete finishes the in-flight request: completion interrupt with its
// kernel buffer-header traffic, the submitter's callback, then the next
// queued request.
func (d *Disk) complete() {
	req, status := d.cur, d.curStatus
	d.cur.onDone = nil
	d.busy = false
	cpu := d.irq.route()
	touches := d.touchBuf[:0]
	for i := 0; i < DiskHandlerTouches; i++ {
		touches = append(touches, core.KernelTouch{
			Addr:  d.ringVA + mem.VirtAddr((int(req.seq)*DiskHandlerTouches+i)*32%mem.PageSize),
			Write: i%2 == 0,
		})
	}
	d.touchBuf = touches[:0]
	d.sim.RaiseInterrupt(cpu, d.sim.CurTime(), DiskHandlerCycles, touches)
	if req.onDone != nil {
		req.onDone(d.sim.CurTime(), status)
	}
	d.kick()
}

// pickNext selects the next request: FIFO by default; with the elevator,
// the nearest block in the sweep direction (reversing at the end), ties
// broken by submission order (pending stays in submission order).
func (d *Disk) pickNext() int {
	if !d.cfg.Elevator || len(d.pending) == 1 {
		return 0
	}
	for pass := 0; pass < 2; pass++ {
		best := -1
		bestDist := 1 << 62
		for i, r := range d.pending {
			ahead := (d.sweepUp && r.block >= d.head) || (!d.sweepUp && r.block <= d.head)
			if !ahead {
				continue
			}
			dist := r.block - d.head
			if dist < 0 {
				dist = -dist
			}
			if dist < bestDist {
				bestDist = dist
				best = i
			}
		}
		if best >= 0 {
			return best
		}
		d.sweepUp = !d.sweepUp // end of sweep: reverse
	}
	return 0
}

// serviceTime computes seek + rotation + transfer for a request.
func (d *Disk) serviceTime(req diskReq) event.Cycle {
	transfer := event.Cycle(float64(req.bytes) * DiskPerByteCycles)
	if !d.cfg.PositionalSeek {
		return DiskSeekCycles + transfer
	}
	dist := req.block - d.head
	if dist < 0 {
		dist = -dist
	}
	// Quarter for rotation, up to 1.5x more for a full stroke.
	seek := DiskSeekCycles/4 +
		event.Cycle(float64(DiskSeekCycles)*1.5*float64(dist)/float64(d.cfg.Blocks))
	d.SeekSum += seek
	return seek + transfer
}

// --- Ethernet ---------------------------------------------------------------

// The network interface timings model 100 Mb Ethernet on a 100 MHz CPU.
const (
	// NICPerByteCycles is the serialization rate (100 Mb/s at 100 MHz ≈ 8).
	NICPerByteCycles float64 = 8
	// NICHandlerCycles is the RX/TX interrupt handler cost — the dominant
	// interrupt share for SPECWeb in Table 1.
	NICHandlerCycles event.Cycle = 2200
	// NICHandlerTouches is the kernel lines (mbufs, descriptors) the
	// handler touches per packet.
	NICHandlerTouches int = 12
)

// NICConfig sets the wire latency.
type NICConfig struct {
	// WireCycles is the fixed propagation + switch latency per packet.
	WireCycles event.Cycle
}

// DefaultNICConfig models 100 Mb Ethernet on a 100 MHz CPU.
func DefaultNICConfig() NICConfig {
	return NICConfig{WireCycles: 5_000}
}

// Packet is one Ethernet frame. Payload bytes are functional (the HTTP
// requests and responses are real text).
type Packet struct {
	Conn    int // connection id assigned by the stack / client
	Flags   PacketFlags
	Seq     uint32 // per-connection frame sequence (link-level ARQ)
	Payload []byte
}

// PacketFlags marks control packets.
type PacketFlags uint8

const (
	// FlagSYN opens a connection.
	FlagSYN PacketFlags = 1 << iota
	// FlagFIN closes a connection.
	FlagFIN
	// FlagACK acknowledges a received frame (link-level ARQ; carries no
	// payload).
	FlagACK
)

// NIC is the simulated Ethernet adapter. The receive path delivers into a
// backend callback (the network stack); the transmit path delivers to an
// external peer callback (the SPECWeb trace player's client side).
type NIC struct {
	sim  *core.Sim //ckpt:skip backend wiring, re-created by NewNIC
	cfg  NICConfig //ckpt:skip rebuilt by NewNIC from the machine's Config
	wire *event.Resource
	irq  irqRouter
	inj  *fault.NetInjector //ckpt:skip machine.Restore restores the injector's own snapshot
	ring mem.VirtAddr       //ckpt:skip fixed kernel-layout address assigned at construction

	// OnReceive is invoked in backend context when a packet arrives from
	// the wire (after the RX interrupt).
	OnReceive func(pkt Packet, at event.Cycle) //ckpt:skip callback wiring, re-attached by the stack after restore
	// OnTransmit is invoked in backend context when a locally sent packet
	// reaches the wire's far end (the external client). The payload is the
	// frame's own buffer, good only until OnTransmit returns.
	OnTransmit func(pkt Packet, at event.Cycle) //ckpt:skip callback wiring, re-attached by the trace player after restore

	// touchBuf is the reusable kernel-touch scratch for interrupt raises
	// (consumed synchronously or copied on the masked-CPU deferral path).
	touchBuf []core.KernelTouch //ckpt:skip reusable scratch, dead between interrupt raises
	// free holds the records of frames no longer in flight, taken and given
	// back in program order.
	free []*flight //ckpt:skip frame records; a checkpoint has no frame in flight

	RxPackets, TxPackets uint64
	RxBytes, TxBytes     uint64
}

// flight is a frame on the wire: the record its tasks run on, bound to it
// once when the record is made, so that a frame in either direction
// allocates nothing. tasks counts the tasks still to run; the last gives the
// record back when it has finished with the packet. buf is the record's own
// payload buffer: a transmitted frame's bytes are copied into it, and it
// goes back with the record.
type flight struct {
	n     *NIC
	pkt   Packet
	tasks int
	buf   []byte

	rxFn, rxIntrFn, txIntrFn, deliverFn func()
}

// NewNIC creates the adapter (setup context).
func NewNIC(sim *core.Sim, cfg NICConfig) *NIC {
	ring, err := sim.KernelSbrk(mem.PageSize)
	if err != nil {
		panic(fmt.Sprintf("dev: nic ring alloc: %v", err))
	}
	return &NIC{sim: sim, cfg: cfg, wire: new(event.Resource), irq: irqRouter{sim: sim}, ring: ring}
}

// take returns a record for pkt with tasks tasks to run, from the free list
// when it has one.
func (n *NIC) take(pkt Packet, tasks int) *flight {
	var f *flight
	if k := len(n.free); k > 0 {
		f, n.free = n.free[k-1], n.free[:k-1]
	} else {
		f = &flight{n: n}
		f.rxFn, f.rxIntrFn, f.txIntrFn, f.deliverFn = f.rx, f.rxIntr, f.txIntr, f.deliver
	}
	f.pkt, f.tasks = pkt, tasks
	return f
}

// done ends one of f's tasks, after the task's last use of the packet; the
// last one gives the record back.
func (f *flight) done() {
	if f.tasks--; f.tasks == 0 {
		f.pkt = Packet{}
		f.n.free = append(f.n.free, f)
	}
}

func (n *NIC) touches(count int, seed uint64) []core.KernelTouch {
	out := n.touchBuf[:0]
	for i := 0; i < count; i++ {
		out = append(out, core.KernelTouch{
			Addr:  n.ring + mem.VirtAddr((seed*uint64(count)+uint64(i))*32%mem.PageSize),
			Write: i%2 == 0,
		})
	}
	n.touchBuf = out[:0]
	return out
}

// SetInjector installs a deterministic fault injector on both wire
// directions (setup context). Nil disables fault injection (the default).
func (n *NIC) SetInjector(inj *fault.NetInjector) { n.inj = inj }

// Injector returns the installed fault injector, or nil.
func (n *NIC) Injector() *fault.NetInjector { return n.inj }

// Inject delivers a packet from the external peer to the host at `delay`
// cycles from now (backend context): wire time, then RX interrupt, then
// the stack's OnReceive. With an injector, the frame may be dropped on
// the wire (no interrupt), arrive corrupted (the NIC's CRC check fires
// the interrupt but discards the frame) or be duplicated by the switch.
func (n *NIC) Inject(pkt Packet, delay event.Cycle) {
	n.sim.ScheduleTask(delay, "eth-rx", false, n.take(pkt, 1).rxFn)
}

// rx puts an injected frame on the wire.
func (f *flight) rx() {
	n := f.n
	at := n.wire.Acquire(n.sim.CurTime(), event.Cycle(float64(len(f.pkt.Payload))*NICPerByteCycles))
	at += n.cfg.WireCycles
	n.sim.ScheduleTask(at-n.sim.CurTime(), "eth-rx-intr", false, f.rxIntrFn)
}

// rxIntr is an injected frame's arrival: RX interrupt, then OnReceive.
func (f *flight) rxIntr() {
	f.n.receive(f.pkt)
	f.done()
}

func (n *NIC) receive(pkt Packet) {
	verdict := fault.Deliver
	if n.inj != nil {
		verdict = n.inj.DecideRx(uint64(n.sim.CurTime()))
	}
	if verdict == fault.Drop {
		return // lost on the wire: the host never sees it
	}
	n.RxPackets++
	n.RxBytes += uint64(len(pkt.Payload))
	cpu := n.irq.route()
	n.sim.RaiseInterrupt(cpu, n.sim.CurTime(), NICHandlerCycles, n.touches(NICHandlerTouches, n.RxPackets))
	if verdict == fault.Corrupt {
		return // CRC failure: interrupt fired, frame discarded
	}
	if n.OnReceive != nil {
		n.OnReceive(pkt, n.sim.CurTime())
		if verdict == fault.Duplicate {
			n.OnReceive(pkt, n.sim.CurTime())
		}
	}
}

// Transmit sends a packet toward the external peer (backend context): TX
// interrupt on completion, then OnTransmit at the far end. The payload is
// copied into the frame's own buffer, so the caller keeps its slice.
func (n *NIC) Transmit(pkt Packet, at event.Cycle) {
	start := at
	if ct := n.sim.CurTime(); ct > start {
		start = ct
	}
	txDone := n.wire.Acquire(start, event.Cycle(float64(len(pkt.Payload))*NICPerByteCycles))
	f := n.take(pkt, 2)
	if len(pkt.Payload) > 0 {
		f.buf = append(f.buf[:0], pkt.Payload...)
		f.pkt.Payload = f.buf
	}
	n.sim.ScheduleTask(txDone-n.sim.CurTime(), "eth-tx-intr", false, f.txIntrFn)
	arrive := txDone + n.cfg.WireCycles
	n.sim.ScheduleTask(arrive-n.sim.CurTime(), "eth-deliver", false, f.deliverFn)
}

// txIntr is the TX interrupt of a sent frame.
func (f *flight) txIntr() {
	n := f.n
	n.TxPackets++
	n.TxBytes += uint64(len(f.pkt.Payload))
	f.done()
	cpu := n.irq.route()
	n.sim.RaiseInterrupt(cpu, n.sim.CurTime(), NICHandlerCycles, n.touches(NICHandlerTouches, n.TxPackets))
}

// deliver is a sent frame's arrival at the far end: OnTransmit.
func (f *flight) deliver() {
	f.n.transmitted(f.pkt)
	f.done()
}

func (n *NIC) transmitted(pkt Packet) {
	verdict := fault.Deliver
	if n.inj != nil {
		verdict = n.inj.DecideTx(uint64(n.sim.CurTime()))
	}
	if verdict == fault.Drop || verdict == fault.Corrupt {
		return // lost or mangled before the far end; peer's ARQ recovers
	}
	if n.OnTransmit != nil {
		n.OnTransmit(pkt, n.sim.CurTime())
		if verdict == fault.Duplicate {
			n.OnTransmit(pkt, n.sim.CurTime())
		}
	}
}
