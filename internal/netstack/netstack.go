// Package netstack is the category-1 network service: the TCP/IP-stack OS
// calls that dominate the web server's kernel time in Table 1 — select,
// connect, naccept, send, recv, close — implemented over mbuf-style
// buffering and the simulated Ethernet device.
//
// Connection state is owned by backend context (packet arrival happens in
// device completion tasks); kernel-mode syscalls reach it through backend
// calls and sleep on a stack-wide activity queue, reproducing the
// sleep/recheck structure of a real socket layer. Payload bytes are
// functional: the web server parses real HTTP request text.
package netstack

import (
	"fmt"

	"compass/internal/dev"
	"compass/internal/event"
	"compass/internal/fault"
	"compass/internal/frontend"
	"compass/internal/kernel"
	"compass/internal/mem"
	"compass/internal/simsync"
)

// The protocol stack's timings model a mid-90s in-kernel TCP/IP stack
// (~25 µs per packet at 100 MHz).
const (
	// StackCyclesPerPacket is the TCP/IP input/output path length.
	StackCyclesPerPacket uint64 = 4500
	// CopyCyclesPerByte approximates checksum + copy beyond memory traffic.
	CopyCyclesPerByte float64 = 0.5
	// MbufTouchBytes is how much mbuf memory each packet touches.
	MbufTouchBytes int = 256
	// MSS is the maximum payload per packet.
	MSS int = 1460
)

// Conn is one TCP-ish connection endpoint on the simulated host.
// All mutable fields are backend-owned.
type Conn struct {
	ID  int
	rxQ [][]byte
	// rx0 is rxQ's first array: a request is one segment.
	rx0        [1][]byte
	peerClosed bool
	closed     bool
	// loopback peer for host-internal connections (client connect() to a
	// local listener); nil for connections to the external wire.
	peer *Conn
}

// Listener accepts connections on a port. Backend-owned.
type Listener struct {
	Port    int
	acceptQ []*Conn
	closed  bool
}

// Stack is the network stack instance.
type Stack struct {
	k   *kernel.Kernel //ckpt:skip backend wiring, re-created by New
	nic *dev.NIC       //ckpt:skip backend wiring, re-created by New

	// Backend-owned tables.
	listeners map[int]*Listener
	conns     map[int]*Conn

	// activity is the stack-wide sleep queue: any packet arrival wakes all
	// sleepers, which recheck their condition (accept/recv/select).
	activity *kernel.WaitQueue //ckpt:skip wait queue; quiescence means no sleepers to carry over

	mbufKVA  mem.VirtAddr      //ckpt:skip fixed kernel-layout address assigned at construction
	mbufLock *simsync.SpinLock //ckpt:skip lock word lives in simulated memory, restored with the kernel space
	mbufSeq  uint64
	nextLoop int // loopback connection id allocator (negative ids)

	// arq, when non-nil, runs link-level retransmission for wire
	// connections (fault-injected configurations). Backend-owned.
	arq *Endpoint

	// loops holds the records of loopback segments delivered, taken and
	// given back in program order.
	loops []*loopSeg //ckpt:skip segment records; a checkpoint has no segment in flight
	// free holds the records of closed wire connections, taken by a SYN and
	// given back by Close.
	free []*Conn //ckpt:skip connection records; a checkpoint has no connection open

	RxPackets, TxPackets uint64
	Accepts, Drops       uint64
}

// loopSeg is a loopback segment on its way to the peer endpoint: the record
// its delivery task runs on, bound to it once when the record is made.
type loopSeg struct {
	s       *Stack
	to      *Conn
	payload []byte
	fn      func()
}

// loopTo returns a record of payload on its way to the endpoint to, from the
// free list when it has one.
func (s *Stack) loopTo(to *Conn, payload []byte) *loopSeg {
	var l *loopSeg
	if k := len(s.loops); k > 0 {
		l, s.loops = s.loops[k-1], s.loops[:k-1]
	} else {
		l = &loopSeg{s: s}
		l.fn = l.deliver
	}
	l.to, l.payload = to, payload
	return l
}

// deliver puts the segment in its endpoint's receive queue, unless the
// endpoint has closed meanwhile.
func (l *loopSeg) deliver() {
	s, to, payload := l.s, l.to, l.payload
	l.to, l.payload = nil, nil
	s.loops = append(s.loops, l)
	if !to.closed {
		to.rxQ = append(to.rxQ, payload)
		s.activity.WakeAllBackend()
	}
}

// New builds the stack and hooks the NIC receive path (setup context).
func New(k *kernel.Kernel, nic *dev.NIC) *Stack {
	s := &Stack{
		k: k, nic: nic,
		listeners: make(map[int]*Listener),
		conns:     make(map[int]*Conn),
		activity:  k.NewWaitQueue(),
		mbufKVA:   k.SetupAlloc(16 * 1024),
		mbufLock:  k.SetupLock(),
	}
	nic.OnReceive = s.input
	return s
}

// EnableFaultRecovery turns on link-level ARQ for wire connections
// (setup context): retransmit timers with exponential backoff on the
// send side, acknowledgment and duplicate suppression on the receive
// side. Fault-free configurations never call this.
func (s *Stack) EnableFaultRecovery(cfg fault.NetConfig) {
	s.arq = NewEndpoint(s.k.Sim,
		cfg,
		func(pkt dev.Packet) { s.nic.Transmit(pkt, s.k.Sim.CurTime()) },
		s.arqFail)
}

// ARQ returns the stack's ARQ endpoint, or nil.
func (s *Stack) ARQ() *Endpoint { return s.arq }

// arqFail handles a connection whose frame exhausted its retransmits:
// the peer is unreachable, so the connection reads as reset (backend
// context).
func (s *Stack) arqFail(conn int) {
	if c, ok := s.conns[conn]; ok {
		c.peerClosed = true
		s.activity.WakeAllBackend()
	}
}

// input is the protocol input path, run in backend context after the RX
// interrupt (the bottom half of §3.2).
func (s *Stack) input(pkt dev.Packet, at event.Cycle) {
	if s.arq != nil && pkt.Conn >= 0 {
		if pkt.Flags&dev.FlagACK != 0 {
			s.arq.OnAck(pkt)
			return
		}
		if !s.arq.Accept(pkt) {
			return // duplicate or stale frame, suppressed
		}
	}
	s.RxPackets++
	switch {
	case pkt.Flags&dev.FlagSYN != 0:
		port := 0
		if len(pkt.Payload) >= 2 {
			port = int(pkt.Payload[0])<<8 | int(pkt.Payload[1])
		}
		l, ok := s.listeners[port]
		if !ok || l.closed {
			s.Drops++
			return
		}
		c := s.newConn(pkt.Conn)
		s.conns[pkt.Conn] = c
		l.acceptQ = append(l.acceptQ, c)
	case pkt.Flags&dev.FlagFIN != 0:
		if c, ok := s.conns[pkt.Conn]; ok {
			c.peerClosed = true
		}
	default:
		c, ok := s.conns[pkt.Conn]
		if !ok || c.closed {
			s.Drops++
			return
		}
		c.rxQ = append(c.rxQ, pkt.Payload)
	}
	s.activity.WakeAllBackend()
}

// newConn returns a record for the wire connection id, from the free list
// when it has one (backend context).
func (s *Stack) newConn(id int) *Conn {
	var c *Conn
	if k := len(s.free); k > 0 {
		c, s.free = s.free[k-1], s.free[:k-1]
	} else {
		c = new(Conn)
	}
	c.ID = id
	c.rxQ = c.rx0[:0]
	return c
}

// chargePacket accounts the per-packet protocol work in kernel mode:
// stack path length plus mbuf traffic.
func (s *Stack) chargePacket(p *frontend.Proc, payload int) {
	p.ComputeCycles(StackCyclesPerPacket)
	p.ComputeCycles(uint64(float64(payload) * CopyCyclesPerByte))
	s.mbufLock.Lock(p)
	off := mem.VirtAddr(s.mbufSeq * 512 % (16 * 1024))
	s.mbufSeq++
	s.mbufLock.Unlock(p)
	n := payload
	if n > MbufTouchBytes {
		n = MbufTouchBytes
	}
	if n < 64 {
		n = 64
	}
	p.KTouchRange(s.mbufKVA+off, n, true)
}

// Caller is one process's way into the stack: it makes the process's socket
// calls. The backend bodies of the calls a server makes per request are bound
// to it once, and the arguments and result of the call in progress travel in
// its fields: the process fills the arguments before its call and reads the
// result after it, and the body runs in backend context in between. A Caller
// belongs to one process (the OS server keeps one per paired OS thread).
type Caller struct {
	s *Stack
	p *frontend.Proc

	// The call in progress: its arguments, then its results.
	conn *Conn
	l    *Listener
	data []byte
	srcs []Selectable
	seg  []byte
	idx  int

	acceptFn, recvFn, sendFn, closeFn, selectFn func() any
}

// NewCaller makes p's caller (any context: it touches no stack state).
func (s *Stack) NewCaller(p *frontend.Proc) *Caller {
	k := &Caller{s: s, p: p}
	k.acceptFn, k.recvFn, k.sendFn, k.closeFn, k.selectFn = k.accept, k.recv, k.send, k.close, k.pick
	return k
}

// Listen binds a listener to a port (kernel context).
func (k *Caller) Listen(port int) (*Listener, error) {
	s := k.s
	res := k.p.Call(120, func() any {
		if _, ok := s.listeners[port]; ok {
			return fmt.Errorf("netstack: port %d in use", port)
		}
		l := &Listener{Port: port}
		s.listeners[port] = l
		return l
	})
	if err, ok := res.(error); ok {
		return nil, err
	}
	return res.(*Listener), nil
}

// GetListener returns the existing listener on a port (pre-forked workers
// attaching the inherited socket).
func (k *Caller) GetListener(port int) (*Listener, error) {
	s := k.s
	res := k.p.Call(80, func() any {
		if l, ok := s.listeners[port]; ok {
			return l
		}
		return fmt.Errorf("netstack: no listener on port %d", port)
	})
	if err, ok := res.(error); ok {
		return nil, err
	}
	return res.(*Listener), nil
}

// Connect opens a loopback connection from the calling process to a local
// listener (the connect call in the paper's SPECWeb kernel profile). The
// two endpoints exchange data through the protocol stack with loopback
// latency (no wire), which is how multi-tier setups — web frontend talking
// to a database server — run inside one simulated host.
func (k *Caller) Connect(port int) (*Conn, error) {
	s := k.s
	s.chargePacket(k.p, 64) // SYN path
	res := k.p.Call(200, func() any {
		l, ok := s.listeners[port]
		if !ok || l.closed {
			return fmt.Errorf("netstack: connect: no listener on port %d", port)
		}
		s.nextLoop++
		client := &Conn{ID: -(2 * s.nextLoop)}
		server := &Conn{ID: -(2*s.nextLoop + 1)}
		client.peer, server.peer = server, client
		s.conns[client.ID] = client
		s.conns[server.ID] = server
		l.acceptQ = append(l.acceptQ, server)
		s.activity.WakeAllBackend()
		return client
	})
	if err, ok := res.(error); ok {
		return nil, err
	}
	return res.(*Conn), nil
}

// Naccept blocks until a connection arrives on the listener and returns it
// (the paper's naccept kernel call).
func (k *Caller) Naccept(l *Listener) *Conn {
	k.l = l
	for !k.p.Call(150, k.acceptFn).(bool) {
	}
	c := k.conn
	k.l, k.conn = nil, nil
	k.s.chargePacket(k.p, 64) // SYN/ACK processing
	return c
}

// accept is Naccept's backend body: it takes the listener's first queued
// connection, or puts the caller to sleep and reports false.
func (k *Caller) accept() any {
	s, l := k.s, k.l
	if len(l.acceptQ) == 0 {
		s.activity.Sleep()
		return false
	}
	k.conn = popFront(&l.acceptQ)
	s.Accepts++
	return true
}

// Recv blocks until data (or EOF) is available on the connection and
// returns the next segment, charging the receive path. A nil result means
// the peer closed. userVA, when nonzero, charges the copy to user space.
// The segment is shared with whoever sent it: the caller reads it and does
// not write to it.
func (k *Caller) Recv(c *Conn, userVA mem.VirtAddr) []byte {
	k.conn = c
	for !k.p.Call(150, k.recvFn).(bool) {
	}
	seg := k.seg
	k.conn, k.seg = nil, nil
	if seg == nil {
		return nil // EOF
	}
	k.s.chargePacket(k.p, len(seg))
	if userVA != 0 {
		k.p.TouchRange(userVA, len(seg), true)
	}
	return seg
}

// recv is Recv's backend body: it takes the connection's next segment (nil
// at EOF), or puts the caller to sleep and reports false.
func (k *Caller) recv() any {
	c := k.conn
	switch {
	case len(c.rxQ) > 0:
		k.seg = popFront(&c.rxQ)
	case c.peerClosed || c.closed:
		k.seg = nil
	default:
		k.s.activity.Sleep()
		return false
	}
	return true
}

// Send transmits data on the connection in MSS-sized packets (kernel
// context), charging the output path per packet. userVA, when nonzero,
// charges the copy from user space. Each packet's bytes are copied in
// backend context before Send moves on, so the caller may reuse data as soon
// as Send returns.
func (k *Caller) Send(c *Conn, data []byte, userVA mem.VirtAddr) int {
	s, p := k.s, k.p
	k.conn = c
	sent := 0
	for sent < len(data) || (len(data) == 0 && sent == 0) {
		chunk := len(data) - sent
		if chunk > MSS {
			chunk = MSS
		}
		if userVA != 0 {
			p.TouchRange(userVA+mem.VirtAddr(sent), chunk, false)
		}
		s.chargePacket(p, chunk)
		k.data = data[sent : sent+chunk]
		p.Call(100, k.sendFn)
		sent += chunk
		if len(data) == 0 {
			break
		}
	}
	k.conn, k.data = nil, nil
	return sent
}

// send is Send's backend body: it puts one packet of k.data on its way. The
// NIC copies the bytes into its frame's own buffer; a loopback segment and a
// frame the ARQ may retransmit get a copy of their own.
func (k *Caller) send() any {
	s, c := k.s, k.conn
	s.TxPackets++
	switch {
	case c.peer != nil:
		// Loopback: deliver into the peer's receive queue after a small
		// software latency.
		s.k.Sim.ScheduleTask(600, "lo-deliver", false, s.loopTo(c.peer, append([]byte(nil), k.data...)).fn)
	case s.arq != nil:
		s.arq.Send(dev.Packet{Conn: c.ID, Payload: append([]byte(nil), k.data...)})
	default:
		s.nic.Transmit(dev.Packet{Conn: c.ID, Payload: k.data}, s.k.Sim.CurTime())
	}
	return nil
}

// Close shuts the connection and notifies the peer with a FIN. A wire
// connection's record goes back to the stack for the next SYN: the caller
// drops c and every copy of it. Only the process that accepted c uses it,
// and it uses it no more once it has closed it.
func (k *Caller) Close(c *Conn) {
	k.s.chargePacket(k.p, 64)
	k.conn = c
	k.p.Call(100, k.closeFn)
	k.conn = nil
}

// close is Close's backend body.
func (k *Caller) close() any {
	s, c := k.s, k.conn
	if c.closed {
		return nil
	}
	c.closed = true
	delete(s.conns, c.ID)
	if c.peer != nil {
		c.peer.peerClosed = true
		s.activity.WakeAllBackend()
		return nil
	}
	if s.arq != nil {
		s.arq.Send(dev.Packet{Conn: c.ID, Flags: dev.FlagFIN})
		s.arq.DropRx(c.ID)
	} else {
		s.nic.Transmit(dev.Packet{Conn: c.ID, Flags: dev.FlagFIN}, s.k.Sim.CurTime())
	}
	// Nothing finds c any more: packets for its id find no connection.
	*c = Conn{}
	s.free = append(s.free, c)
	return nil
}

// Selectable is a source Select can wait on.
type Selectable interface{ readyBackend() bool }

func (c *Conn) readyBackend() bool     { return len(c.rxQ) > 0 || c.peerClosed }
func (l *Listener) readyBackend() bool { return len(l.acceptQ) > 0 }

// Select blocks until one of the sources is ready and returns its index
// (the paper's select kernel call; no timeout — the simulated servers use
// blocking I/O with select for multiplexing only).
func (k *Caller) Select(srcs ...Selectable) int {
	k.srcs = srcs
	for !k.p.Call(200, k.selectFn).(bool) {
	}
	k.srcs = nil
	return k.idx
}

// pick is Select's backend body: it finds the first ready source, or puts
// the caller to sleep and reports false.
func (k *Caller) pick() any {
	for i, src := range k.srcs {
		if src.readyBackend() {
			k.idx = i
			return true
		}
	}
	k.s.activity.Sleep()
	return false
}

// popFront takes the first element of a queue, moving the rest down so that
// the queue keeps its array.
func popFront[T any](q *[]T) T {
	first := (*q)[0]
	n := copy(*q, (*q)[1:])
	var zero T
	(*q)[n] = zero
	*q = (*q)[:n]
	return first
}
