// Package osserver implements the paper's OS server (§3.1): the user-mode,
// multi-threaded program that simulates category-1 OS functions. Each
// simulated process pairs with an OS thread ("single" → "paired"); the
// thread owns the process's file descriptor table and dispatches its system
// calls to the kernel services (fs, netstack, shm/VM), running instrumented
// kernel code whose memory references flow through the process's own event
// port — so kernel time and kernel cache behaviour land on the right CPU.
package osserver

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"compass/internal/event"
	"compass/internal/frontend"
	"compass/internal/fs"
	"compass/internal/kernel"
	"compass/internal/mem"
	"compass/internal/netstack"
	"compass/internal/stats"
)

// Server is the OS server instance.
type Server struct {
	K   *kernel.Kernel
	FS  *fs.FS          //ckpt:skip subsystem wiring; machine.Restore restores each subsystem
	Net *netstack.Stack //ckpt:skip subsystem wiring; machine.Restore restores each subsystem

	// mu guards paired, peakPaired and threads: with threaded ports
	// (machine.Config.SpinPorts) processes connect and disconnect from
	// goroutines of their own, several at once.
	mu         sync.Mutex //ckpt:skip host lock, holds no simulation state
	paired     int
	peakPaired int

	sems map[int]*kernel.Semaphore

	// threads collects every paired OS thread so per-syscall kernel-time
	// profiles can be merged after the run (each thread's map is touched
	// only by its own process's goroutine).
	threads []*OSThread
}

// New builds an OS server over a kernel, filesystem and network stack
// (setup context). Either of fs/net may be nil when a workload does not
// need it.
func New(k *kernel.Kernel, filesys *fs.FS, net *netstack.Stack) *Server {
	return &Server{
		K: k, FS: filesys, Net: net,
		sems: make(map[int]*kernel.Semaphore),
	}
}

// OSThread is the paired OS thread serving one process: its state is the
// per-process kernel context (fd table, mmap regions).
type OSThread struct {
	srv   *Server
	proc  *frontend.Proc
	fds   []*fd
	mmaps map[mem.VirtAddr]*mmapRegion
	// sysCycles attributes kernel-mode cycles to the syscall that spent
	// them — the per-call breakdown behind the paper's Table-1 analysis
	// ("about 42% is spent in a handful of OS calls, such as kwritev,
	// kreadv, select, statx, connect, open, close, naccept and send").
	// Both are indexed by the call's ordinal: they are updated on every
	// system call, and named only when a profile is asked for.
	sysCycles [numSys]uint64
	sysCalls  [numSys]uint64

	// net makes the process's socket calls (made at the first one), and sel
	// is Select's list of sources, kept between calls.
	net *netstack.Caller
	sel []netstack.Selectable
	// semFn is sem's backend body, bound at the first semaphore operation,
	// and semKey the key it looks up.
	semFn  func() any
	semKey int
}

// sysno is a system call's ordinal in the per-thread profile; sysNames has
// the name the profile reports it under.
type sysno uint8

const (
	sysOpen sysno = iota
	sysCreat
	sysClose
	sysKreadv
	sysKwritev
	sysLseek
	sysStatx
	sysFsync
	sysSbrk
	sysShmget
	sysShmat
	sysShmdt
	sysMmap
	sysMsync
	sysListen
	sysConnect
	sysNaccept
	sysKrecv
	sysSend
	sysSelect
	sysPipe
	sysSemget
	sysSemop
	sysNanosleep
	sysKfork
	numSys
)

var sysNames = [numSys]string{
	sysOpen:      "open",
	sysCreat:     "creat",
	sysClose:     "close",
	sysKreadv:    "kreadv",
	sysKwritev:   "kwritev",
	sysLseek:     "lseek",
	sysStatx:     "statx",
	sysFsync:     "fsync",
	sysSbrk:      "sbrk",
	sysShmget:    "shmget",
	sysShmat:     "shmat",
	sysShmdt:     "shmdt",
	sysMmap:      "mmap",
	sysMsync:     "msync",
	sysListen:    "listen",
	sysConnect:   "connect",
	sysNaccept:   "naccept",
	sysKrecv:     "krecv",
	sysSend:      "send",
	sysSelect:    "select",
	sysPipe:      "pipe",
	sysSemget:    "semget",
	sysSemop:     "semop",
	sysNanosleep: "nanosleep",
	sysKfork:     "kfork",
}

type fdKind int

const (
	fdFile fdKind = iota
	fdSock
	fdListen
	fdPipeR
	fdPipeW
)

type fd struct {
	kind   fdKind
	ino    *fs.Inode
	off    int64
	conn   *netstack.Conn
	listen *netstack.Listener
	pipe   *kernel.Pipe
	open   bool
}

type mmapRegion struct {
	base mem.VirtAddr
	size uint32
	ino  *fs.Inode
}

// Connect pairs a fresh OS thread with the process (the OS-port connection
// request of §3.1), installs the page-fault handler, and stores the handle
// in p.OS.
func (s *Server) Connect(p *frontend.Proc) *OSThread {
	t := &OSThread{
		srv: s, proc: p,
		mmaps: make(map[mem.VirtAddr]*mmapRegion),
	}
	p.OS = t
	p.SetFaultHandler(t.handleFault)
	s.mu.Lock()
	s.paired++
	if s.paired > s.peakPaired {
		s.peakPaired = s.paired
	}
	s.threads = append(s.threads, t)
	s.mu.Unlock()
	return t
}

// enter begins a system call and returns the kernel-cycle odometer at
// entry; exit attributes the cycles consumed since to the named call.
// Usage: defer t.exit(sysKreadv, t.enter()). The pair replaces a per-call
// closure — one heap object per system call, the single largest line in
// the TPC-C allocation profile.
func (t *OSThread) enter() uint64 {
	t.srv.K.Enter(t.proc)
	return t.proc.Account().Cycles(stats.ModeKernel)
}

func (t *OSThread) exit(call sysno, before uint64) {
	t.srv.K.Exit(t.proc)
	t.sysCycles[call] += t.proc.Account().Cycles(stats.ModeKernel) - before
	t.sysCalls[call]++
}

// SyscallProfile merges every thread's per-call kernel cycles. Call after
// the simulation has finished.
func (s *Server) SyscallProfile() (cycles, calls map[string]uint64) {
	cycles = make(map[string]uint64)
	calls = make(map[string]uint64)
	for _, t := range s.threads {
		for call, n := range t.sysCalls {
			if n > 0 { // a call nobody made has no row
				cycles[sysNames[call]] += t.sysCycles[call]
				calls[sysNames[call]] += n
			}
		}
	}
	return cycles, calls
}

// FormatSyscallProfile renders the top kernel calls by cycles, like the
// paper's breakdown of the 47.3% SPECWeb kernel share.
func (s *Server) FormatSyscallProfile(top int) string {
	cycles, calls := s.SyscallProfile()
	type row struct {
		name   string
		cycles uint64
	}
	var rows []row
	var total uint64
	//det:ordered rows are sorted by (cycles, name) below
	for k, v := range cycles {
		rows = append(rows, row{k, v})
		total += v
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].cycles != rows[j].cycles {
			return rows[i].cycles > rows[j].cycles
		}
		return rows[i].name < rows[j].name
	})
	if top > 0 && len(rows) > top {
		rows = rows[:top]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %14s %8s %7s\n", "kernel call", "cycles", "calls", "share")
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = 100 * float64(r.cycles) / float64(total)
		}
		fmt.Fprintf(&b, "%-12s %14d %8d %6.1f%%\n", r.name, r.cycles, calls[r.name], share)
	}
	return b.String()
}

// For returns the OS thread paired with p.
func For(p *frontend.Proc) *OSThread {
	t, ok := p.OS.(*OSThread)
	if !ok {
		panic(fmt.Sprintf("osserver: proc %d not connected", p.ID()))
	}
	return t
}

// newFD installs f in the lowest free slot, reusing the record a closed
// descriptor left there.
func (t *OSThread) newFD(f fd) int {
	f.open = true
	i := 0
	for i < len(t.fds) && t.fds[i] != nil && t.fds[i].open {
		i++
	}
	if i == len(t.fds) {
		t.fds = append(t.fds, nil)
	}
	if t.fds[i] == nil {
		t.fds[i] = new(fd)
	}
	*t.fds[i] = f
	return i
}

// sock returns the process's socket caller.
func (t *OSThread) sock() *netstack.Caller {
	if t.net == nil {
		t.net = t.srv.Net.NewCaller(t.proc)
	}
	return t.net
}

func (t *OSThread) fd(n int) (*fd, error) {
	if n < 0 || n >= len(t.fds) || t.fds[n] == nil || !t.fds[n].open {
		return nil, fmt.Errorf("osserver: bad fd %d", n)
	}
	return t.fds[n], nil
}

// --- File system calls -------------------------------------------------------

// Open opens an existing file and returns a descriptor.
func (t *OSThread) Open(name string) (int, error) {
	p := t.proc
	defer t.exit(sysOpen, t.enter())
	ino, err := t.srv.FS.Lookup(p, name)
	if err != nil {
		return -1, err
	}
	return t.newFD(fd{kind: fdFile, ino: ino}), nil
}

// Creat creates a file and opens it.
func (t *OSThread) Creat(name string) (int, error) {
	p := t.proc
	defer t.exit(sysCreat, t.enter())
	ino, err := t.srv.FS.Create(p, name)
	if err != nil {
		return -1, err
	}
	return t.newFD(fd{kind: fdFile, ino: ino}), nil
}

// Close closes a descriptor of any kind.
func (t *OSThread) Close(n int) error {
	p := t.proc
	defer t.exit(sysClose, t.enter())
	f, err := t.fd(n)
	if err != nil {
		return err
	}
	f.open = false
	switch {
	case f.kind == fdSock && f.conn != nil:
		t.sock().Close(f.conn)
		f.conn = nil // the stack reuses a closed connection's record
	case f.kind == fdPipeR:
		f.pipe.CloseRead(p)
	case f.kind == fdPipeW:
		f.pipe.CloseWrite(p)
	}
	return nil
}

// Read reads up to n bytes at the descriptor's offset into dst (dst may be
// nil for traffic-only reads). userVA charges the user-side copy target.
func (t *OSThread) Read(fdn int, dst []byte, n int, userVA mem.VirtAddr) (int, error) {
	p := t.proc
	defer t.exit(sysKreadv, t.enter())
	f, err := t.fd(fdn)
	if err != nil {
		return 0, err
	}
	if f.kind != fdFile {
		return 0, fmt.Errorf("osserver: fd %d is not a file", fdn)
	}
	got, err := t.srv.FS.ReadAt(p, f.ino, f.off, n, dst, userVA)
	f.off += int64(got)
	return got, err
}

// Write writes src (or n anonymous bytes) at the descriptor's offset.
func (t *OSThread) Write(fdn int, src []byte, n int, userVA mem.VirtAddr) (int, error) {
	p := t.proc
	defer t.exit(sysKwritev, t.enter())
	f, err := t.fd(fdn)
	if err != nil {
		return 0, err
	}
	if f.kind != fdFile {
		return 0, fmt.Errorf("osserver: fd %d is not a file", fdn)
	}
	put, err := t.srv.FS.WriteAt(p, f.ino, f.off, n, src, userVA)
	f.off += int64(put)
	return put, err
}

// IOVec is one element of a kreadv/kwritev scatter-gather list.
type IOVec struct {
	UserVA mem.VirtAddr
	Len    int
}

// Kreadv is the vectored read the DB2 workloads spend kernel time in.
func (t *OSThread) Kreadv(fdn int, iov []IOVec) (int, error) {
	total := 0
	for _, v := range iov {
		got, err := t.Read(fdn, nil, v.Len, v.UserVA)
		total += got
		if err != nil {
			return total, err
		}
		if got < v.Len {
			break
		}
	}
	return total, nil
}

// Kwritev is the vectored write.
func (t *OSThread) Kwritev(fdn int, iov []IOVec) (int, error) {
	total := 0
	for _, v := range iov {
		put, err := t.Write(fdn, nil, v.Len, v.UserVA)
		total += put
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Lseek repositions the descriptor offset (whence 0=set, 1=cur, 2=end).
func (t *OSThread) Lseek(fdn int, off int64, whence int) (int64, error) {
	p := t.proc
	defer t.exit(sysLseek, t.enter())
	f, err := t.fd(fdn)
	if err != nil {
		return 0, err
	}
	switch whence {
	case 0:
		f.off = off
	case 1:
		f.off += off
	case 2:
		f.off = t.srv.FS.Stat(p, f.ino) + off
	default:
		return 0, fmt.Errorf("osserver: bad whence %d", whence)
	}
	return f.off, nil
}

// Statx returns the file size (the statx call in the SPECWeb profile).
func (t *OSThread) Statx(name string) (int64, error) {
	p := t.proc
	defer t.exit(sysStatx, t.enter())
	ino, err := t.srv.FS.Lookup(p, name)
	if err != nil {
		return 0, err
	}
	return t.srv.FS.Stat(p, ino), nil
}

// Fsync flushes the file's dirty blocks.
func (t *OSThread) Fsync(fdn int) error {
	p := t.proc
	defer t.exit(sysFsync, t.enter())
	f, err := t.fd(fdn)
	if err != nil {
		return err
	}
	t.srv.FS.Fsync(p, f.ino)
	return nil
}

// --- Memory calls ------------------------------------------------------------

// Sbrk grows the process heap.
func (t *OSThread) Sbrk(size uint32) mem.VirtAddr {
	p := t.proc
	defer t.exit(sysSbrk, t.enter())
	res := p.Call(80, func() any {
		va, err := t.srv.K.Sim.Sbrk(p.ID(), size)
		if err != nil {
			panic(err)
		}
		return va
	})
	return res.(mem.VirtAddr)
}

// ShmGet implements shmget.
func (t *OSThread) ShmGet(key int, size uint32) (int, error) {
	p := t.proc
	defer t.exit(sysShmget, t.enter())
	res := p.Call(150, func() any {
		id, err := t.srv.K.Sim.ShmGet(key, size, true)
		if err != nil {
			return err
		}
		return id
	})
	if err, ok := res.(error); ok {
		return -1, err
	}
	return res.(int), nil
}

// ShmAt implements shmat.
func (t *OSThread) ShmAt(id int) (mem.VirtAddr, error) {
	p := t.proc
	defer t.exit(sysShmat, t.enter())
	res := p.Call(200, func() any {
		va, err := t.srv.K.Sim.ShmAttach(p.ID(), id)
		if err != nil {
			return err
		}
		return va
	})
	if err, ok := res.(error); ok {
		return 0, err
	}
	return res.(mem.VirtAddr), nil
}

// ShmDt implements shmdt.
func (t *OSThread) ShmDt(base mem.VirtAddr) error {
	p := t.proc
	defer t.exit(sysShmdt, t.enter())
	res := p.Call(200, func() any {
		return t.srv.K.Sim.ShmDetach(p.ID(), base)
	})
	if err, ok := res.(error); ok {
		return err
	}
	return nil
}

// Mmap maps size bytes of an open file at its current offset, lazily: the
// first touch of each page takes a precise trap (§3.2) that pages the
// block in through the buffer cache.
func (t *OSThread) Mmap(fdn int, size uint32) (mem.VirtAddr, error) {
	p := t.proc
	defer t.exit(sysMmap, t.enter())
	f, err := t.fd(fdn)
	if err != nil {
		return 0, err
	}
	off := f.off
	res := p.Call(250, func() any {
		va, err := t.srv.K.Sim.MapFileRegion(p.ID(), size, f.ino.ID, off, mem.ProtRead|mem.ProtWrite)
		if err != nil {
			return err
		}
		return va
	})
	if err, ok := res.(error); ok {
		return 0, err
	}
	base := res.(mem.VirtAddr)
	t.mmaps[base] = &mmapRegion{base: base, size: size, ino: f.ino}
	return base, nil
}

// Msync writes the region's dirty pages back through the filesystem.
func (t *OSThread) Msync(base mem.VirtAddr) error {
	p := t.proc
	defer t.exit(sysMsync, t.enter())
	reg, ok := t.mmaps[base]
	if !ok {
		return fmt.Errorf("osserver: msync of unmapped base %#x", uint32(base))
	}
	type dpage struct {
		fileOff int64
	}
	res := p.Call(150, func() any {
		sp := t.srv.K.Sim.ProcSpace(p.ID())
		var dirty []dpage
		for pg := uint32(0); pg < (reg.size+mem.PageMask)>>mem.PageShift; pg++ {
			va := reg.base + mem.VirtAddr(pg*mem.PageSize)
			if pte := sp.Lookup(va); pte != nil && pte.Present && pte.Dirty {
				pte.Dirty = false
				dirty = append(dirty, dpage{fileOff: pte.FileOff})
			}
		}
		return dirty
	})
	for _, d := range res.([]dpage) {
		if _, err := t.srv.FS.WriteAt(p, reg.ino, d.fileOff, mem.PageSize, nil, 0); err != nil {
			return err
		}
	}
	return nil
}

// Munmap syncs and removes the region.
func (t *OSThread) Munmap(base mem.VirtAddr) error {
	if err := t.Msync(base); err != nil {
		return err
	}
	p := t.proc
	t.srv.K.Enter(p)
	defer t.srv.K.Exit(p)
	reg := t.mmaps[base]
	delete(t.mmaps, base)
	p.Call(200, func() any {
		t.srv.K.Sim.UnmapRegion(p.ID(), reg.base, reg.size)
		return nil
	})
	return nil
}

// handleFault is the precise page-fault trap path: page the file block in
// through the buffer cache (possibly blocking on disk), then attach a
// frame. Runs in kernel mode on the faulting process (§3.2).
func (t *OSThread) handleFault(p *frontend.Proc, flt *mem.Fault) {
	srv := t.srv
	// Identify the backing file and offset from the PTE.
	res := p.Call(120, func() any {
		pte := srv.K.Sim.ProcSpace(p.ID()).Lookup(flt.Addr)
		if pte == nil {
			return fmt.Errorf("osserver: fault on unmapped %#x", uint32(flt.Addr))
		}
		if pte.Present {
			return nil // raced with another fault handler; done
		}
		if pte.FileID < 0 {
			return fmt.Errorf("osserver: fault on anonymous non-present page %#x", uint32(flt.Addr))
		}
		return &mmapFaultInfo{fileID: pte.FileID, fileOff: pte.FileOff}
	})
	switch info := res.(type) {
	case nil:
		return
	case error:
		panic(info)
	case *mmapFaultInfo:
		// Bring the block into the buffer cache (charges the disk I/O and
		// kernel copies), then attach a frame to the page.
		ino := srv.FS.InodeByID(info.fileID)
		// ReadAt reads nothing past EOF (a sparse tail), so an error is a
		// failed read, e.g. EIO once recovery gives up.
		if _, err := srv.FS.ReadAt(p, ino, info.fileOff, mem.PageSize, nil, 0); err != nil {
			panic(fmt.Errorf("osserver: page-in of file %d at offset %d: %w", info.fileID, info.fileOff, err))
		}
		p.Call(300, func() any {
			if _, err := srv.K.Sim.ResolvePresentFault(p.ID(), flt); err != nil {
				panic(err)
			}
			return nil
		})
	}
}

type mmapFaultInfo struct {
	fileID  int
	fileOff int64
}

// --- Network calls -----------------------------------------------------------

// Listen opens a listening socket on a port.
func (t *OSThread) Listen(port int) (int, error) {
	defer t.exit(sysListen, t.enter())
	l, err := t.sock().Listen(port)
	if err != nil {
		return -1, err
	}
	return t.newFD(fd{kind: fdListen, listen: l}), nil
}

// AttachListener wraps an already-bound port in a new descriptor (the
// pre-fork model: workers inherit the parent's listening socket).
func (t *OSThread) AttachListener(port int) (int, error) {
	defer t.exit(sysListen, t.enter())
	l, err := t.sock().GetListener(port)
	if err != nil {
		return -1, err
	}
	return t.newFD(fd{kind: fdListen, listen: l}), nil
}

// Connect opens a loopback connection to a local port and returns its
// descriptor (the paper's connect kernel call).
func (t *OSThread) Connect(port int) (int, error) {
	defer t.exit(sysConnect, t.enter())
	c, err := t.sock().Connect(port)
	if err != nil {
		return -1, err
	}
	return t.newFD(fd{kind: fdSock, conn: c}), nil
}

// Naccept blocks for a connection and returns its descriptor.
func (t *OSThread) Naccept(listenFD int) (int, error) {
	defer t.exit(sysNaccept, t.enter())
	f, err := t.fd(listenFD)
	if err != nil {
		return -1, err
	}
	if f.kind != fdListen {
		return -1, fmt.Errorf("osserver: fd %d is not listening", listenFD)
	}
	c := t.sock().Naccept(f.listen)
	return t.newFD(fd{kind: fdSock, conn: c}), nil
}

// Recv blocks for the next segment on a socket (nil = peer closed).
func (t *OSThread) Recv(sockFD int, userVA mem.VirtAddr) ([]byte, error) {
	defer t.exit(sysKrecv, t.enter())
	f, err := t.fd(sockFD)
	if err != nil {
		return nil, err
	}
	if f.kind != fdSock {
		return nil, fmt.Errorf("osserver: fd %d is not a socket", sockFD)
	}
	return t.sock().Recv(f.conn, userVA), nil
}

// Send transmits data on a socket.
func (t *OSThread) Send(sockFD int, data []byte, userVA mem.VirtAddr) (int, error) {
	defer t.exit(sysSend, t.enter())
	f, err := t.fd(sockFD)
	if err != nil {
		return 0, err
	}
	if f.kind != fdSock {
		return 0, fmt.Errorf("osserver: fd %d is not a socket", sockFD)
	}
	return t.sock().Send(f.conn, data, userVA), nil
}

// Select blocks until one of the given descriptors is readable and returns
// its position in the list.
func (t *OSThread) Select(fds ...int) (int, error) {
	defer t.exit(sysSelect, t.enter())
	srcs := t.sel[:0]
	for _, n := range fds {
		f, err := t.fd(n)
		if err != nil {
			return -1, err
		}
		switch f.kind {
		case fdSock:
			srcs = append(srcs, f.conn)
		case fdListen:
			srcs = append(srcs, f.listen)
		default:
			return -1, fmt.Errorf("osserver: select on non-socket fd %d", n)
		}
	}
	idx := t.sock().Select(srcs...)
	clear(srcs) // hold no connection between calls
	t.sel = srcs[:0]
	return idx, nil
}

// --- Time and process calls --------------------------------------------------

// Pipe creates a pipe and returns its (read, write) descriptors — the
// pipe(2) of §1's inter-process communication. Pass the read fd to a
// forked child (via SendFD-style plumbing at the workload level) or use
// both ends from related processes.
func (t *OSThread) Pipe(capacity int) (int, int) {
	p := t.proc
	defer t.exit(sysPipe, t.enter())
	pp := t.srv.K.NewPipeRuntime(p, capacity)
	r := t.newFD(fd{kind: fdPipeR, pipe: pp})
	w := t.newFD(fd{kind: fdPipeW, pipe: pp})
	return r, w
}

// PipeHandle exposes the kernel pipe behind a descriptor so a related
// process (a forked child) can adopt it.
func (t *OSThread) PipeHandle(fdn int) (*kernel.Pipe, error) {
	f, err := t.fd(fdn)
	if err != nil {
		return nil, err
	}
	if f.pipe == nil {
		return nil, fmt.Errorf("osserver: fd %d is not a pipe", fdn)
	}
	return f.pipe, nil
}

// AdoptPipe wraps an existing kernel pipe end in this process's fd table
// (the fork-inheritance path; readEnd selects which end).
func (t *OSThread) AdoptPipe(pp *kernel.Pipe, readEnd bool) int {
	kind := fdPipeW
	if readEnd {
		kind = fdPipeR
	}
	return t.newFD(fd{kind: kind, pipe: pp})
}

// PipeRead reads up to max bytes from a pipe descriptor (nil = EOF).
func (t *OSThread) PipeRead(fdn, max int) ([]byte, error) {
	p := t.proc
	defer t.exit(sysKreadv, t.enter())
	f, err := t.fd(fdn)
	if err != nil {
		return nil, err
	}
	if f.kind != fdPipeR {
		return nil, fmt.Errorf("osserver: fd %d is not a pipe read end", fdn)
	}
	return f.pipe.Read(p, max), nil
}

// PipeWrite writes data into a pipe descriptor.
func (t *OSThread) PipeWrite(fdn int, data []byte) (int, error) {
	p := t.proc
	defer t.exit(sysKwritev, t.enter())
	f, err := t.fd(fdn)
	if err != nil {
		return 0, err
	}
	if f.kind != fdPipeW {
		return 0, fmt.Errorf("osserver: fd %d is not a pipe write end", fdn)
	}
	return f.pipe.Write(p, data), nil
}

// SemGet returns (creating on first use) the System-V-style semaphore with
// the given key, initialized to initial. The semaphore blocks in the
// kernel — the "sophisticated inter-process communication" of §1 that
// scientific benchmarks never exercise.
func (t *OSThread) SemGet(key, initial int) int {
	p := t.proc
	defer t.exit(sysSemget, t.enter())
	p.Call(120, func() any {
		if _, ok := t.srv.sems[key]; !ok {
			t.srv.sems[key] = t.srv.K.NewSemaphore(initial)
		}
		return nil
	})
	return key
}

// sem resolves a semaphore key in backend context (the map is backend-owned).
func (t *OSThread) sem(key int) *kernel.Semaphore {
	if t.semFn == nil {
		t.semFn = t.lookupSem
	}
	t.semKey = key
	s := t.proc.Call(40, t.semFn)
	if s == nil {
		panic(fmt.Sprintf("osserver: semaphore %d not created", key))
	}
	return s.(*kernel.Semaphore)
}

// lookupSem is sem's backend body.
func (t *OSThread) lookupSem() any {
	if sem, ok := t.srv.sems[t.semKey]; ok {
		return sem
	}
	return nil
}

// SemP performs the P (down/wait) operation, blocking while the count is
// zero (§3.3.3 blocking OS call).
func (t *OSThread) SemP(key int) {
	p := t.proc
	defer t.exit(sysSemop, t.enter())
	t.sem(key).P(p)
}

// SemV performs the V (up/post) operation.
func (t *OSThread) SemV(key int) {
	p := t.proc
	defer t.exit(sysSemop, t.enter())
	t.sem(key).V(p)
}

// SleepCycles blocks the process for n cycles using the timer (a blocking
// OS call, §3.3.3). A daemon process's sleep does not keep the simulation
// alive.
func (t *OSThread) SleepCycles(n uint64) {
	p := t.proc
	defer t.exit(sysNanosleep, t.enter())
	p.Call(100, func() any {
		sim := t.srv.K.Sim
		sim.SleepCurrent(event.Cycle(n), "nanosleep", sim.ProcIsDaemon(p.ID()))
		return nil
	})
}

// Fork creates a child process running body, paired with its own OS thread
// (the fork+connect handshake of §3.1). The child inherits nothing but the
// kernel: it gets a fresh private address space, like the paper's
// process-model applications.
func (t *OSThread) Fork(name string, body func(p *frontend.Proc)) {
	p := t.proc
	srv := t.srv
	defer t.exit(sysKfork, t.enter())
	p.Call(1500, func() any {
		srv.K.Sim.SpawnLocked(name, func(cp *frontend.Proc) {
			srv.Connect(cp)
			body(cp)
		})
		return nil
	})
}

// StartSyncd launches the buffer-cache flush daemon — the paper's example
// of bottom-half kernel work without a process context ("the kernel thread
// for virtual memory garbage collection"): every interval it writes all
// dirty blocks back to disk. Call before Run (setup context).
func (s *Server) StartSyncd(interval uint64) {
	s.K.Sim.SpawnDaemon("syncd", func(p *frontend.Proc) {
		t := s.Connect(p)
		for {
			t.SleepCycles(interval)
			s.K.Enter(p)
			s.FS.SyncAll(p)
			s.K.Exit(p)
		}
	})
}
