// Package db is a from-scratch miniature relational storage engine standing
// in for IBM DB2 (§4.1): a multi-process server with a shared buffer pool
// in a System-V shared-memory segment, table files on the simulated
// filesystem read with kreadv-style I/O, per-page latching, and row-level
// access that charges real memory traffic against the pool's simulated
// addresses. It is execution-driven: rows are real bytes (big-endian
// records) and query results depend on them.
package db

import (
	"encoding/binary"
	"fmt"
	"sort"

	"compass/internal/event"
	"compass/internal/frontend"
	"compass/internal/isa"
	"compass/internal/mem"
	"compass/internal/osserver"
	"compass/internal/simsync"
)

// PageBytes is the database page size (matches the FS block size).
const PageBytes = 4096

// Table describes one table: fixed-size rows packed into pages.
type Table struct {
	Name    string
	File    string
	RowSize int
	Rows    int

	// ord is the table's ordinal in its catalog (AddTable order): what the
	// buffer-pool index keys pages by, in place of the name.
	ord int
	// rpp is PageBytes / RowSize, worked out once when the catalog takes the
	// table in: PageOf is called for every row a scan looks at.
	rpp int
}

// RowsPerPage returns the table's rows-per-page fanout.
func (t *Table) RowsPerPage() int { return t.rpp }

// Pages returns the number of pages the table occupies.
func (t *Table) Pages() int {
	return (t.Rows + t.rpp - 1) / t.rpp
}

// PageOf returns the page and in-page offset of a row.
func (t *Table) PageOf(row int) (page, off int) {
	page = row / t.rpp
	return page, (row - page*t.rpp) * t.RowSize
}

// Catalog is the schema shared by every agent (built at setup, read-only
// afterwards).
type Catalog struct {
	Tables map[string]*Table
	// ShmKey identifies the buffer-pool segment.
	ShmKey    int
	PoolPages int
	// LockWords is the number of 4-byte application lock words carved out
	// of the segment header (row-group locks, the pool latch, counters).
	LockWords int

	byOrd []*Table // every table added, by ordinal
	pool  *shared
}

// NewCatalog creates an empty schema.
func NewCatalog(shmKey, poolPages int) *Catalog {
	return &Catalog{
		Tables:    make(map[string]*Table),
		ShmKey:    shmKey,
		PoolPages: poolPages,
		LockWords: 256,
	}
}

// headerBytes returns the segment-header size (locks + slot headers).
func (c *Catalog) headerBytes() int { return c.LockWords*4 + c.PoolPages*64 }

// SegmentBytes returns the total buffer-pool segment size.
func (c *Catalog) SegmentBytes() uint32 {
	return uint32(c.headerBytes() + c.PoolPages*PageBytes)
}

// AddTable registers a table.
func (c *Catalog) AddTable(name, file string, rowSize, rows int) *Table {
	t := &Table{Name: name, File: file, RowSize: rowSize, Rows: rows, ord: len(c.byOrd), rpp: PageBytes / rowSize}
	c.Tables[name] = t
	c.byOrd = append(c.byOrd, t)
	return t
}

// EncodeRow packs 32-bit fields into a fresh row buffer (big-endian, like
// the PowerPC target).
func EncodeRow(rowSize int, fields ...uint32) []byte {
	return EncodeRowInto(make([]byte, rowSize), fields...)
}

// EncodeRowInto packs 32-bit fields into the caller's row buffer (at least
// 4×len(fields) bytes; the tail is zeroed so a reused buffer encodes the
// same bytes a fresh one would) and returns it. Hot paths — the TPC-C bulk
// load and the per-transaction log records — encode into a reused buffer
// instead of allocating one per row.
func EncodeRowInto(row []byte, fields ...uint32) []byte {
	for i, f := range fields {
		binary.BigEndian.PutUint32(row[i*4:], f)
	}
	for i := 4 * len(fields); i < len(row); i++ {
		row[i] = 0
	}
	return row
}

// Field extracts the i-th 32-bit field of a row.
func Field(row []byte, i int) uint32 {
	return binary.BigEndian.Uint32(row[i*4:])
}

// SetField overwrites the i-th field.
func SetField(row []byte, i int, v uint32) {
	binary.BigEndian.PutUint32(row[i*4:], v)
}

// shared is the host-side state every agent shares, guarded by the pool
// latch (a simulated spinlock), per the simulator's determinism rule.
type shared struct {
	slots        []slot
	index        map[slotKey]int
	lru          uint64
	hits, misses uint64
}

// slotKey names a page of a table: the table's ordinal above the page
// number, one word so that the index hashes eight bytes and no string.
type slotKey uint64

func keyOf(t *Table, page int) slotKey { return slotKey(t.ord)<<32 | slotKey(uint32(page)) }

func (k slotKey) table() int { return int(k >> 32) }
func (k slotKey) page() int  { return int(uint32(k)) }

type slot struct {
	key    slotKey
	data   []byte
	dirty  bool
	pins   int
	ioBusy bool
	lruSeq uint64
	valid  bool
}

// Setup initializes the host-side pool state for a catalog (call once,
// before Run).
func Setup(c *Catalog) {
	c.pool = &shared{
		slots: make([]slot, c.PoolPages),
		index: make(map[slotKey]int),
	}
}

// Stats reports pool hit statistics after a run.
func Stats(c *Catalog) (hits, misses uint64) {
	return c.pool.hits, c.pool.misses
}

// Agent is one database server process's connection to the engine.
type Agent struct {
	P     *frontend.Proc
	OS    *osserver.OSThread
	Cat   *Catalog
	base  mem.VirtAddr // segment base in this process
	sh    *shared
	latch simsync.SpinLock
	fds   map[string]int

	// want is the page GetPage is after and settled the condition it waits
	// for under the pool latch (pageSettled), bound once: the lock-poll loop
	// hands it to the backend, and a closure per call would allocate.
	want    slotKey
	settled func() bool

	// scan is the row scan in progress (ScanRows) and rowStep the step its
	// range event carries, bound once like settled.
	scan    rowScan
	rowStep func() event.Cycle

	// rowBuf and recBuf are the host-side scratch buffers behind
	// FetchRowTmp and EncodeRowTmp, and page the copy of a page GetPage
	// writes back; each agent is driven by one process goroutine, so they
	// need no locking.
	rowBuf []byte
	recBuf []byte
	page   []byte
}

// NewAgent attaches the calling process to the buffer pool and opens the
// table files.
func NewAgent(p *frontend.Proc, cat *Catalog) *Agent {
	os := osserver.For(p)
	id, err := os.ShmGet(cat.ShmKey, cat.SegmentBytes())
	if err != nil {
		panic(err)
	}
	base, err := os.ShmAt(id)
	if err != nil {
		panic(err)
	}
	if cat.pool == nil {
		panic("db: Setup(catalog) was not called")
	}
	a := &Agent{
		P: p, OS: os, Cat: cat, base: base,
		sh:    cat.pool,
		latch: simsync.SpinLock{Addr: base},
		fds:   make(map[string]int),
	}
	a.settled = a.pageSettled
	a.rowStep = a.scanRow
	// Open table files in sorted order: map iteration order would make
	// the syscall sequence — and hence the simulation — nondeterministic.
	names := make([]string, 0, len(cat.Tables))
	//det:ordered names are sorted before any syscall is issued
	for name := range cat.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := cat.Tables[name]
		fd, err := os.Open(t.File)
		if err != nil {
			panic(fmt.Sprintf("db: open %s: %v", t.File, err))
		}
		a.fds[name] = fd
	}
	return a
}

// LockWord returns the simulated address of application lock word i
// (transaction locks: warehouse/district latches, commit counters).
func (a *Agent) LockWord(i int) mem.VirtAddr {
	if i < 1 || i >= a.Cat.LockWords {
		panic(fmt.Sprintf("db: lock word %d out of range", i))
	}
	return a.base + mem.VirtAddr(i*4)
}

// Lock returns a spinlock over application lock word i.
func (a *Agent) Lock(i int) *simsync.SpinLock {
	return &simsync.SpinLock{Addr: a.LockWord(i)}
}

func (a *Agent) slotVA(i int) mem.VirtAddr {
	return a.base + mem.VirtAddr(a.Cat.headerBytes()+i*PageBytes)
}

func (a *Agent) slotHdrVA(i int) mem.VirtAddr {
	return a.base + mem.VirtAddr(a.Cat.LockWords*4+i*64)
}

// GetPage pins the page of a table in the buffer pool, reading it from the
// table file on a miss (kreadv through the OS server), and returns the
// slot index. Unpin when done.
func (a *Agent) GetPage(t *Table, page int) int {
	key := keyOf(t, page)
	for {
		// While the page is in transit, poll every 400 cycles with the latch
		// released and the CPU offered to the loader.
		a.want = key
		a.latch.LockWhen(a.P, 400, a.settled)
		if i, ok := a.sh.index[key]; ok {
			s := &a.sh.slots[i]
			s.pins++
			a.sh.lru++
			s.lruSeq = a.sh.lru
			a.sh.hits++
			a.P.TouchRange(a.slotHdrVA(i), 64, true) // slot header
			a.latch.Unlock(a.P)
			return i
		}
		a.sh.misses++
		// Choose a victim: unpinned, not busy, least recently used.
		victim := -1
		for i := range a.sh.slots {
			s := &a.sh.slots[i]
			if !s.valid {
				victim = i
				break
			}
			if s.pins > 0 || s.ioBusy {
				continue
			}
			if victim < 0 || s.lruSeq < a.sh.slots[victim].lruSeq {
				victim = i
			}
		}
		if victim < 0 {
			a.latch.Unlock(a.P)
			a.P.ComputeCycles(600)
			a.P.Yield()
			continue
		}
		s := &a.sh.slots[victim]
		if s.valid && s.dirty {
			// Write back the old page, pool latch released around the I/O.
			// The write copies the page into the file's buffer before it
			// returns, so the agent's scratch page can carry it.
			old := s.key
			a.page = append(a.page[:0], s.data...)
			s.ioBusy = true
			a.latch.Unlock(a.P)
			a.writePage(old, a.page)
			a.latch.Lock(a.P)
			s.ioBusy = false
			s.dirty = false
			a.latch.Unlock(a.P)
			continue // re-run: the world may have changed
		}
		// Claim the slot and load the new page.
		if s.valid {
			delete(a.sh.index, s.key)
		}
		// The slot keeps its page array from one tenant to the next: the
		// evicted page was unpinned, and whatever outlives a pin holds a copy
		// (ReadRowInto, the write-back's snapshot, SaveState).
		data := s.data
		if len(data) == PageBytes {
			clear(data)
		} else {
			data = make([]byte, PageBytes)
		}
		*s = slot{key: key, data: data, ioBusy: true, valid: true, pins: 1}
		a.sh.lru++
		s.lruSeq = a.sh.lru
		a.sh.index[key] = victim
		a.latch.Unlock(a.P)

		fd := a.fds[t.Name]
		a.OS.Lseek(fd, int64(page)*PageBytes, 0)
		if _, err := a.OS.Read(fd, s.data, PageBytes, a.slotVA(victim)); err != nil {
			panic(fmt.Sprintf("db: read %s page %d: %v", t.Name, page, err))
		}
		a.latch.Lock(a.P)
		s.ioBusy = false
		a.latch.Unlock(a.P)
		return victim
	}
}

// pageSettled is what GetPage waits for with the pool latch held: the page
// it wants is not in transit — resident, or not in the pool at all. It reads
// the pool's host state and nothing else (simsync.SpinLock.LockWhen).
func (a *Agent) pageSettled() bool {
	i, ok := a.sh.index[a.want]
	return !ok || !a.sh.slots[i].ioBusy
}

func (a *Agent) writePage(key slotKey, snap []byte) {
	t := a.Cat.byOrd[key.table()]
	fd := a.fds[t.Name]
	a.OS.Lseek(fd, int64(key.page())*PageBytes, 0)
	if _, err := a.OS.Write(fd, snap, 0, 0); err != nil {
		panic(fmt.Sprintf("db: write %s page %d: %v", t.Name, key.page(), err))
	}
}

// Unpin releases a pinned slot, optionally marking it dirty.
func (a *Agent) Unpin(slotIdx int, dirty bool) {
	a.latch.Lock(a.P)
	s := &a.sh.slots[slotIdx]
	s.pins--
	if dirty {
		s.dirty = true
	}
	a.latch.Unlock(a.P)
}

// ReadRow copies a row out of a pinned slot, charging the tuple access.
func (a *Agent) ReadRow(t *Table, slotIdx, row int) []byte {
	return a.ReadRowInto(t, slotIdx, row, nil)
}

// ReadRowInto is ReadRow into the caller's buffer (grown when too small),
// returned sized to the row. The tuple charges are identical; only the
// host-side allocation is saved.
func (a *Agent) ReadRowInto(t *Table, slotIdx, row int, out []byte) []byte {
	_, off := t.PageOf(row)
	a.P.TouchRange(a.slotVA(slotIdx)+mem.VirtAddr(off), t.RowSize, false)
	a.P.Compute(tupleMix(t))
	s := &a.sh.slots[slotIdx]
	out = sized(out, t.RowSize)
	copy(out, s.data[off:off+t.RowSize])
	return out
}

// tupleMix is the instruction path of one tuple access: locating the row in
// its page and moving its bytes.
func tupleMix(t *Table) isa.InstrMix {
	return isa.InstrMix{Int: uint64(8 + t.RowSize/8), Branch: 2}
}

// sized returns buf with length n, reallocated when it is too small.
func sized(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// ScanRows puts the rows [lo, hi) of t, which all lie on the page pinned in
// slotIdx, through fn in order. fn looks at the row in rec (valid for the
// call), does what the query does with it and returns the cycles that work
// stands for; ScanRows is the loop
//
//	for row := lo; row < hi; row++ {
//		rec = a.ReadRowInto(t, slotIdx, row, rec)
//		a.P.ComputeCycles(fn(rec))
//	}
//
// and returns rec, grown when it was too small. A table whose rows are one
// range stride wide — a row a reference — is scanned as one stepped range
// (frontend.Proc.TouchStepped): the backend serves a row's reference and runs
// its step, the copy out of the page and fn, in one go, so fn runs inside a
// post and makes no Proc calls. Any other table takes the loop as written.
func (a *Agent) ScanRows(t *Table, slotIdx, lo, hi int, rec []byte, fn func(rec []byte) uint64) []byte {
	if t.RowSize != frontend.RangeStride {
		for row := lo; row < hi; row++ {
			rec = a.ReadRowInto(t, slotIdx, row, rec)
			a.P.ComputeCycles(fn(rec))
		}
		return rec
	}
	rec = sized(rec, t.RowSize)
	if lo >= hi {
		return rec
	}
	_, off := t.PageOf(lo)
	n := (hi - lo) * t.RowSize
	a.scan = rowScan{
		data: a.sh.slots[slotIdx].data[off : off+n], rec: rec,
		tuple: a.P.CyclesOf(tupleMix(t)), fn: fn,
	}
	a.P.TouchStepped(a.slotVA(slotIdx)+mem.VirtAddr(off), n, false, a.rowStep)
	return rec
}

// rowScan is where a ScanRows call stands: the bytes of the rows not yet
// looked at, the caller's row buffer and function, and the cycles of a tuple
// access.
type rowScan struct {
	data, rec []byte
	tuple     uint64
	fn        func(rec []byte) uint64
}

// scanRow is the step between two row references of a scan: what follows the
// reference in ReadRowInto — the tuple access, the copy out of the page —
// and the caller's work on the row.
func (a *Agent) scanRow() event.Cycle {
	sc := &a.scan
	sc.data = sc.data[copy(sc.rec, sc.data):]
	return event.Cycle(sc.tuple + sc.fn(sc.rec))
}

// WriteRow stores a row into a pinned slot (caller must Unpin dirty).
func (a *Agent) WriteRow(t *Table, slotIdx, row int, data []byte) {
	_, off := t.PageOf(row)
	a.P.TouchRange(a.slotVA(slotIdx)+mem.VirtAddr(off), t.RowSize, true)
	a.P.Compute(tupleMix(t))
	s := &a.sh.slots[slotIdx]
	copy(s.data[off:off+t.RowSize], data)
}

// FetchRow reads one row with page pin/unpin around it (point query).
func (a *Agent) FetchRow(t *Table, row int) []byte {
	page, _ := t.PageOf(row)
	si := a.GetPage(t, page)
	out := a.ReadRow(t, si, row)
	a.Unpin(si, false)
	return out
}

// FetchRowTmp is FetchRow into the agent's reusable row scratch: the
// returned slice is valid only until this agent's next FetchRowTmp call.
// Transaction mixes that consume each row before fetching the next (the
// TPC-C point queries) use it to take row allocation off the per-event
// hot path.
func (a *Agent) FetchRowTmp(t *Table, row int) []byte {
	page, _ := t.PageOf(row)
	si := a.GetPage(t, page)
	a.rowBuf = a.ReadRowInto(t, si, row, a.rowBuf)
	a.Unpin(si, false)
	return a.rowBuf
}

// EncodeRowTmp is EncodeRow into the agent's reusable record scratch
// (distinct from the FetchRowTmp buffer, so a fetched row and an encoded
// record may be live at once). Valid until the next EncodeRowTmp call.
func (a *Agent) EncodeRowTmp(rowSize int, fields ...uint32) []byte {
	if cap(a.recBuf) < rowSize {
		a.recBuf = make([]byte, rowSize)
	}
	a.recBuf = a.recBuf[:rowSize]
	return EncodeRowInto(a.recBuf, fields...)
}

// UpdateRow rewrites one row in place (point update).
func (a *Agent) UpdateRow(t *Table, row int, data []byte) {
	page, _ := t.PageOf(row)
	si := a.GetPage(t, page)
	a.WriteRow(t, si, row, data)
	a.Unpin(si, true)
}

// AppendLog appends a record to a log file and fsyncs every groupCommit
// appends (the WAL commit path: kwritev + occasional fsync).
type AppendLog struct {
	fd    int
	count int
	group int
}

// OpenLog opens (or creates) a log file for appending.
func (a *Agent) OpenLog(name string, groupCommit int) *AppendLog {
	fd, err := a.OS.Open(name)
	if err != nil {
		if fd, err = a.OS.Creat(name); err != nil {
			panic(err)
		}
	}
	a.OS.Lseek(fd, 0, 2)
	return &AppendLog{fd: fd, group: groupCommit}
}

// Append writes a record; returns true when this append triggered a
// group-commit fsync.
func (l *AppendLog) Append(a *Agent, rec []byte) bool {
	if _, err := a.OS.Write(l.fd, rec, 0, 0); err != nil {
		panic(err)
	}
	l.count++
	if l.group > 0 && l.count%l.group == 0 {
		a.OS.Fsync(l.fd)
		return true
	}
	return false
}

// Close detaches the agent (does not flush; callers fsync what they
// need), closing the table files in catalog order.
func (a *Agent) Close() {
	for _, t := range a.Cat.byOrd {
		a.OS.Close(a.fds[t.Name])
	}
}
