// Package tpcd is a scaled-down TPC-D-like decision-support workload — the
// paper's "TPCD/DB2 (100MB DB)" row of Table 1 and the query used in the
// slowdown experiments (Tables 2 and 3). Parallel agents scan a lineitem
// table through the shared buffer pool (kreadv I/O), run filter/aggregate
// queries with real arithmetic on real rows, and one query variant walks
// an mmap'ed region so the mmap/munmap/msync path the paper profiles is
// exercised.
package tpcd

import (
	"math/rand"

	"compass/internal/apps/db"
	"compass/internal/event"
	"compass/internal/frontend"
	"compass/internal/fs"
	"compass/internal/isa"
	"compass/internal/osserver"
	"compass/internal/simsync"
)

// Config scales the database.
type Config struct {
	// Rows in the lineitem table (32 B each, 128 rows per page).
	Rows int
	// Orders in the orders table (each owns Rows/Orders line items).
	Orders    int
	Agents    int
	PoolPages int
	Seed      int64
}

// DefaultConfig is roughly a 1 MB database: big enough to spill the 48-page
// buffer pool, small enough to simulate quickly.
func DefaultConfig() Config {
	return Config{Rows: 16384, Orders: 256, Agents: 4, PoolPages: 48, Seed: 7}
}

// lineitem row: [orderkey, partkey, quantity, extprice, discountPct, shipday, flaggroup, 0]
const liRowSize = 32

// Groups is the number of returnflag/linestatus groups a lineitem row is
// drawn from.
const Groups = 4

// orders row: [orderkey, custkey, orderday, priority, ...]
const ordRowSize = 32

// Workload is a built TPCD instance.
type Workload struct {
	Cfg      Config
	Cat      *db.Catalog
	lineitem *db.Table
	orders   *db.Table

	// rows retained host-side for result verification and the mmap scan.
	li  [][7]uint32
	ord [][4]uint32
}

// OrderPriority returns the generated priority of an order (oracle use).
func (w *Workload) OrderPriority(o int) uint32 { return w.ord[o][3] }

// LineitemPages returns the lineitem table's page count (partitioning).
func (w *Workload) LineitemPages() int { return w.lineitem.Pages() }

// Setup generates the database files (pre-Run).
func Setup(filesys *fs.FS, cfg Config) *Workload {
	w := &Workload{Cfg: cfg, Cat: db.NewCatalog(0x7CD0, cfg.PoolPages)}
	w.lineitem = w.Cat.AddTable("lineitem", "tpcd.lineitem", liRowSize, cfg.Rows)
	w.orders = w.Cat.AddTable("orders", "tpcd.orders", ordRowSize, cfg.Orders)

	rng := rand.New(rand.NewSource(cfg.Seed))
	w.li = make([][7]uint32, cfg.Rows)
	liData := make([]byte, w.lineitem.Pages()*db.PageBytes)
	perOrder := cfg.Rows / cfg.Orders
	for i := 0; i < cfg.Rows; i++ {
		r := [7]uint32{
			uint32(i / perOrder),          // orderkey
			uint32(rng.Intn(2000)),        // partkey
			uint32(1 + rng.Intn(50)),      // quantity
			uint32(100 + rng.Intn(99900)), // extended price (cents)
			uint32(rng.Intn(11)),          // discount (%)
			uint32(rng.Intn(2526)),        // ship day
			uint32(rng.Intn(Groups)),      // returnflag/linestatus group
		}
		w.li[i] = r
		page, off := w.lineitem.PageOf(i)
		at := page*db.PageBytes + off
		db.EncodeRowInto(liData[at:at+liRowSize], r[0], r[1], r[2], r[3], r[4], r[5], r[6])
	}
	filesys.SetupCreate(w.lineitem.File, liData)

	ordData := make([]byte, w.orders.Pages()*db.PageBytes)
	w.ord = make([][4]uint32, cfg.Orders)
	for i := 0; i < cfg.Orders; i++ {
		o := [4]uint32{uint32(i), uint32(rng.Intn(500)), uint32(rng.Intn(2526)), uint32(rng.Intn(5))}
		w.ord[i] = o
		page, off := w.orders.PageOf(i)
		at := page*db.PageBytes + off
		db.EncodeRowInto(ordData[at:at+ordRowSize], o[0], o[1], o[2], o[3])
	}
	filesys.SetupCreate(w.orders.File, ordData)

	db.Setup(w.Cat)
	return w
}

// Q1Result aggregates the pricing-summary query.
type Q1Result struct {
	Count    uint64
	SumQty   uint64
	SumPrice uint64
}

// result cells in the shm segment: lock word 2 guards, words 3.. hold the
// partial sums (32-bit, so large scales should use per-agent partials).
const (
	resLock  = 2
	resCount = 3
	resQty   = 4
	resPrice = 5 // price sum stored /128 to fit 32 bits
)

// scan puts the rows of lineitem's pages [firstPage, lastPage) through fn in
// order, a page pinned at a time: fn looks at a row, in rec, and returns the
// cycles of the work it did on it (db.Agent.ScanRows). The queries keep rec
// beside their partial results, so that a scan's state is one object beside
// its closure.
func (w *Workload) scan(a *db.Agent, firstPage, lastPage int, rec []byte, fn func(rec []byte) uint64) {
	t := w.lineitem
	rpp := t.RowsPerPage()
	for page := firstPage; page < lastPage; page++ {
		si := a.GetPage(t, page)
		lo := page * rpp
		rec = a.ScanRows(t, si, lo, min(lo+rpp, t.Rows), rec, fn)
		a.Unpin(si, false)
	}
}

// Q1 runs the pricing-summary scan (filter shipday <= cutoff) over the
// page range [firstPage, lastPage) — each agent takes a partition. The
// partial results land in shared-memory counters.
func (w *Workload) Q1(p *frontend.Proc, a *db.Agent, firstPage, lastPage int, cutoff uint32) Q1Result {
	var s struct {
		Q1Result
		rec [liRowSize]byte
	}
	// Predicate evaluation + decimal arithmetic per row (DB2's expression
	// service), then aggregation on matches.
	row := p.CyclesOf(isa.InstrMix{Int: 320, FPAdd: 30, FPMul: 12, Branch: 60, IntMul: 8})
	match := row + p.CyclesOf(isa.InstrMix{Int: 30, FPAdd: 9, Branch: 4})
	w.scan(a, firstPage, lastPage, s.rec[:], func(rec []byte) uint64 {
		if db.Field(rec, 5) > cutoff {
			return row
		}
		s.Count++
		s.SumQty += uint64(db.Field(rec, 2))
		s.SumPrice += uint64(db.Field(rec, 3))
		return match
	})
	local := s.Q1Result
	// Publish partials under the result lock.
	lk := a.Lock(resLock)
	lk.Lock(p)
	(&simsync.Counter{Addr: a.LockWord(resCount)}).Add(p, local.Count)
	(&simsync.Counter{Addr: a.LockWord(resQty)}).Add(p, local.SumQty)
	(&simsync.Counter{Addr: a.LockWord(resPrice)}).Add(p, local.SumPrice/128)
	lk.Unlock(p)
	return local
}

// Q6 is the forecasting-revenue filter: shipday in [d0,d1), discount in
// [dc-1, dc+1], quantity < qmax; revenue = sum(price*discount).
func (w *Workload) Q6(p *frontend.Proc, a *db.Agent, firstPage, lastPage int, d0, d1, dc, qmax uint32) uint64 {
	var s struct {
		revenue uint64
		rec     [liRowSize]byte
	}
	row := p.CyclesOf(isa.InstrMix{Int: 260, FPAdd: 20, Branch: 50, IntMul: 6})
	match := row + p.CyclesOf(isa.InstrMix{Int: 12, IntMul: 2, FPMul: 4, Branch: 4})
	w.scan(a, firstPage, lastPage, s.rec[:], func(rec []byte) uint64 {
		sd, disc, qty := db.Field(rec, 5), db.Field(rec, 4), db.Field(rec, 2)
		if sd >= d0 && sd < d1 && disc+1 >= dc && disc <= dc+1 && qty < qmax {
			s.revenue += uint64(db.Field(rec, 3)) * uint64(disc)
			return match
		}
		return row
	})
	return s.revenue
}

// Q3Join is a nested-loop join: for orders with priority == pri, aggregate
// the prices of their line items (orderkey i owns a contiguous row run).
func (w *Workload) Q3Join(p *frontend.Proc, a *db.Agent, firstOrder, lastOrder int, pri uint32) uint64 {
	perOrder := w.Cfg.Rows / w.Cfg.Orders
	var total uint64
	for o := firstOrder; o < lastOrder; o++ {
		orow := a.FetchRow(w.orders, o)
		if db.Field(orow, 3) != pri {
			continue
		}
		base := o * perOrder
		for r := base; r < base+perOrder; r++ {
			rec := a.FetchRow(w.lineitem, r)
			total += uint64(db.Field(rec, 3))
			p.Compute(isa.InstrMix{Int: 60, FPAdd: 5, Branch: 10})
		}
	}
	return total
}

// QMmapScan maps the lineitem file and walks it page by page through the
// mmap fault path (the TPCD profile's mmap/munmap/msync share). Data for
// the aggregation comes from the generator-retained rows; the memory
// traffic and page-ins are fully simulated.
func (w *Workload) QMmapScan(p *frontend.Proc, cutoff uint32) (uint64, error) {
	os := osserver.For(p)
	fd, err := os.Open(w.lineitem.File)
	if err != nil {
		return 0, err
	}
	size := uint32(w.lineitem.Pages() * db.PageBytes)
	base, err := os.Mmap(fd, size)
	if err != nil {
		return 0, err
	}
	// The rows lie back to back across the mapping's pages: the whole table
	// is one stepped range. Every page's first row faults the page in; the
	// walk stops short of it, the row is posted again, traps, and the range
	// goes on where the step's row counter stands.
	var count uint64
	match := event.Cycle(p.CyclesOf(isa.InstrMix{Int: 4, FPAdd: 1, Branch: 2}))
	next := 0
	p.TouchStepped(base, len(w.li)*liRowSize, false, func() event.Cycle {
		r := &w.li[next]
		next++
		if r[5] > cutoff {
			return 0
		}
		count++
		return match
	})
	if err := os.Munmap(base); err != nil {
		return 0, err
	}
	os.Close(fd)
	return count, nil
}

// HostQ1 computes Q1 directly from the retained rows (oracle for tests).
func (w *Workload) HostQ1(cutoff uint32) Q1Result {
	var r Q1Result
	for _, li := range w.li {
		if li[5] <= cutoff {
			r.Count++
			r.SumQty += uint64(li[2])
			r.SumPrice += uint64(li[3])
		}
	}
	return r
}

// HostQ6 is the oracle for Q6.
func (w *Workload) HostQ6(d0, d1, dc, qmax uint32) uint64 {
	var rev uint64
	for _, li := range w.li {
		if li[5] >= d0 && li[5] < d1 && li[4]+1 >= dc && li[4] <= dc+1 && li[2] < qmax {
			rev += uint64(li[3]) * uint64(li[4])
		}
	}
	return rev
}

// ReadResults pulls the shared Q1 partial sums (any agent context).
func (w *Workload) ReadResults(p *frontend.Proc, a *db.Agent) Q1Result {
	return Q1Result{
		Count:    (&simsync.Counter{Addr: a.LockWord(resCount)}).Load(p),
		SumQty:   (&simsync.Counter{Addr: a.LockWord(resQty)}).Load(p),
		SumPrice: (&simsync.Counter{Addr: a.LockWord(resPrice)}).Load(p) * 128,
	}
}
