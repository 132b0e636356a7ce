package db

import (
	"bytes"
	"fmt"
	"testing"

	"compass/internal/frontend"
	"compass/internal/machine"
)

func build(poolPages, rows int) (*machine.Machine, *Catalog, *Table) {
	m := machine.New(machine.Default())
	cat := NewCatalog(0xD3, poolPages)
	t := cat.AddTable("t", "t.dat", 64, rows)
	data := make([]byte, t.Pages()*PageBytes)
	for i := 0; i < rows; i++ {
		page, off := t.PageOf(i)
		copy(data[page*PageBytes+off:], EncodeRow(64, uint32(i), uint32(i*3)))
	}
	m.FS.SetupCreate("t.dat", data)
	Setup(cat)
	return m, cat, t
}

func TestTableGeometry(t *testing.T) {
	tab := NewCatalog(1, 4).AddTable("x", "x.dat", 64, 130)
	if tab.RowsPerPage() != 64 {
		t.Errorf("rows/page = %d", tab.RowsPerPage())
	}
	if tab.Pages() != 3 {
		t.Errorf("pages = %d", tab.Pages())
	}
	p, off := tab.PageOf(65)
	if p != 1 || off != 64 {
		t.Errorf("PageOf(65) = %d,%d", p, off)
	}
}

// PageOf does one division, by the rows-per-page the catalog worked out, and
// gives what dividing and taking the remainder gives: over row sizes that do
// and do not divide a page, for the first and last row of every page and the
// last row of the table.
func TestPageOfMatchesDivMod(t *testing.T) {
	for _, rowSize := range []int{1, 3, 8, 24, 32, 56, 64, 100, 129, 1000, 2048, 2049, 4095, 4096} {
		rows := 5*(PageBytes/rowSize) + (PageBytes/rowSize+1)/2
		tab := NewCatalog(1, 4).AddTable("x", "x.dat", rowSize, rows)
		rpp := PageBytes / rowSize
		if tab.RowsPerPage() != rpp || tab.Pages() != (rows+rpp-1)/rpp {
			t.Errorf("row size %d: %d rows a page, %d pages", rowSize, tab.RowsPerPage(), tab.Pages())
		}
		check := func(row int) {
			if page, off := tab.PageOf(row); page != row/rpp || off != row%rpp*rowSize {
				t.Errorf("row size %d: PageOf(%d) = %d, %d, want %d, %d", rowSize, row, page, off, row/rpp, row%rpp*rowSize)
			}
		}
		for page := 0; page < tab.Pages(); page++ {
			check(page * rpp)
			check(min(page*rpp+rpp, rows) - 1)
		}
		check(rows - 1)
		for row := 0; row < rows; row += 1 + row/7 {
			check(row)
		}
	}
}

func TestRowCodec(t *testing.T) {
	row := EncodeRow(64, 1, 2, 0xDEADBEEF)
	if Field(row, 0) != 1 || Field(row, 2) != 0xDEADBEEF {
		t.Error("codec mismatch")
	}
	SetField(row, 1, 42)
	if Field(row, 1) != 42 {
		t.Error("SetField lost")
	}
}

func TestFetchReadsRealData(t *testing.T) {
	m, cat, tab := build(8, 500)
	var got uint32
	m.SpawnConnected("a", func(p *frontend.Proc) {
		a := NewAgent(p, cat)
		row := a.FetchRow(tab, 123)
		got = Field(row, 1)
		a.Close()
	})
	m.Sim.Run()
	if got != 123*3 {
		t.Errorf("row 123 field1 = %d, want %d", got, 369)
	}
}

func TestUpdateVisibleAcrossAgents(t *testing.T) {
	m, cat, tab := build(8, 500)
	var seen uint32
	m.SpawnConnected("writer", func(p *frontend.Proc) {
		a := NewAgent(p, cat)
		lk := a.Lock(4)
		lk.Lock(p)
		row := a.FetchRow(tab, 7)
		SetField(row, 1, 9999)
		a.UpdateRow(tab, 7, row)
		lk.Unlock(p)
		a.Close()
	})
	m.SpawnConnected("reader", func(p *frontend.Proc) {
		a := NewAgent(p, cat)
		lk := a.Lock(4)
		for {
			lk.Lock(p)
			row := a.FetchRow(tab, 7)
			v := Field(row, 1)
			lk.Unlock(p)
			if v == 9999 {
				seen = v
				break
			}
			p.ComputeCycles(2000)
			p.Yield()
		}
		a.Close()
	})
	m.Sim.Run()
	if seen != 9999 {
		t.Errorf("reader saw %d", seen)
	}
}

func TestPoolEvictionPreservesUpdates(t *testing.T) {
	// Pool of 4 pages, table of 40 pages: every row revisit crosses an
	// eviction + reload, so updates must survive write-back.
	m, cat, tab := build(4, 40*64)
	m.SpawnConnected("a", func(p *frontend.Proc) {
		a := NewAgent(p, cat)
		// Update one row per page.
		for pg := 0; pg < 40; pg++ {
			row := a.FetchRow(tab, pg*64)
			SetField(row, 1, uint32(pg+1000))
			a.UpdateRow(tab, pg*64, row)
		}
		// Re-read after the pool has churned through everything.
		for pg := 0; pg < 40; pg++ {
			row := a.FetchRow(tab, pg*64)
			if Field(row, 1) != uint32(pg+1000) {
				t.Errorf("page %d update lost: %d", pg, Field(row, 1))
				break
			}
		}
		a.Close()
	})
	m.Sim.Run()
	hits, misses := Stats(cat)
	if misses < 40 {
		t.Errorf("misses = %d, want >= 40 (pool must churn)", misses)
	}
	_ = hits
}

func TestLockWordBounds(t *testing.T) {
	m, cat, _ := build(4, 64)
	m.SpawnConnected("a", func(p *frontend.Proc) {
		a := NewAgent(p, cat)
		defer func() {
			if recover() == nil {
				t.Error("out-of-range lock word did not panic")
			}
			a.Close()
		}()
		a.LockWord(0) // reserved for the pool latch
	})
	m.Sim.Run()
}

func TestAppendLogGroupCommit(t *testing.T) {
	m, cat, _ := build(4, 64)
	m.FS.SetupCreate("wal", nil)
	fsyncs := 0
	m.SpawnConnected("a", func(p *frontend.Proc) {
		a := NewAgent(p, cat)
		log := a.OpenLog("wal", 3)
		for i := 0; i < 10; i++ {
			if log.Append(a, EncodeRow(64, uint32(i))) {
				fsyncs++
			}
		}
		a.Close()
	})
	m.Sim.Run()
	if fsyncs != 3 { // appends 3, 6, 9
		t.Errorf("group commits = %d, want 3", fsyncs)
	}
	if m.Disk.Writes == 0 {
		t.Error("log never hit the disk")
	}
}

func TestAgentWithoutSetupPanics(t *testing.T) {
	m := machine.New(machine.Default())
	cat := NewCatalog(0xD4, 4)
	cat.AddTable("t", "t2.dat", 64, 64)
	m.FS.SetupCreate("t2.dat", make([]byte, PageBytes))
	// no db.Setup(cat)
	m.SpawnConnected("a", func(p *frontend.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("NewAgent without Setup did not panic")
			}
		}()
		NewAgent(p, cat)
	})
	m.Sim.Run()
}

func TestConcurrentPointUpdatesUnderLocks(t *testing.T) {
	m, cat, tab := build(8, 640)
	const procs, iters = 4, 25
	for i := 0; i < procs; i++ {
		m.SpawnConnected(fmt.Sprintf("a%d", i), func(p *frontend.Proc) {
			a := NewAgent(p, cat)
			lk := a.Lock(5)
			for j := 0; j < iters; j++ {
				lk.Lock(p)
				row := a.FetchRow(tab, 11)
				SetField(row, 2, Field(row, 2)+1)
				a.UpdateRow(tab, 11, row)
				lk.Unlock(p)
			}
			a.Close()
		})
	}
	var final uint32
	mv := m
	_ = mv
	m.SpawnConnected("check", func(p *frontend.Proc) {
		a := NewAgent(p, cat)
		lk := a.Lock(5)
		for {
			lk.Lock(p)
			row := a.FetchRow(tab, 11)
			final = Field(row, 2)
			lk.Unlock(p)
			if final >= procs*iters {
				break
			}
			p.ComputeCycles(5000)
			p.Yield()
		}
		a.Close()
	})
	m.Sim.Run()
	if final != procs*iters {
		t.Errorf("counter row = %d, want %d (lost update)", final, procs*iters)
	}
}

// The pool's saved state names each page's table, not the ordinal the index
// keys it by: a catalog that registered the same tables in another order
// restores it, finds every page under its own table again, and saves the
// same bytes.
func TestPoolStateNamesTables(t *testing.T) {
	m := machine.New(machine.Default())
	tables := func(names ...string) (*Catalog, map[string]*Table) {
		cat := NewCatalog(0xD4, 8)
		byName := map[string]*Table{}
		for _, name := range names {
			byName[name] = cat.AddTable(name, name+".dat", 64, 4*64)
		}
		Setup(cat)
		return cat, byName
	}
	for i, name := range []string{"a", "b"} {
		data := make([]byte, 4*PageBytes)
		for row := 0; row < 4*64; row++ {
			copy(data[row*64:], EncodeRow(64, uint32(row), uint32(1000*(i+1)+row)))
		}
		m.FS.SetupCreate(name+".dat", data)
	}
	cat, byName := tables("a", "b")
	m.SpawnConnected("agent", func(p *frontend.Proc) {
		ag := NewAgent(p, cat)
		for page := 0; page < 3; page++ {
			for _, name := range []string{"a", "b"} {
				ag.FetchRow(byName[name], page*64) // the same page number of both tables
			}
		}
		row := ag.FetchRow(byName["b"], 64)
		SetField(row, 1, 4242)
		ag.UpdateRow(byName["b"], 64, row)
		ag.Close()
	})
	m.Sim.Run()
	saved, err := SaveState(cat)
	if err != nil {
		t.Fatal(err)
	}

	other, otherByName := tables("b", "a")
	if err := RestoreState(other, saved); err != nil {
		t.Fatal(err)
	}
	for i := range other.pool.slots {
		s := &other.pool.slots[i]
		if !s.valid {
			continue
		}
		tab := other.byOrd[s.key.table()]
		if got, want := Field(s.data, 1), uint32(1000+s.key.page()*64); tab == otherByName["a"] && got != want {
			t.Errorf("slot %d, page %d of table a holds %d in its first row, want %d", i, s.key.page(), got, want)
		}
		if j, ok := other.pool.index[s.key]; !ok || j != i {
			t.Errorf("slot %d (%s page %d) is indexed at %d, %v", i, tab.Name, s.key.page(), j, ok)
		}
	}
	if i, ok := other.pool.index[keyOf(otherByName["b"], 1)]; !ok || Field(other.pool.slots[i].data[0:], 1) != 4242 || !other.pool.slots[i].dirty {
		t.Errorf("page 1 of table b did not come back dirty with its update (slot %d, %v)", i, ok)
	}
	again, err := SaveState(other)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, again) {
		t.Error("the restored catalog saves different bytes")
	}
	if onlyA, _ := tables("a"); RestoreState(onlyA, saved) == nil {
		t.Error("a catalog without table b restored a pool holding its pages")
	}
}

// A pool slot keeps its page array across tenants: the new page must not
// show through what the old one left (a file shorter than its last page
// reads as zeros past its end), and rows handed out earlier are copies
// that the reuse leaves alone.
func TestReclaimedSlotStartsZeroed(t *testing.T) {
	m := machine.New(machine.Default())
	cat := NewCatalog(0xD4, 1)
	full := cat.AddTable("full", "full.dat", 64, 64)
	m.FS.SetupCreate("full.dat", bytes.Repeat([]byte{0xEE}, PageBytes))
	short := cat.AddTable("short", "short.dat", 64, 64)
	m.FS.SetupCreate("short.dat", bytes.Repeat([]byte{0x11}, 100))
	Setup(cat)
	m.SpawnConnected("a", func(p *frontend.Proc) {
		a := NewAgent(p, cat)
		kept := a.FetchRow(full, 63)
		first := &a.sh.slots[0].data[0]
		head, tail := a.FetchRow(short, 0), a.FetchRow(short, 63)
		if &a.sh.slots[0].data[0] != first {
			t.Error("the slot's page array was replaced, want it reused")
		}
		if !bytes.Equal(head, bytes.Repeat([]byte{0x11}, 64)) {
			t.Errorf("row 0 of the short file: % x", head)
		}
		if !bytes.Equal(tail, make([]byte, 64)) {
			t.Errorf("row 63, past the end of the short file, shows the evicted page: % x", tail)
		}
		if !bytes.Equal(kept, bytes.Repeat([]byte{0xEE}, 64)) {
			t.Errorf("a row fetched before the eviction changed under its holder: % x", kept)
		}
		a.Close()
	})
	m.Sim.Run()
}

// ScanRows is the loop over ReadRowInto it is documented as: the same rows in
// the same order, the same cycles, counters and time accounts — for two
// agents interleaving their scans over tables that end in a short page. Rows
// one range stride wide are scanned as stepped ranges, in fewer posts for the
// same references; any other row size takes the loop, post for post.
func TestScanRowsMatchesReadRowInto(t *testing.T) {
	type scanFunc func(a *Agent, tab *Table, slot, lo, hi int, rec []byte, fn func([]byte) uint64) []byte
	byScanRows := func(a *Agent, tab *Table, slot, lo, hi int, rec []byte, fn func([]byte) uint64) []byte {
		return a.ScanRows(tab, slot, lo, hi, rec, fn)
	}
	byReadRowInto := func(a *Agent, tab *Table, slot, lo, hi int, rec []byte, fn func([]byte) uint64) []byte {
		for row := lo; row < hi; row++ {
			rec = a.ReadRowInto(tab, slot, row, rec)
			a.P.ComputeCycles(fn(rec))
		}
		return rec
	}
	run := func(rowSize int, scan scanFunc) (out string, posts, ranged uint64) {
		m := machine.New(machine.Default())
		cat := NewCatalog(0xD3, 6)
		rpp := PageBytes / rowSize
		tab := cat.AddTable("t", "t.dat", rowSize, 2*rpp+rpp/3) // a short last page
		data := make([]byte, tab.Pages()*PageBytes)
		var rows bytes.Buffer // the table's rows back to back
		for i := 0; i < tab.Rows; i++ {
			page, off := tab.PageOf(i)
			rows.Write(EncodeRow(rowSize, uint32(i), uint32(i*i%97)))
			copy(data[page*PageBytes+off:], rows.Bytes()[i*rowSize:])
		}
		m.FS.SetupCreate("t.dat", data)
		Setup(cat)
		var seen [2]bytes.Buffer
		for i := range seen {
			m.SpawnConnected(fmt.Sprint("agent", i), func(p *frontend.Proc) {
				a := NewAgent(p, cat)
				p.ComputeCycles(uint64(700 * i)) // out of lockstep
				var rec []byte
				for page := 0; page < tab.Pages(); page++ {
					slot := a.GetPage(tab, page)
					lo := page * rpp
					rec = scan(a, tab, slot, lo, min(lo+rpp, tab.Rows), rec, func(rec []byte) uint64 {
						seen[i].Write(rec)
						if Field(rec, 1)%7 == 0 {
							return 0
						}
						return uint64(40+i) + uint64(Field(rec, 1))
					})
					a.Unpin(slot, false)
				}
				rec = scan(a, tab, 0, 5, 5, rec, func([]byte) uint64 { panic("no rows, no calls") })
				if len(rec) != rowSize {
					t.Errorf("row buffer of %d bytes, want %d", len(rec), rowSize)
				}
				a.Close()
			})
		}
		end := m.Sim.Run()
		var b bytes.Buffer
		fmt.Fprintf(&b, "end=%d\n%s", end, m.Sim.Counters().String())
		for _, p := range m.Sim.Procs() {
			fmt.Fprintf(&b, "%s %v\n", p.Name(), p.Account().Snapshot())
		}
		for i := range seen {
			if !bytes.Equal(seen[i].Bytes(), rows.Bytes()) {
				t.Errorf("row size %d: agent %d did not see the table's rows, each once and in order", rowSize, i)
			}
		}
		posts, _, ranged = m.Sim.PortStats()
		return b.String(), posts, ranged
	}
	for _, tc := range []struct {
		rowSize int
		stepped bool
	}{{32, true}, {64, false}, {24, false}} {
		want, loopPosts, loopRanged := run(tc.rowSize, byReadRowInto)
		got, posts, ranged := run(tc.rowSize, byScanRows)
		if got != want {
			t.Fatalf("row size %d: ScanRows and the loop over ReadRowInto disagree:\n--- ScanRows ---\n%s--- loop ---\n%s", tc.rowSize, got, want)
		}
		if posts+ranged != loopPosts+loopRanged {
			t.Errorf("row size %d: %d posts + %d ranged references, by the loop %d + %d", tc.rowSize, posts, ranged, loopPosts, loopRanged)
		}
		if tc.stepped && posts >= loopPosts {
			t.Errorf("row size %d: %d events posted, by the loop %d: want fewer", tc.rowSize, posts, loopPosts)
		}
		if !tc.stepped && posts != loopPosts {
			t.Errorf("row size %d: %d events posted, by the loop %d: this row size should take the loop", tc.rowSize, posts, loopPosts)
		}
	}
}
