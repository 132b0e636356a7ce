package db

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
)

// The buffer pool's functional mirror (page bytes, dirty bits, LRU order)
// lives on the host side, outside the simulated machine, so machine
// checkpoints cannot capture it. SaveState/RestoreState serialize it as an
// opaque blob that workloads carry in a checkpoint section.

// PoolSlotState is one buffer-pool slot. Pins and in-flight I/O are zero by
// construction at a quiescent checkpoint; SaveState verifies that.
type PoolSlotState struct {
	Table  string
	Page   int
	Data   []byte
	Dirty  bool
	LRUSeq uint64
	Valid  bool
}

// TableRows records one table's row count. Data tables are fixed-size, but
// B-tree index tables grow at run time (appendPage), so row counts are
// checkpoint state.
type TableRows struct {
	Name string
	Rows int
}

// PoolState is the engine's serializable host-side state.
type PoolState struct {
	Slots     []PoolSlotState
	LRU       uint64
	Hits      uint64
	Misses    uint64
	TableRows []TableRows
}

// SaveState serializes the catalog's pool and table sizes. It fails when
// any slot is pinned or mid-I/O (the machine was not quiescent).
func SaveState(c *Catalog) ([]byte, error) {
	if c.pool == nil {
		return nil, fmt.Errorf("db: Setup(catalog) was not called")
	}
	st := PoolState{LRU: c.pool.lru, Hits: c.pool.hits, Misses: c.pool.misses}
	for i := range c.pool.slots {
		s := &c.pool.slots[i]
		if s.pins != 0 || s.ioBusy {
			return nil, fmt.Errorf("db: slot %d not quiescent (pins=%d, ioBusy=%v)", i, s.pins, s.ioBusy)
		}
		ss := PoolSlotState{
			Data:  append([]byte(nil), s.data...),
			Dirty: s.dirty, LRUSeq: s.lruSeq, Valid: s.valid,
		}
		if s.valid {
			// The state names the table, not its ordinal in this catalog.
			ss.Table, ss.Page = c.byOrd[s.key.table()].Name, s.key.page()
		}
		st.Slots = append(st.Slots, ss)
	}
	names := make([]string, 0, len(c.Tables))
	//det:ordered names are sorted before serialization
	for name := range c.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st.TableRows = append(st.TableRows, TableRows{Name: name, Rows: c.Tables[name].Rows})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RestoreState rebuilds the pool from a SaveState blob. The catalog must
// already hold the same schema (AddTable calls) the saved one had.
func RestoreState(c *Catalog, data []byte) error {
	var st PoolState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	if len(st.Slots) != c.PoolPages {
		return fmt.Errorf("db: state has %d pool pages, catalog has %d", len(st.Slots), c.PoolPages)
	}
	pool := &shared{
		slots: make([]slot, c.PoolPages),
		index: make(map[slotKey]int),
		lru:   st.LRU, hits: st.Hits, misses: st.Misses,
	}
	for i, ss := range st.Slots {
		if !ss.Valid {
			continue
		}
		t, ok := c.Tables[ss.Table]
		if !ok {
			return fmt.Errorf("db: state has a page of unknown table %q", ss.Table)
		}
		key := keyOf(t, ss.Page)
		pool.slots[i] = slot{
			key: key, data: append([]byte(nil), ss.Data...),
			dirty: ss.Dirty, lruSeq: ss.LRUSeq, valid: true,
		}
		pool.index[key] = i
	}
	c.pool = pool
	for _, tr := range st.TableRows {
		t, ok := c.Tables[tr.Name]
		if !ok {
			return fmt.Errorf("db: state names unknown table %q", tr.Name)
		}
		t.Rows = tr.Rows
	}
	return nil
}

// AttachBTree rebuilds an index handle over an existing (restored) table
// file without bulk-loading it. The table is registered with zero rows;
// RestoreState overwrites the real count.
func AttachBTree(cat *Catalog, name, file string, root, height int) *BTree {
	t, ok := cat.Tables[name]
	if !ok {
		t = cat.AddTable(name, file, btPairSize, 0)
	}
	return &BTree{Table: t, Root: root, Height: height}
}
