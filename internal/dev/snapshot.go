package dev

import (
	"fmt"
	"sort"

	"compass/internal/event"
)

// RTCSnap is the real-time clock's serializable state.
type RTCSnap struct {
	Ticks uint64
}

// Snapshot captures the tick count. The pending tick task is implied: the
// next tick always fires at (Ticks+1)*RTCTickCycles.
func (r *RTC) Snapshot() RTCSnap { return RTCSnap{Ticks: r.Ticks} }

// Restore overwrites the tick count and re-arms the timer at the absolute
// next-tick cycle. The caller must have restored the simulation first,
// which sets the clock and empties the queue of the construction-time arm,
// so exactly one tick chain exists.
//
// Re-arming consumes one scheduler sequence number, so callers restore the
// queue's Seq AFTER this (see event.QueueState).
func (r *RTC) Restore(s RTCSnap) error {
	next := event.Cycle(s.Ticks+1) * RTCTickCycles
	now := r.sim.CurTime()
	if next < now {
		return fmt.Errorf("dev: rtc tick %d due at %d, before restored clock %d", s.Ticks+1, next, now)
	}
	r.Ticks = s.Ticks
	r.armAt(next - now)
	return nil
}

// BlockSnap is one written disk block.
type BlockSnap struct {
	Block int
	Data  []byte
}

// DiskSnap is the disk's serializable state: arm position, counters, and
// every block that has ever been written (block-sorted). A quiescent
// checkpoint has no in-flight or queued requests.
type DiskSnap struct {
	Head    int
	SweepUp bool
	Seq     uint64
	IRQNext int

	Reads, Writes uint64
	BusyCycles    event.Cycle
	SeekSum       event.Cycle

	Blocks []BlockSnap
}

// Snapshot captures the disk. It returns an error when the arm is busy or
// requests are queued (not quiescent).
func (d *Disk) Snapshot() (DiskSnap, error) {
	if d.busy || len(d.pending) > 0 {
		return DiskSnap{}, fmt.Errorf("dev: disk not quiescent (busy=%v, %d pending)", d.busy, len(d.pending))
	}
	s := DiskSnap{
		Head: d.head, SweepUp: d.sweepUp, Seq: d.seq, IRQNext: d.irq.next,
		Reads: d.Reads, Writes: d.Writes, BusyCycles: d.BusyCycles, SeekSum: d.SeekSum,
	}
	//det:ordered s.Blocks is sorted by Block below
	for block, data := range d.data {
		s.Blocks = append(s.Blocks, BlockSnap{Block: block, Data: append([]byte(nil), data...)})
	}
	sort.Slice(s.Blocks, func(i, j int) bool { return s.Blocks[i].Block < s.Blocks[j].Block })
	return s, nil
}

// Restore overwrites the disk's state.
func (d *Disk) Restore(s DiskSnap) error {
	for _, b := range s.Blocks {
		if b.Block < 0 || b.Block >= d.cfg.Blocks {
			return fmt.Errorf("dev: snapshot block %d out of range", b.Block)
		}
	}
	d.head = s.Head
	d.sweepUp = s.SweepUp
	d.seq = s.Seq
	d.irq.next = s.IRQNext
	d.Reads = s.Reads
	d.Writes = s.Writes
	d.BusyCycles = s.BusyCycles
	d.SeekSum = s.SeekSum
	d.data = make(map[int][]byte, len(s.Blocks))
	for _, b := range s.Blocks {
		data := make([]byte, BlockSize)
		copy(data, b.Data)
		d.data[b.Block] = data
	}
	d.pending = nil
	d.busy = false
	return nil
}

// NICSnap is the adapter's serializable state. Callbacks are wiring, not
// state; the restored machine's network stack re-registers them.
type NICSnap struct {
	Wire    event.ResourceState
	IRQNext int

	RxPackets, TxPackets uint64
	RxBytes, TxBytes     uint64
}

// Snapshot captures wire occupancy and traffic counters.
func (n *NIC) Snapshot() NICSnap {
	return NICSnap{
		Wire: n.wire.State(), IRQNext: n.irq.next,
		RxPackets: n.RxPackets, TxPackets: n.TxPackets,
		RxBytes: n.RxBytes, TxBytes: n.TxBytes,
	}
}

// Restore overwrites the adapter's state.
func (n *NIC) Restore(s NICSnap) {
	n.wire.SetState(s.Wire)
	n.irq.next = s.IRQNext
	n.RxPackets = s.RxPackets
	n.TxPackets = s.TxPackets
	n.RxBytes = s.RxBytes
	n.TxBytes = s.TxBytes
}
