package dev

import (
	"bytes"
	"testing"
)

// The IRQ routers distribute interrupts round-robin across CPUs; the
// rotation position must survive a snapshot/restore cycle or the resumed
// run delivers interrupts to different CPUs than the uninterrupted run.
func TestDiskSnapshotRestoresIRQRotor(t *testing.T) {
	s := newSim()
	d := NewDisk(s, DiskConfig{Blocks: 128})
	// Odd number of completions on 2 CPUs leaves the rotor mid-cycle.
	for i := 0; i < 3; i++ {
		d.Submit(i, true, 4096, nil)
	}
	drain(s)
	if d.irq.next == 0 {
		t.Fatal("rotor never advanced")
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.IRQNext != d.irq.next {
		t.Errorf("snapshot IRQNext = %d, live %d", snap.IRQNext, d.irq.next)
	}

	s2 := newSim()
	d2 := NewDisk(s2, DiskConfig{Blocks: 128})
	if err := d2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if d2.irq.next != d.irq.next {
		t.Fatalf("restored rotor at %d, want %d", d2.irq.next, d.irq.next)
	}
	// The next interrupt must land on the same CPU in both machines.
	if got, want := d2.irq.next%s2.CPUs(), d.irq.next%s.CPUs(); got != want {
		t.Errorf("next interrupt CPU %d, want %d", got, want)
	}
}

func TestNICSnapshotRestoresIRQRotor(t *testing.T) {
	s := newSim()
	n := NewNIC(s, DefaultNICConfig())
	for i := 0; i < 3; i++ {
		n.Inject(Packet{Conn: i, Payload: []byte("x")}, 0)
	}
	drain(s)
	if n.irq.next == 0 {
		t.Fatal("rotor never advanced")
	}
	snap := n.Snapshot()
	if snap.IRQNext != n.irq.next {
		t.Errorf("snapshot IRQNext = %d, live %d", snap.IRQNext, n.irq.next)
	}

	s2 := newSim()
	n2 := NewNIC(s2, DefaultNICConfig())
	n2.Restore(snap)
	if n2.irq.next != n.irq.next {
		t.Fatalf("restored rotor at %d, want %d", n2.irq.next, n.irq.next)
	}
	if n2.RxPackets != n.RxPackets || n2.RxBytes != n.RxBytes {
		t.Errorf("counters: restored %d/%d, live %d/%d",
			n2.RxPackets, n2.RxBytes, n.RxPackets, n.RxBytes)
	}
}

// The array StoreBlock gives back is the caller's to overwrite: it is never
// one a snapshot or a disk restored from it holds, neither on the disk the
// snapshot was taken from nor on the restored one.
func TestStoreBlockGivesBackNoSnapshotArray(t *testing.T) {
	d := NewDisk(newSim(), DiskConfig{Blocks: 16})
	d.WriteBlock(3, bytes.Repeat([]byte{0x11}, BlockSize))
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	d2 := NewDisk(newSim(), DiskConfig{Blocks: 16})
	if err := d2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for name, disk := range map[string]*Disk{"snapshotted": d, "restored": d2} {
		back := disk.StoreBlock(3, bytes.Repeat([]byte{0x22}, BlockSize))
		for _, held := range [][]byte{snap.Blocks[0].Data, d.data[3], d2.data[3]} {
			if &back[0] == &held[0] {
				t.Fatalf("%s disk gave back an array a snapshot or disk still holds", name)
			}
		}
		clear(back)
	}
	want := bytes.Repeat([]byte{0x11}, BlockSize)
	if !bytes.Equal(snap.Blocks[0].Data, want) {
		t.Error("overwriting a given-back array changed the snapshot")
	}
	d3 := NewDisk(newSim(), DiskConfig{Blocks: 16})
	if err := d3.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, BlockSize)
	if d3.ReadBlock(3, got); !bytes.Equal(got, want) {
		t.Error("a disk restored after the overwrite reads other bytes")
	}
}
