package dev

import (
	"testing"
)

// The IRQ routers distribute interrupts round-robin across CPUs; the
// rotation position must survive a snapshot/restore cycle or the resumed
// run delivers interrupts to different CPUs than the uninterrupted run.
func TestDiskSnapshotRestoresIRQRotor(t *testing.T) {
	s := newSim()
	d := NewDisk(s, DefaultDiskConfig(128))
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
	d2 := NewDisk(s2, DefaultDiskConfig(128))
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
