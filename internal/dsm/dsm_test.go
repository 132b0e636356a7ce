package dsm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"compass/internal/event"
	"compass/internal/stats"
)

func TestInitialOwnership(t *testing.T) {
	p := New(DefaultConfig(4))
	if p.Owner(7) != 0 || p.Rights(7, 0) != Write {
		t.Fatal("page not initially owned writable by node 0")
	}
	if p.Rights(7, 1) != None {
		t.Fatal("node 1 has rights before any fault")
	}
}

func TestReadFaultReplicates(t *testing.T) {
	p := New(DefaultConfig(4))
	done := p.ReadFault(0, 3, 2)
	if done == 0 {
		t.Fatal("zero completion time")
	}
	if p.Rights(3, 2) != Read {
		t.Errorf("faulting node rights = %v", p.Rights(3, 2))
	}
	if p.Rights(3, 0) != Read {
		t.Errorf("owner not downgraded: %v", p.Rights(3, 0))
	}
	if p.Copyset(3) != (1 | 1<<2) {
		t.Errorf("copyset = %#x", p.Copyset(3))
	}
	if p.PageMoves != 1 {
		t.Errorf("page moves = %d", p.PageMoves)
	}
	if err := p.CheckInvariant(3); err != nil {
		t.Error(err)
	}
}

func TestWriteFaultTransfersOwnership(t *testing.T) {
	p := New(DefaultConfig(4))
	now := p.ReadFault(0, 9, 1)
	now = p.ReadFault(now, 9, 2)
	now = p.WriteFault(now, 9, 3)
	if p.Owner(9) != 3 {
		t.Fatalf("owner = %d, want 3", p.Owner(9))
	}
	if p.Copyset(9) != 1<<3 {
		t.Fatalf("copyset = %#x", p.Copyset(9))
	}
	for n := 0; n < 3; n++ {
		if p.Rights(9, n) != None {
			t.Errorf("node %d retains %v", n, p.Rights(9, n))
		}
	}
	if p.Invalidations != 3 {
		t.Errorf("invalidations = %d, want 3", p.Invalidations)
	}
	if err := p.CheckInvariant(9); err != nil {
		t.Error(err)
	}
	_ = now
}

func TestSpuriousFaultsCheap(t *testing.T) {
	p := New(DefaultConfig(2))
	msgs := p.Net().Messages
	done := p.WriteFault(0, 1, 0) // node 0 already writable
	if p.Net().Messages != msgs {
		t.Error("spurious write fault hit the network")
	}
	if done != FaultCycles {
		t.Errorf("spurious fault cost %d, want %d", done, FaultCycles)
	}
	p.ReadFault(done, 1, 0)
	if p.Net().Messages != msgs {
		t.Error("spurious read fault hit the network")
	}
}

func TestWriteAfterReadUpgradesInPlace(t *testing.T) {
	p := New(DefaultConfig(2))
	now := p.ReadFault(0, 5, 1)
	moves := p.PageMoves
	now = p.WriteFault(now, 5, 1) // has Read copy: no page transfer needed
	if p.PageMoves != moves {
		t.Error("upgrade refetched the page")
	}
	if p.Owner(5) != 1 || p.Rights(5, 1) != Write || p.Rights(5, 0) != None {
		t.Error("upgrade state wrong")
	}
	_ = now
}

func TestCounters(t *testing.T) {
	p := New(DefaultConfig(2))
	p.ReadFault(0, 1, 1)
	var c stats.Counters
	p.AddCounters(&c)
	if c.Get("dsm.faults.read") != 1 || c.Get("dsm.pagemoves") != 1 {
		t.Errorf("counters:\n%s", c.String())
	}
	if Read.String() != "read" || Write.String() != "write" || None.String() != "none" {
		t.Error("Access names wrong")
	}
}

// Property: the SWMR invariant holds for every page after any random fault
// sequence, and time never goes backward.
func TestQuickDSMInvariant(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New(DefaultConfig(4))
		var now event.Cycle
		for i := 0; i < int(n)+16; i++ {
			vpn := uint32(rng.Intn(8))
			node := rng.Intn(4)
			var done event.Cycle
			if rng.Intn(2) == 0 {
				done = p.ReadFault(now, vpn, node)
			} else {
				done = p.WriteFault(now, vpn, node)
			}
			if done < now {
				return false
			}
			now = done
			if err := p.CheckInvariant(vpn); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: after a write fault by node w, w can write without faulting and
// every other node read-faults (protocol serializes writers).
func TestQuickWriterExclusivity(t *testing.T) {
	f := func(w uint8, vpn uint32) bool {
		p := New(DefaultConfig(4))
		node := int(w % 4)
		p.WriteFault(0, vpn, node)
		if p.Rights(vpn, node) != Write {
			return false
		}
		for n := 0; n < 4; n++ {
			if n != node && p.Rights(vpn, n) != None {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
