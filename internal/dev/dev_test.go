package dev

import (
	"bytes"
	"testing"

	"compass/internal/core"
	"compass/internal/event"
	"compass/internal/fault"
	"compass/internal/stats"
)

func newSim() *core.Sim {
	cfg := core.DefaultConfig()
	cfg.CPUs = 2
	cfg.MemFrames = 1024
	return core.New(cfg)
}

// drain runs the simulator's queue with no processes (devices only).
func drain(s *core.Sim) { s.Run() }

func TestDiskServiceTimeScalesWithBytes(t *testing.T) {
	s := newSim()
	d := NewDisk(s, DiskConfig{Blocks: 128})
	var small, big event.Cycle
	d.Submit(0, false, 512, func(done event.Cycle, _ fault.DiskStatus) { small = done })
	d2 := NewDisk(s, DiskConfig{Blocks: 128})
	d2.Submit(0, false, 65536, func(done event.Cycle, _ fault.DiskStatus) { big = done })
	drain(s)
	if big <= small {
		t.Errorf("64KB transfer (%d) not slower than 512B (%d)", big, small)
	}
	if small <= DiskSeekCycles {
		t.Error("transfer time missing")
	}
}

func TestDiskArmSerializesRequests(t *testing.T) {
	s := newSim()
	d := NewDisk(s, DiskConfig{Blocks: 128})
	var t1, t2 event.Cycle
	d.Submit(0, false, 4096, func(done event.Cycle, _ fault.DiskStatus) { t1 = done })
	d.Submit(0, false, 4096, func(done event.Cycle, _ fault.DiskStatus) { t2 = done })
	drain(s)
	if t2 < t1+DiskSeekCycles {
		t.Errorf("second I/O (%d) overlapped the first (%d)", t2, t1)
	}
}

func TestPositionalSeekChargesTravel(t *testing.T) {
	cfg := DiskConfig{Blocks: 1000}
	cfg.PositionalSeek = true
	s := newSim()
	d := NewDisk(s, cfg)
	var near, far event.Cycle
	d.Submit(0, false, 4096, func(done event.Cycle, _ fault.DiskStatus) { near = done })
	drain(s)
	s2 := newSim()
	d2 := NewDisk(s2, cfg)
	d2.Submit(999, false, 4096, func(done event.Cycle, _ fault.DiskStatus) { far = done })
	drain(s2)
	if far <= near {
		t.Errorf("full-stroke seek (%d) not slower than zero travel (%d)", far, near)
	}
}

func TestElevatorBeatsFIFOOnScatteredQueue(t *testing.T) {
	run := func(elevator bool) event.Cycle {
		cfg := DiskConfig{Blocks: 1000}
		cfg.PositionalSeek = true
		cfg.Elevator = elevator
		s := newSim()
		d := NewDisk(s, cfg)
		// Alternate far/near blocks so FIFO ping-pongs the head while SCAN
		// sweeps once.
		blocks := []int{900, 10, 880, 30, 860, 50, 840, 70}
		var last event.Cycle
		for _, b := range blocks {
			d.Submit(b, false, 4096, func(done event.Cycle, _ fault.DiskStatus) {
				if done > last {
					last = done
				}
			})
		}
		drain(s)
		return last
	}
	fifo := run(false)
	scan := run(true)
	if scan >= fifo {
		t.Errorf("elevator (%d) not faster than FIFO (%d) on a scattered queue", scan, fifo)
	}
	t.Logf("8 scattered I/Os: FIFO %d cycles, SCAN %d cycles (%.2fx)", fifo, scan, float64(fifo)/float64(scan))
}

func TestElevatorServesEverything(t *testing.T) {
	cfg := DiskConfig{Blocks: 500}
	cfg.Elevator = true
	cfg.PositionalSeek = true
	s := newSim()
	d := NewDisk(s, cfg)
	served := 0
	for _, b := range []int{400, 5, 250, 499, 0, 123, 123, 77} {
		d.Submit(b, b%2 == 0, 4096, func(event.Cycle, fault.DiskStatus) { served++ })
	}
	drain(s)
	if served != 8 {
		t.Errorf("served %d of 8 (elevator starved requests?)", served)
	}
}

func TestDiskCompletionCallbackAndInterrupt(t *testing.T) {
	s := newSim()
	d := NewDisk(s, DiskConfig{Blocks: 128})
	var completedAt event.Cycle
	d.Submit(0, true, 4096, func(done event.Cycle, _ fault.DiskStatus) { completedAt = done })
	drain(s)
	if completedAt == 0 {
		t.Fatal("completion callback never ran")
	}
	// Interrupt went to an idle CPU → idle interrupt account.
	if s.IdleInterrupt().Cycles(stats.ModeInterrupt) == 0 {
		t.Error("no idle interrupt time charged")
	}
	if d.Writes != 1 {
		t.Errorf("writes = %d", d.Writes)
	}
}

func TestDiskBlockStore(t *testing.T) {
	s := newSim()
	d := NewDisk(s, DiskConfig{Blocks: 16})
	src := bytes.Repeat([]byte{0x5A}, BlockSize)
	d.WriteBlock(3, src)
	dst := make([]byte, BlockSize)
	d.ReadBlock(3, dst)
	if !bytes.Equal(src, dst) {
		t.Error("block round-trip failed")
	}
	// Unwritten blocks read as zeros.
	d.ReadBlock(7, dst)
	for _, b := range dst {
		if b != 0 {
			t.Fatal("unwritten block not zero")
		}
	}
	if d.Capacity() != 16 {
		t.Errorf("capacity = %d", d.Capacity())
	}
}

// StoreBlock makes the array it is handed the block's contents, replacing
// the array the block had, leaving that one as it was and handing it back.
func TestDiskStoreBlockReplacesTheArray(t *testing.T) {
	s := newSim()
	d := NewDisk(s, DiskConfig{Blocks: 16})
	if old := d.StoreBlock(5, make([]byte, BlockSize)); old != nil {
		t.Error("a block never written gave back an array")
	}
	d.WriteBlock(3, bytes.Repeat([]byte{0x11}, BlockSize))
	old := d.data[3]
	mine := bytes.Repeat([]byte{0x22}, BlockSize)
	back := d.StoreBlock(3, mine)
	dst := make([]byte, BlockSize)
	d.ReadBlock(3, dst)
	if !bytes.Equal(dst, mine) || &d.data[3][0] != &mine[0] {
		t.Error("the block is not the array handed over")
	}
	if !bytes.Equal(old, bytes.Repeat([]byte{0x11}, BlockSize)) {
		t.Error("the array the block had was written to")
	}
	if &back[0] != &old[0] {
		t.Error("StoreBlock did not give back the array the block had")
	}
	for name, bad := range map[string]func(){
		"short":        func() { d.StoreBlock(3, make([]byte, BlockSize-1)) },
		"out of range": func() { d.StoreBlock(16, make([]byte, BlockSize)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			bad()
		}()
	}
}

func TestDiskBlockOutOfRangePanics(t *testing.T) {
	s := newSim()
	d := NewDisk(s, DiskConfig{Blocks: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	d.WriteBlock(99, make([]byte, BlockSize))
}

func TestNICInjectDeliversAfterWireLatency(t *testing.T) {
	s := newSim()
	n := NewNIC(s, DefaultNICConfig())
	var got Packet
	var at event.Cycle
	n.OnReceive = func(pkt Packet, when event.Cycle) {
		got = pkt
		at = when
	}
	n.Inject(Packet{Conn: 9, Payload: []byte("hello")}, 100)
	drain(s)
	if string(got.Payload) != "hello" || got.Conn != 9 {
		t.Fatalf("got %+v", got)
	}
	if at < 100+n.cfg.WireCycles {
		t.Errorf("delivered at %d, too early", at)
	}
	if n.RxPackets != 1 || n.RxBytes != 5 {
		t.Errorf("rx stats: %d pkts %d bytes", n.RxPackets, n.RxBytes)
	}
}

func TestNICTransmitReachesPeer(t *testing.T) {
	s := newSim()
	n := NewNIC(s, DefaultNICConfig())
	var seen []byte
	n.OnTransmit = func(pkt Packet, _ event.Cycle) { seen = append(seen, pkt.Payload...) }
	// Transmit must be initiated from backend context: use a task.
	s.ScheduleTask(10, "tx", false, func() {
		n.Transmit(Packet{Conn: 1, Payload: []byte("resp")}, s.CurTime())
	})
	drain(s)
	if string(seen) != "resp" {
		t.Fatalf("peer saw %q", seen)
	}
	if n.TxPackets != 1 {
		t.Errorf("tx packets = %d", n.TxPackets)
	}
}

func TestRTCTicksAndCharges(t *testing.T) {
	s := newSim()
	r := NewRTC(s)
	// Keep the simulation alive past five ticks with a dummy task.
	s.ScheduleTask(RTCTickCycles*11/2, "stop", false, func() {})
	drain(s)
	if r.Ticks != 5 {
		t.Errorf("ticks = %d, want 5", r.Ticks)
	}
	// No process runs, so every tick interrupts every CPU while it idles.
	want := event.Cycle(r.Ticks) * event.Cycle(s.CPUs()) * RTCHandlerCycles
	if got := s.IdleInterrupt().Cycles(stats.ModeInterrupt); got != uint64(want) {
		t.Errorf("idle interrupt time = %d, want %d", got, want)
	}
}

func TestIRQRouterRoundRobin(t *testing.T) {
	s := newSim()
	r := irqRouter{sim: s}
	if a, b, c := r.route(), r.route(), r.route(); a != 0 || b != 1 || c != 0 {
		t.Errorf("routing %d %d %d", a, b, c)
	}
}
