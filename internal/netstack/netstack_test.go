package netstack

import (
	"bytes"
	"strings"
	"testing"

	"compass/internal/core"
	"compass/internal/dev"
	"compass/internal/event"
	"compass/internal/frontend"
	"compass/internal/kernel"
)

type rig struct {
	sim *core.Sim
	nic *dev.NIC
	st  *Stack
}

func newRig() *rig { return newRigNIC(dev.DefaultNICConfig()) }

func newRigNIC(nc dev.NICConfig) *rig {
	cfg := core.DefaultConfig()
	cfg.CPUs = 2
	cfg.MemFrames = 2048
	sim := core.New(cfg)
	k := kernel.New(sim, 1<<20)
	nic := dev.NewNIC(sim, nc)
	return &rig{sim: sim, nic: nic, st: New(k, nic)}
}

func syn(conn, port int) dev.Packet {
	return dev.Packet{Conn: conn, Flags: dev.FlagSYN, Payload: []byte{byte(port >> 8), byte(port)}}
}

func TestListenAcceptRecv(t *testing.T) {
	r := newRig()
	var got []byte
	r.sim.Spawn("srv", func(p *frontend.Proc) {
		k := r.st.NewCaller(p)
		l, err := k.Listen(80)
		if err != nil {
			t.Error(err)
			return
		}
		c := k.Naccept(l)
		got = k.Recv(c, 0)
	})
	r.nic.Inject(syn(1, 80), 100)
	r.nic.Inject(dev.Packet{Conn: 1, Payload: []byte("data")}, 50_000)
	r.sim.Run()
	if string(got) != "data" {
		t.Errorf("recv %q", got)
	}
	if r.st.Accepts != 1 {
		t.Errorf("accepts = %d", r.st.Accepts)
	}
}

func TestDoubleListenFails(t *testing.T) {
	r := newRig()
	r.sim.Spawn("srv", func(p *frontend.Proc) {
		k := r.st.NewCaller(p)
		if _, err := k.Listen(80); err != nil {
			t.Error(err)
		}
		if _, err := k.Listen(80); err == nil {
			t.Error("double listen succeeded")
		}
		if _, err := k.GetListener(80); err != nil {
			t.Error("GetListener of bound port failed")
		}
		if _, err := k.GetListener(99); err == nil {
			t.Error("GetListener of unbound port succeeded")
		}
	})
	r.sim.Run()
}

func TestSynToUnboundPortDropped(t *testing.T) {
	r := newRig()
	r.nic.Inject(syn(5, 9999), 10)
	r.sim.Run()
	if r.st.Drops != 1 {
		t.Errorf("drops = %d, want 1", r.st.Drops)
	}
}

func TestDataForUnknownConnDropped(t *testing.T) {
	r := newRig()
	r.nic.Inject(dev.Packet{Conn: 77, Payload: []byte("stray")}, 10)
	r.sim.Run()
	if r.st.Drops != 1 {
		t.Errorf("drops = %d", r.st.Drops)
	}
}

func TestSendSplitsAtMSS(t *testing.T) {
	r := newRig()
	var rx [][]byte
	r.nic.OnTransmit = func(pkt dev.Packet, _ event.Cycle) {
		if pkt.Flags == 0 {
			rx = append(rx, bytes.Clone(pkt.Payload)) // the frame's buffer goes back on return
		}
	}
	payload := bytes.Repeat([]byte{7}, 4000) // MSS 1460 → 3 packets
	r.sim.Spawn("srv", func(p *frontend.Proc) {
		k := r.st.NewCaller(p)
		l, _ := k.Listen(80)
		c := k.Naccept(l)
		if n := k.Send(c, payload, 0); n != 4000 {
			t.Errorf("sent %d", n)
		}
	})
	r.nic.Inject(syn(2, 80), 100)
	r.sim.Run()
	if len(rx) != 3 {
		t.Fatalf("%d packets, want 3", len(rx))
	}
	var joined []byte
	for _, seg := range rx {
		joined = append(joined, seg...)
	}
	if !bytes.Equal(joined, payload) {
		t.Error("reassembled payload mismatch")
	}
}

func TestRecvEOFAfterFIN(t *testing.T) {
	r := newRig()
	var segs [][]byte
	r.sim.Spawn("srv", func(p *frontend.Proc) {
		k := r.st.NewCaller(p)
		l, _ := k.Listen(80)
		c := k.Naccept(l)
		for {
			seg := k.Recv(c, 0)
			if seg == nil {
				break
			}
			segs = append(segs, seg)
		}
	})
	r.nic.Inject(syn(3, 80), 100)
	r.nic.Inject(dev.Packet{Conn: 3, Payload: []byte("a")}, 20_000)
	r.nic.Inject(dev.Packet{Conn: 3, Payload: []byte("b")}, 40_000)
	r.nic.Inject(dev.Packet{Conn: 3, Flags: dev.FlagFIN}, 60_000)
	r.sim.Run()
	if len(segs) != 2 || string(segs[0]) != "a" || string(segs[1]) != "b" {
		t.Errorf("segs = %q", segs)
	}
}

func TestCloseSendsFIN(t *testing.T) {
	r := newRig()
	finSeen := false
	r.nic.OnTransmit = func(pkt dev.Packet, _ event.Cycle) {
		if pkt.Flags&dev.FlagFIN != 0 {
			finSeen = true
		}
	}
	r.sim.Spawn("srv", func(p *frontend.Proc) {
		k := r.st.NewCaller(p)
		l, _ := k.Listen(80)
		c := k.Naccept(l)
		k.Close(c)
	})
	r.nic.Inject(syn(4, 80), 100)
	r.sim.Run()
	if !finSeen {
		t.Error("close did not emit FIN")
	}
}

func TestSelectOverMultipleSources(t *testing.T) {
	r := newRig()
	order := []int{}
	r.sim.Spawn("srv", func(p *frontend.Proc) {
		k := r.st.NewCaller(p)
		l, _ := k.Listen(80)
		c1 := k.Naccept(l)
		c2 := k.Naccept(l)
		// Data arrives on c2 first, then c1.
		idx := k.Select(c1, c2)
		order = append(order, idx)
		k.Recv([]*Conn{c1, c2}[idx], 0)
		idx2 := k.Select(c1, c2)
		order = append(order, idx2)
	})
	r.nic.Inject(syn(10, 80), 100)
	r.nic.Inject(syn(11, 80), 5_000)
	r.nic.Inject(dev.Packet{Conn: 11, Payload: []byte("x")}, 200_000)
	r.nic.Inject(dev.Packet{Conn: 10, Payload: []byte("y")}, 400_000)
	r.sim.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Errorf("select order %v, want [1 0]", order)
	}
}

func TestMultipleAcceptorsShareListener(t *testing.T) {
	r := newRig()
	served := make([]int, 2)
	for i := 0; i < 2; i++ {
		i := i
		r.sim.Spawn("w", func(p *frontend.Proc) {
			k := r.st.NewCaller(p)
			var l *Listener
			var err error
			if l, err = k.Listen(80); err != nil {
				if l, err = k.GetListener(80); err != nil {
					t.Error(err)
					return
				}
			}
			c := k.Naccept(l)
			seg := k.Recv(c, 0)
			served[i] = len(seg)
		})
	}
	for conn := 20; conn < 22; conn++ {
		r.nic.Inject(syn(conn, 80), event.Cycle(1000*conn))
		r.nic.Inject(dev.Packet{Conn: conn, Payload: []byte("zz")}, event.Cycle(300_000+1000*conn))
	}
	r.sim.Run()
	if served[0] != 2 || served[1] != 2 {
		t.Errorf("served = %v", served)
	}
}

func TestLoopbackConnect(t *testing.T) {
	r := newRig()
	var serverSaw, clientSaw []byte
	r.sim.Spawn("server", func(p *frontend.Proc) {
		k := r.st.NewCaller(p)
		l, _ := k.Listen(5432)
		c := k.Naccept(l)
		serverSaw = k.Recv(c, 0)
		k.Send(c, []byte("row data"), 0)
		for k.Recv(c, 0) != nil {
		}
		k.Close(c)
	})
	r.sim.Spawn("client", func(p *frontend.Proc) {
		k := r.st.NewCaller(p)
		// Retry until the server has bound the port.
		var c *Conn
		for {
			var err error
			if c, err = k.Connect(5432); err == nil {
				break
			}
			p.ComputeCycles(5000)
			p.Yield()
		}
		k.Send(c, []byte("SELECT 1"), 0)
		clientSaw = k.Recv(c, 0)
		k.Close(c)
	})
	r.sim.Run()
	if string(serverSaw) != "SELECT 1" {
		t.Errorf("server saw %q", serverSaw)
	}
	if string(clientSaw) != "row data" {
		t.Errorf("client saw %q", clientSaw)
	}
}

func TestConnectToUnboundPortFails(t *testing.T) {
	r := newRig()
	r.sim.Spawn("c", func(p *frontend.Proc) {
		k := r.st.NewCaller(p)
		if _, err := k.Connect(1); err == nil {
			t.Error("connect to unbound port succeeded")
		}
	})
	r.sim.Run()
}

func TestLoopbackCloseGivesPeerEOF(t *testing.T) {
	r := newRig()
	gotEOF := false
	r.sim.Spawn("server", func(p *frontend.Proc) {
		k := r.st.NewCaller(p)
		l, _ := k.Listen(7000)
		c := k.Naccept(l)
		if k.Recv(c, 0) == nil {
			gotEOF = true
		}
	})
	r.sim.Spawn("client", func(p *frontend.Proc) {
		k := r.st.NewCaller(p)
		var c *Conn
		for {
			var err error
			if c, err = k.Connect(7000); err == nil {
				break
			}
			p.ComputeCycles(5000)
			p.Yield()
		}
		k.Close(c)
	})
	r.sim.Run()
	if !gotEOF {
		t.Error("peer close did not surface as EOF")
	}
}

// A sent packet's bytes are copied into a buffer its NIC frame owns, and the
// buffer goes back with the frame only once the far end has had it. The
// sender overwrites its one buffer between two sends that are both still on
// a slow wire when the first arrives, and the far end sends a frame of its
// own from inside the first delivery, which would take the first frame's
// record, and clobber its bytes, had it gone back early. Every frame must
// arrive as it was sent, on coroutine and on threaded ports.
func TestSendBuffersLiveUntilDelivered(t *testing.T) {
	for _, threaded := range []bool{false, true} {
		nc := dev.DefaultNICConfig()
		nc.WireCycles = 1_000_000
		r := newRigNIC(nc)
		r.sim.Hub().SetSpinWait(threaded)
		var got []string
		r.nic.OnTransmit = func(pkt dev.Packet, _ event.Cycle) {
			if pkt.Flags != 0 {
				return
			}
			sent := string(pkt.Payload)
			if len(got) == 0 {
				if r.st.TxPackets != 2 {
					t.Errorf("threaded=%v: %d packets sent at the first delivery, want both", threaded, r.st.TxPackets)
				}
				r.nic.Transmit(dev.Packet{Conn: 9, Payload: bytes.Repeat([]byte{'C'}, 300)}, r.sim.CurTime())
				if string(pkt.Payload) != sent {
					t.Errorf("threaded=%v: a frame's bytes changed while it was being delivered", threaded)
				}
			}
			got = append(got, sent)
		}
		r.sim.Spawn("srv", func(p *frontend.Proc) {
			k := r.st.NewCaller(p)
			l, _ := k.Listen(80)
			c := k.Naccept(l)
			buf := bytes.Repeat([]byte{'A'}, 1000)
			k.Send(c, buf, 0)
			for i := range buf {
				buf[i] = 'B'
			}
			k.Send(c, buf, 0)
		})
		r.nic.Inject(syn(3, 80), 100)
		r.sim.Run()
		want := []string{strings.Repeat("A", 1000), strings.Repeat("B", 1000), strings.Repeat("C", 300)}
		if len(got) != len(want) {
			t.Fatalf("threaded=%v: %d frames arrived, want %d", threaded, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("threaded=%v: frame %d arrived as %.12q..., want %.12q...", threaded, i, got[i], want[i])
			}
		}
	}
}

// A closed wire connection's record serves the next SYN, and the old
// connection's late packets find no connection: they cannot reach the new
// one through the reused record.
func TestClosedConnRecordServesNextSYN(t *testing.T) {
	r := newRig()
	var first, second *Conn
	var got []byte
	r.sim.Spawn("srv", func(p *frontend.Proc) {
		k := r.st.NewCaller(p)
		l, _ := k.Listen(80)
		first = k.Naccept(l)
		k.Recv(first, 0)
		k.Close(first)
		second = k.Naccept(l)
		got = k.Recv(second, 0)
	})
	r.nic.Inject(syn(1, 80), 100)
	r.nic.Inject(dev.Packet{Conn: 1, Payload: []byte("one")}, 20_000)
	r.nic.Inject(syn(2, 80), 400_000)
	r.nic.Inject(dev.Packet{Conn: 1, Payload: []byte("late")}, 500_000)
	r.nic.Inject(dev.Packet{Conn: 2, Payload: []byte("two")}, 600_000)
	r.sim.Run()
	if first != second {
		t.Error("the second connection did not reuse the closed one's record")
	}
	if string(got) != "two" {
		t.Errorf("second connection received %q, want %q", got, "two")
	}
	if r.st.Drops != 1 {
		t.Errorf("drops = %d, want 1 (the closed connection's late packet)", r.st.Drops)
	}
}
