package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"compass/internal/core"
	"compass/internal/dev"
	"compass/internal/event"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	in := Trace{
		{Path: "/dir00001/class0_3", Size: 420},
		{Path: "/index.html", Size: 1024},
		{Path: "/a/b/c", Size: 0},
	}
	var buf bytes.Buffer
	if err := in.Save(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip %d entries, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("entry %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestLoadSkipsBlanksAndRejectsGarbage(t *testing.T) {
	tr, err := Load(strings.NewReader("GET /a 10\n\n\nGET /b 20\n"))
	if err != nil || len(tr) != 2 {
		t.Fatalf("len=%d err=%v", len(tr), err)
	}
	if _, err := Load(strings.NewReader("POST /a ten\n")); err == nil {
		t.Error("garbage line accepted")
	}
}

// Property: Save/Load is the identity for any printable-path trace.
func TestQuickRoundTrip(t *testing.T) {
	f := func(sizes []uint16) bool {
		var in Trace
		for i, s := range sizes {
			in = append(in, Request{Path: "/f" + strings.Repeat("x", i%5), Size: int(s)})
		}
		var buf bytes.Buffer
		if err := in.Save(&buf); err != nil {
			return false
		}
		out, err := Load(&buf)
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if out[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// fakeServer answers every request at the NIC level: a header+body sized
// to the trace entry, then a FIN — enough to drive the Player's full state
// machine without a simulated web server.
func fakeServer(sim *core.Sim, nic *dev.NIC, sizes map[int]int) {
	nic.OnReceive = func(pkt dev.Packet, at event.Cycle) {
		if pkt.Flags&dev.FlagSYN != 0 {
			return
		}
		conn := pkt.Conn
		req := string(pkt.Payload)
		size := 0
		if strings.Contains(req, "/quit") {
			size = -1
		} else {
			size = sizes[conn]
		}
		sim.ScheduleTask(2_000, "fake-serve", false, func() {
			if size < 0 {
				nic.Transmit(dev.Packet{Conn: conn, Payload: []byte("HTTP/1.0 200 OK\r\n\r\nbye")}, sim.CurTime())
			} else {
				nic.Transmit(dev.Packet{Conn: conn, Payload: []byte("HTTP/1.0 200 OK\r\n\r\n")}, sim.CurTime())
				nic.Transmit(dev.Packet{Conn: conn, Payload: make([]byte, size)}, sim.CurTime())
			}
			sim.ScheduleTask(4_000, "fake-fin", false, func() {
				nic.Transmit(dev.Packet{Conn: conn, Flags: dev.FlagFIN}, sim.CurTime())
			})
		})
	}
}

func TestPlayerDrivesTraceToCompletion(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.CPUs = 1
	sim := core.New(cfg)
	nic := dev.NewNIC(sim, dev.DefaultNICConfig())

	tr := Trace{
		{Path: "/a", Size: 100},
		{Path: "/b", Size: 2000},
		{Path: "/c", Size: 50},
		{Path: "/d", Size: 700},
	}
	p := NewPlayer(sim, nic, tr, PlayerConfig{Concurrency: 2, ThinkCycles: 5_000, Workers: 1, Port: 80})
	// The fake server needs per-connection expected sizes: the player
	// allocates conn ids sequentially from 1<<16 in trace order per launch;
	// we can map by arrival order instead — record at SYN time.
	sizes := map[int]int{}
	next := 0
	fakeServer(sim, nic, sizes)
	inner := nic.OnReceive
	nic.OnReceive = func(pkt dev.Packet, at event.Cycle) {
		if pkt.Flags&dev.FlagSYN != 0 {
			if next < len(tr) {
				sizes[pkt.Conn] = tr[next].Size
				next++
			}
			return
		}
		inner(pkt, at)
	}
	p.Start()
	sim.Run()
	if p.Completed != 4 {
		t.Fatalf("completed %d/4", p.Completed)
	}
	if p.BadBytes != 0 {
		t.Errorf("bad bodies: %d", p.BadBytes)
	}
	if p.Latency.State().Count != 4 {
		t.Errorf("latency samples %d", p.Latency.State().Count)
	}
}

func TestPlayerEmptyTraceJustQuits(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.CPUs = 1
	sim := core.New(cfg)
	nic := dev.NewNIC(sim, dev.DefaultNICConfig())
	p := NewPlayer(sim, nic, nil, PlayerConfig{Concurrency: 2, Workers: 2, Port: 80})
	quits := 0
	nic.OnReceive = func(pkt dev.Packet, at event.Cycle) {
		if pkt.Flags == 0 && strings.Contains(string(pkt.Payload), "/quit") {
			quits++
			sim.ScheduleTask(1000, "fin", false, func() {
				nic.Transmit(dev.Packet{Conn: pkt.Conn, Flags: dev.FlagFIN}, sim.CurTime())
			})
		}
	}
	p.Start()
	sim.Run()
	if quits != 2 {
		t.Errorf("quit requests = %d, want 2 (one per worker)", quits)
	}
	if p.Completed != 0 {
		t.Errorf("completed %d on an empty trace", p.Completed)
	}
}

// A quit whose frames exhaust their retransmits is sent again: its
// server worker would otherwise wait in accept forever.
func TestPlayerResendsLostQuit(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.CPUs = 1
	sim := core.New(cfg)
	nic := dev.NewNIC(sim, dev.DefaultNICConfig())
	p := NewPlayer(sim, nic, nil, PlayerConfig{Concurrency: 1, Workers: 1, Port: 80})
	quits := 0
	nic.OnReceive = func(pkt dev.Packet, at event.Cycle) {
		if pkt.Flags != 0 || !strings.Contains(string(pkt.Payload), "/quit") {
			return
		}
		quits++
		if quits == 1 {
			p.wire.fail(pkt.Conn) // the ARQ gives up on the first quit
			return
		}
		sim.ScheduleTask(1000, "fin", false, func() {
			nic.Transmit(dev.Packet{Conn: pkt.Conn, Flags: dev.FlagFIN}, sim.CurTime())
		})
	}
	p.Start()
	sim.Run()
	if quits != 2 {
		t.Errorf("quit requests = %d, want 2", quits)
	}
	if n := p.wire.InFlight(); n != 0 {
		t.Errorf("%d requests still in flight after the run", n)
	}
}

// The quoted format must round-trip paths the legacy unquoted one could
// not: spaces, empty paths, quotes, control characters.
func TestRoundTripOddPaths(t *testing.T) {
	in := Trace{
		{Path: "/with space/file.html", Size: 7},
		{Path: "", Size: 0},
		{Path: `/quo"ted\back`, Size: 1 << 30},
		{Path: "/tab\there", Size: 3},
		{Path: "/uni/𝛑", Size: 9},
	}
	var buf bytes.Buffer
	if err := in.Save(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip %d entries, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("entry %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestRoundTripEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := Trace(nil).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty trace wrote %d bytes", buf.Len())
	}
	out, err := Load(&buf)
	if err != nil || len(out) != 0 {
		t.Fatalf("len=%d err=%v", len(out), err)
	}
}

// Traces recorded before paths were quoted must still load.
func TestLoadLegacyUnquoted(t *testing.T) {
	tr, err := Load(strings.NewReader("GET /old/style 42\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 1 || tr[0] != (Request{Path: "/old/style", Size: 42}) {
		t.Errorf("got %+v", tr)
	}
}

// A legacy line whose path quoting makes four times longer must still come
// back from Load(Save(t)), past bufio.Scanner's default 64 KB line limit.
func TestRoundTripLongEscapedPath(t *testing.T) {
	in, err := Load(strings.NewReader("GET /" + strings.Repeat("\x01", 20_000) + " 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := in.Save(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != in[0] {
		t.Errorf("long path did not round-trip: %d entries", len(out))
	}
}
