package fault

import (
	"reflect"
	"testing"
)

// Two rollers with the same seed and site must produce identical decision
// streams; a different seed must diverge somewhere.
func TestRollerDeterminism(t *testing.T) {
	a := Roller{seed: 7, site: siteDiskTransient}
	b := Roller{seed: 7, site: siteDiskTransient}
	c := Roller{seed: 8, site: siteDiskTransient}
	diverged := false
	for i := 0; i < 10000; i++ {
		cycle := uint64(i) * 137
		ra := a.Roll(cycle, 0.3)
		if rb := b.Roll(cycle, 0.3); ra != rb {
			t.Fatalf("same-seed rollers diverged at draw %d", i)
		}
		if rc := c.Roll(cycle, 0.3); ra != rc {
			diverged = true
		}
	}
	if !diverged {
		t.Error("different seeds never diverged in 10000 draws")
	}
}

// Roll at p=0 never fires, p=1 always fires, and an intermediate rate
// lands near its expectation.
func TestRollRates(t *testing.T) {
	r := Roller{seed: 1, site: 2}
	hits := 0
	for i := 0; i < 20000; i++ {
		if r.Roll(uint64(i), 0) {
			t.Fatal("p=0 fired")
		}
		if !r.Roll(uint64(i), 1) {
			t.Fatal("p=1 missed")
		}
		if r.Roll(uint64(i), 0.25) {
			hits++
		}
	}
	frac := float64(hits) / 20000
	if frac < 0.22 || frac > 0.28 {
		t.Errorf("p=0.25 observed %.3f, want ~0.25", frac)
	}
}

// BadBlock is a stateless predicate: the bad set is fixed per seed and
// near its configured density.
func TestBadBlockStateless(t *testing.T) {
	bad := 0
	for b := 0; b < 10000; b++ {
		first := BadBlock(42, b, 0.01)
		if first != BadBlock(42, b, 0.01) {
			t.Fatalf("BadBlock(42, %d) not stable", b)
		}
		if first {
			bad++
		}
	}
	if bad < 50 || bad > 200 {
		t.Errorf("bad-block density %d/10000, want ~100", bad)
	}
}

// A restored disk injector continues the decision stream exactly where
// the snapshot was taken.
func TestDiskInjectorSnapshotParity(t *testing.T) {
	cfg := DiskConfig{TransientRate: 0.2, SlowRate: 0.1, SlowFactor: 4, BadBlockRate: 0.01}
	a := NewDiskInjector(99, cfg)
	for i := 0; i < 500; i++ {
		a.Decide(uint64(i)*31, i%256)
	}
	snap := a.Snapshot()
	b := NewDiskInjector(99, cfg)
	b.Restore(snap)
	if b.Snapshot() != snap {
		t.Fatal("snapshot did not round-trip")
	}
	for i := 500; i < 1000; i++ {
		sa, ma := a.Decide(uint64(i)*31, i%256)
		sb, mb := b.Decide(uint64(i)*31, i%256)
		if sa != sb || ma != mb {
			t.Fatalf("restored injector diverged at request %d: (%v,%d) vs (%v,%d)", i, sa, ma, sb, mb)
		}
	}
}

// Same for the network injector, including the flap window.
func TestNetInjectorSnapshotParity(t *testing.T) {
	cfg := NetConfig{DropRate: 0.1, CorruptRate: 0.05, DupRate: 0.05, FlapRate: 0.002, FlapDownCycles: 1000}
	a := NewNetInjector(7, cfg)
	for i := 0; i < 500; i++ {
		a.DecideRx(uint64(i) * 97)
		a.DecideTx(uint64(i)*97 + 13)
	}
	snap := a.Snapshot()
	b := NewNetInjector(7, cfg)
	b.Restore(snap)
	if b.Snapshot() != snap {
		t.Fatal("snapshot did not round-trip")
	}
	for i := 500; i < 1000; i++ {
		if va, vb := a.DecideRx(uint64(i)*97), b.DecideRx(uint64(i)*97); va != vb {
			t.Fatalf("restored rx stream diverged at frame %d: %v vs %v", i, va, vb)
		}
		if va, vb := a.DecideTx(uint64(i)*97+13), b.DecideTx(uint64(i)*97+13); va != vb {
			t.Fatalf("restored tx stream diverged at frame %d: %v vs %v", i, va, vb)
		}
	}
}

// A flap drops every frame inside its window.
func TestFlapWindow(t *testing.T) {
	i := NewNetInjector(1, NetConfig{FlapRate: 1, FlapDownCycles: 5000})
	if v := i.DecideRx(100); v != Drop {
		t.Fatalf("flap start delivered: %v", v)
	}
	if i.Flaps != 1 {
		t.Fatalf("Flaps = %d, want 1", i.Flaps)
	}
	// Inside the window nothing gets through and no new flap starts.
	i.cfg.FlapRate = 0
	if v := i.DecideTx(4000); v != Drop {
		t.Fatalf("frame inside flap window delivered: %v", v)
	}
	if i.Flaps != 1 {
		t.Fatalf("Flaps = %d inside window, want 1", i.Flaps)
	}
	if v := i.DecideRx(6000); v != Deliver {
		t.Fatalf("frame after flap window: %v, want Deliver", v)
	}
}

func TestParseSpec(t *testing.T) {
	got, err := ParseSpec("seed=42, disk.transient=0.01,disk.bad=0.002,disk.retries=12," +
		"net.drop=0.02,net.timeout=300000,mem.ecc=1e-6,mem.ecccost=500")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Seed: 42,
		Disk: DiskConfig{TransientRate: 0.01, BadBlockRate: 0.002, MaxRetries: 12},
		Net:  NetConfig{DropRate: 0.02, RetransmitTimeout: 300_000},
		Mem:  MemConfig{ECCRate: 1e-6, ECCCost: 500},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseSpec = %+v, want %+v", got, want)
	}
	if empty, err := ParseSpec("  "); err != nil || empty != (Config{}) {
		t.Errorf("blank spec: %+v, %v", empty, err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"disk.transient",      // no value
		"bogus=1",             // unknown key
		"net.drop=1.5",        // rate out of range
		"disk.transient=-0.1", // negative rate
		"seed=xyz",            // unparsable
		"disk.retries=many",   // unparsable int
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted", spec)
		}
	}
}

// Defaults fill only the recovery knobs, never the rates.
func TestApplyDefaults(t *testing.T) {
	var c Config
	c.ApplyDefaults()
	if c.DiskEnabled() || c.NetEnabled() || c.MemEnabled() {
		t.Error("defaults enabled a fault site")
	}
	if c.Disk.MaxRetries == 0 || c.Disk.RetryBackoff == 0 || c.Disk.SlowFactor == 0 ||
		c.Net.RetransmitTimeout == 0 || c.Net.MaxRetransmits == 0 ||
		c.Net.FlapDownCycles == 0 || c.Mem.ECCCost == 0 {
		t.Errorf("recovery knobs not defaulted: %+v", c)
	}
	c2 := Config{Disk: DiskConfig{MaxRetries: 3, RetryBackoff: 7}}
	c2.ApplyDefaults()
	if c2.Disk.MaxRetries != 3 || c2.Disk.RetryBackoff != 7 {
		t.Errorf("defaults clobbered explicit knobs: %+v", c2.Disk)
	}
}
