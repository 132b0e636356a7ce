// Package fault implements the deterministic fault plan: a seeded PRNG
// keyed by the configuration seed, an injection-site key, the simulated
// cycle and a per-site draw counter — never wall clock — so identical
// configurations replay identical fault sequences, and a run resumed from
// a checkpoint sees exactly the faults the uninterrupted run would have
// seen (the draw counters are part of the snapshot).
//
// The package is a leaf: device models (internal/dev), the filesystem's
// recovery path (internal/fs) and the memory controller (internal/mem)
// consume it, never the reverse.
package fault

// Config is the whole fault plan. The zero value disables every fault
// site; a machine built with a zero Config is bit-identical to one built
// before this package existed.
type Config struct {
	// Seed keys every fault decision. Two runs with equal Seed (and equal
	// machine configuration) observe identical fault sequences.
	Seed uint64
	Disk DiskConfig
	Net  NetConfig
	Mem  MemConfig
}

// DiskConfig shapes media faults.
type DiskConfig struct {
	// TransientRate is the per-request probability of a transient media
	// error (recoverable by retrying the request).
	TransientRate float64
	// SlowRate is the per-request probability of a stuck/slow sector:
	// the request succeeds but takes SlowFactor times the service time.
	SlowRate float64
	// SlowFactor multiplies the service time of a slow request (default 4).
	SlowFactor int
	// BadBlockRate is the fraction of disk blocks that are permanently
	// bad: every request targeting one fails until the filesystem remaps
	// the block to a spare.
	BadBlockRate float64
	// MaxRetries bounds the filesystem's retry loop per request
	// (default 10).
	MaxRetries int
	// RetryBackoff is the first retry delay in cycles; it doubles per
	// attempt (default 200_000 — a fraction of a disk service time).
	RetryBackoff uint64
}

// NetConfig shapes wire faults and the link-level recovery protocol.
type NetConfig struct {
	// DropRate is the per-frame probability the wire eats the frame.
	DropRate float64
	// CorruptRate is the per-frame probability of an FCS error: the
	// receiving adapter takes the interrupt, then discards the frame, so
	// corrupted payloads are never delivered upward.
	CorruptRate float64
	// DupRate is the per-frame probability of duplicate delivery.
	DupRate float64
	// FlapRate is the per-frame probability that a link flap begins; the
	// link then drops everything for FlapDownCycles.
	FlapRate float64
	// FlapDownCycles is the link-down window length (default 2_000_000).
	FlapDownCycles uint64
	// RetransmitTimeout is the initial ARQ retransmit timer in cycles; it
	// doubles per attempt (default 400_000 — several wire round trips).
	RetransmitTimeout uint64
	// MaxRetransmits bounds retransmission before the sender gives up and
	// reports the connection lost (default 40).
	MaxRetransmits int
}

// MemConfig shapes memory-controller events.
type MemConfig struct {
	// ECCRate is the per-reference probability of a correctable ECC
	// event (scrub + correct stall charged to the access).
	ECCRate float64
	// ECCCost is the stall in cycles per corrected event (default 300).
	ECCCost uint64
}

// DiskEnabled reports whether any disk fault site is active.
func (c Config) DiskEnabled() bool {
	d := c.Disk
	return d.TransientRate > 0 || d.SlowRate > 0 || d.BadBlockRate > 0
}

// NetEnabled reports whether any network fault site is active.
func (c Config) NetEnabled() bool {
	n := c.Net
	return n.DropRate > 0 || n.CorruptRate > 0 || n.DupRate > 0 || n.FlapRate > 0
}

// MemEnabled reports whether the ECC site is active.
func (c Config) MemEnabled() bool { return c.Mem.ECCRate > 0 }

// ApplyDefaults fills the recovery knobs left at zero. Rates are never
// defaulted — a zero rate means the site is off.
func (c *Config) ApplyDefaults() {
	if c.Disk.SlowFactor <= 0 {
		c.Disk.SlowFactor = 4
	}
	if c.Disk.MaxRetries <= 0 {
		c.Disk.MaxRetries = 10
	}
	if c.Disk.RetryBackoff == 0 {
		c.Disk.RetryBackoff = 200_000
	}
	if c.Net.FlapDownCycles == 0 {
		c.Net.FlapDownCycles = 2_000_000
	}
	if c.Net.RetransmitTimeout == 0 {
		c.Net.RetransmitTimeout = 400_000
	}
	if c.Net.MaxRetransmits <= 0 {
		c.Net.MaxRetransmits = 40
	}
	if c.Mem.ECCCost == 0 {
		c.Mem.ECCCost = 300
	}
}

// Mix is the splitmix64 finalizer: a strong 64-bit hash used as the
// stateless PRNG core. Every fault decision is Mix(seed ⊕ site ⊕ cycle ⊕
// draw) compared against the rate threshold; the memory controller's ECC
// sampler and the load generator's streams draw from it too.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hit converts the top 53 bits of a hash into a Bernoulli draw with
// probability p. Float math here is exact and portable: one multiply of
// constants, one integer compare.
func hit(h uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(h>>11) < p*(1<<53)
}

// Injection-site keys (distinct streams per site).
const (
	siteDiskTransient uint64 = 0x1d15c001
	siteDiskSlow      uint64 = 0x1d15c002
	siteDiskBad       uint64 = 0x1d15c003
	siteNetRx         uint64 = 0x07e70001
	siteNetTx         uint64 = 0x07e70002
	siteNetFlap       uint64 = 0x07e70003
)

// Roller is one site's deterministic decision stream. The draw counter
// makes decisions within a single cycle distinct and is checkpoint state.
type Roller struct {
	seed  uint64
	site  uint64
	draws uint64
}

// Roll makes one Bernoulli decision at the given cycle.
func (r *Roller) Roll(cycle uint64, p float64) bool {
	r.draws++
	return hit(Mix(r.seed^Mix(r.site)^cycle*0x632be59bd9b4e019^r.draws), p)
}

// BadBlock reports whether a disk block is born bad under the plan: a
// stateless predicate on (seed, block), so the set of bad blocks is fixed
// for the whole run and across checkpoints with no stored state.
func BadBlock(seed uint64, block int, rate float64) bool {
	return hit(Mix(seed^Mix(siteDiskBad)^uint64(block)), rate)
}

// DiskStatus is the outcome of one disk request.
type DiskStatus int

const (
	// DiskOK means the request succeeded.
	DiskOK DiskStatus = iota
	// DiskTransient means a transient media error: retrying the request
	// can succeed.
	DiskTransient
	// DiskBadBlock means the target block is permanently bad: retries
	// fail until the block is remapped to a spare.
	DiskBadBlock
)

// String names the status.
func (s DiskStatus) String() string {
	switch s {
	case DiskOK:
		return "ok"
	case DiskTransient:
		return "transient"
	case DiskBadBlock:
		return "bad-block"
	default:
		return "unknown"
	}
}

// DiskInjector decides disk-request outcomes (backend context).
type DiskInjector struct {
	cfg       DiskConfig
	seed      uint64
	transient Roller
	slow      Roller

	Transients, Slows, BadIOs uint64
}

// NewDiskInjector builds the disk fault site.
func NewDiskInjector(seed uint64, cfg DiskConfig) *DiskInjector {
	return &DiskInjector{
		cfg: cfg, seed: seed,
		transient: Roller{seed: seed, site: siteDiskTransient},
		slow:      Roller{seed: seed, site: siteDiskSlow},
	}
}

// Decide rolls one request's fate: its status plus a service-time
// multiplier (1 = nominal). Bad blocks consume no draws (stateless
// predicate); surviving requests roll transient, then slow.
func (i *DiskInjector) Decide(cycle uint64, block int) (DiskStatus, int) {
	if BadBlock(i.seed, block, i.cfg.BadBlockRate) {
		i.BadIOs++
		return DiskBadBlock, 1
	}
	if i.transient.Roll(cycle, i.cfg.TransientRate) {
		i.Transients++
		return DiskTransient, 1
	}
	if i.slow.Roll(cycle, i.cfg.SlowRate) {
		i.Slows++
		return DiskOK, i.cfg.SlowFactor
	}
	return DiskOK, 1
}

// Bad is the injector-bound bad-block predicate (for spare allocation).
func (i *DiskInjector) Bad(block int) bool {
	return BadBlock(i.seed, block, i.cfg.BadBlockRate)
}

// DiskInjSnap is the disk injector's checkpoint state.
type DiskInjSnap struct {
	TransientDraws, SlowDraws uint64
	Transients, Slows, BadIOs uint64
}

// Snapshot captures the draw counters and tallies.
func (i *DiskInjector) Snapshot() DiskInjSnap {
	return DiskInjSnap{
		TransientDraws: i.transient.draws, SlowDraws: i.slow.draws,
		Transients: i.Transients, Slows: i.Slows, BadIOs: i.BadIOs,
	}
}

// Restore overwrites the draw counters and tallies.
func (i *DiskInjector) Restore(s DiskInjSnap) {
	i.transient.draws = s.TransientDraws
	i.slow.draws = s.SlowDraws
	i.Transients = s.Transients
	i.Slows = s.Slows
	i.BadIOs = s.BadIOs
}

// Verdict is the wire's decision for one frame.
type Verdict int

const (
	// Deliver passes the frame through untouched.
	Deliver Verdict = iota
	// Drop eats the frame silently (no receive interrupt).
	Drop
	// Corrupt delivers a damaged frame: the adapter takes the interrupt
	// and discards it (FCS error), so the payload never goes upward.
	Corrupt
	// Duplicate delivers the frame twice.
	Duplicate
)

// NetInjector decides per-frame wire outcomes (backend context). The two
// directions draw from separate streams; link flaps are shared (one
// physical link).
type NetInjector struct {
	cfg  NetConfig
	rx   Roller // toward the simulated host
	tx   Roller // toward the external client
	flap Roller

	downUntil uint64 // link dead through this cycle (flap window)

	Drops, Corrupts, Dups, Flaps, FlapDrops uint64
}

// NewNetInjector builds the network fault site.
func NewNetInjector(seed uint64, cfg NetConfig) *NetInjector {
	return &NetInjector{
		cfg:  cfg,
		rx:   Roller{seed: seed, site: siteNetRx},
		tx:   Roller{seed: seed, site: siteNetTx},
		flap: Roller{seed: seed, site: siteNetFlap},
	}
}

// DecideRx rolls the fate of a frame headed to the simulated host.
func (i *NetInjector) DecideRx(cycle uint64) Verdict { return i.decide(&i.rx, cycle) }

// DecideTx rolls the fate of a frame headed to the external client.
func (i *NetInjector) DecideTx(cycle uint64) Verdict { return i.decide(&i.tx, cycle) }

func (i *NetInjector) decide(r *Roller, cycle uint64) Verdict {
	if cycle < i.downUntil {
		i.FlapDrops++
		return Drop
	}
	if i.flap.Roll(cycle, i.cfg.FlapRate) {
		i.Flaps++
		i.downUntil = cycle + i.cfg.FlapDownCycles
		i.FlapDrops++
		return Drop
	}
	if r.Roll(cycle, i.cfg.DropRate) {
		i.Drops++
		return Drop
	}
	if r.Roll(cycle, i.cfg.CorruptRate) {
		i.Corrupts++
		return Corrupt
	}
	if r.Roll(cycle, i.cfg.DupRate) {
		i.Dups++
		return Duplicate
	}
	return Deliver
}

// NetInjSnap is the network injector's checkpoint state.
type NetInjSnap struct {
	RxDraws, TxDraws, FlapDraws             uint64
	DownUntil                               uint64
	Drops, Corrupts, Dups, Flaps, FlapDrops uint64
}

// Snapshot captures the draw counters, flap window and tallies.
func (i *NetInjector) Snapshot() NetInjSnap {
	return NetInjSnap{
		RxDraws: i.rx.draws, TxDraws: i.tx.draws, FlapDraws: i.flap.draws,
		DownUntil: i.downUntil,
		Drops:     i.Drops, Corrupts: i.Corrupts, Dups: i.Dups,
		Flaps: i.Flaps, FlapDrops: i.FlapDrops,
	}
}

// Restore overwrites the draw counters, flap window and tallies.
func (i *NetInjector) Restore(s NetInjSnap) {
	i.rx.draws = s.RxDraws
	i.tx.draws = s.TxDraws
	i.flap.draws = s.FlapDraws
	i.downUntil = s.DownUntil
	i.Drops = s.Drops
	i.Corrupts = s.Corrupts
	i.Dups = s.Dups
	i.Flaps = s.Flaps
	i.FlapDrops = s.FlapDrops
}
