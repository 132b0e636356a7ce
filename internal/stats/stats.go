// Package stats implements the cycle accounting that backs the paper's
// Table 1: every simulated cycle is attributed to one execution mode (user,
// kernel, or interrupt handler) of one simulated process, and the package
// aggregates those attributions into the user-vs-OS-time profile the paper
// reports for SPECWeb/Apache, TPCD/DB2 and TPCC/DB2.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Mode is the execution mode a cycle is charged to.
type Mode int

const (
	// ModeUser is ordinary application code.
	ModeUser Mode = iota
	// ModeKernel is category-1 OS code run by the OS server on behalf of a
	// process (system calls: kreadv, kwritev, select, send, ...).
	ModeKernel
	// ModeInterrupt is bottom-half code: device interrupt handlers and the
	// interval timer.
	ModeInterrupt
	numModes
)

// String returns the profile column name for the mode.
func (m Mode) String() string {
	switch m {
	case ModeUser:
		return "user"
	case ModeKernel:
		return "kernel"
	case ModeInterrupt:
		return "interrupt"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// TimeAccount accumulates cycles per execution mode.
type TimeAccount struct {
	cycles [numModes]uint64
}

// Charge adds n cycles to mode m.
func (a *TimeAccount) Charge(m Mode, n uint64) { a.cycles[m] += n }

// Cycles returns the cycles charged to mode m.
func (a *TimeAccount) Cycles(m Mode) uint64 { return a.cycles[m] }

// Total returns the cycles charged across all modes.
func (a *TimeAccount) Total() uint64 {
	var t uint64
	for _, c := range a.cycles {
		t += c
	}
	return t
}

// Add merges another account into this one.
func (a *TimeAccount) Add(b *TimeAccount) {
	for i := range a.cycles {
		a.cycles[i] += b.cycles[i]
	}
}

// Profile is one row of the paper's Table 1: the user and OS shares of total
// CPU time, with OS time split into interrupt-handler and kernel time.
type Profile struct {
	Name         string
	TotalCycles  uint64
	UserPct      float64
	OSPct        float64
	InterruptPct float64
	KernelPct    float64
	UserCycles   uint64
	KernelCycles uint64
	IntrCycles   uint64
}

// ProfileOf reduces a time account to a Table-1 row. Total excludes idle
// (disk-wait) time by construction: only charged cycles are counted, which
// matches the paper's "total CPU time which excludes wait time due to disk
// IO".
func ProfileOf(name string, a *TimeAccount) Profile {
	total := a.Total()
	p := Profile{
		Name:         name,
		TotalCycles:  total,
		UserCycles:   a.Cycles(ModeUser),
		KernelCycles: a.Cycles(ModeKernel),
		IntrCycles:   a.Cycles(ModeInterrupt),
	}
	if total == 0 {
		return p
	}
	pct := func(c uint64) float64 { return 100 * float64(c) / float64(total) }
	p.UserPct = pct(p.UserCycles)
	p.KernelPct = pct(p.KernelCycles)
	p.InterruptPct = pct(p.IntrCycles)
	p.OSPct = p.KernelPct + p.InterruptPct
	return p
}

// String formats the profile like a Table-1 row.
func (p Profile) String() string {
	return fmt.Sprintf("%-18s user %5.1f%%  OS %5.1f%% (interrupt %5.1f%%, kernel %5.1f%%)",
		p.Name, p.UserPct, p.OSPct, p.InterruptPct, p.KernelPct)
}

// Counters is a named set of monotonic event counters (cache hits, bus
// transactions, packets, ...). The zero value is ready to use.
type Counters struct {
	m map[string]uint64
}

// Inc adds n to counter name.
func (c *Counters) Inc(name string, n uint64) {
	if c.m == nil {
		c.m = make(map[string]uint64)
	}
	c.m[name] += n
}

// Get returns the value of counter name (zero if never incremented).
func (c *Counters) Get(name string) uint64 { return c.m[name] }

// Names returns the counter names in sorted order.
func (c *Counters) Names() []string {
	names := make([]string, 0, len(c.m))
	//det:ordered names are sorted before return
	for k := range c.m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Add merges another counter set into this one.
func (c *Counters) Add(o *Counters) {
	//det:ordered integer sums into a map commute
	for k, v := range o.m {
		c.Inc(k, v)
	}
}

// String renders all counters, one per line, sorted by name.
func (c *Counters) String() string {
	var b strings.Builder
	for _, name := range c.Names() {
		fmt.Fprintf(&b, "%-32s %12d\n", name, c.m[name])
	}
	return b.String()
}

// FormatFaultTable renders the fault-injection and recovery counters
// (the "fault." namespace) as a table: injected events on one side,
// recovery work on the other. Returns "" when no fault counters exist —
// fault-free runs print nothing.
func FormatFaultTable(c *Counters) string {
	var names []string
	for _, n := range c.Names() {
		if strings.HasPrefix(n, "fault.") {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %12s\n", "fault event", "count")
	for _, n := range names {
		fmt.Fprintf(&b, "%-32s %12d\n", n, c.Get(n))
	}
	return b.String()
}

// Histogram is a fixed-bucket latency histogram with power-of-two bucket
// boundaries: bucket i counts samples in [2^i, 2^(i+1)).
type Histogram struct {
	buckets [32]uint64
	count   uint64
	sum     uint64
	max     uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for x := v; x > 1 && i < len(h.buckets)-1; x >>= 1 {
		i++
	}
	h.buckets[i]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Mean returns the sample mean (0 with no samples).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max returns the largest sample observed.
func (h *Histogram) Max() uint64 { return h.max }

// bucketBounds returns the value range [lo, hi) of bucket i, with hi
// clamped to just past the largest observed sample so interpolation in
// the top (overflow) bucket never extrapolates beyond real data.
func (h *Histogram) bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		lo = 0
	} else {
		lo = float64(uint64(1) << uint(i))
	}
	hi = float64(uint64(1) << uint(i+1))
	if m := float64(h.max) + 1; hi > m {
		hi = m
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Quantile returns the q-th quantile (q in [0,1]) estimated by linear
// interpolation within the power-of-two bucket holding rank q*count.
// With no samples it returns 0; q >= 1 returns the exact maximum. The
// estimate is exact at the bucket boundaries and never exceeds Max.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q >= 1 {
		return float64(h.max)
	}
	if q < 0 {
		q = 0
	}
	target := q * float64(h.count)
	var cum float64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		c := float64(n)
		if cum+c >= target {
			lo, hi := h.bucketBounds(i)
			frac := (target - cum) / c
			if frac < 0 {
				frac = 0
			}
			v := lo + frac*(hi-lo)
			if m := float64(h.max); v > m {
				v = m
			}
			return v
		}
		cum += c
	}
	return float64(h.max)
}

// HistogramState is the histogram's serializable checkpoint state.
type HistogramState struct {
	Buckets []uint64
	Count   uint64
	Sum     uint64
	Max     uint64
}

// State captures the histogram for checkpoint serialization. Empty
// buckets above the highest non-empty one are trimmed.
func (h *Histogram) State() HistogramState {
	top := 0
	for i, n := range h.buckets {
		if n != 0 {
			top = i + 1
		}
	}
	return HistogramState{
		Buckets: append([]uint64(nil), h.buckets[:top]...),
		Count:   h.count, Sum: h.sum, Max: h.max,
	}
}

// SetState overwrites the histogram from a State. Extra buckets beyond
// the fixed range are ignored.
func (h *Histogram) SetState(s HistogramState) {
	h.buckets = [32]uint64{}
	for i := 0; i < len(s.Buckets) && i < len(h.buckets); i++ {
		h.buckets[i] = s.Buckets[i]
	}
	h.count = s.Count
	h.sum = s.Sum
	h.max = s.Max
}

// LoadRow is one traffic class's row of the tail-latency table printed
// alongside Table 1: offered vs completed load plus latency quantiles in
// cycles.
type LoadRow struct {
	// Class names the traffic class.
	Class string
	// Offered counts requests issued; Completed counts responses received
	// intact; Failed counts requests abandoned (ARQ gave up under faults).
	Offered, Completed, Failed uint64
	// Latency is the per-class request-latency histogram in cycles.
	Latency *Histogram
}

// FormatLoadTable renders the per-class tail-latency table: offered and
// completed request counts and the p50/p90/p99/p999 latency quantiles in
// cycles. A final "total" row aggregates all classes. Returns "" with no
// rows — runs without a load generator print nothing.
func FormatLoadTable(rows []LoadRow) string {
	if len(rows) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %9s %9s %7s %10s %10s %10s %10s %10s\n",
		"class", "offered", "done", "failed", "p50", "p90", "p99", "p999", "max")
	var total LoadRow
	var agg Histogram
	total.Class = "total"
	total.Latency = &agg
	for _, r := range rows {
		writeLoadRow(&b, r)
		total.Offered += r.Offered
		total.Completed += r.Completed
		total.Failed += r.Failed
		if r.Latency != nil {
			agg.Merge(r.Latency)
		}
	}
	if len(rows) > 1 {
		writeLoadRow(&b, total)
	}
	return b.String()
}

func writeLoadRow(b *strings.Builder, r LoadRow) {
	var h Histogram
	if r.Latency != nil {
		h = *r.Latency
	}
	fmt.Fprintf(b, "%-12s %9d %9d %7d %10.0f %10.0f %10.0f %10.0f %10d\n",
		r.Class, r.Offered, r.Completed, r.Failed,
		h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Quantile(0.999), h.Max())
}

// Merge adds another histogram's samples into this one bucket-wise.
func (h *Histogram) Merge(o *Histogram) {
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Diff returns the counters minus a previous snapshot (measurement-window
// statistics: snapshot at end of warmup, diff at end of run).
func (c *Counters) Diff(prev *Counters) *Counters {
	var out Counters
	for _, name := range c.Names() {
		d := c.Get(name) - prev.Get(name)
		if d != 0 {
			out.Inc(name, d)
		}
	}
	return &out
}

// Snapshot returns the per-mode cycle totals in Mode order (checkpoint
// serialization).
func (a *TimeAccount) Snapshot() []uint64 { return append([]uint64(nil), a.cycles[:]...) }

// RestoreSnapshot overwrites the per-mode totals from a Snapshot slice.
// Extra entries (a future mode the snapshot writer knew about) are ignored.
func (a *TimeAccount) RestoreSnapshot(c []uint64) {
	a.cycles = [numModes]uint64{}
	for i := 0; i < len(c) && i < int(numModes); i++ {
		a.cycles[i] = c[i]
	}
}
