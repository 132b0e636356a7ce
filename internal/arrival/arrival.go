// Package arrival is the lane side of the open-loop generator
// (internal/loadgen): one traffic class's aggregate arrival process,
// run on a backend lane (DESIGN.md §14). A tick draws the next
// inter-arrival gap from a counter-based stream, thins the candidate
// against the flash-crowd and MMPP rate multiplier, charges a surviving
// session against the class's budget share, and forwards it to the home
// lane with Lane.Send. The generator's home side (the wire, the object
// and think draws, the tallies) is in package loadgen, which this package
// cannot import.
//
// That is the point of the package. A lane task may touch only its own
// lane's state, and compassvet's lanescope analyzer holds every package
// that calls Lane.AfterKeep to a rule its own source shows (DESIGN.md
// §15): it imports nothing from the module but internal/event and
// internal/fault, declares no package-level variable, never schedules
// through the global queue, calls nothing through a func value or an
// interface, and binds only its own functions as lane tasks.
package arrival

import (
	"math"

	"compass/internal/event"
	"compass/internal/fault"
)

// Stream is one deterministic draw sequence (the internal/fault
// discipline: seeded, keyed per site, never wall clock). The generator
// draws its object and think choices from Streams too.
type Stream struct {
	seed, site uint64
	// Draws counts the values drawn so far. It is the stream's only
	// mutable state: checkpoint it and the stream resumes exactly.
	Draws uint64
}

// NewStream keys a stream by seed, site and class: each class folds its
// index into the site, so classes draw independently.
func NewStream(seed, site uint64, class int) Stream {
	return Stream{seed: seed, site: site ^ uint64(class)*0x632be59bd9b4e019}
}

// Next yields the stream's next 64-bit value.
func (s *Stream) Next() uint64 {
	s.Draws++
	return fault.Mix(s.seed ^ fault.Mix(s.site) ^ s.Draws*0x9e3779b97f4a7c15)
}

// U01 yields a uniform draw in [0,1) with 53 significant bits.
func (s *Stream) U01() float64 {
	return float64(s.Next()>>11) / (1 << 53)
}

// ExpCycles draws an exponential inter-arrival gap (mean 1/rate cycles),
// clamped to [1, 1<<40] so a pathological rate can neither stall the
// event loop with zero-length gaps nor overflow cycle arithmetic.
func (s *Stream) ExpCycles(rate float64) uint64 {
	g := -math.Log(1-s.U01()) / rate
	if !(g >= 1) { // also catches NaN/Inf from rate<=0 misuse
		return 1
	}
	if g > 1<<40 {
		return 1 << 40
	}
	return uint64(g)
}

// Window is one flash-crowd window: while Start <= now < Start+Dur the
// arrival rate is multiplied by Mult.
type Window struct {
	Start, Dur uint64
	Mult       float64
}

// MMPP is the periodic rate modulation: for On cycles out of every
// Period the rate is multiplied by Mult. The zero value is off.
type MMPP struct {
	Period, On uint64
	Mult       float64
}

// Process is one class's arrival process. Everything in it but the
// batch ring belongs to the class's lane; the ring is the lane→home
// hand-off, whose producer and consumer the engine's window barriers
// order.
type Process struct {
	lane   *event.Lane
	stream Stream
	flash  []Window
	mmpp   MMPP
	burst  uint64

	// lambdaMax is the thinning envelope rate: base rate times maxMult,
	// the largest multiplier any window combination can reach.
	lambdaMax float64
	maxMult   float64

	// left is the remaining request budget share (zero at quiescence).
	left uint64

	// pending is the lane→home session-size ring: a tick appends one
	// batch size per surviving arrival, the home launch task pops one.
	// It is empty at quiescence: every forwarded launch was offered.
	pending  []int
	pendHead int

	// tickFn is the prebound tick, allocated once so scheduling stays
	// closure-free; launch and retire are the generator's home-side
	// tasks, handed to Send and never called here.
	tickFn         func()
	launch, retire func()
}

// New builds a class's arrival process on lane, drawing from s. rate is
// the base session rate per cycle and burst the requests per session.
// launch is sent home once per surviving session (it pops the size with
// Pop), retire once when the budget share is spent.
func New(lane *event.Lane, s Stream, rate float64, burst int, flash []Window, mmpp MMPP, launch, retire func()) *Process {
	p := &Process{
		lane: lane, stream: s, flash: flash, mmpp: mmpp, burst: uint64(burst),
		maxMult: 1, launch: launch, retire: retire,
	}
	for _, w := range flash {
		if w.Mult > 1 {
			p.maxMult *= w.Mult
		}
	}
	if mmpp.Period > 0 && mmpp.Mult > 1 {
		p.maxMult *= mmpp.Mult
	}
	p.lambdaMax = rate * p.maxMult
	p.tickFn = p.tick
	return p
}

// Draws and SetDraws read and restore the arrival stream's counter, the
// process's only checkpoint state (setup context).
func (p *Process) Draws() uint64     { return p.stream.Draws }
func (p *Process) SetDraws(n uint64) { p.stream.Draws = n }

// Start gives the process a budget share of left > 0 requests and books
// its first candidate arrival (setup context).
func (p *Process) Start(left uint64) {
	p.left = left
	p.schedule()
}

// schedule books the next candidate arrival on the lane.
func (p *Process) schedule() {
	gap := p.stream.ExpCycles(p.lambdaMax)
	p.lane.AfterKeep(event.Cycle(gap), "loadgen-arrival", p.tickFn)
}

// tick is one candidate arrival (lane context): thin it against the
// current rate multiplier, forward a session launch if it survives, and
// book the next candidate while the budget share remains. When the
// share drains, the process retires through a home send, so the
// generator's drain bookkeeping stays home-side.
func (p *Process) tick() {
	now := uint64(p.lane.Now())
	if p.stream.U01()*p.maxMult < p.multiplier(now) {
		p.launchSession()
	}
	if p.left == 0 {
		p.lane.Send("loadgen-done", p.retire)
		return
	}
	p.schedule()
}

// multiplier is the rate multiplier at an absolute cycle: the product
// of every active flash window and the MMPP on-phase. Absolute cycles
// keep the surge identical across a checkpoint resume.
func (p *Process) multiplier(now uint64) float64 {
	m := 1.0
	for _, w := range p.flash {
		if now >= w.Start && now-w.Start < w.Dur {
			m *= w.Mult
		}
	}
	if mm := p.mmpp; mm.Period > 0 && now%mm.Period < mm.On {
		m *= mm.Mult
	}
	return m
}

// launchSession charges a new session against the budget share and
// forwards it to the home lane (lane context): the size goes into the
// ring and the launch task follows one lookahead later. Sends from one
// lane dispatch in schedule order, so sizes pop in the order they were
// pushed.
func (p *Process) launchSession() {
	n := min(p.burst, p.left)
	if n == 0 {
		return
	}
	p.left -= n
	p.pending = append(p.pending, int(n))
	p.lane.Send("loadgen-launch", p.launch)
}

// Pop takes the oldest forwarded session size (home context: called by
// the launch task a Send delivered).
func (p *Process) Pop() int {
	n := p.pending[p.pendHead]
	p.pendHead++
	if p.pendHead == len(p.pending) {
		p.pending = p.pending[:0]
		p.pendHead = 0
	}
	return n
}
