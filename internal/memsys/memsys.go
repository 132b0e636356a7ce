// Package memsys defines the interface between the backend's event engine
// and the target-architecture memory models. The paper's backend simulates
// "several levels of caches, memory buses, memory controllers, coherence
// controllers, network and physical devices"; each target (SMP bus,
// CC-NUMA, COMA) implements Model.
package memsys

import (
	"compass/internal/event"
	"compass/internal/mem"
	"compass/internal/stats"
)

// Model is a target memory-system timing model. Implementations are owned
// by the single backend goroutine and need no locking.
type Model interface {
	// Name identifies the model in reports ("simple", "smp", "ccnuma", ...).
	Name() string
	// Access simulates a data reference by cpu to physical address pa at
	// cycle now and returns the completion cycle. Functional data movement
	// is done by the caller; Access only accounts time and coherence state.
	Access(now event.Cycle, cpu int, pa mem.PhysAddr, write bool) event.Cycle
	// AccessRun is up to n calls of Access and nothing else, n ≥ 1: reference
	// i goes to pa + i·stride, the first is issued at now and each further one
	// issue cycles after the one before it completed — but only if that is
	// below until, where the run ends. It returns how many references were
	// served (the first always is), the cycle the last of them was issued at
	// and the cycle it completed. The caller vouches that nothing else would
	// have happened between those calls below until (the backend's walk along
	// a range event, core.Sim.handleMem); what a model makes of knowing that
	// is its own business, as long as times, counters and state come out as
	// from the calls.
	AccessRun(now event.Cycle, cpu int, pa, stride mem.PhysAddr, n int, issue, until event.Cycle, write bool) (served int, issued, done event.Cycle)
	// Rehit accounts n further stores by cpu that hit the line containing pa
	// where it sits Modified in the CPU's first-level cache — n calls of
	// Access(·, cpu, pa, true), each of which takes lat cycles and changes
	// nothing but the counts (the backend's walk round a lock-poll loop,
	// core.Sim.handleSpin). When the line is not there in that state ok is
	// false and nothing is accounted; n = 0 only asks.
	Rehit(cpu int, pa mem.PhysAddr, n uint64) (lat event.Cycle, ok bool)
	// AddCounters adds the model's statistics into c under a model prefix.
	AddCounters(c *stats.Counters)
}

// RunByAccess is AccessRun by its definition, a loop of m.Access: for the
// models that make nothing more of a run.
func RunByAccess(m Model, now event.Cycle, cpu int, pa, stride mem.PhysAddr, n int, issue, until event.Cycle, write bool) (served int, issued, done event.Cycle) {
	for issued = now; ; pa += stride {
		done = m.Access(issued, cpu, pa, write)
		served++
		if served >= n || done+issue >= until {
			return served, issued, done
		}
		issued = done + issue
	}
}

// Fixed is the degenerate model: every access completes in a constant
// number of cycles. It is the timing floor used in unit tests and as the
// "uninstrumented" reference.
type Fixed struct {
	Latency  event.Cycle
	Accesses uint64
}

// Name implements Model.
func (f *Fixed) Name() string { return "fixed" }

// Access implements Model.
func (f *Fixed) Access(now event.Cycle, cpu int, pa mem.PhysAddr, write bool) event.Cycle {
	f.Accesses++
	return now + f.Latency
}

// AccessRun implements Model.
func (f *Fixed) AccessRun(now event.Cycle, cpu int, pa, stride mem.PhysAddr, n int, issue, until event.Cycle, write bool) (int, event.Cycle, event.Cycle) {
	return RunByAccess(f, now, cpu, pa, stride, n, issue, until, write)
}

// Rehit implements Model: there is no cache for the line not to be in.
func (f *Fixed) Rehit(cpu int, pa mem.PhysAddr, n uint64) (event.Cycle, bool) {
	f.Accesses += n
	return f.Latency, true
}

// AddCounters implements Model.
func (f *Fixed) AddCounters(c *stats.Counters) {
	c.Inc("fixed.accesses", f.Accesses)
}
