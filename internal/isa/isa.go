// Package isa provides the static instruction-timing model that COMPASS's
// instrumentor bakes into each basic block.
//
// The paper's instrumentation "calculates the timing information of the
// process by using the estimated execution time of each instruction based on
// the specifications of the microprocessor instruction set, assuming 100%
// instruction cache hits". This package is that specification table, styled
// after the PowerPC 604 the authors ran on, plus the InstrMix helper used by
// the Go-level "instrumented" applications to charge whole basic blocks.
package isa

// Op is an instruction class with a fixed issue-to-complete latency.
type Op int

const (
	// OpInt is a simple integer ALU operation (add, sub, logical, shift).
	OpInt Op = iota
	// OpIntMul is integer multiply.
	OpIntMul
	// OpIntDiv is integer divide.
	OpIntDiv
	// OpBranch is a conditional or unconditional branch (predicted-taken
	// static model, as the paper's static per-instruction estimate implies).
	OpBranch
	// OpFPAdd is floating-point add/sub/convert.
	OpFPAdd
	// OpFPMul is floating-point multiply or fused multiply-add.
	OpFPMul
	// OpFPDiv is floating-point divide.
	OpFPDiv
	// OpLoadIssue is the pipeline-occupancy cost of a load, excluding the
	// memory-system latency which the backend supplies per reference.
	OpLoadIssue
	// OpStoreIssue is the pipeline-occupancy cost of a store, likewise.
	OpStoreIssue
	// OpSync is a synchronizing instruction (sync/isync/eieio class).
	OpSync
	numOps
)

// Timing maps instruction classes to estimated cycles. Values are the
// PowerPC-604-style defaults; architecture studies may substitute their own.
type Timing [numOps]uint64

// DefaultTiming returns the PowerPC-604-flavoured static latency table.
func DefaultTiming() Timing {
	return Timing{
		OpInt:        1,
		OpIntMul:     4,
		OpIntDiv:     20,
		OpBranch:     1,
		OpFPAdd:      3,
		OpFPMul:      3,
		OpFPDiv:      18,
		OpLoadIssue:  1,
		OpStoreIssue: 1,
		OpSync:       3,
	}
}

// Cycles returns the estimated cycles for one instruction of class o.
func (t *Timing) Cycles(o Op) uint64 {
	if o < 0 || int(o) >= len(t) {
		return 1
	}
	return t[o]
}

// InstrMix describes the non-memory instruction content of a basic block (or
// a run of basic blocks): how many instructions of each class it executes.
// It is the unit the instrumented applications use to charge compute time.
type InstrMix struct {
	Int    uint64
	IntMul uint64
	IntDiv uint64
	Branch uint64
	FPAdd  uint64
	FPMul  uint64
	FPDiv  uint64
	Sync   uint64
}

// Cycles evaluates the mix under timing table t.
func (m InstrMix) Cycles(t *Timing) uint64 {
	return m.Int*t.Cycles(OpInt) +
		m.IntMul*t.Cycles(OpIntMul) +
		m.IntDiv*t.Cycles(OpIntDiv) +
		m.Branch*t.Cycles(OpBranch) +
		m.FPAdd*t.Cycles(OpFPAdd) +
		m.FPMul*t.Cycles(OpFPMul) +
		m.FPDiv*t.Cycles(OpFPDiv) +
		m.Sync*t.Cycles(OpSync)
}

// ALU returns a mix of n simple integer instructions — the most common
// basic-block shorthand in the instrumented applications.
func ALU(n uint64) InstrMix { return InstrMix{Int: n} }
