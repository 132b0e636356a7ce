package isa

import (
	"testing"
	"testing/quick"
)

func TestDefaultTimingSane(t *testing.T) {
	tm := DefaultTiming()
	if tm.Cycles(OpInt) != 1 {
		t.Errorf("int = %d, want 1", tm.Cycles(OpInt))
	}
	if tm.Cycles(OpIntDiv) <= tm.Cycles(OpIntMul) {
		t.Error("divide should cost more than multiply")
	}
	if tm.Cycles(OpFPDiv) <= tm.Cycles(OpFPMul) {
		t.Error("fp divide should cost more than fp multiply")
	}
	for o := Op(0); o < numOps; o++ {
		if tm.Cycles(o) == 0 {
			t.Errorf("op %v has zero cost", o)
		}
	}
	// Out-of-range ops default to 1 cycle rather than panicking.
	if tm.Cycles(Op(99)) != 1 {
		t.Errorf("out-of-range op cost = %d, want 1", tm.Cycles(Op(99)))
	}
}

func TestInstrMixCycles(t *testing.T) {
	tm := DefaultTiming()
	m := InstrMix{Int: 10, Branch: 2, IntMul: 1}
	want := 10*tm.Cycles(OpInt) + 2*tm.Cycles(OpBranch) + 1*tm.Cycles(OpIntMul)
	if got := m.Cycles(&tm); got != want {
		t.Errorf("Cycles = %d, want %d", got, want)
	}
}

func TestALU(t *testing.T) {
	if ALU(7) != (InstrMix{Int: 7}) {
		t.Error("ALU helper wrong")
	}
}

// Property: Cycles is linear — a mix with every class multiplied by n costs
// exactly n times the base, and the class-by-class sum of two mixes costs
// the sum of their costs.
func TestQuickMixLinearity(t *testing.T) {
	tm := DefaultTiming()
	f := func(a, b uint8, i, mul, br, fp uint8) bool {
		m := InstrMix{Int: uint64(i), IntMul: uint64(mul), Branch: uint64(br), FPAdd: uint64(fp)}
		n := uint64(a%16) + 1
		scaled := InstrMix{Int: m.Int * n, IntMul: m.IntMul * n, Branch: m.Branch * n, FPAdd: m.FPAdd * n}
		if scaled.Cycles(&tm) != n*m.Cycles(&tm) {
			return false
		}
		o := InstrMix{Int: uint64(b)}
		sum := m
		sum.Int += o.Int
		return sum.Cycles(&tm) == m.Cycles(&tm)+o.Cycles(&tm)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
