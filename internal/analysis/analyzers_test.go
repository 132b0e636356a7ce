package analysis_test

import (
	"testing"

	"compass/internal/analysis"
	"compass/internal/analysis/analysistest"
	"compass/internal/dev"
)

// The fixtures under testdata/src are a module of their own, "fixture",
// loaded by the same Load as the real tree; their import paths
// ("fixture/internal/core", "fixture/internal/event", ...) classify
// exactly like the real module's packages. Each fixture contains
// deliberately broken invariants marked with // want comments plus the
// legal forms (escape hatches included), which must stay silent.

func TestDetwallclock(t *testing.T) {
	analysistest.Run(t, analysis.Detwallclock, "internal/core", "hostutil")
}

func TestDetmaprange(t *testing.T) {
	analysistest.Run(t, analysis.Detmaprange, "maprange")
}

func TestSnapfields(t *testing.T) {
	analysistest.Run(t, analysis.Snapfields, "snapgood", "snapbad")
}

// The two call-graph analyzers get their own fixture trees nested as
// <analyzer>/internal/loadgen: the import path still ends in
// internal/loadgen, so package classification (sim package, lane
// tenant) matches the real module while each analyzer's want
// expectations stay isolated from the shared fixtures.

func TestLanescope(t *testing.T) {
	analysistest.Run(t, analysis.Lanescope, "lanescope/internal/loadgen")
}

func TestLookaheadfloor(t *testing.T) {
	analysistest.Run(t, analysis.Lookaheadfloor, "lookahead/internal/loadgen")
}

// TestLookaheadFloorMatchesNIC pins the analyzer's constant to the
// engine's real quantum: machine.go installs the NIC wire latency as
// Config.ShardLookahead, so a NIC retune must update
// LookaheadFloorCycles (or decouple them deliberately) rather than
// silently loosening the vet check.
func TestLookaheadFloorMatchesNIC(t *testing.T) {
	if got := uint64(dev.DefaultNICConfig().WireCycles); got != analysis.LookaheadFloorCycles {
		t.Fatalf("dev.DefaultNICConfig().WireCycles = %d, analysis.LookaheadFloorCycles = %d: keep the static floor in sync with the shard quantum", got, analysis.LookaheadFloorCycles)
	}
}
