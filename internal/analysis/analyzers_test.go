package analysis_test

import (
	"testing"

	"compass/internal/analysis"
	"compass/internal/analysis/analysistest"
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

// The call-graph analyzer gets its own fixture tree nested as
// lanescope/internal/loadgen: the import path still ends in
// internal/loadgen, so package classification (sim package, lane
// tenant) matches the real module while its want expectations stay
// isolated from the shared fixtures.

func TestLanescope(t *testing.T) {
	analysistest.Run(t, analysis.Lanescope, "lanescope/internal/loadgen")
}
