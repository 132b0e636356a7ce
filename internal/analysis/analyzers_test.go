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

// The lane rule gets its own fixture tree under lanescope/: a lane
// package (internal/arrival), the home side that wires it
// (internal/loadgen), and a vocabulary package that imports from the
// module (internal/fault). The shared event and fault stand-ins are
// checked too and must stay silent.

func TestLanescope(t *testing.T) {
	analysistest.Run(t, analysis.Lanescope, "internal/event", "internal/fault",
		"lanescope/internal/arrival", "lanescope/internal/loadgen", "lanescope/internal/fault")
}
