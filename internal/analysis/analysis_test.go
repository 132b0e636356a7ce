package analysis

import "testing"

// TestIsSimPackage pins which packages the determinism rules treat as
// simulation code: everything the backend runs and every library the
// simulated applications call, in the module and in the fixture module
// alike, and none of the host-side orchestration. A package nested
// under a simulation package is simulation code too.
func TestIsSimPackage(t *testing.T) {
	for path, want := range map[string]bool{
		"compass/internal/core":              true,
		"compass/internal/loadgen":           true,
		"compass/internal/arrival":           true,
		"compass/internal/loadgen/arrival":   true,
		"compass/internal/trace":             true,
		"compass/internal/dsm":               true,
		"compass/internal/simsync":           true,
		"compass/internal/specweb":           true,
		"compass/internal/frontend":          true,
		"compass/internal/isa":               true,
		"compass/internal/apps":              true,
		"compass/internal/apps/db":           true,
		"fixture/internal/core":              true,
		"fixture/lanescope/internal/loadgen": true,
		"fixture/lanescope/internal/arrival": true,

		"compass":                     false,
		"compass/internal/expt":       false,
		"compass/internal/checkpoint": false,
		"compass/internal/stats":      false,
		"compass/internal/guard":      false,
		"compass/internal/analysis":   false,
		"compass/cmd/compassrun":      false,
		"compass/myinternal/core":     false,
	} {
		if got := isSimPackage(path); got != want {
			t.Errorf("isSimPackage(%q) = %v, want %v", path, got, want)
		}
	}
}
