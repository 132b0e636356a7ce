// Package fault is a lane vocabulary package that breaks its half of
// the lane rule: a lane package may import it, so it may import nothing
// from the module itself.
package fault

import "fixture/internal/core" // want `fault imports fixture/internal/core: a lane package imports only internal/event and internal/fault`

// Publish reaches home-lane state on a lane package's behalf.
func Publish(v uint64) { core.Publish(v) }
