package analysis

import (
	"go/ast"
	"go/types"
)

// Detwallclock forbids host wall-clock reads and ambient (globally
// seeded) randomness inside the deterministic simulation packages.
//
// The paper's repeatability argument is that the backend's consumption
// order of frontend basic blocks is a pure function of published
// execution times; any dependence on host time or on process-global
// random state makes two runs of the same configuration diverge.
// Seeded *rand.Rand values constructed from config or fault-plan seeds
// remain legal — only the package-level math/rand functions (which
// share mutable global state) and time.Now/Since/Sleep are banned.
var Detwallclock = &Analyzer{
	Name: "detwallclock",
	Doc: "forbid time.Now/Since/Sleep and global math/rand functions in simulation packages; " +
		"simulated time must come from the event queue and randomness from seeded *rand.Rand values",
	Run: runDetwallclock,
}

// bannedTimeFuncs are the wall-clock entry points. time.Sleep is banned
// too: blocking the host thread inside the backend stalls simulated
// time against the wall clock and is never what simulator code means.
var bannedTimeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true, "Sleep": true, "Tick": true, "After": true}

// allowedRandFuncs are the math/rand (and v2) package-level functions
// that construct independent seeded generators rather than touching the
// shared global source.
var allowedRandFuncs = map[string]bool{"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true}

func runDetwallclock(pass *Pass) error {
	if !isSimPackage(pass.PkgPath) {
		return nil
	}
	for _, f := range pass.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// Only qualified identifiers (pkg.Func), never method
			// selections: r.Intn on a seeded *rand.Rand stays legal.
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if _, ok := pass.TypesInfo.Uses[id].(*types.PkgName); !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			switch pkgPathOf(fn) {
			case "time":
				if bannedTimeFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"time.%s in simulation package %s: simulated time must come from the event queue, never the host wall clock",
						fn.Name(), pass.Types.Name())
				}
			case "math/rand", "math/rand/v2":
				if !allowedRandFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"global rand.%s in simulation package %s: draw from a seeded *rand.Rand (config or fault-plan seed) so runs replay bit-identically",
						fn.Name(), pass.Types.Name())
				}
			}
			return true
		})
	}
	return nil
}
