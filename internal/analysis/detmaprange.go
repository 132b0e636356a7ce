package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Detmaprange flags every `range` over a map in a checked package
// unless the loop is annotated `//det:ordered <why>` on or directly
// above the `for` line. Go randomizes map iteration order per process,
// so a loop whose effects depend on that order makes two identically
// configured runs diverge — exactly the failure the paper's
// basic-block interleaving rule forbids. Whether a body commutes is
// stated, not inferred: the annotation records why this loop's order
// cannot matter (keys sorted below, integer sums, a map-to-map copy),
// and a bare annotation is still a finding.
var Detmaprange = &Analyzer{
	Name: "detmaprange",
	Doc: "flag every range over a map unless annotated //det:ordered <why> " +
		"stating why its random iteration order cannot matter",
	Run: runDetmaprange,
}

func runDetmaprange(pass *Pass) error {
	// The analysis framework and its driver are host-side tooling with
	// no determinism contract; everything else in the module is checked.
	if strings.Contains(pass.PkgPath, "internal/analysis") || strings.HasSuffix(pass.PkgPath, "cmd/compassvet") {
		return nil
	}
	ann := collectAnnotations(pass.Fset, pass.Syntax, "det:ordered")
	for _, f := range pass.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			why, ok := ann.at(rs.Pos())
			switch {
			case !ok:
				pass.Reportf(rs.Pos(),
					"iteration over map %s runs in random order; iterate a sorted key slice or annotate //det:ordered <why>",
					types.ExprString(rs.X))
			case why == "":
				pass.Reportf(rs.Pos(),
					"//det:ordered needs a justification: say why the order of map %s cannot matter",
					types.ExprString(rs.X))
			}
			return true
		})
	}
	return nil
}
