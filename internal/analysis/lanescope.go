package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Lanescope proves shard isolation for lane-scheduled code. The sharded
// backend (DESIGN.md §14) runs lane tasks concurrently inside each
// conservative quantum window; the only legal ways for lane-side code to
// reach home-lane simulation state are a cross-lane Lane.Send (which
// defers the touch to the home dispatch loop, one lookahead later) or a
// reviewed //lane:home annotation. At run time only the TestSharded*
// byte-identity suites would notice a breach, and only on the paths they
// drive; lanescope enforces the contract at vet time by walking the call
// graph from every function bound with Lane.AfterKeep and flagging,
// anywhere in the reachable lane-side code:
//
//   - calls into home-lane simulation packages (machine, core, memsys,
//     cache, kernel, fs, dev, osserver, ...), functions and methods both
//   - field reads/writes on values of home-lane-declared types
//     (Sim-reachable state handed to a lane tenant by pointer)
//   - package-level variables of any simulation package (shared across
//     lanes by definition)
//   - scheduling through the global event.Queue or event.Sharded engine
//     instead of the task's own Lane handle
//
// Escape hatch: //lane:home <why> on the offending line (or the line
// above), or on the function declaration to exempt the whole body. The
// justification is mandatory; an empty one is itself a finding.
var Lanescope = &Analyzer{
	Name: "lanescope",
	Doc: "flag lane-scheduled code that touches home-lane simulation state without routing " +
		"through Lane.Send or carrying a //lane:home justification",
	Run: runLanescope,
}

// homeStatePackages are the internal-path leaves whose state lives on
// the home lane: everything coupled at memory-system latencies. Lane
// tenants (loadgen today) and the event core itself (lanes are part of
// it) are deliberately absent.
var homeStatePackages = map[string]bool{
	"core": true, "machine": true, "memsys": true, "mem": true,
	"cache": true, "snoop": true, "noc": true, "directory": true,
	"coma": true, "kernel": true, "fs": true, "dev": true,
	"osserver": true, "netstack": true,
}

// isHomeStatePackage reports whether the import path names a home-lane
// simulation package.
func isHomeStatePackage(path string) bool {
	leaf := internalLeaf(path)
	if leaf == "" {
		return false
	}
	return homeStatePackages[leaf]
}

// laneReachable returns (memoized) the set of call-graph nodes
// reachable from any Lane.AfterKeep binding, pruned at the
// home-state package boundary (the call into it is the finding; the
// callee body is home-lane code and legal in its own right).
func (prog *Program) laneReachable() map[*CGNode]bool {
	if prog.laneReach != nil {
		return prog.laneReach
	}
	cg := prog.CallGraph()
	var roots []*CGNode
	for _, s := range cg.Sites {
		if s.Lane {
			roots = append(roots, s.Targets...)
		}
	}
	prog.laneReach = cg.Reach(roots, func(n *CGNode) bool {
		return isHomeStatePackage(n.Pkg.PkgPath)
	})
	return prog.laneReach
}

func runLanescope(pass *Pass) error {
	if pass.Prog == nil {
		return nil
	}
	reach := pass.Prog.laneReachable()
	if len(reach) == 0 {
		return nil
	}
	ann := collectAnnotations(pass.Fset, pass.Files, "lane:home")
	for _, n := range pass.Prog.CallGraph().Nodes {
		if n.Pkg.Types != pass.Pkg || !reach[n] {
			continue
		}
		if isHomeStatePackage(n.Pkg.PkgPath) {
			continue // flagged at the caller; the body itself is home code
		}
		checkLaneNode(pass, n, ann)
	}
	return nil
}

// checkLaneNode scans one lane-reachable body for home-state touches.
// Nested function literals are their own nodes and are scanned when
// (and only when) they are themselves reachable.
func checkLaneNode(pass *Pass, n *CGNode, ann *lineAnnotations) {
	exempt, exemptWhy, funcLevel := laneExemption(n, ann)
	if funcLevel && exemptWhy == "" {
		pass.Reportf(n.Pos(), "lane-scheduled %s has a //lane:home annotation with no justification; explain why home-lane access is safe here", n.Name())
		return
	}

	reported := make(map[token.Pos]bool)
	flag := func(pos token.Pos, format string, args ...any) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		if exempt {
			return
		}
		if why, ok := ann.at(pos); ok {
			if why == "" {
				pass.Reportf(pos, "//lane:home annotation with no justification; explain why home-lane access is safe here")
			}
			return
		}
		args = append(args, n.Name())
		pass.Reportf(pos, format+" in lane-scheduled %s: route through Lane.Send or annotate //lane:home <why>", args...)
	}

	ast.Inspect(n.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false // a separate node
		case *ast.SelectorExpr:
			checkLaneSelector(pass, x, flag)
		case *ast.Ident:
			if v, ok := pass.TypesInfo.Uses[x].(*types.Var); ok && isSharedPackageVar(v) {
				flag(x.Pos(), "use of package-level variable %q from simulation package %s", v.Name(), v.Pkg().Name())
			}
		}
		return true
	})
}

// checkLaneSelector classifies one selector expression seen in
// lane-scheduled code.
func checkLaneSelector(pass *Pass, sel *ast.SelectorExpr, flag func(token.Pos, string, ...any)) {
	if selection := pass.TypesInfo.Selections[sel]; selection != nil {
		recv := namedOrPointee(selection.Recv())
		if recv == nil {
			return
		}
		recvPkg := pkgPathOf(recv.Obj())
		switch selection.Kind() {
		case types.MethodVal, types.MethodExpr:
			if isEventPackage(recvPkg) {
				switch recv.Obj().Name() {
				case "Queue", "Sharded":
					flag(sel.Pos(), "call to global %s.%s bypasses the lane handle", recv.Obj().Name(), sel.Sel.Name)
				}
				return // Lane and Cycle methods are the lane-side API
			}
			if isHomeStatePackage(recvPkg) {
				flag(sel.Pos(), "call to %s.%s on home-lane type %s.%s", recv.Obj().Name(), sel.Sel.Name, recv.Obj().Pkg().Name(), recv.Obj().Name())
			}
		case types.FieldVal:
			if isHomeStatePackage(recvPkg) {
				flag(sel.Pos(), "access to field %s of home-lane type %s.%s", sel.Sel.Name, recv.Obj().Pkg().Name(), recv.Obj().Name())
			}
		}
		return
	}
	// Qualified identifier pkg.Name: package-level func or var of a
	// home-state package.
	switch obj := pass.TypesInfo.Uses[sel.Sel].(type) {
	case *types.Func:
		if isHomeStatePackage(pkgPathOf(obj)) {
			flag(sel.Pos(), "call to home-lane function %s.%s", obj.Pkg().Name(), obj.Name())
		}
	case *types.Var:
		if isSharedPackageVar(obj) {
			flag(sel.Pos(), "use of package-level variable %q from simulation package %s", obj.Name(), obj.Pkg().Name())
		}
	}
}

// isSharedPackageVar reports whether v is a package-level variable of a
// simulation or home-state package — state shared across lanes.
func isSharedPackageVar(v *types.Var) bool {
	if v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return false
	}
	path := v.Pkg().Path()
	return isSimPackage(path) || isHomeStatePackage(path)
}

// laneExemption reports whether a //lane:home annotation on the
// function declaration exempts the whole node body.
func laneExemption(n *CGNode, ann *lineAnnotations) (exempt bool, why string, funcLevel bool) {
	if n.Decl != nil {
		if w, ok := ann.at(n.Decl.Pos()); ok {
			return true, w, true
		}
	}
	if n.Lit != nil {
		if w, ok := ann.at(n.Lit.Pos()); ok {
			return true, w, true
		}
	}
	return false, "", false
}
