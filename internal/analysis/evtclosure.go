package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Evtclosure guards the zero-alloc dispatch path the pooled event queue
// established: in the hot simulation packages, function
// literals handed to the event scheduler (event.Queue.At/AtKeep/After
// or the Sim.ScheduleTask wrapper) must not capture loop-iteration
// variables or allocate a fresh closure on a per-event path.
//
// A capturing literal compiles to a heap-allocated funcval per
// evaluation; on the memory-system hot path that reintroduces exactly
// the per-event garbage the de-closuring pass removed (prebound method
// values, reusable scratch state). Loop captures are flagged in every
// simulation package; the stricter "no capturing literal at all" rule
// applies only to the hot set (core, event, cache, mem, snoop, noc,
// directory, coma, dev, loadgen).
var Evtclosure = &Analyzer{
	Name: "evtclosure",
	Doc: "forbid event-scheduling closures that capture loop variables (all sim packages) " +
		"or capture anything at all (hot packages): they allocate per event and break the zero-alloc dispatch path",
	Run: runEvtclosure,
}

// hotAllocPackages is where the per-call allocation rule applies: the
// per-cycle and per-memory-access paths that the engine overhaul made
// allocation-free.
var hotAllocPackages = map[string]bool{
	"core": true, "event": true, "cache": true, "mem": true,
	"snoop": true, "noc": true, "directory": true, "coma": true, "dev": true,
	"loadgen": true,
}

// schedMethods are the event.Queue scheduling entry points.
var schedMethods = map[string]bool{"At": true, "AtKeep": true, "After": true}

// laneSchedMethods are the sharded backend's per-lane scheduling entry
// points (event.Lane); they feed the same pooled task path as the
// queue, so the closure rules apply identically.
var laneSchedMethods = map[string]bool{"After": true, "AfterKeep": true, "Send": true}

func runEvtclosure(pass *Pass) error {
	if !isSimPackage(pass.PkgPath) {
		return nil
	}
	hot := hotAllocPackages[internalLeaf(pass.PkgPath)]
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncForEvtClosures(pass, fd, hot)
		}
	}
	return nil
}

// loopInterval is the source extent of one for/range statement plus
// the positions of the variables it declares per iteration.
type loopInterval struct {
	pos, end token.Pos
}

func checkFuncForEvtClosures(pass *Pass, fd *ast.FuncDecl, hot bool) {
	// Collect every loop extent in the function so "call is inside a
	// loop" and "captured variable is declared inside an enclosing
	// loop" are interval checks.
	var loops []loopInterval
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, loopInterval{n.Pos(), n.End()})
		}
		return true
	})
	inLoop := func(pos token.Pos) bool {
		for _, l := range loops {
			if pos >= l.pos && pos < l.end {
				return true
			}
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := schedCallName(pass, call)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			lit, ok := arg.(*ast.FuncLit)
			if !ok {
				continue
			}
			captured := capturedVars(pass, lit)
			if len(captured) == 0 {
				continue // non-capturing literals compile to a static funcval
			}
			var loopVar *types.Var
			for _, v := range captured {
				if inLoop(v.Pos()) {
					loopVar = v
					break
				}
			}
			switch {
			case loopVar != nil:
				pass.Reportf(lit.Pos(),
					"closure passed to %s captures per-iteration variable %q: one allocation per loop pass on the dispatch path; hoist the state or prebind a method value",
					name, loopVar.Name())
			case inLoop(call.Pos()):
				pass.Reportf(lit.Pos(),
					"closure passed to %s inside a loop captures %q: one allocation per iteration; hoist the closure out of the loop or prebind a method value",
					name, captured[0].Name())
			case hot:
				pass.Reportf(lit.Pos(),
					"closure passed to %s captures %q in hot package %s: allocates per call on the dispatch path; prebind a method value or reuse scratch state",
					name, captured[0].Name(), pass.Pkg.Name())
			}
		}
		return true
	})
}

// schedCallName reports whether call schedules into the event queue
// and, if so, returns a display name for the callee.
func schedCallName(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return "", false
	}
	recv := namedOrPointee(selection.Recv())
	if recv == nil {
		return "", false
	}
	recvPkg := pkgPathOf(recv.Obj())
	if schedMethods[sel.Sel.Name] && recv.Obj().Name() == "Queue" && isEventPackage(recvPkg) {
		return "Queue." + sel.Sel.Name, true
	}
	if laneSchedMethods[sel.Sel.Name] && recv.Obj().Name() == "Lane" && isEventPackage(recvPkg) {
		return "Lane." + sel.Sel.Name, true
	}
	if sel.Sel.Name == "ScheduleTask" && isSimPackage(recvPkg) {
		return recv.Obj().Name() + ".ScheduleTask", true
	}
	return "", false
}

// capturedVars returns the variables the literal references that are
// declared outside it (excluding package-level variables, which do not
// force a heap-allocated funcval).
func capturedVars(pass *Pass, lit *ast.FuncLit) []*types.Var {
	var vars []*types.Var
	seen := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal
		}
		if v.Parent() == pass.Pkg.Scope() {
			return true // package-level
		}
		seen[v] = true
		vars = append(vars, v)
		return true
	})
	return vars
}
