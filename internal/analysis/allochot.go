package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Allochot locks in the engine's allocation wins (the pooled event
// queue's zero-alloc dispatch, the backend pooling that took TPCC from
// 23.1 to 10.3 allocs/event) by flagging allocation-causing constructs
// anywhere on the event-dispatch hot path — not just inside the hot
// packages' own files, as evtclosure's package list does, but in every
// function the dispatcher can reach. Hotness starts at functions bound
// to the scheduler (Queue.At/AtKeep/After, ScheduleTask,
// Lane.After/AfterKeep/Send) from a hot package and propagates through
// call edges across all simulation packages, so an osserver or fs
// helper called from a scheduled task inherits the discipline.
//
// Flagged in hot functions:
//
//   - function literals that capture variables (a heap funcval per
//     evaluation), except those handed directly to a scheduler entry
//     point — evtclosure owns that case
//   - fmt.* calls (every operand boxes into an interface), unless the
//     result feeds a panic — dying loudly may allocate
//   - make of maps, channels and slices, and map/slice composite
//     literals
//   - string concatenation with a non-constant operand
//   - append to a slice declared locally without preallocated capacity
//     (make with a cap argument or a reslice like buf[:0])
//
// Escape hatch: //hot:exempt <why> on the line (or line above), or on
// the function declaration to silence the whole body — hotness still
// propagates through the function either way, so its callees stay
// checked. The justification is mandatory.
var Allochot = &Analyzer{
	Name: "allochot",
	Doc: "flag allocation-causing constructs (capturing closures, fmt boxing, map/slice " +
		"literals, un-preallocated append, string concat) in functions reachable from the event-dispatch hot set",
	Run: runAllochot,
}

// hotReachable returns (memoized) the set of nodes reachable from
// scheduler bindings made in hot packages, propagated through
// simulation packages only — host-side orchestration reachable from a
// handler (stats formatting, checkpoint I/O) is not on the per-event
// path.
func (prog *Program) hotReachable() map[*CGNode]bool {
	if prog.hotReach != nil {
		return prog.hotReach
	}
	cg := prog.CallGraph()
	var roots []*CGNode
	for _, s := range cg.Sites {
		if hotAllocPackages[internalLeaf(s.Pkg.PkgPath)] {
			roots = append(roots, s.Targets...)
		}
	}
	prog.hotReach = cg.Reach(roots, func(n *CGNode) bool {
		return !isSimPackage(n.Pkg.PkgPath)
	})
	return prog.hotReach
}

func runAllochot(pass *Pass) error {
	if pass.Prog == nil || !isSimPackage(pass.PkgPath) {
		return nil
	}
	reach := pass.Prog.hotReachable()
	if len(reach) == 0 {
		return nil
	}
	ann := collectAnnotations(pass.Fset, pass.Files, "hot:exempt")
	for _, n := range pass.Prog.CallGraph().Nodes {
		if n.Pkg.Types != pass.Pkg || !reach[n] {
			continue
		}
		checkHotNode(pass, n, ann)
	}
	return nil
}

func checkHotNode(pass *Pass, n *CGNode, ann *lineAnnotations) {
	exempt, exemptWhy, funcLevel := hotExemption(n, ann)
	if funcLevel && exemptWhy == "" {
		pass.Reportf(n.Pos(), "hot-path %s has a //hot:exempt annotation with no justification; explain why this allocation is acceptable", n.Name())
		return
	}

	// Positions of arguments to panic calls: allocating while dying is
	// fine.
	panicArgs := panicArgExtents(n.Body)
	inPanic := func(pos token.Pos) bool {
		for _, e := range panicArgs {
			if pos >= e.pos && pos < e.end {
				return true
			}
		}
		return false
	}

	// Sched-call argument literals are evtclosure's findings, not ours.
	schedLits := make(map[*ast.FuncLit]bool)
	ast.Inspect(n.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, _, ok := classifySched(n.Pkg, call); ok {
			if lit, ok := unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit); ok {
				schedLits[lit] = true
			}
		}
		return true
	})

	flag := func(pos token.Pos, format string, args ...any) {
		if exempt {
			return
		}
		if why, ok := ann.at(pos); ok {
			if why == "" {
				pass.Reportf(pos, "//hot:exempt annotation with no justification; explain why this allocation is acceptable")
			}
			return
		}
		args = append(args, n.Name())
		pass.Reportf(pos, format+" on the event-dispatch hot path (%s): pool, prebind, or annotate //hot:exempt <why>", args...)
	}

	ast.Inspect(n.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if !schedLits[x] {
				if captured := capturedVars(pass, x); len(captured) > 0 {
					flag(x.Pos(), "closure capturing %q allocates a funcval per evaluation", captured[0].Name())
				}
			}
			return false // literal bodies are their own nodes
		case *ast.CallExpr:
			checkHotCall(pass, x, inPanic, flag)
		case *ast.CompositeLit:
			if tv, ok := pass.TypesInfo.Types[x]; ok && !inPanic(x.Pos()) {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					flag(x.Pos(), "map literal allocates")
				case *types.Slice:
					flag(x.Pos(), "slice literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isNonConstString(pass, x) && !inPanic(x.Pos()) {
				flag(x.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 {
				if tv, ok := pass.TypesInfo.Types[x.Lhs[0]]; ok {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 && !inPanic(x.Pos()) {
						flag(x.Pos(), "string concatenation allocates")
					}
				}
			}
		}
		return true
	})
}

// checkHotCall handles the call-shaped rules: fmt boxing, bare make,
// and un-preallocated append.
func checkHotCall(pass *Pass, call *ast.CallExpr, inPanic func(token.Pos) bool, flag func(token.Pos, string, ...any)) {
	switch fun := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if obj, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok && pkgPathOf(obj) == "fmt" && !inPanic(call.Pos()) {
			flag(call.Pos(), "fmt.%s boxes every operand into an interface", obj.Name())
		}
	case *ast.Ident:
		switch fun.Name {
		case "make":
			if !builtinIdent(pass, fun) || inPanic(call.Pos()) {
				return
			}
			if tv, ok := pass.TypesInfo.Types[call]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					flag(call.Pos(), "make(map) allocates")
				case *types.Chan:
					flag(call.Pos(), "make(chan) allocates")
				case *types.Slice:
					flag(call.Pos(), "make(slice) allocates")
				}
			}
		case "append":
			if !builtinIdent(pass, fun) || inPanic(call.Pos()) || len(call.Args) == 0 {
				return
			}
			if v := localSliceVar(pass, call.Args[0]); v != nil {
				flag(call.Pos(), "append to %q, a local slice with no preallocated capacity, grows per call", v.Name())
			}
		}
	}
}

// builtinIdent reports whether the identifier resolves to a
// universe-scope builtin (not a shadowing declaration).
func builtinIdent(pass *Pass, id *ast.Ident) bool {
	_, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// isNonConstString reports whether the binary expression is a string
// concatenation with at least one non-constant operand (constant folds
// happen at compile time and cost nothing).
func isNonConstString(pass *Pass, x *ast.BinaryExpr) bool {
	tv, ok := pass.TypesInfo.Types[x]
	if !ok {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsString == 0 {
		return false
	}
	return tv.Value == nil
}

type posExtent struct{ pos, end token.Pos }

// panicArgExtents returns the source extents of every panic(...)
// argument list in body.
func panicArgExtents(body *ast.BlockStmt) []posExtent {
	var out []posExtent
	ast.Inspect(body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			out = append(out, posExtent{call.Lparen, call.Rparen + 1})
		}
		return true
	})
	return out
}

// localSliceVar returns the variable behind the append's first argument
// when it is a local slice declared in the same enclosing function
// without preallocated capacity; nil means the append is fine (field,
// parameter and range slices are assumed pooled/preallocated by their
// owner, and make-with-cap or buf[:0] declarations carry their
// capacity).
func localSliceVar(pass *Pass, arg ast.Expr) *types.Var {
	id, ok := unparen(arg).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
		return nil
	}
	if _, ok := v.Type().Underlying().(*types.Slice); !ok {
		return nil
	}
	decl, init := findLocalDecl(pass, v)
	if !decl {
		return nil // parameter or range variable: assume caller-managed
	}
	if init != nil && declShowsCapacity(pass, init) {
		return nil
	}
	return v // zero-value var or bare literal/make-without-cap: grows
}

// findLocalDecl locates v's declaration statement. decl reports whether
// a `var` or `:=` declaration was found at all (false: parameter,
// receiver, or range variable); init is its initializer expression, nil
// for a zero-value `var x []T`.
func findLocalDecl(pass *Pass, v *types.Var) (decl bool, init ast.Expr) {
	var defID *ast.Ident
	for id, obj := range pass.TypesInfo.Defs {
		if obj == types.Object(v) {
			defID = id
			break
		}
	}
	if defID == nil {
		return false, nil
	}
	for _, f := range pass.Files {
		if defID.Pos() < f.Pos() || defID.Pos() >= f.End() {
			continue
		}
		ast.Inspect(f, func(x ast.Node) bool {
			if decl {
				return false
			}
			switch x := x.(type) {
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					if lhs == ast.Expr(defID) {
						decl = true
						if i < len(x.Rhs) {
							init = x.Rhs[i]
						}
						return false
					}
				}
			case *ast.ValueSpec:
				for i, name := range x.Names {
					if name == defID {
						decl = true
						if i < len(x.Values) {
							init = x.Values[i]
						}
						return false
					}
				}
			}
			return true
		})
		break
	}
	return decl, init
}

// declShowsCapacity reports whether the initializer carries its own
// capacity: make with a cap argument, a reslice such as buf[:0], or a
// call (the callee owns the allocation decision).
func declShowsCapacity(pass *Pass, init ast.Expr) bool {
	switch e := unparen(init).(type) {
	case *ast.CallExpr:
		if id, ok := unparen(e.Fun).(*ast.Ident); ok && id.Name == "make" && builtinIdent(pass, id) {
			return len(e.Args) >= 3
		}
		return true // some constructor: its problem, flagged there if hot
	case *ast.SliceExpr:
		return true // buf[:0] reuses existing backing store
	}
	return false
}

// hotExemption reports whether a //hot:exempt annotation on the
// function declaration silences the whole node body.
func hotExemption(n *CGNode, ann *lineAnnotations) (exempt bool, why string, funcLevel bool) {
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
