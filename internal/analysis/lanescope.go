package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Lanescope holds lane code to a rule its own package shows (DESIGN.md
// §15). A lane task runs concurrently with other lanes inside a window
// (§14), so it may touch only its own lane's state. A package that
// names event.Lane.AfterKeep is a lane package, and its source must show:
//
//	(a) its module imports are only internal/event and internal/fault,
//	    which themselves import nothing from the module;
//	(b) it declares no package-level variable;
//	(c) it calls no method of event.Queue or event.Sharded;
//	(d) it calls nothing through a func value or an interface, embeds
//	    no interface, and hands func and interface values to no call
//	    but Lane.Send and Lane.AfterKeep;
//	(e) every AfterKeep target is a function, method value or literal
//	    the package declares, or an unexported field it assigns only
//	    from those.
var Lanescope = &Analyzer{
	Name: "lanescope",
	Doc: "hold every package that calls Lane.AfterKeep to the lane rule: module imports only event and fault, " +
		"no package-level variable, no global scheduler, no dynamic call, its own functions as lane tasks",
	Run: runLanescope,
}

// laneVocabulary are the internal leaves a lane package may import.
var laneVocabulary = map[string]bool{"event": true, "fault": true}

func runLanescope(pass *Pass) error {
	info := pass.TypesInfo
	module, _, _ := strings.Cut(pass.PkgPath, "/")
	vocabulary := laneVocabulary[internalLeaf(pass.PkgPath)]
	if !vocabulary && !namesAfterKeep(pass) {
		return nil
	}
	for _, f := range pass.Syntax {
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			if first, _, _ := strings.Cut(path, "/"); first == module && (vocabulary || !laneVocabulary[internalLeaf(path)]) {
				pass.Reportf(spec.Pos(), "%s imports %s: a lane package imports only internal/event and internal/fault from the module, and they import nothing from it", pass.Types.Name(), path)
			}
		}
	}
	if vocabulary {
		return nil
	}
	scope := pass.Types.Scope()
	for _, name := range scope.Names() {
		if v, ok := scope.Lookup(name).(*types.Var); ok {
			pass.Reportf(v.Pos(), "lane package declares package-level variable %s: lane state lives in values a lane owns", name)
		}
	}
	var targets []ast.Expr            // AfterKeep targets, checked once every field write is seen
	prebound := map[*types.Var]bool{} // unexported fields: is every write an own func?
	write := func(field types.Object, rhs ast.Expr) {
		if v, ok := field.(*types.Var); ok && v.IsField() && !v.Exported() && v.Pkg() == pass.Types {
			prev, seen := prebound[v]
			prebound[v] = (prev || !seen) && ownFunc(pass, rhs, nil)
		}
	}
	for _, f := range pass.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if recv := eventRecv(info.Uses[n.Sel]); recv == "Queue" || recv == "Sharded" {
					pass.Reportf(n.Pos(), "lane package calls %s.%s: a lane schedules only through its Lane", recv, n.Sel.Name)
				}
			case *ast.StructType:
				for _, fld := range n.Fields.List {
					if len(fld.Names) == 0 && types.IsInterface(info.TypeOf(fld.Type)) {
						pass.Reportf(fld.Pos(), "lane package embeds interface %s: its promoted methods are interface calls", types.ExprString(fld.Type))
					}
				}
			case *ast.AssignStmt:
				for i, l := range n.Lhs {
					if sel, ok := ast.Unparen(l).(*ast.SelectorExpr); ok {
						write(info.Uses[sel.Sel], n.Rhs[min(i, len(n.Rhs)-1)])
					}
				}
			case *ast.UnaryExpr:
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && n.Op == token.AND {
					write(info.Uses[sel.Sel], nil) // it may be written through the pointer
				}
			case *ast.CompositeLit:
				t := info.TypeOf(n).Underlying()
				if p, isPtr := t.(*types.Pointer); isPtr { // an elided &T in a []*T literal
					t = p.Elem().Underlying()
				}
				st, ok := t.(*types.Struct)
				for i, el := range n.Elts {
					if kv, isKV := el.(*ast.KeyValueExpr); ok && isKV {
						write(info.Uses[kv.Key.(*ast.Ident)], kv.Value)
					} else if ok {
						write(st.Field(i), el)
					}
				}
			case *ast.CallExpr:
				if t := checkLaneCall(pass, n); t != nil {
					targets = append(targets, t)
				}
			}
			return true
		})
	}
	for _, t := range targets {
		if !ownFunc(pass, t, prebound) {
			pass.Reportf(t.Pos(), "lane package binds AfterKeep target %s, which it does not declare: bind its own function, method value or literal", types.ExprString(t))
		}
	}
	return nil
}

// namesAfterKeep reports whether the package names Lane.AfterKeep, or
// an AfterKeep method of an interface: it schedules lane tasks.
func namesAfterKeep(pass *Pass) bool {
	for _, obj := range pass.TypesInfo.Uses {
		if obj.Name() == "AfterKeep" && (eventRecv(obj) == "Lane" || types.IsInterface(recvOf(obj))) {
			return true
		}
	}
	return false
}

// checkLaneCall applies clause (d) to one call, and returns the target
// of a Lane.AfterKeep call for clause (e).
func checkLaneCall(pass *Pass, call *ast.CallExpr) (target ast.Expr) {
	if tv := pass.TypesInfo.Types[call.Fun]; tv.IsType() || tv.IsBuiltin() {
		return nil // a conversion or a builtin calls nothing
	}
	fun := ast.Unparen(call.Fun)
	if _, lit := fun.(*ast.FuncLit); !lit && staticFunc(pass, fun) == nil {
		pass.Reportf(call.Pos(), "lane package calls %s through a func value or an interface", types.ExprString(call.Fun))
	}
	sel, _ := fun.(*ast.SelectorExpr)
	lane := sel != nil && eventRecv(pass.TypesInfo.Uses[sel.Sel]) == "Lane"
	for i, arg := range call.Args {
		t := pass.TypesInfo.TypeOf(arg)
		_, isFunc := t.Underlying().(*types.Signature)
		switch {
		case lane && sel.Sel.Name == "AfterKeep" && i == 2:
			target = arg
		case lane && sel.Sel.Name == "Send" && i == 1, !isFunc && !types.IsInterface(t):
		default:
			pass.Reportf(arg.Pos(), "lane package hands %s to %s: only Lane.Send and Lane.AfterKeep take func values", types.ExprString(arg), types.ExprString(call.Fun))
		}
	}
	return target
}

// staticFunc returns the function or concrete method fun names, whose
// body a call through fun runs, or nil.
func staticFunc(pass *Pass, fun ast.Expr) *types.Func {
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		fun = sel.Sel
	}
	id, _ := fun.(*ast.Ident)
	if fn, _ := pass.TypesInfo.Uses[id].(*types.Func); fn != nil && !types.IsInterface(recvOf(fn)) {
		return fn
	}
	return nil
}

// ownFunc reports whether e is a func value the package declares: a
// literal, one of its functions or concrete methods, or one of its
// prebound fields.
func ownFunc(pass *Pass, e ast.Expr, prebound map[*types.Var]bool) bool {
	e = ast.Unparen(e)
	if _, lit := e.(*ast.FuncLit); lit {
		return true
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if v, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var); ok {
			return prebound[v]
		}
	}
	fn := staticFunc(pass, e)
	return fn != nil && fn.Pkg() == pass.Types
}

// recvOf returns the type that declares method obj (for a promoted
// method, the embedded type), or the invalid type when obj is no method.
func recvOf(obj types.Object) types.Type {
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		return fn.Type().(*types.Signature).Recv().Type()
	}
	return types.Typ[types.Invalid]
}

// eventRecv names the event package type that declares method obj.
func eventRecv(obj types.Object) string {
	if named := namedOrPointee(recvOf(obj)); named != nil && internalLeaf(pkgPathOf(named.Obj())) == "event" {
		return named.Obj().Name()
	}
	return ""
}
