package analysis

// callgraph.go is the static call-graph facility the whole-program
// analyzer lanescope builds on. It computes a
// class-hierarchy-analysis (CHA) call graph over every loaded package:
//
//   - Nodes are function bodies: declared functions and methods plus
//     function literals (a literal is its own node, so a closure handed
//     to the scheduler is analyzed in the context it runs in, not the
//     context it was written in).
//   - Edges are static calls (direct function and concrete-method
//     calls), interface-method calls resolved CHA-style to every
//     loaded concrete method implementing the interface, and dynamic
//     calls through function-typed variables, struct fields and map
//     elements, resolved by a field-insensitive value-flow fixpoint
//     (the prebound `cl.tickFn = cl.tick` idiom the hot paths use).
//   - Scheduler bindings are recorded separately from call edges: a
//     function value handed to event.Queue.At/AtKeep/After, a
//     Sim-style ScheduleTask, or event.Lane.AfterKeep/Send does not
//     "call" its argument at the call site — it publishes it to be
//     dispatched later. A site records only whether the task runs on
//     the binding lane (Lane.AfterKeep); lanescope roots its walk in
//     those sites.
//
// The graph is conservative in one direction only: an unresolved
// dynamic call produces no edges, so a finding behind it is missed,
// while every resolvable binding — including flows through fields,
// slices and maps — is an edge, so reachability over-approximates the
// scheduled-context code everywhere the flow is visible.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A Program is the whole set of packages one analysis.Run invocation
// loaded, with lazily built whole-program indexes shared between
// analyzers through Pass.Prog.
type Program struct {
	Pkgs []*Package

	cg *CallGraph

	// memoized lanescope working set (see lanescope.go)
	laneReach map[*CGNode]bool
}

// CallGraph returns the program's CHA call graph, building it on first
// use so analyzers that do not need it pay nothing.
func (prog *Program) CallGraph() *CallGraph {
	if prog.cg == nil {
		prog.cg = buildCallGraph(prog.Pkgs)
	}
	return prog.cg
}

// A CGNode is one function body: a declared function or method
// (Fn != nil) or a function literal (Lit != nil).
type CGNode struct {
	Fn   *types.Func   // declared function/method, nil for a literal
	Lit  *ast.FuncLit  // the literal, nil for a declaration
	Decl *ast.FuncDecl // the declaration, nil for a literal
	Pkg  *Package      // package whose source holds the body
	Body *ast.BlockStmt

	callees   []*CGNode
	calleeSet map[*CGNode]bool
}

// Pos returns the body's declaration position.
func (n *CGNode) Pos() token.Pos {
	if n.Fn != nil {
		return n.Fn.Pos()
	}
	return n.Lit.Pos()
}

// Name renders a stable human-readable identifier:
// "loadgen.(*class).tick" for methods, "loadgen.apportion" for
// functions, and "loadgen.func-literal@file:line" for literals.
func (n *CGNode) Name() string {
	if n.Fn != nil {
		if recv := n.Fn.Type().(*types.Signature).Recv(); recv != nil {
			return fmt.Sprintf("%s.(%s).%s", n.Pkg.Types.Name(), types.TypeString(recv.Type(), types.RelativeTo(n.Pkg.Types)), n.Fn.Name())
		}
		return n.Pkg.Types.Name() + "." + n.Fn.Name()
	}
	pos := n.Pkg.Fset.Position(n.Lit.Pos())
	return fmt.Sprintf("%s.func-literal@line-%d", n.Pkg.Types.Name(), pos.Line)
}

func (n *CGNode) addCallee(c *CGNode) {
	if c == nil || n.calleeSet[c] {
		return
	}
	if n.calleeSet == nil {
		n.calleeSet = make(map[*CGNode]bool)
	}
	n.calleeSet[c] = true
	n.callees = append(n.callees, c)
}

// A SchedSite is one scheduler-binding call site with its resolved
// function-argument targets.
type SchedSite struct {
	// Lane is set for Lane.AfterKeep: the targets run on the binding
	// lane, possibly inside a parallel window — lane context. Every
	// other binding runs its targets in the home dispatch loop.
	Lane    bool
	Pkg     *Package
	Targets []*CGNode
}

// CallGraph is the whole-program graph; see the file comment for the
// construction rules.
type CallGraph struct {
	Nodes []*CGNode
	Sites []*SchedSite

	byFn  map[*types.Func]*CGNode
	byLit map[*ast.FuncLit]*CGNode
}

// Reach walks call edges from roots and returns the set of reachable
// nodes (roots included). A non-nil stop predicate prunes the walk: a
// node for which stop returns true is included in the result but its
// callees are not followed — the lane analyzer uses this to flag a call
// into home-lane code at the boundary instead of diving through it.
func (cg *CallGraph) Reach(roots []*CGNode, stop func(*CGNode) bool) map[*CGNode]bool {
	seen := make(map[*CGNode]bool)
	var stack []*CGNode
	for _, r := range roots {
		if r != nil && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if stop != nil && stop(n) {
			continue
		}
		for _, c := range n.callees {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return seen
}

// builder state for one graph construction.
type cgBuilder struct {
	pkgs []*Package
	cg   *CallGraph

	// flows maps a function-typed storage location (a variable, a
	// struct field, or the variable holding a map/slice of functions)
	// to the function nodes that flow into it; copies records
	// location-to-location assignments for the fixpoint.
	flows  map[types.Object]map[*CGNode]bool
	copies map[types.Object]map[types.Object]bool

	// deferred resolutions, run after the flow fixpoint
	dynCalls []dynCall
	dynSites []dynSite

	// CHA: all concrete named types in loaded packages, and a memo of
	// interface-method resolutions.
	concrete  []types.Type
	ifaceMemo map[string][]*CGNode
}

type dynCall struct {
	from *CGNode
	obj  types.Object
}

type dynSite struct {
	site *SchedSite
	obj  types.Object
}

func buildCallGraph(pkgs []*Package) *CallGraph {
	b := &cgBuilder{
		pkgs: pkgs,
		cg: &CallGraph{
			byFn:  make(map[*types.Func]*CGNode),
			byLit: make(map[*ast.FuncLit]*CGNode),
		},
		flows:     make(map[types.Object]map[*CGNode]bool),
		copies:    make(map[types.Object]map[types.Object]bool),
		ifaceMemo: make(map[string][]*CGNode),
	}
	b.collectNodes()
	b.collectConcreteTypes()
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			b.walkFile(pkg, f)
		}
	}
	b.flowFixpoint()
	for _, d := range b.dynCalls {
		for _, t := range b.flowTargets(d.obj) {
			d.from.addCallee(t)
		}
	}
	for _, d := range b.dynSites {
		d.site.Targets = append(d.site.Targets, b.flowTargets(d.obj)...)
	}
	// Deterministic target order for every site (flow sets are maps).
	for _, s := range b.cg.Sites {
		sortNodes(s.Pkg.Fset, s.Targets)
	}
	return b.cg
}

func sortNodes(fset *token.FileSet, ns []*CGNode) {
	sort.Slice(ns, func(i, j int) bool {
		pi, pj := fset.Position(ns[i].Pos()), fset.Position(ns[j].Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
}

// collectNodes creates a node per function declaration and literal.
func (b *cgBuilder) collectNodes() {
	for _, pkg := range b.pkgs {
		for _, f := range pkg.Syntax {
			var curDecl *ast.FuncDecl
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					curDecl = n
					if n.Body == nil {
						return true
					}
					obj, ok := pkg.TypesInfo.Defs[n.Name].(*types.Func)
					if !ok {
						return true
					}
					node := &CGNode{Fn: obj, Decl: n, Pkg: pkg, Body: n.Body}
					b.cg.byFn[obj] = node
					b.cg.Nodes = append(b.cg.Nodes, node)
				case *ast.FuncLit:
					node := &CGNode{Lit: n, Decl: curDecl, Pkg: pkg, Body: n.Body}
					b.cg.byLit[n] = node
					b.cg.Nodes = append(b.cg.Nodes, node)
				}
				return true
			})
		}
	}
}

// collectConcreteTypes gathers every non-interface named type declared
// in the loaded packages — the CHA class hierarchy.
func (b *cgBuilder) collectConcreteTypes() {
	for _, pkg := range b.pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			b.concrete = append(b.concrete, named)
		}
	}
}

// walkFile records edges, flows and scheduler bindings for every
// function body in f, attributing each construct to its innermost
// enclosing node.
func (b *cgBuilder) walkFile(pkg *Package, f *ast.File) {
	var stack []*CGNode
	cur := func() *CGNode {
		if len(stack) == 0 {
			return nil
		}
		return stack[len(stack)-1]
	}
	// schedArgs marks literal/expression positions consumed as
	// scheduler fn arguments so they do not also get an implicit
	// creation edge from the enclosing function.
	schedArgs := make(map[ast.Expr]bool)

	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body == nil {
				return false
			}
			obj, ok := pkg.TypesInfo.Defs[n.Name].(*types.Func)
			if !ok {
				return false
			}
			stack = append(stack, b.cg.byFn[obj])
			ast.Inspect(n.Body, visit)
			stack = stack[:len(stack)-1]
			return false
		case *ast.FuncLit:
			node := b.cg.byLit[n]
			if enc := cur(); enc != nil && !schedArgs[n] {
				// A literal created outside a scheduler binding is
				// conservatively assumed to run (or escape) in its
				// creation context.
				enc.addCallee(node)
			}
			stack = append(stack, node)
			ast.Inspect(n.Body, visit)
			stack = stack[:len(stack)-1]
			return false
		case *ast.CallExpr:
			enc := cur()
			if enc == nil {
				return true // package-level initializer expressions
			}
			if lane, ok := classifySched(pkg, n); ok {
				fnArg := n.Args[len(n.Args)-1]
				schedArgs[unparen(fnArg)] = true
				site := &SchedSite{Lane: lane, Pkg: pkg}
				b.cg.Sites = append(b.cg.Sites, site)
				b.resolveInto(pkg, enc, fnArg, func(t *CGNode) {
					site.Targets = append(site.Targets, t)
				}, func(obj types.Object) {
					b.dynSites = append(b.dynSites, dynSite{site: site, obj: obj})
				})
				return true
			}
			b.recordCall(pkg, enc, n)
			return true
		case *ast.AssignStmt:
			if enc := cur(); enc != nil && len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					b.recordFlow(pkg, enc, n.Lhs[i], n.Rhs[i])
				}
			}
			return true
		case *ast.ValueSpec:
			if enc := cur(); enc != nil && len(n.Names) == len(n.Values) {
				for i := range n.Names {
					b.recordFlow(pkg, enc, n.Names[i], n.Values[i])
				}
			}
			return true
		case *ast.CompositeLit:
			if enc := cur(); enc != nil {
				b.recordCompositeFlows(pkg, enc, n)
			}
			return true
		}
		return true
	}
	ast.Inspect(f, visit)
}

// recordCall adds edges for one non-scheduler call and binds
// function-typed arguments to the callee's parameters.
func (b *cgBuilder) recordCall(pkg *Package, from *CGNode, call *ast.CallExpr) {
	fun := unparen(call.Fun)
	switch fn := fun.(type) {
	case *ast.Ident:
		switch obj := pkg.TypesInfo.Uses[fn].(type) {
		case *types.Func:
			b.edgeToFunc(pkg, from, obj, call)
			return
		case *types.Var:
			b.dynCalls = append(b.dynCalls, dynCall{from: from, obj: obj})
			return
		}
	case *ast.SelectorExpr:
		if sel := pkg.TypesInfo.Selections[fn]; sel != nil {
			switch sel.Kind() {
			case types.MethodVal:
				m := sel.Obj().(*types.Func)
				if isInterfaceRecv(sel.Recv()) {
					b.chaEdges(from, sel.Recv(), m.Name())
				} else {
					b.edgeToFunc(pkg, from, m, call)
				}
				return
			case types.FieldVal:
				b.dynCalls = append(b.dynCalls, dynCall{from: from, obj: sel.Obj()})
				return
			}
		}
		// Qualified identifier pkg.F.
		if obj, ok := pkg.TypesInfo.Uses[fn.Sel].(*types.Func); ok {
			b.edgeToFunc(pkg, from, obj, call)
			return
		}
	case *ast.FuncLit:
		if node := b.cg.byLit[fn]; node != nil {
			from.addCallee(node)
			if tv, ok := pkg.TypesInfo.Types[fn]; ok {
				if sig, ok := tv.Type.(*types.Signature); ok {
					b.bindParams(pkg, sig, call, from)
				}
			}
		}
		return
	case *ast.IndexExpr:
		// m[k]() through a map/slice of functions: resolve via the
		// container variable's flow set.
		if obj := storageObject(pkg, fn); obj != nil {
			b.dynCalls = append(b.dynCalls, dynCall{from: from, obj: obj})
		}
		return
	}
}

// edgeToFunc adds a static call edge and parameter bindings.
func (b *cgBuilder) edgeToFunc(pkg *Package, from *CGNode, callee *types.Func, call *ast.CallExpr) {
	if node := b.cg.byFn[callee]; node != nil {
		from.addCallee(node)
	}
	sig, _ := callee.Type().(*types.Signature)
	b.bindParams(pkg, sig, call, from)
}

// bindParams flows function-typed arguments into the callee's
// parameters (the callee may invoke them).
func (b *cgBuilder) bindParams(pkg *Package, sig *types.Signature, call *ast.CallExpr, from *CGNode) {
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if i >= params.Len() {
			break // variadic tail: parameter is a slice, skip
		}
		p := params.At(i)
		if _, ok := p.Type().Underlying().(*types.Signature); !ok {
			continue
		}
		b.resolveInto(pkg, from, arg, func(t *CGNode) {
			b.addFlow(p, t)
		}, func(obj types.Object) {
			b.addCopy(p, obj)
		})
	}
}

// recordFlow flows a function value on the right-hand side of an
// assignment into the storage location on the left.
func (b *cgBuilder) recordFlow(pkg *Package, from *CGNode, lhs, rhs ast.Expr) {
	obj := storageObject(pkg, lhs)
	if obj == nil {
		return
	}
	if _, ok := obj.Type().Underlying().(*types.Signature); !ok {
		// Maps/slices of functions: the container object carries the
		// flow; element type checked inside storageObject for index
		// expressions, so a plain non-func var is simply not tracked.
		if !containerOfFuncs(obj.Type()) {
			return
		}
	}
	b.resolveInto(pkg, from, rhs, func(t *CGNode) {
		b.addFlow(obj, t)
	}, func(src types.Object) {
		b.addCopy(obj, src)
	})
}

// recordCompositeFlows handles struct literals initializing
// function-typed fields, keyed or positional.
func (b *cgBuilder) recordCompositeFlows(pkg *Package, from *CGNode, lit *ast.CompositeLit) {
	tv, ok := pkg.TypesInfo.Types[lit]
	if !ok {
		return
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		var field *types.Var
		var val ast.Expr
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			if f, ok := pkg.TypesInfo.Uses[key].(*types.Var); ok && f.IsField() {
				field, val = f, kv.Value
			}
		} else if i < st.NumFields() {
			field, val = st.Field(i), elt
		}
		if field == nil {
			continue
		}
		if _, ok := field.Type().Underlying().(*types.Signature); !ok {
			continue
		}
		b.resolveInto(pkg, from, val, func(t *CGNode) {
			b.addFlow(field, t)
		}, func(src types.Object) {
			b.addCopy(field, src)
		})
	}
}

// resolveInto resolves an expression that may denote a function value:
// direct resolutions call direct, storage locations call indirect.
func (b *cgBuilder) resolveInto(pkg *Package, from *CGNode, expr ast.Expr, direct func(*CGNode), indirect func(types.Object)) {
	expr = unparen(expr)
	switch e := expr.(type) {
	case *ast.FuncLit:
		if node := b.cg.byLit[e]; node != nil {
			direct(node)
		}
	case *ast.Ident:
		switch obj := pkg.TypesInfo.Uses[e].(type) {
		case *types.Func:
			if node := b.cg.byFn[obj]; node != nil {
				direct(node)
			}
		case *types.Var:
			indirect(obj)
		}
	case *ast.SelectorExpr:
		if sel := pkg.TypesInfo.Selections[e]; sel != nil {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				m := sel.Obj().(*types.Func)
				if isInterfaceRecv(sel.Recv()) {
					for _, t := range b.chaResolve(sel.Recv(), m.Name()) {
						direct(t)
					}
				} else if node := b.cg.byFn[m]; node != nil {
					direct(node)
				}
			case types.FieldVal:
				indirect(sel.Obj())
			}
			return
		}
		if obj, ok := pkg.TypesInfo.Uses[e.Sel].(*types.Func); ok {
			if node := b.cg.byFn[obj]; node != nil {
				direct(node)
			}
		}
	case *ast.CallExpr:
		// Conversions like event.Cycle(x) are calls too; a call
		// returning a function is rare and untracked.
	case *ast.IndexExpr:
		if obj := storageObject(pkg, e); obj != nil {
			indirect(obj)
		}
	}
}

// storageObject maps an lvalue-ish expression to the types.Object that
// stands for its storage: a variable, a struct field, or — for index
// expressions — the container variable/field itself.
func storageObject(pkg *Package, expr ast.Expr) types.Object {
	switch e := unparen(expr).(type) {
	case *ast.Ident:
		if obj := pkg.TypesInfo.Defs[e]; obj != nil {
			return obj
		}
		return pkg.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		if sel := pkg.TypesInfo.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		return pkg.TypesInfo.Uses[e.Sel]
	case *ast.IndexExpr:
		return storageObject(pkg, e.X)
	case *ast.StarExpr:
		return storageObject(pkg, e.X)
	}
	return nil
}

// containerOfFuncs reports whether t is a map, slice or array whose
// element type is a function.
func containerOfFuncs(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Map:
		_, ok := u.Elem().Underlying().(*types.Signature)
		return ok
	case *types.Slice:
		_, ok := u.Elem().Underlying().(*types.Signature)
		return ok
	case *types.Array:
		_, ok := u.Elem().Underlying().(*types.Signature)
		return ok
	}
	return false
}

func (b *cgBuilder) addFlow(obj types.Object, t *CGNode) {
	m := b.flows[obj]
	if m == nil {
		m = make(map[*CGNode]bool)
		b.flows[obj] = m
	}
	m[t] = true
}

func (b *cgBuilder) addCopy(dst, src types.Object) {
	if dst == src {
		return
	}
	m := b.copies[dst]
	if m == nil {
		m = make(map[types.Object]bool)
		b.copies[dst] = m
	}
	m[src] = true
}

// flowFixpoint propagates flow sets across location-to-location copies
// until stable.
func (b *cgBuilder) flowFixpoint() {
	for changed := true; changed; {
		changed = false
		for dst, srcs := range b.copies {
			for src := range srcs {
				for t := range b.flows[src] {
					if !b.flows[dst][t] {
						b.addFlow(dst, t)
						changed = true
					}
				}
			}
		}
	}
}

func (b *cgBuilder) flowTargets(obj types.Object) []*CGNode {
	m := b.flows[obj]
	if len(m) == 0 {
		return nil
	}
	out := make([]*CGNode, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	return out
}

func isInterfaceRecv(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// chaEdges adds edges for an interface-method call.
func (b *cgBuilder) chaEdges(from *CGNode, recv types.Type, method string) {
	for _, t := range b.chaResolve(recv, method) {
		from.addCallee(t)
	}
}

// chaResolve returns the loaded concrete methods implementing the
// interface's method — class hierarchy analysis over the loaded
// packages' named types.
func (b *cgBuilder) chaResolve(recv types.Type, method string) []*CGNode {
	if p, ok := recv.Underlying().(*types.Pointer); ok {
		recv = p.Elem()
	}
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	key := types.TypeString(recv, nil) + "\x00" + method
	if ts, ok := b.ifaceMemo[key]; ok {
		return ts
	}
	var out []*CGNode
	for _, ct := range b.concrete {
		ptr := types.NewPointer(ct)
		if !types.Implements(ct, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, nil, method)
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if node := b.cg.byFn[m]; node != nil {
			out = append(out, node)
		}
	}
	b.ifaceMemo[key] = out
	return out
}

// schedMethods are the event.Queue scheduling entry points.
var schedMethods = map[string]bool{"At": true, "AtKeep": true, "After": true}

// classifySched reports whether call is a scheduler binding and whether
// the bound function runs on the binding lane. The entry points are the
// event queue (Queue.At/AtKeep/After), the Sim-style ScheduleTask
// wrapper, and the sharded lane handles (Lane.AfterKeep runs on the
// lane; Lane.Send runs on the home lane).
func classifySched(pkg *Package, call *ast.CallExpr) (lane, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || len(call.Args) == 0 {
		return false, false
	}
	selection := pkg.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return false, false
	}
	recv := namedOrPointee(selection.Recv())
	if recv == nil {
		return false, false
	}
	recvPkg := pkgPathOf(recv.Obj())
	name := sel.Sel.Name
	if isEventPackage(recvPkg) {
		switch recv.Obj().Name() {
		case "Queue":
			return false, schedMethods[name]
		case "Lane":
			switch name {
			case "AfterKeep":
				return true, true
			case "Send":
				return false, true
			}
		}
	}
	return false, name == "ScheduleTask" && isSimPackage(recvPkg)
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
