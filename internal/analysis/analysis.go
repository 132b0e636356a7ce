// Package analysis is compassvet's static-analysis framework: a small,
// dependency-free mirror of the golang.org/x/tools/go/analysis API built
// on the standard library's go/ast and go/types.
//
// COMPASS's two headline guarantees — repeatable execution-driven runs
// (the paper's basic-block interleaving rule is only sound if the
// backend's consumption order is a pure function of published execution
// times) and bit-identical checkpoint resume — were, until this package,
// enforced purely by runtime regression tests. Like RSIM's event-code
// conventions and SimOS's state annotations, they were conventions: one
// time.Now, one unseeded rand.Intn, one map-range feeding simulation
// state, or one struct field forgotten in a snapshot.go silently breaks
// them in ways the tests may not catch. The analyzers in this package
// turn those conventions into machine-checked rules that gate every PR.
//
// The module is dependency-free (go.mod has no requires), so this
// package re-implements the slice of golang.org/x/tools it needs: an
// Analyzer run over a type-checked Pass, Diagnostics with positions, and
// a loader (load.go) that type-checks against `go list -export` data.
//
// Annotation grammar (escape hatches, checked by the analyzers):
//
//	//det:ordered <justification>   on (or immediately above) a map-range
//	                                statement: asserts the loop's random
//	                                iteration order cannot matter, e.g.
//	                                because keys are sorted below or every
//	                                write commutes. Every map range needs
//	                                one, and the justification is
//	                                mandatory.
//	//ckpt:skip <reason>            on (or immediately above) a struct
//	                                field of a snapshotted type: asserts
//	                                the field is deliberately absent from
//	                                the checkpoint (derived state, rebuilt
//	                                on restore, host-only scratch). The
//	                                reason is mandatory.
package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// An Analyzer describes one static-analysis rule: its Name (used in
// findings and in compassvet's -run list), a one-paragraph Doc of the
// invariant it enforces, and Run, applied to each type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass presents one type-checked package (non-test files only) to an
// Analyzer's Run.
type Pass struct {
	Analyzer *Analyzer
	*Package

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding produced by an analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats the diagnostic in the conventional file:line:col style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// All returns the full compassvet suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Detwallclock, Detmaprange, Snapfields, Lanescope}
}

// Run applies each analyzer to each loaded package and returns the
// combined findings sorted by position.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Package: pkg, report: func(d Diagnostic) { diags = append(diags, d) }}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(cmp.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column), cmp.Compare(a.Analyzer, b.Analyzer))
	})
	return diags, nil
}

// simPackages are the package-path leaves (relative to the module's
// internal/ tree) whose code runs inside the simulation, or is the
// simulated code itself (frontend, isa, simsync, dsm, apps/...), and
// must therefore be a pure function of simulated state. A package
// nested under one of them (apps/db, a loadgen/x) is classified with
// it. Host-side orchestration (expt, checkpoint I/O, stats formatting,
// guard) may touch the wall clock; these may not.
var simPackages = map[string]bool{
	"core": true, "event": true, "cache": true, "snoop": true,
	"noc": true, "directory": true, "coma": true, "mem": true,
	"memsys": true, "kernel": true, "fs": true, "dev": true,
	"netstack": true, "osserver": true, "fault": true, "loadgen": true,
	"arrival": true, "trace": true, "dsm": true, "simsync": true,
	"specweb": true, "frontend": true, "isa": true, "apps": true,
}

// internalLeaf returns the part of an import path after the last
// "internal/" element, or "" if the path has none. It makes package
// classification work identically for the real module
// ("compass/internal/core" -> "core") and for the analysistest fixture
// module ("fixture/internal/core" -> "core").
func internalLeaf(path string) string {
	const marker = "internal/"
	i := strings.LastIndex(path, marker)
	if i < 0 {
		return ""
	}
	if i > 0 && path[i-1] != '/' {
		return ""
	}
	return path[i+len(marker):]
}

// isSimPackage reports whether the import path names one of the
// deterministic simulation packages.
func isSimPackage(path string) bool {
	top, _, _ := strings.Cut(internalLeaf(path), "/")
	return simPackages[top]
}

// lineAnnotations collects, per file line, the text of every //-comment
// whose content starts with the given marker (e.g. "det:ordered").
// An annotation applies to a statement when it sits on the statement's
// own line (a trailing comment) or on the line directly above it.
type lineAnnotations struct {
	fset  *token.FileSet
	lines map[fileLine]string // annotation body by the line it sits on
}

type fileLine struct {
	file string
	line int
}

func collectAnnotations(fset *token.FileSet, files []*ast.File, marker string) *lineAnnotations {
	la := &lineAnnotations{fset: fset, lines: make(map[fileLine]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+marker)
				if !ok || text != "" && text[0] != ' ' && text[0] != '\t' {
					continue // e.g. //det:orderedX is not the annotation
				}
				pos := fset.Position(c.Pos())
				la.lines[fileLine{pos.Filename, pos.Line}] = strings.TrimSpace(text)
			}
		}
	}
	return la
}

// at returns (body, true) when an annotation covers the node at pos:
// same line or the line immediately above.
func (la *lineAnnotations) at(pos token.Pos) (string, bool) {
	p := la.fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		if body, ok := la.lines[fileLine{p.Filename, line}]; ok {
			return body, true
		}
	}
	return "", false
}

// pkgPathOf returns the import path of the package an object belongs
// to, or "" for builtins and universe-scope objects.
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// namedOrPointee unwraps one level of pointer and returns the named
// type beneath, or nil.
func namedOrPointee(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
