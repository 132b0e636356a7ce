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
// Why not golang.org/x/tools? The module is deliberately dependency-free
// (go.mod has no requires), so this package re-implements the slice of
// the x/tools analysis API the suite needs: an Analyzer with a Run
// function over a type-checked Pass, Diagnostics with positions, and a
// loader (load.go) that resolves packages via `go list -export` so
// type-checking works against the exact compiler's export data.
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
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static-analysis rule.
type Analyzer struct {
	// Name is the analyzer's identifier, used in findings and in the
	// multichecker's -run list.
	Name string

	// Doc is a one-paragraph description of the invariant the analyzer
	// enforces.
	Doc string

	// Run applies the analyzer to one type-checked package.
	Run func(*Pass) error
}

// A Pass presents one type-checked package to an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // non-test files only, parsed with comments
	Pkg       *types.Package
	TypesInfo *types.Info
	PkgPath   string // import path as the loader saw it
	Dir       string // package directory on disk

	// Prog is the whole loaded program; the call-graph analyzers use it
	// for cross-package reachability (see callgraph.go).
	Prog *Program

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
	prog := &Program{Pkgs: pkgs}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				PkgPath:   pkg.PkgPath,
				Dir:       pkg.Dir,
				Prog:      prog,
				report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// simPackages are the package-path leaves (relative to the module's
// internal/ tree) whose code runs inside the simulation, or is the
// simulated code itself (frontend, isa, simsync, dsm, apps/...), and
// must therefore be a pure function of simulated state. Host-side
// orchestration (expt, checkpoint I/O, stats formatting, guard) may
// touch the wall clock; these may not.
var simPackages = map[string]bool{
	"core": true, "event": true, "cache": true, "snoop": true,
	"noc": true, "directory": true, "coma": true, "mem": true,
	"memsys": true, "kernel": true, "fs": true, "dev": true,
	"netstack": true, "osserver": true, "fault": true, "loadgen": true,
	"trace": true, "dsm": true, "simsync": true, "specweb": true,
	"frontend": true, "isa": true,
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
	leaf := internalLeaf(path)
	if leaf == "" {
		return false
	}
	if simPackages[leaf] {
		return true
	}
	return leaf == "apps" || strings.HasPrefix(leaf, "apps/")
}

// isEventPackage reports whether the import path names the event
// scheduler package.
func isEventPackage(path string) bool {
	return internalLeaf(path) == "event"
}

// lineAnnotations collects, per file line, the text of every //-comment
// whose content starts with the given marker (e.g. "det:ordered").
// An annotation applies to a statement when it sits on the statement's
// own line (a trailing comment) or on the line directly above it.
type lineAnnotations struct {
	fset  *token.FileSet
	lines map[string]map[int]string // filename -> line -> annotation body
}

func collectAnnotations(fset *token.FileSet, files []*ast.File, marker string) *lineAnnotations {
	la := &lineAnnotations{fset: fset, lines: make(map[string]map[int]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+marker)
				if !ok {
					continue
				}
				if text != "" && text[0] != ' ' && text[0] != '\t' {
					continue // e.g. //det:orderedX is not the annotation
				}
				pos := fset.Position(c.Pos())
				m := la.lines[pos.Filename]
				if m == nil {
					m = make(map[int]string)
					la.lines[pos.Filename] = m
				}
				m[pos.Line] = strings.TrimSpace(text)
			}
		}
	}
	return la
}

// at returns (body, true) when an annotation covers the node at pos:
// same line or the line immediately above.
func (la *lineAnnotations) at(pos token.Pos) (string, bool) {
	p := la.fset.Position(pos)
	m := la.lines[p.Filename]
	if m == nil {
		return "", false
	}
	if body, ok := m[p.Line]; ok {
		return body, true
	}
	if body, ok := m[p.Line-1]; ok {
		return body, true
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
