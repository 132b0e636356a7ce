// Package analysistest runs a single analyzer over fixture packages of
// the module at testdata/src (module path "fixture") and checks its
// diagnostics against expectations written in the fixtures as
//
//	// want `regexp`
//
// comments, mirroring golang.org/x/tools/go/analysis/analysistest. An
// expectation applies to the line its comment sits on: every
// diagnostic the analyzer reports must be matched by a want pattern on
// the same file and line, and every want pattern must match exactly
// one diagnostic. Multiple patterns on one line (space-separated, each
// backquoted or double-quoted) expect multiple diagnostics.
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"compass/internal/analysis"
)

// An expectation is one // want pattern: a regexp that must match
// exactly one diagnostic message on its (file, line).
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run loads the fixture packages named by paths, relative to the
// fixture module at testdata/src under the test's working directory,
// exactly as compassvet loads the real tree; applies the analyzer to
// them; and reports any mismatch between produced diagnostics and the
// fixtures' // want comments as test errors.
func Run(t *testing.T, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	patterns := make([]string, len(paths))
	for i, p := range paths {
		patterns[i] = "./" + p
	}
	pkgs, err := analysis.Load(filepath.Join("testdata", "src"), patterns...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	diags, err := analysis.Run([]*analysis.Analyzer{a}, pkgs)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := pkg.Fset.Position(c.Pos())
					res, err := parseWant(c.Text)
					if err != nil {
						t.Fatalf("%s:%d: %v", pos.Filename, pos.Line, err)
					}
					for _, re := range res {
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}

	for _, d := range diags {
		var hit *expectation
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				hit = w
				break
			}
		}
		if hit == nil {
			t.Errorf("%s: unexpected diagnostic: %s", a.Name, d)
			continue
		}
		hit.matched = true
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no %s diagnostic matched want `%s`", w.file, w.line, a.Name, w.re)
		}
	}
}

// parseWant extracts the expectation regexps from one comment's text;
// comments without the want marker return nil.
func parseWant(text string) ([]*regexp.Regexp, error) {
	rest, ok := strings.CutPrefix(text, "// want ")
	if !ok {
		return nil, nil
	}
	var res []*regexp.Regexp
	rest = strings.TrimSpace(rest)
	for rest != "" {
		var pat string
		switch rest[0] {
		case '`':
			end := strings.IndexByte(rest[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated ` in want comment")
			}
			pat = rest[1 : 1+end]
			rest = rest[end+2:]
		case '"':
			q, err := strconv.QuotedPrefix(rest)
			if err != nil {
				return nil, fmt.Errorf("bad quoted pattern in want comment: %v", err)
			}
			if pat, err = strconv.Unquote(q); err != nil {
				return nil, err
			}
			rest = rest[len(q):]
		default:
			return nil, fmt.Errorf("want pattern must be quoted with \" or `")
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			return nil, fmt.Errorf("bad want regexp %q: %v", pat, err)
		}
		res = append(res, re)
		rest = strings.TrimSpace(rest)
	}
	return res, nil
}
