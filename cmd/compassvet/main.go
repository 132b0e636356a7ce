// Command compassvet is the project's determinism, snapshot and
// shard-safety checker: a multichecker over the internal/analysis suite
// (detwallclock: no host clock or global rand in simulation packages;
// detmaprange: every map range states why its order cannot matter;
// snapfields: every snapshotted field is checkpointed or skipped with a
// reason; lanescope: a package that binds lane tasks shows the lane rule
// in its own source).
// Allocation discipline is measured instead, by the root package's
// TestAllocationBudgets.
//
// Usage:
//
//	compassvet [-run a,b] [packages]
//
// With no packages, ./... is checked. Each finding is one
// file:line:col: analyzer: message line on stdout. Exit status is 0 when clean,
// 1 when there are findings, 2 when the flags are wrong or the packages
// cannot be loaded or checked. A finding is fixed or carries the
// analyzer's reasoned annotation; there is no list of accepted ones.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"compass/internal/analysis"
)

func main() {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "compassvet: %v\n", err)
		os.Exit(2)
	}
	os.Exit(run(cwd, os.Args[1:], os.Stdout, os.Stderr))
}

// run checks the packages args name, resolved from dir, and returns the
// exit status.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compassvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runList := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: compassvet [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	analyzers := analysis.All()
	if *runList != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*runList, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "compassvet: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "compassvet: %v\n", err)
		return 2
	}
	diags, err := analysis.Run(analyzers, pkgs)
	if err != nil {
		fmt.Fprintf(stderr, "compassvet: %v\n", err)
		return 2
	}
	// Repo-relative paths make findings clickable from the module root.
	for i := range diags {
		if rel, err := filepath.Rel(dir, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}

	for _, d := range diags {
		fmt.Fprintln(stdout, d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "compassvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
