// Command compassvet is the project's determinism, shard-safety and
// allocation-discipline checker: a multichecker over the
// internal/analysis suite (detwallclock, detmaprange, snapfields,
// evtclosure, lanescope, allochot, lookaheadfloor).
//
// Usage:
//
//	compassvet [-run a,b] [-json] [packages]
//
// With no packages, ./... is checked. Exit status is 0 when clean,
// 1 when there are findings, 2 when the packages cannot be loaded or
// checked. A finding is fixed or carries the analyzer's reasoned
// annotation; there is no list of accepted ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"compass/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		jsonOut = flag.Bool("json", false, "emit findings as a JSON array instead of text")
		runList = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: compassvet [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(flag.CommandLine.Output(), "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

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
				fmt.Fprintf(os.Stderr, "compassvet: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "compassvet: %v\n", err)
		return 2
	}
	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compassvet: %v\n", err)
		return 2
	}
	diags, err := analysis.Run(analyzers, pkgs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compassvet: %v\n", err)
		return 2
	}
	// Repo-relative paths make findings clickable from the module root.
	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}

	if *jsonOut {
		type finding struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Message  string `json:"message"`
		}
		out := make([]finding, 0, len(diags))
		for _, d := range diags {
			out = append(out, finding{d.Analyzer, d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "compassvet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "compassvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
