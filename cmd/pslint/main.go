// Command pslint is the repository's determinism linter: a multichecker
// that runs the internal/analysis suite over the given packages and
// fails if any analyzer reports a diagnostic.
//
// Usage:
//
//	go run ./cmd/pslint ./...
//	go run ./cmd/pslint -list
//	go run ./cmd/pslint -only walltime,mapiter ./internal/experiments
//
// The suite's four analyzers enforce the contract that makes every
// reproduced paper number trustworthy: virtual time only (walltime),
// order-stable iteration in scheduling/output paths (mapiter), explicit
// time units (picounits), and no package-state writes from parallel
// experiment jobs (sharedfixture). The engine itself panics on a
// blocking call from scheduler context, and the golden outputs catch a
// draw from the global math/rand source. A finding can be suppressed
// only where it is, by `//pslint:ignore <analyzer> <reason>` on its line
// or the line above, so the reason sits next to the code it excuses.
//
// Findings print as file:line:col lines and fail the run (exit 1).
// Usage and load errors exit 2.
//
// Only non-test sources are analyzed: _test.go files may use wall-clock
// deadlines and ad-hoc randomness for test orchestration.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"packetshader/internal/analysis"
	"packetshader/internal/analysis/load"
	"packetshader/internal/analysis/mapiter"
	"packetshader/internal/analysis/picounits"
	"packetshader/internal/analysis/sharedfixture"
	"packetshader/internal/analysis/walltime"
)

var suite = []*analysis.Analyzer{
	walltime.Analyzer,
	mapiter.Analyzer,
	picounits.Analyzer,
	sharedfixture.Analyzer,
}

// A finding is one diagnostic. file is relative to the module root so
// output is stable across checkouts.
type finding struct {
	analyzer, file, message string
	line, col               int
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	only := flag.String("only", "", "comma-separated subset of analyzers to run")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pslint [flags] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Runs the packetshader determinism linters over the given package\npatterns (default ./...).\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range suite {
			scope := "all packages"
			if a.InternalOnly {
				scope = "internal/ only"
			}
			fmt.Printf("%-14s %-16s %s\n", a.Name, "("+scope+")", a.Doc)
		}
		return
	}

	analyzers := suite
	if *only != "" {
		want := map[string]bool{}
		for _, n := range strings.Split(*only, ",") {
			want[strings.TrimSpace(n)] = true
		}
		analyzers = nil
		for _, a := range suite {
			if want[a.Name] {
				analyzers = append(analyzers, a)
				delete(want, a.Name)
			}
		}
		if len(want) > 0 {
			unknown := make([]string, 0, len(want))
			for n := range want {
				unknown = append(unknown, n)
			}
			sort.Strings(unknown)
			fmt.Fprintf(os.Stderr, "pslint: unknown analyzer(s) %s (see -list)\n", strings.Join(unknown, ", "))
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	moduleRoot, err := load.ModuleRoot(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "pslint: %v\n", err)
		os.Exit(2)
	}
	loader := load.NewLoader(".")
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pslint: %v\n", err)
		os.Exit(2)
	}

	var findings []finding
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			if a.InternalOnly && !strings.Contains(pkg.PkgPath+"/", "/internal/") {
				continue
			}
			pass := analysis.NewPass(a, loader.Fset, pkg.Syntax, pkg.Types, pkg.Info)
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "pslint: %s on %s: %v\n", a.Name, pkg.PkgPath, err)
				os.Exit(2)
			}
			for _, d := range pass.Diagnostics {
				pos := loader.Fset.Position(d.Pos)
				file := pos.Filename
				if rel, err := filepath.Rel(moduleRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
					file = filepath.ToSlash(rel)
				}
				findings = append(findings, finding{
					analyzer: d.Analyzer,
					file:     file,
					line:     pos.Line,
					col:      pos.Column,
					message:  d.Message,
				})
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		if a.col != b.col {
			return a.col < b.col
		}
		return a.analyzer < b.analyzer
	})

	for _, f := range findings {
		fmt.Printf("%s:%d:%d: %s [%s]\n", f.file, f.line, f.col, f.message, f.analyzer)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "pslint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
