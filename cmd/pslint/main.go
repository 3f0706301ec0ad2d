// Command pslint is the repository's determinism linter: a multichecker
// that runs the internal/analysis suite over the given packages and
// fails if any analyzer reports an unwaived diagnostic.
//
// Usage:
//
//	go run ./cmd/pslint ./...
//	go run ./cmd/pslint -list
//	go run ./cmd/pslint -only walltime,mapiter ./internal/experiments
//
// The suite enforces the contract that makes every reproduced paper
// number trustworthy: virtual time only (walltime), seeded RNG only
// (seededrand), order-stable iteration in scheduling/output paths
// (mapiter), non-blocking scheduler callbacks (schedblock), explicit
// time units (picounits), no package-state writes from parallel
// experiment jobs (sharedfixture), and no unmediated state shared
// between sim proc/callback roots (procshare). Findings can be
// suppressed line-wise with `//pslint:ignore <analyzer> <reason>`, or
// waived centrally in pslint-baseline.json at the module root — every
// waiver carries a written reason, so the shared-state inventory is
// burned down, not ignored.
//
// Cross-package analyzers (Analyzer.UsesFacts, currently procshare) are
// driven over the full module-local dependency closure in `go list
// -deps` order with one fact store per analyzer, so facts exported
// while analyzing internal/sim or internal/hw are importable while
// analyzing internal/core; diagnostics are only reported for the
// packages the patterns matched.
//
// Unwaived findings print as file:line:col lines and fail the run (exit
// 1). When the whole suite runs over ./... from the module root, a
// waiver that matched nothing fails it too: the debt it documented is
// gone and the entry must be deleted. A run over fewer packages or
// analyzers cannot tell a stale waiver from one whose findings lie
// elsewhere, so it does not check. Usage and load errors exit 2.
//
// Only non-test sources are analyzed: _test.go files may use wall-clock
// deadlines and ad-hoc randomness for test orchestration.
package main

import (
	"encoding/json"
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
	"packetshader/internal/analysis/procshare"
	"packetshader/internal/analysis/schedblock"
	"packetshader/internal/analysis/seededrand"
	"packetshader/internal/analysis/sharedfixture"
	"packetshader/internal/analysis/walltime"
)

var suite = []*analysis.Analyzer{
	walltime.Analyzer,
	seededrand.Analyzer,
	mapiter.Analyzer,
	schedblock.Analyzer,
	picounits.Analyzer,
	sharedfixture.Analyzer,
	procshare.Analyzer,
}

// baselineName is the waiver file loaded from the module root.
const baselineName = "pslint-baseline.json"

// A finding is one diagnostic. file is relative to the module root so
// output and waivers are stable across checkouts.
type finding struct {
	analyzer, file, message string
	line, col               int
}

// A waiver is one baseline entry: findings from Analyzer whose
// module-relative file equals File (empty matches any file) and whose
// message contains Match are accepted, with Reason recording why that
// is sound. hits counts the findings it absorbed in this run.
type waiver struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file,omitempty"`
	Match    string `json:"match"`
	Reason   string `json:"reason"`
	hits     int
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
	waivers, err := loadBaseline(filepath.Join(moduleRoot, baselineName))
	if err != nil {
		fmt.Fprintf(os.Stderr, "pslint: %v\n", err)
		os.Exit(2)
	}

	loader := load.NewLoader(".")
	module, err := loader.LoadModule(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pslint: %v\n", err)
		os.Exit(2)
	}

	var findings []finding
	for _, a := range analyzers {
		pkgs := module
		if !a.UsesFacts {
			pkgs = nil
			for _, pkg := range module {
				if !pkg.DepOnly {
					pkgs = append(pkgs, pkg)
				}
			}
		}
		// One fact store per analyzer per load: facts exported while
		// analyzing a dependency are importable downstream.
		facts := analysis.NewFactStore()
		for _, pkg := range pkgs {
			internalOK := strings.Contains(pkg.PkgPath+"/", "/internal/")
			if a.InternalOnly && !internalOK && !a.UsesFacts {
				continue
			}
			pass := analysis.NewPass(a, loader.Fset, pkg.Syntax, pkg.Types, pkg.Info)
			pass.Facts = facts
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "pslint: %s on %s: %v\n", a.Name, pkg.PkgPath, err)
				os.Exit(2)
			}
			if pkg.DepOnly || (a.InternalOnly && !internalOK) {
				continue // fact-only pass: diagnostics are not ours to report
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

	unwaived := 0
	for _, f := range findings {
		if w := matchWaiver(waivers, &f); w != nil {
			w.hits++
			continue
		}
		unwaived++
		fmt.Printf("%s:%d:%d: %s [%s]\n", f.file, f.line, f.col, f.message, f.analyzer)
	}

	stale := 0
	if cwd, _ := filepath.Abs("."); *only == "" && len(patterns) == 1 && patterns[0] == "./..." && cwd == moduleRoot {
		for _, w := range waivers {
			if w.hits == 0 {
				stale++
				fmt.Printf("%s: stale waiver (no findings matched; delete it): %s\n", baselineName, w.describe())
			}
		}
	}
	if unwaived > 0 || stale > 0 {
		fmt.Fprintf(os.Stderr, "pslint: %d finding(s), %d waived by baseline, %d stale waiver(s)\n",
			unwaived, len(findings)-unwaived, stale)
		os.Exit(1)
	}
}

// matchWaiver returns the first waiver that absorbs f, or nil.
func matchWaiver(waivers []waiver, f *finding) *waiver {
	for i := range waivers {
		w := &waivers[i]
		if w.Analyzer == f.analyzer && (w.File == "" || w.File == f.file) && strings.Contains(f.message, w.Match) {
			return w
		}
	}
	return nil
}

func (w *waiver) describe() string {
	file := w.File
	if file == "" {
		file = "*"
	}
	return fmt.Sprintf("{analyzer: %s, file: %s, match: %q}", w.Analyzer, file, w.Match)
}

// loadBaseline reads the waiver file at path; a missing file waives
// nothing. Every waiver must carry a non-empty reason.
func loadBaseline(path string) ([]waiver, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("baseline: %v", err)
	}
	var b struct {
		Waivers []waiver `json:"waivers"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("baseline %s: %v", path, err)
	}
	for i, w := range b.Waivers {
		if w.Analyzer == "" || w.Match == "" {
			return nil, fmt.Errorf("baseline %s: waiver %d needs analyzer and match", path, i)
		}
		if strings.TrimSpace(w.Reason) == "" {
			return nil, fmt.Errorf("baseline %s: waiver %d (%s) has no reason; every waiver must say why it is sound", path, i, w.Match)
		}
	}
	return b.Waivers, nil
}
