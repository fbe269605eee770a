// Command reprolint runs the repo's invariant-enforcing static
// analyzers (internal/analysis) over the module: the per-package
// determinism rules (nondeterminism, mapiter, traceimmutable, obsinert,
// goroutinescope), their interprocedural reachability extensions, and
// the serving-path concurrency rules (lockorder, ctxcancel, gojoin)
// built on the same call graph. It loads and type-checks every package
// with the standard library only — no build artifacts or third-party
// tooling — so it runs anywhere the Go toolchain does.
//
// Usage:
//
//	reprolint [-json] [-rules a,b] [-stats] [-stats-json] [package patterns]
//
// Patterns are module-relative: "./..." (the default) means the whole
// module, "./internal/..." a subtree, "./internal/core" or
// "repro/internal/core" one package. Findings print as
// "file:line: rule: message", with the call chain appended for
// reachability findings (or as a JSON array with -json); any finding
// makes the exit status 1; load or usage errors exit 2.
//
// -stats prints per-rule wall time and finding counts to stderr;
// -stats-json emits the same as JSON on stdout for tooling and moves
// the findings to stderr, so one run both lints and writes the timing
// artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reprolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit findings as a JSON array")
	rules := fs.String("rules", "", "comma-separated rule names to run (default: all)")
	list := fs.Bool("list", false, "list the rules and the invariants they encode, then exit")
	stats := fs.Bool("stats", false, "print per-rule wall time and finding counts to stderr")
	statsJSON := fs.Bool("stats-json", false, "emit per-rule wall time and finding counts as JSON on stdout, findings on stderr")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: reprolint [-json] [-rules a,b] [-stats] [-stats-json] [package patterns]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *rules != "" {
		var unknown string
		analyzers, unknown = analysis.ByName(strings.Split(*rules, ","))
		if analyzers == nil {
			fmt.Fprintf(stderr, "reprolint: unknown rule %q (see reprolint -list)\n", unknown)
			return 2
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "reprolint:", err)
		return 2
	}
	l, err := analysis.NewLoader(wd)
	if err != nil {
		fmt.Fprintln(stderr, "reprolint:", err)
		return 2
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		fmt.Fprintln(stderr, "reprolint:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	selected := filter(l, pkgs, patterns)
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "reprolint: no packages match %s\n", strings.Join(patterns, " "))
		return 2
	}

	// The clock is injected here, not read inside internal/analysis:
	// the analyzer package sits in its own nondeterminism scope.
	findings, ruleStats := analysis.RunStats(l, selected, analyzers, analysis.Options{Now: time.Now})

	if *stats {
		for _, s := range ruleStats {
			fmt.Fprintf(stderr, "reprolint: %-16s %8.1fms  %d finding(s)\n", s.Rule, s.Seconds*1000, s.Findings)
		}
	}
	if *statsJSON {
		if err := encodeJSON(stdout, ruleStats); err != nil {
			fmt.Fprintln(stderr, "reprolint:", err)
			return 2
		}
	}

	if *asJSON {
		if err := encodeJSON(stdout, findingsOrEmpty(findings)); err != nil {
			fmt.Fprintln(stderr, "reprolint:", err)
			return 2
		}
	} else {
		out := stdout
		if *statsJSON { // stdout carries the stats JSON
			out = stderr
		}
		for _, f := range findings {
			fmt.Fprintln(out, f)
		}
	}
	if len(findings) > 0 {
		if !*asJSON {
			fmt.Fprintf(stderr, "reprolint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}

func findingsOrEmpty(fs []analysis.Finding) []analysis.Finding {
	if fs == nil {
		return []analysis.Finding{}
	}
	return fs
}

func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// filter selects the loaded packages matching any pattern. A pattern is
// matched against both the import path and the module-relative
// directory, with a trailing "/..." matching the whole subtree; "." and
// "./..." are relative to the module root.
func filter(l *analysis.Loader, pkgs []*analysis.Package, patterns []string) []*analysis.Package {
	var out []*analysis.Package
	for _, p := range pkgs {
		for _, pat := range patterns {
			if matches(l.ModulePath, p, pat) {
				out = append(out, p)
				break
			}
		}
	}
	return out
}

func matches(mod string, p *analysis.Package, pat string) bool {
	pat = strings.TrimPrefix(pat, "./")
	if pat == "" || pat == "." {
		return p.Rel == ""
	}
	if pat == "..." {
		return true
	}
	names := []string{p.Path, p.Rel}
	if prefix, ok := strings.CutSuffix(pat, "/..."); ok {
		if prefix == "" || prefix == "." || prefix == mod {
			return true // "./..." or "mod/...": the whole module
		}
		for _, n := range names {
			if n == prefix || strings.HasPrefix(n, prefix+"/") {
				return true
			}
		}
		return false
	}
	for _, n := range names {
		if n == pat {
			return true
		}
	}
	return false
}
