package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// chdir moves the process into dir for one test; the driver resolves
// the module from the working directory like the real binary does.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

// writeModule lays out a throwaway module on disk: files maps
// module-relative paths to contents.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const cleanCircuit = `// Package circuit is a deterministic stand-in.
package circuit

// Delay is a pure function.
func Delay(fo4 float64) float64 { return 6.5 * fo4 }
`

// injectedCircuit carries the nondet/bad fixture's violation shape,
// injected into a simulation package path where the default scopes
// must catch it.
const injectedCircuit = `// Package circuit sneaks in a clock read.
package circuit

import "time"

// Delay depends on when it runs.
func Delay(fo4 float64) float64 {
	return 6.5 * fo4 * float64(time.Now().Unix()%2+1)
}
`

// TestInjectedViolation is the acceptance check: a fixture-shaped
// violation injected into a simulation package must make the driver
// exit nonzero with a correct file:line finding, and the clean variant
// of the same module must exit zero.
func TestInjectedViolation(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":                      "module faux\n\ngo 1.22\n",
		"internal/circuit/circuit.go": injectedCircuit,
	})
	chdir(t, root)

	var out, errb bytes.Buffer
	if code := run([]string{"./..."}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	const want = "internal/circuit/circuit.go:8: nondeterminism:"
	if !strings.Contains(out.String(), want) {
		t.Errorf("output missing %q:\n%s", want, out.String())
	}
}

func TestCleanModule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":                      "module faux\n\ngo 1.22\n",
		"internal/circuit/circuit.go": cleanCircuit,
	})
	chdir(t, root)

	var out, errb bytes.Buffer
	if code := run([]string{"./..."}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0; stdout: %s stderr: %s", code, out.String(), errb.String())
	}
	if out.Len() > 0 {
		t.Errorf("clean module produced output: %s", out.String())
	}
}

// TestJSONAndFilters: -json must emit a parseable array, and package
// patterns must narrow what is analyzed.
func TestJSONAndFilters(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":                      "module faux\n\ngo 1.22\n",
		"internal/circuit/circuit.go": injectedCircuit,
		"internal/fo4/fo4.go":         "// Package fo4 is clean.\npackage fo4\n\n// X is a constant.\nconst X = 1\n",
	})
	chdir(t, root)

	var out, errb bytes.Buffer
	if code := run([]string{"-json", "./internal/..."}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	var findings []analysis.Finding
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out.String())
	}
	if len(findings) != 1 || findings[0].Rule != "nondeterminism" || findings[0].Line != 8 {
		t.Errorf("unexpected findings: %+v", findings)
	}

	// Filtering to the clean subtree must exit 0.
	out.Reset()
	errb.Reset()
	if code := run([]string{"./internal/fo4"}, &out, &errb); code != 0 {
		t.Fatalf("filtered run exit = %d, want 0; stdout: %s stderr: %s", code, out.String(), errb.String())
	}

	// A pattern matching nothing is a usage error.
	if code := run([]string{"./nosuch/..."}, &out, &errb); code != 2 {
		t.Errorf("no-match pattern exit = %d, want 2", code)
	}
}

// TestListAndRules: -list names every rule; -rules filters and rejects
// unknown names.
func TestListAndRules(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exit = %d", code)
	}
	for _, a := range analysis.Analyzers() {
		if !strings.Contains(out.String(), a.Name) {
			t.Errorf("-list output missing rule %s", a.Name)
		}
	}
	if code := run([]string{"-rules", "nosuchrule"}, &out, &errb); code != 2 {
		t.Errorf("unknown -rules exit = %d, want 2", code)
	}
}

// The transitive-violation module: the sim entry point is clean, but it
// calls a helper package that no per-package scope covers; only the
// interprocedural reachability pass can catch the clock read, and the
// finding must carry the call chain.
var transitiveModule = map[string]string{
	"go.mod": "module faux\n\ngo 1.22\n",
	"internal/core/core.go": `// Package core drives points.
package core

import "faux/internal/util"

// SimulatePoint is the entry point the reachability rules root at.
func SimulatePoint(x float64) float64 { return util.Jitter(x) }
`,
	"internal/util/util.go": `// Package util sits outside every per-package scope.
package util

import "time"

// Jitter perturbs its input by the clock.
func Jitter(x float64) float64 { return x * float64(time.Now().Unix()%2+1) }
`,
}

// TestTransitiveViolation is the interprocedural acceptance check: a
// banned callee two packages away from the entry point, in a package
// the per-package scopes ignore, must be reported with the full call
// chain from the entry point.
func TestTransitiveViolation(t *testing.T) {
	root := writeModule(t, transitiveModule)
	chdir(t, root)

	var out, errb bytes.Buffer
	if code := run([]string{"./..."}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{
		"internal/util/util.go:7: nondeterminism:",
		"[via internal/core.SimulatePoint -> internal/util.Jitter]",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}

	// The same pass must stay quiet when the helper is clean.
	clean := map[string]string{}
	for k, v := range transitiveModule {
		clean[k] = v
	}
	clean["internal/util/util.go"] = "// Package util is pure.\npackage util\n\n// Jitter is the identity.\nfunc Jitter(x float64) float64 { return x }\n"
	root2 := writeModule(t, clean)
	chdir(t, root2)
	out.Reset()
	errb.Reset()
	if code := run([]string{"./..."}, &out, &errb); code != 0 {
		t.Fatalf("clean transitive module exit = %d; stdout: %s stderr: %s", code, out.String(), errb.String())
	}
}

// TestJSONSchema pins the -json output shape: exactly these keys, with
// chain present only on reachability findings. Downstream tooling
// (dashboards) parses this; changing it is a contract break.
func TestJSONSchema(t *testing.T) {
	root := writeModule(t, transitiveModule)
	chdir(t, root)

	var out, errb bytes.Buffer
	if code := run([]string{"-json", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	var raw []map[string]any
	if err := json.Unmarshal(out.Bytes(), &raw); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out.String())
	}
	if len(raw) != 1 {
		t.Fatalf("want exactly 1 finding, got %d: %s", len(raw), out.String())
	}
	keys := make([]string, 0, len(raw[0]))
	for k := range raw[0] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"chain", "col", "file", "line", "message", "rule"}
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Errorf("-json finding keys = %v, want %v", keys, want)
	}
	chain, ok := raw[0]["chain"].([]any)
	if !ok || len(chain) != 2 {
		t.Errorf("chain should be a 2-element array, got %v", raw[0]["chain"])
	}

	// A per-package finding carries no chain key at all (omitempty).
	root2 := writeModule(t, map[string]string{
		"go.mod":                      "module faux\n\ngo 1.22\n",
		"internal/circuit/circuit.go": injectedCircuit,
	})
	chdir(t, root2)
	out.Reset()
	if code := run([]string{"-json", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	raw = nil
	if err := json.Unmarshal(out.Bytes(), &raw); err != nil {
		t.Fatalf("-json output does not parse: %v", err)
	}
	if len(raw) != 1 {
		t.Fatalf("want exactly 1 finding, got %d", len(raw))
	}
	if _, has := raw[0]["chain"]; has {
		t.Errorf("per-package finding should omit the chain key, got %v", raw[0])
	}
}

// TestStatsJSONListsFindings: the single CI lint step, -stats
// -stats-json, still fails on a finding, lists it on stderr next to the
// per-rule timings, and keeps stdout a parseable timing artifact.
func TestStatsJSONListsFindings(t *testing.T) {
	root := writeModule(t, transitiveModule)
	chdir(t, root)

	var out, errb bytes.Buffer
	if code := run([]string{"-stats", "-stats-json", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	var stats []analysis.RuleStat
	if err := json.Unmarshal(out.Bytes(), &stats); err != nil {
		t.Fatalf("stdout is not the stats JSON: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"internal/util/util.go:7: nondeterminism:",
		"reprolint: nondeterminism",
		"reprolint: 1 finding(s)",
	} {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, errb.String())
		}
	}
}

// TestStatsJSON: -stats-json emits one row per rule (plus the shared
// callgraph construction row) with non-negative wall times.
func TestStatsJSON(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":                      "module faux\n\ngo 1.22\n",
		"internal/circuit/circuit.go": cleanCircuit,
	})
	chdir(t, root)

	var out, errb bytes.Buffer
	if code := run([]string{"-stats-json", "./..."}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, errb.String())
	}
	var stats []analysis.RuleStat
	if err := json.Unmarshal(out.Bytes(), &stats); err != nil {
		t.Fatalf("-stats-json output does not parse: %v\n%s", err, out.String())
	}
	seen := map[string]bool{}
	for _, s := range stats {
		if s.Seconds < 0 {
			t.Errorf("rule %s has negative wall time %v", s.Rule, s.Seconds)
		}
		seen[s.Rule] = true
	}
	for _, a := range analysis.Analyzers() {
		if !seen[a.Name] {
			t.Errorf("-stats-json missing a row for rule %s", a.Name)
		}
	}
	if !seen["callgraph"] {
		t.Errorf("-stats-json missing the callgraph construction row")
	}
}
