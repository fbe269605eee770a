package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// recorderWrites are the observation-only obs.Recorder methods the PR 2
// hook contract lets simulation code call: they feed telemetry in,
// return nothing a caller could branch on, and are no-ops on a nil
// receiver. Everything else on the Recorder reads recorded state back
// out, which only the telemetry layer itself may do.
var recorderWrites = map[string]bool{
	"Add":     true,
	"Observe": true,
	"Study":   true,
	"Task":    true,
}

// ObsInertAnalyzer enforces telemetry inertness: simulation packages
// may only write to an obs.Recorder. Reading counters or spans back
// (Recorder.Snapshot and any future accessor) from simulation code
// could steer control flow by what was observed, breaking the
// byte-for-byte telemetry-invariance guarantee. The same contract bans
// importing the scrape-surface metrics renderer (internal/obs/promtext)
// outright: it renders recorded telemetry back out, so simulation code
// holding it could branch on observed state — values reach it only
// through the serving layer's per-scrape snapshot. The reachability pass extends
// the contract to every function a simulation entry point can reach,
// excepting the telemetry layer itself.
func ObsInertAnalyzer() *Analyzer {
	return &Analyzer{
		Name:      "obsinert",
		Doc:       "simulation packages (and everything they transitively call) may only write to obs.Recorder: reading telemetry back could steer simulation control flow",
		Appl:      inSim,
		Run:       runObsInert,
		RunModule: runObsInertModule,
	}
}

func runObsInert(p *Pass) {
	inspectFiles(p, func(n ast.Node) bool {
		if imp, ok := n.(*ast.ImportSpec); ok {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == p.Mod+"/internal/obs/promtext" {
				p.Reportf(imp.Pos(), "simulation package imports the metrics renderer %s; simulation code observes only through the write-only obs.Recorder hooks", path)
			}
			return true
		}
		return scanObsRead(p.Pkg.Info, p.Mod, n, p.Reportf)
	})
}

// scanObsRead checks one AST node for a read of recorded telemetry (a
// non-write obs.Recorder method call, or any use of the promtext
// renderer), reporting through the given sink.
func scanObsRead(info *types.Info, mod string, n ast.Node, report func(pos token.Pos, format string, args ...any)) bool {
	x, ok := n.(*ast.SelectorExpr)
	if !ok {
		return true
	}
	if fn, ok := info.Uses[x.Sel].(*types.Func); ok {
		if pkg := fn.Pkg(); pkg != nil && pkg.Path() == mod+"/internal/obs/promtext" {
			report(x.Pos(), "%s touches the metrics renderer; simulation-reachable code observes only through the write-only obs.Recorder hooks", fn.FullName())
			return true
		}
	}
	sel, ok := info.Selections[x]
	if !ok || sel.Kind() != types.MethodVal {
		return true
	}
	if !isModType(mod, sel.Recv(), "internal/obs", "Recorder") {
		return true
	}
	if !recorderWrites[x.Sel.Name] {
		report(x.Pos(), "(*obs.Recorder).%s reads recorded telemetry on a simulation path; simulation code may only write (allowed: %s)", x.Sel.Name, strings.Join(sortedNames(recorderWrites), ", "))
	}
	return true
}

// runObsInertModule extends inertness transitively: any function
// reachable from a simulation entry point may not read telemetry back,
// wherever it lives. The telemetry layer itself (internal/obs and its
// subpackages) legitimately reads its own state and is exempt.
func runObsInertModule(mp *ModulePass) {
	skip := func(rel string) bool {
		return inSim(rel) || rel == "internal/obs" || strings.HasPrefix(rel, "internal/obs/")
	}
	forReachableOutside(mp, skip, func(n *Node, chain []string) {
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			return scanObsRead(n.Pkg.Info, mp.Mod, node, func(pos token.Pos, format string, args ...any) {
				mp.ReportChain(pos, chain, format, args...)
			})
		})
	})
}

func sortedNames(m map[string]bool) []string {
	ns := make([]string, 0, len(m))
	for n := range m { //reprolint:allow mapiter: allowlist rendering for an error message; sorted on the next line
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}
