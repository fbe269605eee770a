package analysis

import "strings"

// simPackages are the simulation packages: everything whose output
// feeds study results and therefore must be deterministic and
// telemetry-inert. The executor (internal/exec) and telemetry
// (internal/obs) layers are deliberately outside this set — they own
// the allowlisted clock reads and goroutines.
var simPackages = map[string]bool{
	"internal/branch":      true,
	"internal/cacti":       true,
	"internal/circuit":     true,
	"internal/config":      true,
	"internal/core":        true,
	"internal/experiments": true,
	"internal/fo4":         true,
	"internal/isa":         true,
	"internal/latch":       true,
	"internal/mem":         true,
	"internal/metrics":     true,
	"internal/pipeline":    true,
	"internal/trace":       true,
	"internal/wire":        true,
}

func inSim(rel string) bool { return simPackages[rel] }

// inSimOrRuntime adds the executor, telemetry and result-store layers,
// whose clock reads are real but allowlisted in place with directives
// (worker timing, span wall times, coordinator pacing).
func inSimOrRuntime(rel string) bool {
	return simPackages[rel] || rel == "internal/exec" || rel == "internal/obs" || rel == "internal/store"
}

// toolingPackages are the layers that prove the invariants rather than
// compute under them — the analyzer itself and the metrics-text
// renderer. They are held to the determinism hygiene rules too: the
// linter's own output must be stable run to run, and a scrape body must
// render identically for identical instrument state.
var toolingPackages = map[string]bool{
	"internal/analysis":     true,
	"internal/obs/promtext": true,
}

func inSimRuntimeOrTooling(rel string) bool {
	return inSimOrRuntime(rel) || toolingPackages[rel]
}

func inSimOrTooling(rel string) bool {
	return simPackages[rel] || toolingPackages[rel]
}

// inServing is the serving-path scope the concurrency rules police: the
// HTTP layer and the durable store behind it.
func inServing(rel string) bool {
	return rel == "internal/serve" || rel == "internal/store"
}

// Analyzers returns the full rule suite, freshly allocated so callers
// may filter it.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NondeterminismAnalyzer(),
		MapIterAnalyzer(),
		TraceImmutableAnalyzer(),
		ObsInertAnalyzer(),
		GoroutineScopeAnalyzer(),
		LockOrderAnalyzer(),
		CtxCancelAnalyzer(),
		GoJoinAnalyzer(),
	}
}

// ByName returns the analyzers whose names are listed, in listing
// order, or an error string naming the first unknown rule.
func ByName(names []string) ([]*Analyzer, string) {
	all := Analyzers()
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	out := make([]*Analyzer, 0, len(names))
	for _, n := range names {
		a, ok := byName[strings.TrimSpace(n)]
		if !ok {
			return nil, n
		}
		out = append(out, a)
	}
	return out, ""
}
