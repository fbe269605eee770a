package analysis

// Reachability over the call graph. The determinism rules use it to
// extend their guarantees transitively — a helper package is held to
// the sim invariants the moment sim code can reach it — and every
// reachability finding carries the shortest call chain from an entry
// point, so a violation three packages away is still debuggable from
// the finding alone.

import (
	"sort"
	"strings"
)

// Reach is the result of a breadth-first traversal from a root set:
// membership plus a shortest-path tree for chain reconstruction.
type Reach struct {
	parent map[*Node]*Node // BFS tree; roots map to nil
	member map[*Node]bool
}

// ReachableFrom traverses the graph breadth-first from roots. The
// traversal order is deterministic: roots in the given order, edges in
// source order, so the chain attached to a finding is stable run to
// run.
func (g *CallGraph) ReachableFrom(roots []*Node) *Reach {
	r := &Reach{parent: map[*Node]*Node{}, member: map[*Node]bool{}}
	queue := make([]*Node, 0, len(roots))
	for _, n := range roots {
		if n == nil || r.member[n] {
			continue
		}
		r.member[n] = true
		r.parent[n] = nil
		queue = append(queue, n)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.edges {
			if r.member[e.To] {
				continue
			}
			r.member[e.To] = true
			r.parent[e.To] = n
			queue = append(queue, e.To)
		}
	}
	return r
}

// Contains reports whether n is reachable from the root set.
func (r *Reach) Contains(n *Node) bool { return n != nil && r.member[n] }

// Chain returns the shortest call chain from a root to n as display
// names, root first, n last; nil when n is unreachable.
func (r *Reach) Chain(n *Node) []string {
	if !r.Contains(n) {
		return nil
	}
	var rev []*Node
	for at := n; at != nil; at = r.parent[at] {
		rev = append(rev, at)
	}
	out := make([]string, len(rev))
	for i, node := range rev {
		out[len(rev)-1-i] = node.Name
	}
	return out
}

// simEntryPoint reports whether a node is one of the simulation entry
// points the determinism rules root reachability at: the point-level
// and multi-point serving entries, the pipeline core, the deprecated
// batch wrappers (roots until they are deleted), and the study
// drivers. Matching happens on the fixture-normalized directory (see
// fixtureRel) so the root set itself is pinned by analyzer fixtures.
func simEntryPoint(n *Node) bool {
	name := n.Fn.Name()
	switch fixtureRel(n.Rel) {
	case "internal/core":
		return name == "SimulatePoint" || name == "SimulateEach" || name == "SimulateBatch" || name == "DepthSweep"
	case "internal/pipeline":
		return name == "Run" || name == "RunWith" || name == "RunBatch"
	case "internal/experiments":
		// The study drivers: RunFigure1..11, RunAblation, RunHeadline,
		// RunSegmentedSelect, RunCray1S — every exported Run* driver.
		return strings.HasPrefix(name, "Run")
	}
	return false
}

// fixtureRel maps an analyzer-fixture directory onto the module
// directory it stands in for: everything up to and including
// "testdata/src/" is stripped, so a fixture at
// internal/analysis/testdata/src/internal/pipeline plays the real
// internal/pipeline in root-set tests. Real module packages never
// carry the prefix — the module loader skips testdata entirely.
func fixtureRel(rel string) string {
	const marker = "testdata/src/"
	if i := strings.Index(rel, marker); i >= 0 {
		return rel[i+len(marker):]
	}
	return rel
}

// SimEntryNodes returns the graph's simulation entry points in
// deterministic order.
func (g *CallGraph) SimEntryNodes() []*Node {
	var out []*Node
	for _, n := range g.list {
		if simEntryPoint(n) {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
