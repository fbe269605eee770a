package analysis

// The interprocedural layer: a conservative static call graph over the
// analyzed packages, built from go/types resolution alone. The graph is
// what turns the per-package syntactic rules into reachability
// properties — "no function transitively reachable from a sim entry
// point may read a clock" — and what the serving-path concurrency rules
// (lockorder, ctxcancel, gojoin) walk.
//
// Conservatism model (over-approximation is deliberate — a reported
// edge that cannot execute costs a justified directive; a missed edge
// costs the invariant):
//
//   - Direct calls and method calls resolve through types.Info to their
//     static callee.
//   - A call through an interface method fans out to every method of
//     every named type in the analyzed packages whose method set
//     satisfies the interface ("method sets for interface dispatch").
//   - A function name referenced as a value (passed as a callback,
//     stored in a field, launched by go/defer) adds an edge from the
//     enclosing function — the graph assumes a captured function may be
//     called by whoever holds it.
//   - A function literal's body is attributed to the function that
//     lexically encloses it, so calls made inside closures are edges
//     from the declaring function.
//
// Known approximation: package-level variable initializers (a function
// literal bound at init time) have no enclosing declaration and are not
// graphed; none of the repo's invariant surfaces live there.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Node is one declared function or method of the analyzed packages.
type Node struct {
	// Fn is the canonical go/types object (Origin for generics).
	Fn *types.Func
	// Pkg is the package the function is declared in.
	Pkg *Package
	// Decl is the declaration, including the body the rules walk.
	Decl *ast.FuncDecl
	// Name is the module-trimmed display name used in call chains:
	// "internal/core.SimulatePoint", "internal/serve.(*scheduler).admit".
	Name string
	// Rel is Pkg.Rel, denormalized for scope predicates.
	Rel string

	edges []Edge
	seen  map[*Node]bool
}

// Edge is one call (or captured-reference) edge to another node.
type Edge struct {
	To *Node
	// Pos is the first site inducing the edge, for diagnostics.
	Pos token.Pos
}

// CallGraph is the conservative static call graph over a package set.
type CallGraph struct {
	fset  *token.FileSet
	mod   string
	nodes map[*types.Func]*Node
	list  []*Node // deterministic order: package, file, position

	named []*types.Named // named types of the analyzed packages, sorted
}

// NewCallGraph builds the graph over pkgs. The package list should be
// the whole module for real runs (reachability is only as complete as
// the graph); fixture tests pass single packages.
func NewCallGraph(fset *token.FileSet, mod string, pkgs []*Package) *CallGraph {
	g := &CallGraph{fset: fset, mod: mod, nodes: map[*types.Func]*Node{}}
	for _, pkg := range pkgs {
		g.collectNamed(pkg)
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{Fn: obj, Pkg: pkg, Decl: fd, Rel: pkg.Rel,
					Name: g.trimName(obj), seen: map[*Node]bool{}}
				g.nodes[obj] = n
				g.list = append(g.list, n)
			}
		}
	}
	sort.Slice(g.named, func(i, j int) bool {
		a, b := g.named[i].Obj(), g.named[j].Obj()
		if a.Pkg().Path() != b.Pkg().Path() {
			return a.Pkg().Path() < b.Pkg().Path()
		}
		return a.Name() < b.Name()
	})
	for _, n := range g.list {
		g.addEdges(n)
	}
	return g
}

// Nodes returns every node in deterministic (package, position) order.
func (g *CallGraph) Nodes() []*Node { return g.list }

// Edges returns n's outgoing edges in discovery (source) order.
func (n *Node) Edges() []Edge { return n.edges }

// collectNamed records the package's named types for interface-dispatch
// fan-out.
func (g *CallGraph) collectNamed(pkg *Package) {
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() { // Names() is sorted
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok {
			g.named = append(g.named, named)
		}
	}
}

// trimName renders fn's full name with the module path stripped, so
// chains read "internal/core.SimulatePoint" regardless of module name.
func (g *CallGraph) trimName(fn *types.Func) string {
	name := fn.FullName()
	name = strings.ReplaceAll(name, g.mod+"/", "")
	// The root package's functions carry the bare module path.
	name = strings.TrimPrefix(name, g.mod+".")
	return name
}

// addEdges walks n's declaration and records an edge for every function
// the body could invoke.
func (n *Node) addEdge(to *Node, pos token.Pos) {
	if to == nil || to == n || n.seen[to] {
		return
	}
	n.seen[to] = true
	n.edges = append(n.edges, Edge{To: to, Pos: pos})
}

func (g *CallGraph) addEdges(n *Node) {
	if n.Decl.Body == nil {
		return
	}
	info := n.Pkg.Info
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		for _, target := range g.resolve(obj) {
			n.addEdge(target, id.Pos())
		}
		return true
	})
}

// resolve maps a used function object to the graph nodes it may invoke:
// the declared function itself, or — for an interface method — every
// satisfying method of the analyzed named types.
func (g *CallGraph) resolve(obj *types.Func) []*Node {
	obj = obj.Origin()
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return nil
	}
	recv := sig.Recv()
	if recv == nil || !types.IsInterface(recv.Type()) {
		if n := g.nodes[obj]; n != nil {
			return []*Node{n}
		}
		return nil
	}
	// Interface dispatch: fan out to every analyzed type whose method
	// set satisfies the interface the method belongs to.
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*Node
	for _, named := range g.named {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		m, _, _ := types.LookupFieldOrMethod(ptr, true, obj.Pkg(), obj.Name())
		impl, ok := m.(*types.Func)
		if !ok {
			continue
		}
		if n := g.nodes[impl.Origin()]; n != nil {
			out = append(out, n)
		}
	}
	return out
}

// CalleesOf resolves the static targets of one call expression against
// the graph: the declared callee, or the dispatch fan-out for a call
// through an interface method. Conversions and calls through dynamic
// function values resolve to nothing.
func (g *CallGraph) CalleesOf(info *types.Info, call *ast.CallExpr) []*Node {
	fn := ast.Unparen(call.Fun)
	var obj types.Object
	switch x := fn.(type) {
	case *ast.Ident:
		obj = info.Uses[x]
	case *ast.SelectorExpr:
		obj = info.Uses[x.Sel]
	default:
		return nil
	}
	f, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return g.resolve(f)
}
