package analysis

import (
	"go/ast"
	"go/types"
)

// TraceImmutableAnalyzer enforces the PR 1 immutability contract: a
// trace.Trace is frozen once Generate returns, because the sweep engine
// shares one instance across concurrent pipeline runs and caches traces
// process-wide. Outside internal/trace, no code may assign to, append
// into, increment, or copy into a Trace field — variants must clone
// (trace.Trace.WithPrefetchCoverage is the model). The same holds for
// the instruction stream every clone shares: no element write, append
// or copy into a stream column, whether reached through a field of
// trace.Columns or trace.ConsumerIndex, a slice an accessor of those
// types returns, or a local bound to one of those.
func TraceImmutableAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "traceimmutable",
		Doc:  "no writes to trace.Trace fields or stream columns outside internal/trace: shared traces are immutable by contract",
		Appl: func(rel string) bool { return rel != "internal/trace" },
		Run:  runTraceImmutable,
	}
}

func runTraceImmutable(p *Pass) {
	report := func(sel *ast.SelectorExpr, how string) {
		p.Reportf(sel.Pos(), "%s trace.Trace field %s outside internal/trace; traces are shared and immutable — clone the trace instead (see Trace.WithPrefetchCoverage)", how, sel.Sel.Name)
	}
	for _, f := range p.Pkg.Files {
		cols := columnLocals(p, f)
		// column reports a write through e if e (an element's slice, or
		// append's and copy's first argument) aliases a stream column.
		column := func(e ast.Expr, how string) {
			if name, ok := streamColumn(p, e, cols); ok {
				p.Reportf(e.Pos(), "%s trace stream column %s outside internal/trace; every clone of a trace shares its stream — copy the column first", how, name)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					if sel := traceFieldRoot(p, lhs); sel != nil {
						report(sel, "assignment to")
					} else if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
						column(ix.X, "assignment into")
					}
				}
			case *ast.IncDecStmt:
				if sel := traceFieldRoot(p, st.X); sel != nil {
					report(sel, "increment of")
				} else if ix, ok := ast.Unparen(st.X).(*ast.IndexExpr); ok {
					column(ix.X, "increment in")
				}
			case *ast.CallExpr:
				if id, ok := st.Fun.(*ast.Ident); ok && len(st.Args) > 0 {
					if b, ok := p.Pkg.Info.Uses[id].(*types.Builtin); ok {
						switch b.Name() {
						case "copy":
							if sel := traceFieldRoot(p, st.Args[0]); sel != nil {
								report(sel, "copy into")
							} else {
								column(st.Args[0], "copy into")
							}
						case "append":
							column(st.Args[0], "append into")
						}
					}
				}
			}
			return true
		})
	}
}

// streamColumn reports whether e, after parentheses and reslicing, is a
// slice aliasing a trace's stream — a field of trace.Columns or
// trace.ConsumerIndex, a slice one of their methods returns, or a local
// in cols — and names it.
func streamColumn(p *Pass, e ast.Expr, cols map[types.Object]bool) (string, bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.Ident:
			return x.Name, cols[p.Pkg.Info.ObjectOf(x)]
		case *ast.SelectorExpr:
			sel, ok := p.Pkg.Info.Selections[x]
			return x.Sel.Name, ok && sel.Kind() == types.FieldVal && isStreamView(p, sel.Recv())
		case *ast.CallExpr:
			fn, ok := x.Fun.(*ast.SelectorExpr)
			if !ok {
				return "", false
			}
			sel, ok := p.Pkg.Info.Selections[fn]
			if !ok || sel.Kind() != types.MethodVal || !isStreamView(p, sel.Recv()) {
				return "", false
			}
			_, slice := p.Pkg.Info.TypeOf(x).Underlying().(*types.Slice)
			return fn.Sel.Name + "()", slice
		default:
			return "", false
		}
	}
}

// isStreamView reports whether t is one of internal/trace's views of the
// shared stream.
func isStreamView(p *Pass, t types.Type) bool {
	return p.isModType(t, "internal/trace", "Columns") || p.isModType(t, "internal/trace", "ConsumerIndex")
}

// columnLocals returns the variables of f bound to a stream column, by
// definition or assignment, so a write through an alias such as
// `flags := tr.Columns().Flags` is caught too. Aliases of aliases are
// followed to a fixed point; columns passed as arguments are not.
func columnLocals(p *Pass, f *ast.File) map[types.Object]bool {
	cols := map[types.Object]bool{}
	bind := func(lhs, rhs ast.Expr) bool {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return false
		}
		obj := p.Pkg.Info.ObjectOf(id)
		if obj == nil || cols[obj] {
			return false
		}
		if _, ok := streamColumn(p, rhs, cols); !ok {
			return false
		}
		cols[obj] = true
		return true
	}
	for grew := true; grew; {
		grew = false
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) == len(st.Rhs) {
					for i := range st.Lhs {
						grew = bind(st.Lhs[i], st.Rhs[i]) || grew
					}
				}
			case *ast.ValueSpec:
				if len(st.Names) == len(st.Values) {
					for i := range st.Names {
						grew = bind(st.Names[i], st.Values[i]) || grew
					}
				}
			}
			return true
		})
	}
	return cols
}

// traceFieldRoot peels index, slice, deref and paren wrappers off an
// lvalue and returns the innermost selector that reads a field of
// trace.Trace, if the lvalue writes through one.
func traceFieldRoot(p *Pass, e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel, ok := p.Pkg.Info.Selections[x]; ok && sel.Kind() == types.FieldVal && p.isModType(sel.Recv(), "internal/trace", "Trace") {
				return x
			}
			e = x.X
		default:
			return nil
		}
	}
}

// isModType reports whether t (possibly behind a pointer) is the named
// type relDir.name of module mod.
func isModType(mod string, t types.Type, relDir, name string) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == mod+"/"+relDir && obj.Name() == name
}

func (p *Pass) isModType(t types.Type, relDir, name string) bool {
	return isModType(p.Mod, t, relDir, name)
}
