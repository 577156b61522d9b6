package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file is the shared interprocedural substrate (DESIGN.md §8): a
// module-wide static call graph over go/types, built once per Module and
// reused by every cross-function check (detertaint, errdrop, lockflow).
// The precision contract, in order of decreasing certainty:
//
//   - Direct calls (pkg.F(), recv.M() on a concrete type) resolve exactly
//     to one callee.
//   - Interface method calls are over-approximated by the implements-set:
//     an edge to that method on every named type declared anywhere in the
//     module that implements the interface.
//   - Method values and function references outside call position (x.M
//     passed as a callback, OnJob: s.observeJob) become edges too: the
//     referencing function MAY cause the referenced one to run.
//   - Calls through function-typed values (params, fields, locals) cannot
//     be resolved at all and get no edge.
//
// Function literals are attributed to their enclosing declared function:
// a call made inside a closure is an edge from the function that declared
// the closure. References from package-level initializers belong to no
// function and are not tracked.

// callNode is one declared function or method of the module.
type callNode struct {
	fn   *types.Func
	pkg  *Package
	decl *ast.FuncDecl
	// edges holds n's may-call callees in source-encounter order
	// (deterministic).
	edges []*callNode
}

// label renders the node for diagnostics, module path elided:
// "(internal/service.*eventLog).journaled" or "internal/runner.keyOf".
func (n *callNode) label() string {
	full := n.fn.FullName()
	full = strings.ReplaceAll(full, n.pkg.ImportPath, n.pkg.Rel)
	if strings.HasPrefix(full, ".") { // root-package function
		full = strings.TrimPrefix(full, ".")
	}
	return full
}

// callGraph is the module-wide graph. Build with (*Module).graph(), which
// caches: every interprocedural check shares one instance.
type callGraph struct {
	nodes map[*types.Func]*callNode
	// funcs is in deterministic order: packages sorted by Rel, files in
	// FileNames order, declarations in source order.
	funcs []*callNode

	namedTypes []types.Type                // module named types, for implements-sets
	implCache  map[*types.Func][]*callNode // interface method -> implementing methods
}

// graph builds (once) and returns the module call graph.
func (m *Module) graph() *callGraph {
	if m.cg != nil {
		return m.cg
	}
	g := &callGraph{
		nodes:     map[*types.Func]*callNode{},
		implCache: map[*types.Func][]*callNode{},
	}
	// Pass 1: nodes for every declared function, and the named-type universe.
	for _, pkg := range m.Packages {
		if pkg.Info == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				g.namedTypes = append(g.namedTypes, tn.Type())
			}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				n := &callNode{fn: canonical(fn), pkg: pkg, decl: fd}
				g.nodes[n.fn] = n
				g.funcs = append(g.funcs, n)
			}
		}
	}
	// Pass 2: edges.
	for _, n := range g.funcs {
		g.buildEdges(n)
	}
	m.cg = g
	return g
}

// canonical maps generic instantiations back to their declared origin so
// node identity survives instantiation.
func canonical(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// buildEdges walks n's body (closures included) and records every call and
// function reference.
func (g *callGraph) buildEdges(n *callNode) {
	if n.decl.Body == nil {
		return
	}
	info := n.pkg.Info
	// Call-position expressions: the Fun of every CallExpr, parens peeled,
	// so a later reference walk can tell x.M() from x.M-as-value.
	callPos := map[ast.Expr]bool{}
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			callPos[peel(call.Fun)] = true
			g.addCallEdges(n, call)
		}
		return true
	})
	// References outside call position become edges too.
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.Ident:
			if callPos[e] {
				return true
			}
			if fn, ok := info.Uses[e].(*types.Func); ok {
				if callee := g.nodes[canonical(fn)]; callee != nil {
					n.edges = append(n.edges, callee)
				}
			}
		case *ast.SelectorExpr:
			if callPos[e] {
				return true
			}
			if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
				for _, callee := range g.resolveMethod(info, e, fn) {
					n.edges = append(n.edges, callee)
				}
			}
		}
		return true
	})
}

// addCallEdges classifies one call expression from n. Calls of builtins,
// conversions, function-typed values (params, fields, locals, f()(),
// m[k]()) get no edge; an immediately-invoked literal's body is walked as
// part of n.
func (g *callGraph) addCallEdges(n *callNode, call *ast.CallExpr) {
	info := n.pkg.Info
	switch fun := peel(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			if callee := g.nodes[canonical(fn)]; callee != nil {
				n.edges = append(n.edges, callee)
			}
		}
	case *ast.SelectorExpr:
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok {
			return
		}
		if sel := info.Selections[fun]; sel != nil && isInterface(sel.Recv()) {
			for _, callee := range g.implementors(n.pkg, sel.Recv(), fn) {
				n.edges = append(n.edges, callee)
			}
			return
		}
		if callee := g.nodes[canonical(fn)]; callee != nil {
			n.edges = append(n.edges, callee)
		}
	}
}

// resolveMethod maps a method selector to the callable nodes it may run:
// the concrete method for a concrete receiver, or the implements-set for
// an interface receiver.
func (g *callGraph) resolveMethod(info *types.Info, sel *ast.SelectorExpr, fn *types.Func) []*callNode {
	if s := info.Selections[sel]; s != nil && isInterface(s.Recv()) {
		return g.implementors(nil, s.Recv(), fn)
	}
	if callee := g.nodes[canonical(fn)]; callee != nil {
		return []*callNode{callee}
	}
	return nil
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// implementors over-approximates dynamic dispatch: every module-declared
// method that the interface method ifn may resolve to at runtime, assuming
// any module type implementing the interface can flow into the call.
func (g *callGraph) implementors(_ *Package, recv types.Type, ifn *types.Func) []*callNode {
	ifn = canonical(ifn)
	if cached, ok := g.implCache[ifn]; ok {
		return cached
	}
	iface, _ := recv.Underlying().(*types.Interface)
	var out []*callNode
	if iface != nil {
		for _, t := range g.namedTypes {
			var impl types.Type
			switch {
			case types.Implements(t, iface):
				impl = t
			case types.Implements(types.NewPointer(t), iface):
				impl = types.NewPointer(t)
			default:
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(impl, true, ifn.Pkg(), ifn.Name())
			m, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if callee := g.nodes[canonical(m)]; callee != nil {
				out = append(out, callee)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].label() < out[j].label() })
	g.implCache[ifn] = out
	return out
}

func peel(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr: // generic instantiation F[T](...)
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return e
		}
	}
}

// staticCallee resolves a call's target to a single declared function:
// direct calls and concrete method calls only. Interface dispatch,
// builtins, conversions and function values return nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := peel(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok {
			return nil
		}
		if s := info.Selections[fun]; s != nil && isInterface(s.Recv()) {
			return nil
		}
		return fn
	}
	return nil
}

// nodeOf returns the graph node for a declared function object, or nil.
func (g *callGraph) nodeOf(fn *types.Func) *callNode {
	if fn == nil {
		return nil
	}
	return g.nodes[canonical(fn)]
}

// closure computes the reflexive-transitive "can reach" set of the
// directly-marked base: member[n] is true when n is in base or some call
// path (unresolvable calls have no edge, so they do NOT extend the set) from
// n lands in base. why[n] renders the first-discovered path for
// diagnostics, e.g. "calls (internal/store.*FS).Put, which calls os.Rename".
func (g *callGraph) closure(base map[*callNode]string) (member map[*callNode]bool, why map[*callNode]string) {
	member = map[*callNode]bool{}
	why = map[*callNode]string{}
	for n, reason := range base {
		member[n] = true
		why[n] = reason
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.funcs { // deterministic sweep order
			if member[n] {
				continue
			}
			for _, callee := range n.edges {
				if member[callee] {
					member[n] = true
					why[n] = fmt.Sprintf("calls %s, which %s", callee.label(), why[callee])
					changed = true
					break
				}
			}
		}
	}
	return member, why
}
