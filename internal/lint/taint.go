package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Forward value-taint lattice for detertaint (DESIGN.md §8). Two taint
// kinds flow through the module:
//
//   - ambient: the value derives from a wall-clock read or the process
//     environment. Ambient taint survives every operation — hashing,
//     arithmetic, formatting — because any function of a
//     nondeterministic input is nondeterministic.
//   - order: the value derives from map iteration order. Order taint dies
//     at order-insensitive operations: numeric arithmetic (commutative
//     aggregation over a map is deterministic), stores into map cells,
//     and sort.*/slices.Sort* calls on the carrying slice. It survives
//     order-preserving moves: append, string concatenation, formatting.
//
// Two extra marker bits (markA, markO) exist only inside summary
// computation: they trace a function parameter through the body with
// ambient-like and order-like propagation respectively, so paramSink
// summaries know which caller-side taint kinds actually reach a sink.
//
// Precision choices (deliberate, documented):
//   - Taint is field-sensitive: keys are (root object, field path).
//     Writing r.wallMs does not taint r.out, and reading the whole struct
//     r does not pick up field taints — aliasing through struct copies is
//     out of scope. This is what keeps the runner's wall-clock telemetry
//     (r.wallMs, logged and observed but never emitted) from flooding
//     every report table with false positives.
//   - A call with a tainted argument or receiver returns a tainted value
//     (a wrapper cannot launder taint), but passing a tainted value to a
//     function-typed parameter (unknown callee) is not tracked.
//   - The walk is flow-insensitive across branches and two-pass per body
//     for loop-carried taint; reassigning a variable to a clean value
//     kills its taint.

type taintKind uint8

const (
	taintAmbient taintKind = 1 << iota
	taintOrder
	taintMarkA // parameter marker with ambient propagation
	taintMarkO // parameter marker with order propagation
)

// orderLike are the bits killed by order-insensitive operations.
const orderLike = taintOrder | taintMarkO

// taintVal is a kind set plus the human-readable provenance of the
// first-discovered source ("time.Now", "map iteration order", ...).
type taintVal struct {
	kind taintKind
	why  string
}

func (v taintVal) or(o taintVal) taintVal {
	out := taintVal{kind: v.kind | o.kind, why: v.why}
	if out.why == "" {
		out.why = o.why
	}
	return out
}

// only keeps the bits a sink rejecting kinds (ambient and/or order) cares
// about, marker twins included.
func (v taintVal) only(kinds taintKind) taintVal {
	var keep taintKind
	if kinds&taintAmbient != 0 {
		keep |= taintAmbient | taintMarkA
	}
	if kinds&taintOrder != 0 {
		keep |= orderLike
	}
	v.kind &= keep
	if v.kind == 0 {
		v.why = ""
	}
	return v
}

func (v taintVal) stripOrder() taintVal {
	v.kind &^= orderLike
	if v.kind == 0 {
		v.why = ""
	}
	return v
}

// taintKey addresses one tainted location: a root variable plus a field
// path ("" for the whole variable, ".wallMs", ".out.Cells", ...). Index
// steps collapse into the base path.
type taintKey struct {
	obj  types.Object
	path string
}

type taintState map[taintKey]taintVal

// read returns the taint of (obj, path): tainted iff some entry's path is
// a prefix of the read path (reading at or below a tainted location).
func (s taintState) read(obj types.Object, path string) taintVal {
	var out taintVal
	for k, v := range s {
		if k.obj != obj {
			continue
		}
		if strings.HasPrefix(path, k.path) {
			out = out.or(v)
		}
	}
	return out
}

// write replaces the taint at (obj, path), killing entries at or below it
// first — assignment is a strong update.
func (s taintState) write(obj types.Object, path string, v taintVal) {
	for k := range s {
		if k.obj == obj && strings.HasPrefix(k.path, path) {
			delete(s, k)
		}
	}
	if v.kind != 0 {
		s[taintKey{obj, path}] = v
	}
}

// merge unions v into (obj, path) without killing anything.
func (s taintState) merge(obj types.Object, path string, v taintVal) {
	if v.kind == 0 {
		return
	}
	k := taintKey{obj, path}
	s[k] = s[k].or(v)
}

// sanitizeOrder clears order-like bits at and below (obj, path) — the
// effect of sorting the slice rooted there.
func (s taintState) sanitizeOrder(obj types.Object, path string) {
	for k, v := range s {
		if k.obj == obj && strings.HasPrefix(k.path, path) {
			nv := v.stripOrder()
			if nv.kind == 0 {
				delete(s, k)
			} else {
				s[k] = nv
			}
		}
	}
}

// taintSummaries holds the module-wide fixpoint results.
type taintSummaries struct {
	// ret is the taint of a function's return values (marker bits
	// stripped): "calling this function yields an ambient/order value".
	ret map[*callNode]taintVal
	// paramSink[n][i] is the caller-side taint kinds which, if passed as
	// parameter i (receiver first for methods), reach a sink inside n or
	// its callees. paramSinkWhy names that sink.
	paramSink    map[*callNode][]taintKind
	paramSinkWhy map[*callNode][]string
}

func newTaintSummaries() *taintSummaries {
	return &taintSummaries{
		ret:          map[*callNode]taintVal{},
		paramSink:    map[*callNode][]taintKind{},
		paramSinkWhy: map[*callNode][]string{},
	}
}

// funcParams lists a node's parameter objects, receiver first.
func funcParams(n *callNode) []types.Object {
	var out []types.Object
	sig := n.fn.Type().(*types.Signature)
	if r := sig.Recv(); r != nil {
		out = append(out, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// callArgs pairs up a call's argument expressions with the callee's
// parameter indices (receiver first): for a method call the receiver
// expression is index 0. Variadic tails all map to the last parameter.
func callArgs(info *types.Info, call *ast.CallExpr, callee *callNode) map[int]ast.Expr {
	out := map[int]ast.Expr{}
	base := 0
	sig := callee.fn.Type().(*types.Signature)
	if sig.Recv() != nil {
		base = 1
		if sel, ok := peel(call.Fun).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
				out[0] = sel.X
			}
		}
	}
	nparam := sig.Params().Len()
	for i, arg := range call.Args {
		idx := base + i
		if max := base + nparam - 1; idx > max {
			idx = max // variadic tail
		}
		out[idx] = arg
	}
	return out
}

// pathOf resolves an lvalue-shaped expression to (root object, field
// path). Index, star and paren steps collapse into the base; anything
// rooted in a call or literal has no addressable root (nil).
func pathOf(info *types.Info, e ast.Expr) (types.Object, string) {
	switch x := e.(type) {
	case *ast.Ident:
		if obj := info.Uses[x]; obj != nil {
			return obj, ""
		}
		return info.Defs[x], ""
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				return info.Uses[x.Sel], "" // qualified package-level var
			}
		}
		obj, path := pathOf(info, x.X)
		if obj == nil {
			return nil, ""
		}
		return obj, path + "." + x.Sel.Name
	case *ast.IndexExpr:
		return pathOf(info, x.X)
	case *ast.StarExpr:
		return pathOf(info, x.X)
	case *ast.ParenExpr:
		return pathOf(info, x.X)
	}
	return nil, ""
}

// isStringType reports whether t's core type is string (order taint
// survives string concatenation, unlike numeric arithmetic).
func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// funcScan walks one function body propagating taint. The same walker
// serves three modes: ret-summary (collect return taint), param-summary
// (inject marker taint at one parameter, watch sinks), and emit (initial
// state empty, report every sink reached by real taint).
type funcScan struct {
	a     *deterAnalysis
	n     *callNode
	state taintState
	// onSink receives every sink hit: the sink description and the taint
	// that reached it.
	onSink func(pos token.Pos, sink string, v taintVal)
	// retOut accumulates return-value taint when non-nil.
	retOut *taintVal
	// mapOrder is the order taint of the enclosing map-range bodies: the
	// control dependence of every call made inside them.
	mapOrder taintVal
	// mapBody is the innermost enclosing map-range body, or nil.
	mapBody *ast.BlockStmt
}

func (fs *funcScan) info() *types.Info { return fs.n.pkg.Info }

// run walks the body twice so loop-carried taint from a first pass is
// visible on the second.
func (fs *funcScan) run() {
	if fs.n.decl.Body == nil {
		return
	}
	fs.stmt(fs.n.decl.Body)
	fs.stmt(fs.n.decl.Body)
}

func (fs *funcScan) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		for _, s2 := range st.List {
			fs.stmt(s2)
		}
	case *ast.LabeledStmt:
		fs.stmt(st.Stmt)
	case *ast.ExprStmt:
		fs.eval(st.X)
	case *ast.AssignStmt:
		fs.assign(st)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var v taintVal
					if len(vs.Values) == len(vs.Names) {
						v = fs.eval(vs.Values[i])
					} else if len(vs.Values) == 1 {
						v = fs.eval(vs.Values[0])
					}
					if obj := fs.info().Defs[name]; obj != nil {
						fs.state.write(obj, "", v)
					}
				}
			}
		}
	case *ast.IfStmt:
		if st.Init != nil {
			fs.stmt(st.Init)
		}
		fs.eval(st.Cond)
		fs.stmt(st.Body)
		if st.Else != nil {
			fs.stmt(st.Else)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			fs.stmt(st.Init)
		}
		if st.Cond != nil {
			fs.eval(st.Cond)
		}
		fs.stmt(st.Body)
		if st.Post != nil {
			fs.stmt(st.Post)
		}
	case *ast.RangeStmt:
		fs.rangeStmt(st)
	case *ast.SwitchStmt:
		if st.Init != nil {
			fs.stmt(st.Init)
		}
		if st.Tag != nil {
			fs.eval(st.Tag)
		}
		fs.stmt(st.Body)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			fs.stmt(st.Init)
		}
		fs.stmt(st.Assign)
		fs.stmt(st.Body)
	case *ast.SelectStmt:
		fs.stmt(st.Body)
	case *ast.CaseClause:
		for _, e := range st.List {
			fs.eval(e)
		}
		for _, s2 := range st.Body {
			fs.stmt(s2)
		}
	case *ast.CommClause:
		if st.Comm != nil {
			fs.stmt(st.Comm)
		}
		for _, s2 := range st.Body {
			fs.stmt(s2)
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			v := fs.eval(r)
			if fs.retOut != nil {
				// Marker bits are parameter-provenance, not real taint;
				// ret summaries carry only genuine kinds.
				v.kind &^= taintMarkA | taintMarkO
				if v.kind != 0 {
					*fs.retOut = fs.retOut.or(v)
				}
			}
		}
	case *ast.GoStmt:
		fs.eval(st.Call)
	case *ast.DeferStmt:
		fs.eval(st.Call)
	case *ast.SendStmt:
		fs.eval(st.Chan)
		fs.eval(st.Value)
	case *ast.IncDecStmt:
		fs.eval(st.X)
	}
}

func (fs *funcScan) rangeStmt(st *ast.RangeStmt) {
	base := fs.eval(st.X)
	t := fs.info().TypeOf(st.X)
	var loopVar taintVal
	outer, outerBody := fs.mapOrder, fs.mapBody
	switch {
	case t != nil && isMapType(t):
		order := taintVal{kind: taintOrder, why: "map iteration order"}
		loopVar = base.or(order)
		fs.mapOrder, fs.mapBody = order, st.Body
	case t != nil && isChanType(t):
		loopVar = taintVal{}
	default:
		loopVar = base // slice/array/string element inherits base taint
	}
	for _, e := range []ast.Expr{st.Key, st.Value} {
		if e == nil {
			continue
		}
		if obj, path := pathOf(fs.info(), e); obj != nil {
			fs.state.write(obj, path, loopVar)
		}
	}
	fs.stmt(st.Body)
	fs.mapOrder, fs.mapBody = outer, outerBody
}

func isMapType(t types.Type) bool  { _, ok := t.Underlying().(*types.Map); return ok }
func isChanType(t types.Type) bool { _, ok := t.Underlying().(*types.Chan); return ok }

func (fs *funcScan) assign(st *ast.AssignStmt) {
	info := fs.info()
	// Right-hand values, pairwise or tuple.
	vals := make([]taintVal, len(st.Lhs))
	if len(st.Rhs) == len(st.Lhs) {
		for i, r := range st.Rhs {
			vals[i] = fs.eval(r)
		}
	} else if len(st.Rhs) == 1 {
		v := fs.eval(st.Rhs[0])
		for i := range vals {
			vals[i] = v
		}
	}
	for i, lhs := range st.Lhs {
		v := vals[i]
		if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
			fs.floatAccumulate(st.Tok, lhs)
			// Compound assignment: x op= rhs reads x too; numeric ops are
			// order-insensitive, string += is order-preserving.
			old := fs.eval(lhs)
			v = v.or(old)
			if !(st.Tok == token.ADD_ASSIGN && isStringType(info.TypeOf(lhs))) {
				v = v.stripOrder()
			}
		}
		fs.a.checkResultSink(fs, lhs, v)
		if ix, ok := peel2(lhs).(*ast.IndexExpr); ok {
			// Store through an index: taint the container. A map cell is an
			// order-insensitive destination; a slice position is not.
			if bt := info.TypeOf(ix.X); bt != nil && isMapType(bt) {
				v = v.stripOrder()
			}
			if obj, path := pathOf(info, ix.X); obj != nil {
				fs.state.merge(obj, path, v)
			}
			continue
		}
		if obj, path := pathOf(info, lhs); obj != nil {
			fs.state.write(obj, path, v)
		}
	}
}

// floatAccumulate reports a float x op= y inside a map-range body: float
// arithmetic is not associative, so the accumulated value's rounding
// follows the iteration order, whether it then reaches a sink by value or
// only steers control flow (a loop bound, an integer quota). Two targets
// are exempt: a map cell, since the usual shape updates each key's own
// cell once (a cell several keys add into is a known blind spot, DESIGN.md
// §8); and a variable declared inside the innermost map-range body, which
// starts afresh on every iteration and so sums in one key's order.
func (fs *funcScan) floatAccumulate(tok token.Token, lhs ast.Expr) {
	info := fs.info()
	if !fs.a.emitting || fs.mapOrder.kind == 0 || !isFloatType(info.TypeOf(lhs)) {
		return
	}
	if ix, ok := peel2(lhs).(*ast.IndexExpr); ok {
		if bt := info.TypeOf(ix.X); bt != nil && isMapType(bt) {
			return
		}
	}
	if obj, _ := pathOf(info, lhs); obj != nil && obj.Pos() >= fs.mapBody.Pos() && obj.Pos() < fs.mapBody.End() {
		return
	}
	fs.a.report(lhs.Pos(), "a float "+tok.String()+" accumulator, whose rounding follows the order", fs.mapOrder)
}

func isFloatType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func peel2(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// eval computes the taint of an expression, recording sink hits for calls.
func (fs *funcScan) eval(e ast.Expr) taintVal {
	if e == nil {
		return taintVal{}
	}
	info := fs.info()
	switch x := e.(type) {
	case *ast.BasicLit:
		return taintVal{}
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if obj == nil {
			return taintVal{}
		}
		return fs.state.read(obj, "")
	case *ast.SelectorExpr:
		if obj, path := pathOf(info, x); obj != nil {
			return fs.state.read(obj, path)
		}
		// Field of a call result etc.: taint of the base.
		return fs.eval(x.X)
	case *ast.CallExpr:
		return fs.call(x)
	case *ast.BinaryExpr:
		v := fs.eval(x.X).or(fs.eval(x.Y))
		if x.Op == token.ADD && isStringType(info.TypeOf(x)) {
			return v // string concatenation preserves order sensitivity
		}
		return v.stripOrder()
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return taintVal{} // channel receive: contents unknown
		}
		return fs.eval(x.X)
	case *ast.StarExpr:
		return fs.eval(x.X)
	case *ast.ParenExpr:
		return fs.eval(x.X)
	case *ast.IndexExpr:
		return fs.eval(x.X)
	case *ast.IndexListExpr:
		return fs.eval(x.X)
	case *ast.SliceExpr:
		return fs.eval(x.X)
	case *ast.TypeAssertExpr:
		return fs.eval(x.X)
	case *ast.CompositeLit:
		var v taintVal
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = v.or(fs.eval(kv.Value))
				continue
			}
			v = v.or(fs.eval(elt))
		}
		return v
	case *ast.KeyValueExpr:
		return fs.eval(x.Value)
	case *ast.FuncLit:
		fs.stmt(x.Body) // closure body propagates in the enclosing frame
		return taintVal{}
	}
	return taintVal{}
}
