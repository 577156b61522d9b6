package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// deterSpec names detertaint's sources and sinks (DESIGN.md §8). Sources
// are ambient-nondeterminism entry points; sinks are the result-bearing
// surfaces the byte-identical contracts protect. Components missing from
// a module (fixtures for other checks) simply disable their sinks.
// Randomness has no entry here: math/rand is fenced off at the import
// level by the layering table.
var deterSpec = struct {
	// Result sinks: both taint kinds.
	simRel, resultType  string // assignments into sim.Result fields
	statsRel, tableType string // stats.Table method arguments
	serviceRel          string // event journal methods...
	journalType         string
	journalMethods      map[string]bool
	// Emission sinks, order taint only: fmt.Print*/Fprint*, Write* methods
	// of io.Writer implementations, and methods of obsRel's types.
	obsRel string
	// Sources.
	timeFuncs map[string]bool
	osFuncs   map[string]bool
}{
	simRel: "internal/sim", resultType: "Result",
	statsRel: "internal/stats", tableType: "Table",
	serviceRel:  "internal/service",
	journalType: "eventLog",
	// ephemeral/state events deliberately carry wall-clock timestamps and
	// are never journaled (DESIGN.md §10); only the durable journal verbs
	// are sinks.
	journalMethods: map[string]bool{"journaled": true, "sweepStarted": true, "row": true, "sweepDone": true},
	obsRel:         "internal/obs",
	timeFuncs:      map[string]bool{"Now": true, "Since": true, "Until": true},
	osFuncs:        map[string]bool{"Getenv": true, "Getpid": true, "Environ": true, "Hostname": true},
}

// deterAnalysis is the per-module detertaint run: resolved sink types,
// the call graph, and the interprocedural summaries.
type deterAnalysis struct {
	m    *Module
	g    *callGraph
	sums *taintSummaries

	resultNamed  *types.Named
	tableNamed   *types.Named
	journalNamed *types.Named

	emitting bool
	findings []Finding
	seen     map[string]bool
	changed  bool
}

// checkDeterTaint is the registered check: interprocedural taint from
// ambient sources (wall clock, environment) and map iteration order to
// deterministic-output sinks (sim.Result fields, stats.Table cells, CSV
// and event-journal bytes, the memo fingerprint), plus map order to
// emission sinks (printing, io.Writer output, obs events). A wrapper
// returning time.Now() is caught any number of call hops away from the
// sink; the simulated world's flat ban on the host clock is a layering
// rule.
func checkDeterTaint(m *Module) []Finding {
	a := &deterAnalysis{m: m, g: m.graph(), sums: newTaintSummaries(), seen: map[string]bool{}}
	a.resultNamed = namedIn(m, deterSpec.simRel, deterSpec.resultType)
	a.tableNamed = namedIn(m, deterSpec.statsRel, deterSpec.tableType)
	a.journalNamed = namedIn(m, deterSpec.serviceRel, deterSpec.journalType)

	// Fixpoint over ret/paramSink summaries: monotone, bounded by the
	// kind-bit lattice, so it terminates; the cap is a safety net.
	for round := 0; round < 16; round++ {
		a.changed = false
		for _, n := range a.g.funcs {
			a.summarize(n)
		}
		if !a.changed {
			break
		}
	}
	// Emission pass: empty initial state, report sinks reached.
	a.emitting = true
	for _, n := range a.g.funcs {
		fs := &funcScan{a: a, n: n, state: taintState{}}
		fs.onSink = func(pos token.Pos, sink string, v taintVal) {
			if v.kind&(taintAmbient|taintOrder) == 0 {
				return
			}
			a.report(pos, sink, v)
		}
		fs.run()
	}
	return a.findings
}

func namedIn(m *Module, rel, name string) *types.Named {
	pkg := m.ByRel(rel)
	if pkg == nil || pkg.Types == nil {
		return nil
	}
	obj := pkg.Types.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	n, _ := obj.Type().(*types.Named)
	return n
}

func (a *deterAnalysis) report(pos token.Pos, sink string, v taintVal) {
	f := a.m.finding(pos, "detertaint", "value derived from %s reaches %s: %s", v.why, sink,
		"results, reports, journaled events and memo fingerprints must be pure functions of sim.Config, and no output may follow map iteration order")
	key := fmt.Sprintf("%s:%d:%d:%s", f.File, f.Line, f.Col, f.Message)
	if a.seen[key] {
		return
	}
	a.seen[key] = true
	a.findings = append(a.findings, f)
}

// summarize recomputes n's ret and paramSink summaries, merging upward.
func (a *deterAnalysis) summarize(n *callNode) {
	if n.decl.Body == nil {
		return
	}
	// Return-taint scan: empty initial state.
	var ret taintVal
	fs := &funcScan{a: a, n: n, state: taintState{}, retOut: &ret}
	fs.run()
	old := a.sums.ret[n]
	merged := old.or(ret)
	if merged.kind != old.kind {
		a.sums.ret[n] = merged
		a.changed = true
	}
	// Parameter-sink scans: one per parameter, marker taint injected.
	// Functions that ARE named sinks are excluded — calls to them are
	// classified directly, and scanning them would double-report.
	if a.sinkName(n.fn) != "" {
		return
	}
	params := funcParams(n)
	if len(params) == 0 {
		return
	}
	ps := a.sums.paramSink[n]
	why := a.sums.paramSinkWhy[n]
	if ps == nil {
		ps = make([]taintKind, len(params))
		why = make([]string, len(params))
		a.sums.paramSink[n] = ps
		a.sums.paramSinkWhy[n] = why
	}
	for i, p := range params {
		if p == nil || ps[i] == taintAmbient|taintOrder {
			continue // already maximal
		}
		st := taintState{}
		st.write(p, "", taintVal{kind: taintMarkA | taintMarkO, why: "parameter " + p.Name()})
		pfs := &funcScan{a: a, n: n, state: st}
		pfs.onSink = func(pos token.Pos, sink string, v taintVal) {
			var k taintKind
			if v.kind&taintMarkA != 0 {
				k |= taintAmbient
			}
			if v.kind&taintMarkO != 0 {
				k |= taintOrder
			}
			if k&^ps[i] != 0 {
				ps[i] |= k
				why[i] = sink
				a.changed = true
			}
		}
		pfs.run()
	}
}

// recvNamed returns the (pointer-elided) named receiver type of a method.
func recvNamed(fn *types.Func) *types.Named {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	if n != nil {
		n = n.Origin()
	}
	return n
}

// checkResultSink fires when an assignment target passes through a
// sim.Result field: `res.Stamp = v`, `rep.Results[i].Cycles = v`, ....
func (a *deterAnalysis) checkResultSink(fs *funcScan, lhs ast.Expr, v taintVal) {
	if a.resultNamed == nil || fs.onSink == nil || v.kind == 0 {
		return
	}
	if field := a.resultField(fs.info(), lhs); field != "" {
		fs.onSink(lhs.Pos(), "sim."+deterSpec.resultType+" field "+field, v)
	}
}

// resultField walks a selector chain looking for a step whose base is
// (a pointer to) sim.Result, returning the field name selected from it.
func (a *deterAnalysis) resultField(info *types.Info, e ast.Expr) string {
	for {
		switch x := peel2(e).(type) {
		case *ast.SelectorExpr:
			if t := info.TypeOf(x.X); t != nil && derefNamed(t) == a.resultNamed {
				return x.Sel.Name
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return ""
		}
	}
}

func derefNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	if n != nil {
		n = n.Origin()
	}
	return n
}

// call evaluates a call expression: classify ambient sources, apply order
// sanitizers, propagate through module summaries, and test every sink.
func (fs *funcScan) call(call *ast.CallExpr) taintVal {
	a, info := fs.a, fs.info()
	fun := peel(call.Fun)

	// Resolve the called function: fn is the declared function or method
	// (interface methods included, for sink classification); callee is fn
	// only when the call dispatches statically.
	var fn, callee *types.Func
	var sel *ast.SelectorExpr
	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[f].(type) {
		case *types.Func:
			fn, callee = obj, obj
		case *types.Builtin:
			return fs.builtinCall(obj, call)
		case *types.TypeName:
			return fs.evalArgs(call) // conversion
		}
	case *ast.SelectorExpr:
		sel = f
		if obj, ok := info.Uses[f.Sel].(*types.Func); ok {
			fn = obj
			if s := info.Selections[f]; s == nil || !isInterface(s.Recv()) {
				callee = obj
			}
		}
	case *ast.FuncLit:
		fs.stmt(f.Body)
		return fs.evalArgs(call)
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return fs.evalArgs(call) // conversion through a non-ident type expr
	}

	// Receiver + argument taint. Order survives calls (string building,
	// formatting, append-like helpers are order-preserving).
	argVal := fs.evalArgs(call)
	var recvVal taintVal
	if sel != nil {
		if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			recvVal = fs.eval(sel.X)
		}
	}
	in := argVal.or(recvVal)

	if callee != nil {
		// Ambient sources.
		if src := sourceName(callee); src != "" {
			return in.or(taintVal{kind: taintAmbient, why: src})
		}
		// Order sanitizers: sort.X(s) / slices.Sort*(s) clear order taint on s.
		if isSortCall(callee) {
			for _, arg := range call.Args {
				if obj, path := pathOf(info, arg); obj != nil {
					fs.state.sanitizeOrder(obj, path)
				}
			}
			return in.stripOrder()
		}
	}

	// Sinks: one report per call, at the first tainted argument. A sink
	// called inside a map-range body runs once per entry in iteration
	// order, so it is order-tainted even when its arguments are clean.
	if fs.onSink != nil && fn != nil {
		if sink, kinds := a.sinkOf(info, sel, fn); sink != "" {
			var v taintVal
			pos := call.Pos()
			for _, arg := range call.Args {
				if av := fs.eval(arg).only(kinds); av.kind != 0 {
					if v.kind == 0 {
						pos = arg.Pos()
					}
					v = v.or(av)
				}
			}
			if v = v.or(fs.mapOrder.only(kinds)); v.kind != 0 {
				fs.onSink(pos, sink, v)
			}
		} else if node := a.g.nodeOf(callee); node != nil {
			fs.applyParamSinks(call, node)
		}
	}

	if callee == nil {
		// Unknown callee (function value / interface dispatch): result is
		// whatever flowed in; tainted args vanishing into unknown callees
		// are a documented precision limit.
		return in
	}

	// Result taint: callee's return summary plus whatever flowed in.
	if node := a.g.nodeOf(callee); node != nil {
		ret := a.sums.ret[node]
		if ret.kind != 0 {
			why := ret.why
			if !strings.Contains(why, node.label()) {
				why += " (via " + node.label() + ")"
			}
			return in.or(taintVal{kind: ret.kind, why: why})
		}
	}
	return in
}

// applyParamSinks tests a call against the callee's parameter-sink
// summaries, translating caller-side taint kinds through the summary.
func (fs *funcScan) applyParamSinks(call *ast.CallExpr, node *callNode) {
	a := fs.a
	ps := a.sums.paramSink[node]
	if len(ps) == 0 {
		return
	}
	args := callArgs(fs.info(), call, node)
	idxs := make([]int, 0, len(args))
	for i := range args {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		if i >= len(ps) || ps[i] == 0 {
			continue
		}
		v := fs.eval(args[i])
		var hit taintKind
		if ps[i]&taintAmbient != 0 {
			hit |= v.kind & (taintAmbient | taintMarkA)
		}
		if ps[i]&taintOrder != 0 {
			hit |= v.kind & (taintOrder | taintMarkO)
		}
		if hit != 0 {
			sink := fmt.Sprintf("%s via %s (argument %d)", a.sums.paramSinkWhy[node][i], node.label(), i)
			fs.onSink(args[i].Pos(), sink, taintVal{kind: hit, why: v.why})
		}
	}
}

func (fs *funcScan) evalArgs(call *ast.CallExpr) taintVal {
	var v taintVal
	for _, arg := range call.Args {
		v = v.or(fs.eval(arg))
	}
	return v
}

func (fs *funcScan) builtinCall(b *types.Builtin, call *ast.CallExpr) taintVal {
	switch b.Name() {
	case "len", "cap":
		// Sizes are order-insensitive and not ambient.
		for _, arg := range call.Args {
			fs.eval(arg)
		}
		return taintVal{}
	default: // append, copy, min, max, ...
		return fs.evalArgs(call)
	}
}

// sourceName classifies an external call as an ambient source.
func sourceName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		if deterSpec.timeFuncs[fn.Name()] {
			return "time." + fn.Name()
		}
	case "os":
		if deterSpec.osFuncs[fn.Name()] {
			return "os." + fn.Name()
		}
	}
	return ""
}

// sinkOf classifies a called function as a sink, returning its description
// and the taint kinds it rejects. Result sinks reject both kinds. Emission
// sinks reject only order taint: logs, diagnostics and the metrics side of
// obs may carry wall-clock readings, but nothing may come out in map order.
func (a *deterAnalysis) sinkOf(info *types.Info, sel *ast.SelectorExpr, fn *types.Func) (string, taintKind) {
	if sink := a.sinkName(fn); sink != "" {
		return sink, taintAmbient | taintOrder
	}
	if sink := a.emissionName(info, sel, fn); sink != "" {
		return sink, taintOrder
	}
	return "", 0
}

// emissionName classifies a call as order-sensitive output: fmt.Print* /
// fmt.Fprint*, a Write* method on an io.Writer, or a method of a type
// declared in the obs package.
func (a *deterAnalysis) emissionName(info *types.Info, sel *ast.SelectorExpr, fn *types.Func) string {
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		return "fmt." + fn.Name()
	}
	if sel == nil {
		return ""
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return ""
	}
	recv := s.Recv()
	if strings.HasPrefix(fn.Name(), "Write") && implementsWriter(recv) {
		return "io.Writer output (" + types.TypeString(recv, nil) + ")." + fn.Name()
	}
	if n := derefNamed(recv); n != nil && n.Obj().Pkg() != nil {
		if rel, ok := a.m.relOf(n.Obj().Pkg().Path()); ok && rel == deterSpec.obsRel {
			return "obs event emission ." + fn.Name()
		}
	}
	return ""
}

// writerIface is io.Writer, constructed structurally so the check needs no
// import of the io package from the target module.
var writerIface = func() *types.Interface {
	params := types.NewTuple(types.NewVar(token.NoPos, nil, "p", types.NewSlice(types.Typ[types.Byte])))
	results := types.NewTuple(
		types.NewVar(token.NoPos, nil, "n", types.Typ[types.Int]),
		types.NewVar(token.NoPos, nil, "err", types.Universe.Lookup("error").Type()),
	)
	sig := types.NewSignatureType(nil, nil, nil, params, results, false)
	return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Write", sig)}, nil).Complete()
}()

func implementsWriter(t types.Type) bool {
	return types.Implements(t, writerIface) || types.Implements(types.NewPointer(t), writerIface)
}

// sinkName classifies a function as a named result sink.
func (a *deterAnalysis) sinkName(fn *types.Func) string {
	if recv := recvNamed(fn); recv != nil {
		switch {
		case a.tableNamed != nil && recv == a.tableNamed:
			return "stats." + deterSpec.tableType + "." + fn.Name() + " (report cell)"
		case a.journalNamed != nil && recv == a.journalNamed && deterSpec.journalMethods[fn.Name()]:
			return "the durable event journal (" + deterSpec.journalType + "." + fn.Name() + ")"
		case recv.Obj().Pkg() != nil && recv.Obj().Pkg().Path() == "encoding/csv" &&
			(fn.Name() == "Write" || fn.Name() == "WriteAll"):
			return "encoding/csv output"
		}
		return ""
	}
	if fn.Pkg() != nil {
		if rel, ok := a.m.relOf(fn.Pkg().Path()); ok && rel == memoKeyRel && slices.Contains(memoKeySurface, fn.Name()) {
			return "the memo fingerprint (" + memoKeyRel + "." + fn.Name() + ")"
		}
	}
	return ""
}

func isSortCall(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		return true
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}
