package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// checkLockFlow enforces mutex hygiene across the module:
//
//   - no blocking operation while a mutex is held: channel send/receive,
//     select without default, WaitGroup/Cond.Wait, time.Sleep, file and
//     network IO — directly or through any module call chain (the blocks
//     summary is a call-graph closure, so a helper that ends in
//     os.ReadDir is as guilty as the syscall itself);
//   - no double-lock: re-locking a held mutex directly, or calling a
//     method that locks a receiver field already held.
//
// A mutex copied by value is go vet's copylocks check, which ci.sh runs
// first.
//
// Precision limits (deliberate): branch lock-state is snapshot-restored
// (a lock taken inside an if body is considered released after it);
// log/slog calls are not classified as blocking (logging under a lock is
// accepted); calls through function-typed values are not classified at
// all. `go` statements run concurrently, so their bodies start with an
// empty lock set; other function literals execute synchronously and
// inherit the current set. Test files are exempt.
func checkLockFlow(m *Module) []Finding {
	g := m.graph()

	// blocks: which module functions can block, with why-chains.
	direct := map[*callNode]string{}
	for _, n := range g.funcs {
		if n.decl.Body == nil {
			continue
		}
		if op := firstBlockingOp(n); op != "" {
			direct[n] = "can block (" + op + ")"
		}
	}
	blocks, why := g.closure(direct)

	// locksSelf: receiver fields a method locks directly; locksGlobal:
	// package-level mutexes a function locks directly. One level deep —
	// enough for the helper-method double-lock shape.
	locksSelf := map[*callNode]map[string]bool{}
	locksGlobal := map[*callNode]map[types.Object]bool{}
	for _, n := range g.funcs {
		self, global := directLocks(n)
		if len(self) > 0 {
			locksSelf[n] = self
		}
		if len(global) > 0 {
			locksGlobal[n] = global
		}
	}

	var out []Finding
	for _, n := range g.funcs {
		lw := &lockWalker{
			m: m, g: g, n: n,
			blocks: blocks, blocksWhy: why,
			locksSelf: locksSelf, locksGlobal: locksGlobal,
			held: map[lockID]token.Pos{},
		}
		out = append(out, lw.run()...)
	}
	return out
}

// lockID identifies one mutex expression: root object plus field path
// ("s" + ".mu", or a package-level var with empty path).
type lockID struct {
	obj  types.Object
	path string
}

func (id lockID) String() string { return id.obj.Name() + id.path }

type lockWalker struct {
	m           *Module
	g           *callGraph
	n           *callNode
	blocks      map[*callNode]bool
	blocksWhy   map[*callNode]string
	locksSelf   map[*callNode]map[string]bool
	locksGlobal map[*callNode]map[types.Object]bool

	held     map[lockID]token.Pos
	findings []Finding
}

func (lw *lockWalker) run() []Finding {
	if lw.n.decl.Body == nil {
		return nil
	}
	lw.stmt(lw.n.decl.Body)
	return lw.findings
}

func (lw *lockWalker) snapshot() map[lockID]token.Pos {
	s := make(map[lockID]token.Pos, len(lw.held))
	for k, v := range lw.held {
		s[k] = v
	}
	return s
}

func (lw *lockWalker) restore(s map[lockID]token.Pos) { lw.held = s }

func (lw *lockWalker) holding() bool { return len(lw.held) > 0 }

// heldNames renders the held set deterministically for messages.
func (lw *lockWalker) heldNames() string {
	names := make([]string, 0, len(lw.held))
	for id := range lw.held {
		names = append(names, id.String())
	}
	sort.Strings(names)
	out := ""
	for i, s := range names {
		if i > 0 {
			out += ", "
		}
		out += s
	}
	return out
}

func (lw *lockWalker) report(pos token.Pos, format string, args ...any) {
	lw.findings = append(lw.findings, lw.m.finding(pos, "lockflow", format, args...))
}

func (lw *lockWalker) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		for _, s2 := range st.List {
			lw.stmt(s2)
		}
	case *ast.LabeledStmt:
		lw.stmt(st.Stmt)
	case *ast.ExprStmt:
		lw.expr(st.X)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			lw.expr(e)
		}
		for _, e := range st.Lhs {
			lw.expr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						lw.expr(v)
					}
				}
			}
		}
	case *ast.IfStmt:
		if st.Init != nil {
			lw.stmt(st.Init)
		}
		lw.expr(st.Cond)
		snap := lw.snapshot()
		lw.stmt(st.Body)
		lw.restore(snap)
		if st.Else != nil {
			snap = lw.snapshot()
			lw.stmt(st.Else)
			lw.restore(snap)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			lw.stmt(st.Init)
		}
		if st.Cond != nil {
			lw.expr(st.Cond)
		}
		snap := lw.snapshot()
		lw.stmt(st.Body)
		if st.Post != nil {
			lw.stmt(st.Post)
		}
		lw.restore(snap)
	case *ast.RangeStmt:
		if t := lw.n.pkg.Info.TypeOf(st.X); t != nil && isChanType(t) && lw.holding() {
			lw.report(st.Pos(), "%s held across range over a channel: a stalled sender wedges every other lock acquirer", lw.heldNames())
		}
		lw.expr(st.X)
		snap := lw.snapshot()
		lw.stmt(st.Body)
		lw.restore(snap)
	case *ast.SwitchStmt:
		if st.Init != nil {
			lw.stmt(st.Init)
		}
		if st.Tag != nil {
			lw.expr(st.Tag)
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				lw.expr(e)
			}
			snap := lw.snapshot()
			for _, s2 := range cc.Body {
				lw.stmt(s2)
			}
			lw.restore(snap)
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			lw.stmt(st.Init)
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			snap := lw.snapshot()
			for _, s2 := range cc.Body {
				lw.stmt(s2)
			}
			lw.restore(snap)
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range st.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault && lw.holding() {
			lw.report(st.Pos(), "%s held across select with no default: the select can block indefinitely with the lock held", lw.heldNames())
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			// Comm statements are the select's own blocking points —
			// already accounted for above, so not re-scanned.
			snap := lw.snapshot()
			for _, s2 := range cc.Body {
				lw.stmt(s2)
			}
			lw.restore(snap)
		}
	case *ast.SendStmt:
		if lw.holding() {
			lw.report(st.Pos(), "%s held across channel send: a full channel blocks with the lock held", lw.heldNames())
		}
		lw.expr(st.Chan)
		lw.expr(st.Value)
	case *ast.DeferStmt:
		// defer x.Unlock() keeps the lock to function end: no change to
		// the held set. Other deferred calls are walked with the current
		// set (they may run while locks are still held).
		if id, op := lw.lockOp(st.Call); id != nil && (op == "Unlock" || op == "RUnlock") {
			return
		}
		lw.expr(st.Call)
	case *ast.GoStmt:
		// The goroutine runs without the spawner's locks.
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			saved := lw.held
			lw.held = map[lockID]token.Pos{}
			lw.stmt(lit.Body)
			lw.held = saved
		}
		for _, arg := range st.Call.Args {
			lw.expr(arg)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			lw.expr(e)
		}
	case *ast.IncDecStmt:
		lw.expr(st.X)
	}
}

// expr scans an expression for lock transitions, blocking operations and
// double-locks, in source order.
func (lw *lockWalker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.FuncLit:
			// Synchronous literal (sort.Slice comparator, sync.OnceFunc):
			// runs with the current lock set.
			lw.stmt(x.Body)
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && lw.holding() {
				lw.report(x.Pos(), "%s held across channel receive: an idle sender blocks with the lock held", lw.heldNames())
			}
		case *ast.CallExpr:
			lw.callExpr(x)
		}
		return true
	})
}

func (lw *lockWalker) callExpr(call *ast.CallExpr) {
	info := lw.n.pkg.Info
	// Lock transitions.
	if id, op := lw.lockOp(call); id != nil {
		switch op {
		case "Lock", "RLock":
			if prev, ok := lw.held[*id]; ok {
				lw.report(call.Pos(), "%s locked again while already held (previous %s at %s): guaranteed self-deadlock on a sync.Mutex",
					id, op, lw.m.Fset.Position(prev))
			}
			lw.held[*id] = call.Pos()
		case "Unlock", "RUnlock":
			delete(lw.held, *id)
		}
		return
	}
	if !lw.holding() {
		return
	}
	// External blocking table.
	if op := blockingCall(info, call); op != "" {
		lw.report(call.Pos(), "%s held across %s: blocking IO under a mutex stalls every contender (move the IO outside the critical section)",
			lw.heldNames(), op)
		return
	}
	// Module calls: blocking summaries and helper double-locks.
	fn := staticCallee(info, call)
	if fn == nil {
		return
	}
	node := lw.g.nodeOf(fn)
	if node == nil {
		return
	}
	if lw.blocks[node] {
		lw.report(call.Pos(), "%s held across call to %s, which %s: blocking work under a mutex stalls every contender",
			lw.heldNames(), node.label(), lw.blocksWhy[node])
	}
	// Double-lock through a method: x.M() where M locks x.<field> we hold.
	if self := lw.locksSelf[node]; len(self) > 0 {
		if sel, ok := peel(call.Fun).(*ast.SelectorExpr); ok {
			if obj, path := pathOf(info, sel.X); obj != nil {
				for fieldPath := range self {
					if prev, ok := lw.held[lockID{obj, path + fieldPath}]; ok {
						lw.report(call.Pos(), "call to %s locks %s%s, already held (locked at %s): self-deadlock",
							node.label(), lockID{obj, path}.String(), fieldPath, lw.m.Fset.Position(prev))
					}
				}
			}
		}
	}
	for g := range lw.locksGlobal[node] {
		if prev, ok := lw.held[lockID{g, ""}]; ok {
			lw.report(call.Pos(), "call to %s locks %s, already held (locked at %s): self-deadlock",
				node.label(), g.Name(), lw.m.Fset.Position(prev))
		}
	}
}

// lockOp classifies a call as Lock/RLock/Unlock/RUnlock on a sync mutex,
// returning the lock identity.
func (lw *lockWalker) lockOp(call *ast.CallExpr) (*lockID, string) {
	sel, ok := peel(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, ""
	}
	info := lw.n.pkg.Info
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || !isSyncMutex(recvNamed(fn)) {
		return nil, ""
	}
	obj, path := pathOf(info, sel.X)
	if obj == nil {
		return nil, ""
	}
	return &lockID{obj, path}, name
}

func isSyncMutex(n *types.Named) bool {
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" && (n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
}

// firstBlockingOp scans a body for the first directly-blocking operation
// (for the blocks-summary base set).
func firstBlockingOp(n *callNode) string {
	info := n.pkg.Info
	op := ""
	var visit func(node ast.Node) bool
	visit = func(node ast.Node) bool {
		if op != "" {
			return false
		}
		switch x := node.(type) {
		case *ast.SendStmt:
			op = "channel send"
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				op = "channel receive"
			}
		case *ast.SelectStmt:
			// A select with a default never blocks; its comm statements
			// are the select's to classify, not free-standing ops. Case
			// bodies still count.
			hasDefault := false
			for _, c := range x.Body.List {
				if c.(*ast.CommClause).Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				op = "select"
				return false
			}
			for _, c := range x.Body.List {
				for _, s := range c.(*ast.CommClause).Body {
					ast.Inspect(s, visit)
				}
			}
			return false
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil && isChanType(t) {
				op = "range over channel"
			}
		case *ast.CallExpr:
			op = blockingCall(info, x)
		}
		return op == ""
	}
	ast.Inspect(n.decl.Body, visit)
	return op
}

// blockingCall classifies an external call as potentially blocking.
// log/slog and fmt stream printers are deliberately absent (accepted
// noise), as is os.Remove's cleanup sibling set — the table is about
// operations that can stall indefinitely or hit the disk.
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	path := fn.Pkg().Path()
	name := fn.Name()
	if recv := recvNamed(fn); recv != nil {
		rp := ""
		if recv.Obj().Pkg() != nil {
			rp = recv.Obj().Pkg().Path()
		}
		switch {
		case rp == "os" && recv.Obj().Name() == "File":
			switch name {
			case "Read", "ReadAt", "Write", "WriteString", "WriteAt", "Sync", "Close", "Seek", "Truncate":
				return "(*os.File)." + name
			}
		case rp == "sync" && name == "Wait":
			return "sync." + recv.Obj().Name() + ".Wait"
		case rp == "net" || rp == "net/http":
			return rp + " IO (." + name + ")"
		}
		return ""
	}
	switch path {
	case "os":
		switch name {
		case "Open", "OpenFile", "Create", "ReadFile", "WriteFile", "ReadDir",
			"Rename", "Remove", "RemoveAll", "Mkdir", "MkdirAll", "Stat", "Lstat", "Truncate", "Chmod":
			return "os." + name
		}
	case "time":
		if name == "Sleep" {
			return "time.Sleep"
		}
	case "io":
		switch name {
		case "Copy", "CopyN", "ReadAll", "ReadFull", "WriteString":
			return "io." + name
		}
	case "net", "net/http", "os/exec":
		return path + "." + name
	}
	return ""
}

// directLocks reports the receiver mutex fields and package-level mutexes
// a function locks anywhere in its body.
func directLocks(n *callNode) (self map[string]bool, global map[types.Object]bool) {
	if n.decl.Body == nil {
		return nil, nil
	}
	info := n.pkg.Info
	var recvObj types.Object
	if n.decl.Recv != nil && len(n.decl.Recv.List) == 1 && len(n.decl.Recv.List[0].Names) == 1 {
		recvObj = info.Defs[n.decl.Recv.List[0].Names[0]]
	}
	self = map[string]bool{}
	global = map[types.Object]bool{}
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := peel(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || !isSyncMutex(recvNamed(fn)) {
			return true
		}
		obj, path := pathOf(info, sel.X)
		switch {
		case obj == nil:
		case obj == recvObj && path != "":
			self[path] = true
		case path == "" && obj.Parent() != nil && obj.Parent().Parent() == types.Universe:
			global[obj] = true // package-scope mutex
		}
		return true
	})
	if len(self) == 0 {
		self = nil
	}
	if len(global) == 0 {
		global = nil
	}
	return self, global
}
