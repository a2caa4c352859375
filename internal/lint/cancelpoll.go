package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Cancelpoll bounds cancellation latency: in any function reachable
// from the public enumeration entry points (Count, CountContext,
// Enumerate, EnumerateContext), a loop whose trip count is
// data-dependent and whose body can reach a cancellation poll must
// reach one on every path that completes an iteration. A poll is a
// call to a checkDeadline method/function or to ctx.Err/ctx.Done on a
// context.Context, directly or through any statically-known callee.
//
// The analysis is the shape of PR 4's tail-batch starvation bug: a
// poll guarded by a data-dependent condition (there, a counter residue
// the batch increments stepped over) leaves iteration paths that never
// observe cancellation. Paths that exit the loop (return, break,
// panic) need no poll — they hand control back. Loops that cannot
// reach a poll at all (pure kernels) and loops bounded by a
// compile-time constant are out of scope, as is everything not
// reachable from an entry point.
var Cancelpoll = &Analyzer{
	Name: "cancelpoll",
	Doc:  "loops reachable from Count/Enumerate must poll cancellation on every iteration path",
	Run:  runCancelpoll,
}

// entryNames are the public enumeration entry points the engine
// contract promises bounded cancellation latency for.
var entryNames = map[string]bool{
	"Count": true, "CountContext": true,
	"Enumerate": true, "EnumerateContext": true,
}

func runCancelpoll(m *Module) []Finding {
	g := m.CallGraph()

	// mayPoll: functions whose body contains a poll primitive, closed
	// upward over every edge kind (a function that takes a reference to
	// one that may poll counts as polling — the conservative direction
	// for "this statement satisfies the obligation").
	base := map[*types.Func]bool{}
	for _, fn := range g.Funcs() {
		n := g.Node(fn)
		has := false
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			if has {
				return false
			}
			if call, ok := x.(*ast.CallExpr); ok && isPollPrimitive(n.Pkg.Info, call) {
				has = true
			}
			return !has
		})
		if has {
			base[fn] = true
		}
	}
	mayPoll := propagateUp(g, EdgeAll, base)

	var entries []*types.Func
	for _, fn := range g.Funcs() {
		if entryNames[fn.Name()] {
			entries = append(entries, fn)
		}
	}
	reach := g.Reachable(entries, EdgeAll, func(n *Node) bool {
		return m.FuncIgnores(n.Decl, "cancelpoll")
	})

	var findings []Finding
	for _, fn := range g.Funcs() {
		if !reach[fn] {
			continue
		}
		n := g.Node(fn)
		a := &pollAnalysis{m: m, n: n, mayPoll: mayPoll}
		findings = append(findings, a.checkLoops()...)
	}
	return findings
}

// isPollPrimitive reports whether the call is a cancellation poll: any
// checkDeadline call (matched by name, the project's polling
// convention), or Err/Done on a context.Context.
func isPollPrimitive(info *types.Info, call *ast.CallExpr) bool {
	name := callName(call)
	if name == "checkDeadline" {
		return true
	}
	if name != "Err" && name != "Done" {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	named, ok := s.Recv().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

// pollAnalysis runs the per-loop path analysis inside one declaration.
type pollAnalysis struct {
	m       *Module
	n       *Node
	mayPoll map[*types.Func]bool
}

func (a *pollAnalysis) checkLoops() []Finding {
	var findings []Finding
	// loopLabels maps a loop statement to its label, for labeled
	// continues.
	loopLabels := map[ast.Stmt]string{}
	ast.Inspect(a.n.Decl.Body, func(x ast.Node) bool {
		if ls, ok := x.(*ast.LabeledStmt); ok {
			switch ls.Stmt.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				loopLabels[ls.Stmt] = ls.Label.Name
			}
		}
		return true
	})
	ast.Inspect(a.n.Decl.Body, func(x ast.Node) bool {
		var body *ast.BlockStmt
		perIterPolled := false
		switch loop := x.(type) {
		case *ast.ForStmt:
			if !a.dataDependentFor(loop) {
				return true
			}
			body = loop.Body
			// A poll in Cond or Post runs on every iteration boundary.
			perIterPolled = a.nodePolls(loop.Cond) || a.nodePolls(loop.Post)
		case *ast.RangeStmt:
			if !a.dataDependentRange(loop) {
				return true
			}
			body = loop.Body
		default:
			return true
		}
		// Out of scope unless the body can reach a poll at all.
		if !perIterPolled && !a.nodePolls(body) {
			return true
		}
		if perIterPolled {
			return true
		}
		r := a.flowStmts(body.List, false, nil, loopLabels[x.(ast.Stmt)])
		if (r.fall.reach && !r.fall.polledAll) || (r.cont.reach && !r.cont.polledAll) {
			findings = append(findings, a.n.Pkg.finding("cancelpoll", x,
				"data-dependent loop reachable from %s can complete an iteration without passing a cancellation poll; make every fall-through and continue path reach checkDeadline/ctx.Err", entryLabel()))
		}
		return true
	})
	return findings
}

func entryLabel() string { return "Count/Enumerate" }

// dataDependentFor reports whether a for statement's trip count is not
// bounded by a compile-time constant.
func (a *pollAnalysis) dataDependentFor(loop *ast.ForStmt) bool {
	if loop.Cond == nil {
		return true // for {} — unbounded by construction
	}
	bin, ok := ast.Unparen(loop.Cond).(*ast.BinaryExpr)
	if !ok {
		return true
	}
	isConst := func(e ast.Expr) bool {
		tv, ok := a.n.Pkg.Info.Types[e]
		return ok && tv.Value != nil
	}
	switch bin.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.NEQ:
		return !isConst(bin.X) && !isConst(bin.Y)
	}
	return true
}

// dataDependentRange reports whether a range statement's trip count is
// not bounded at compile time (ranging over an array or a constant
// integer is bounded; slices, maps, channels and ints are not).
func (a *pollAnalysis) dataDependentRange(loop *ast.RangeStmt) bool {
	info := a.n.Pkg.Info
	if tv, ok := info.Types[loop.X]; ok {
		if tv.Value != nil {
			return false // range over a constant (Go 1.22 int form)
		}
		switch t := tv.Type.Underlying().(type) {
		case *types.Array:
			return false
		case *types.Pointer:
			if _, ok := t.Elem().Underlying().(*types.Array); ok {
				return false
			}
		}
	}
	return true
}

// nodePolls reports whether the subtree contains a poll: a poll
// primitive or a call to a statically-known may-poll callee. Function
// literals are descended into — a closure created here plausibly runs
// here or on this path's behalf.
func (a *pollAnalysis) nodePolls(x ast.Node) bool {
	if x == nil {
		return false
	}
	info := a.n.Pkg.Info
	polls := false
	ast.Inspect(x, func(y ast.Node) bool {
		if polls {
			return false
		}
		call, ok := y.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPollPrimitive(info, call) {
			polls = true
			return false
		}
		if callee := staticCallee(info, call); callee != nil && a.mayPoll[callee] {
			polls = true
			return false
		}
		return true
	})
	return polls
}

// pathSet summarizes a set of control-flow paths arriving somewhere:
// whether any path arrives, and whether all arriving paths have passed
// a poll.
type pathSet struct {
	reach     bool
	polledAll bool
}

func (p *pathSet) add(polled bool) {
	if !p.reach {
		p.reach, p.polledAll = true, polled
	} else {
		p.polledAll = p.polledAll && polled
	}
}

func (p *pathSet) merge(q pathSet) {
	if q.reach {
		p.add(q.polledAll)
	}
}

// flowRes is the result of flowing through a statement (or list):
// fall — control falls past it; cont — control continues the analyzed
// loop from within it. Exits (return, loop break, panic) vanish: they
// do not complete an iteration, so they carry no poll obligation.
type flowRes struct {
	fall pathSet
	cont pathSet
}

// flowStmts flows a statement list. polled is the status on entry;
// brk, when non-nil, collects unlabeled breaks (we are inside a switch
// or select, where break does not exit the loop). label is the
// analyzed loop's label ("" if none) so labeled continues resolve.
func (a *pollAnalysis) flowStmts(stmts []ast.Stmt, polled bool, brk *pathSet, label string) flowRes {
	res := flowRes{}
	cur := pathSet{reach: true, polledAll: polled}
	for _, s := range stmts {
		if !cur.reach {
			break
		}
		r := a.flowStmt(s, cur.polledAll, brk, label)
		res.cont.merge(r.cont)
		cur = r.fall
	}
	res.fall = cur
	return res
}

// flowStmt flows one statement.
func (a *pollAnalysis) flowStmt(s ast.Stmt, polled bool, brk *pathSet, label string) flowRes {
	fallWith := func(p bool) flowRes {
		r := flowRes{}
		r.fall.add(p)
		return r
	}
	exit := func() flowRes { return flowRes{} }

	switch st := s.(type) {
	case *ast.BlockStmt:
		return a.flowStmts(st.List, polled, brk, label)

	case *ast.LabeledStmt:
		return a.flowStmt(st.Stmt, polled, brk, label)

	case *ast.ReturnStmt:
		return exit()

	case *ast.BranchStmt:
		switch st.Tok {
		case token.CONTINUE:
			if st.Label == nil || st.Label.Name == label {
				r := flowRes{}
				r.cont.add(polled)
				return r
			}
			return exit() // continue of an enclosing loop exits this one
		case token.BREAK:
			if st.Label == nil && brk != nil {
				brk.add(polled) // breaks the switch/select, not the loop
				return exit()
			}
			return exit() // exits the loop (or an enclosing construct)
		case token.GOTO:
			return exit() // conservative: treat as leaving the loop
		case token.FALLTHROUGH:
			// Approximate: end of this case's flow; the next case body
			// is analyzed on its own with the pre-switch status.
			return exit()
		}
		return fallWith(polled)

	case *ast.IfStmt:
		p := polled || a.nodePolls(st.Init) || a.nodePolls(st.Cond)
		then := a.flowStmts(st.Body.List, p, brk, label)
		var els flowRes
		if st.Else != nil {
			els = a.flowStmt(st.Else, p, brk, label)
		} else {
			els.fall.add(p)
		}
		then.fall.merge(els.fall)
		then.cont.merge(els.cont)
		return then

	case *ast.ForStmt, *ast.RangeStmt:
		// Nested loops are opaque: they may run zero iterations, so
		// polls inside them do not discharge this loop's obligation.
		// A labeled continue of the analyzed loop inside the nested
		// body is still an iteration ending here; conservatively
		// treat it as unpolled-at-entry.
		r := fallWith(polled || a.loopHeaderPolls(st))
		if label != "" && hasLabeledContinue(st, label) {
			r.cont.add(polled)
		}
		return r

	case *ast.SwitchStmt:
		p := polled || a.nodePolls(st.Init) || a.nodePolls(st.Tag)
		return a.flowCases(st.Body, p, label, true)

	case *ast.TypeSwitchStmt:
		p := polled || a.nodePolls(st.Init) || a.nodePolls(st.Assign)
		return a.flowCases(st.Body, p, label, true)

	case *ast.SelectStmt:
		// A select evaluates every comm operand before choosing a
		// clause, so a <-ctx.Done() case polls on every path through
		// the statement, including default.
		p := polled
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && a.nodePolls(cc.Comm) {
				p = true
			}
		}
		return a.flowCases(st.Body, p, label, false)

	default:
		// Leaf statement (expression, assignment, declaration, send,
		// go, defer, ...): check for panic/os.Exit termination, then
		// for polls anywhere in the statement.
		if terminates(a.n.Pkg.Info, s) {
			return exit()
		}
		return fallWith(polled || a.nodePolls(s))
	}
}

// loopHeaderPolls reports whether a nested loop's per-iteration header
// (cond/post) or once-evaluated range operand polls. Only the
// once-or-more evaluated parts count toward the enclosing path.
func (a *pollAnalysis) loopHeaderPolls(s ast.Stmt) bool {
	switch loop := s.(type) {
	case *ast.ForStmt:
		return a.nodePolls(loop.Init) || a.nodePolls(loop.Cond)
	case *ast.RangeStmt:
		return a.nodePolls(loop.X)
	}
	return false
}

// flowCases flows a switch/type-switch/select body: each clause is an
// alternative; unlabeled breaks inside land after the statement. A
// switch without a default can fall through untaken; a select always
// takes a clause.
func (a *pollAnalysis) flowCases(body *ast.BlockStmt, polled bool, label string, implicitFall bool) flowRes {
	res := flowRes{}
	var after pathSet // paths landing after the statement via break
	hasDefault := false
	for _, clause := range body.List {
		var stmts []ast.Stmt
		p := polled
		switch c := clause.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				if a.nodePolls(e) {
					p = true
				}
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
			p = p || a.nodePolls(c.Comm)
			stmts = c.Body
		}
		r := a.flowStmts(stmts, p, &after, label)
		res.fall.merge(r.fall)
		res.cont.merge(r.cont)
	}
	if implicitFall && !hasDefault {
		res.fall.add(polled)
	}
	res.fall.merge(after)
	return res
}

// hasLabeledContinue reports whether the subtree contains
// "continue label".
func hasLabeledContinue(n ast.Node, label string) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		if b, ok := x.(*ast.BranchStmt); ok && b.Tok == token.CONTINUE && b.Label != nil && b.Label.Name == label {
			found = true
		}
		return !found
	})
	return found
}

// terminates reports whether a leaf statement certainly does not fall
// through: a direct panic or os.Exit call.
func terminates(info *types.Info, s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	if builtinName(info, call) == "panic" {
		return true
	}
	if f := staticCallee(info, call); f != nil && f.Pkg() != nil {
		full := f.Pkg().Path() + "." + f.Name()
		return full == "os.Exit" || full == "runtime.Goexit"
	}
	return false
}
