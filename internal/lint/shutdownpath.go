// The shutdownpath analyzer generalizes goleak from "the goroutine
// terminates" to "the goroutine terminates promptly on shutdown". Every
// deliberate worker must now declare its lifecycle in the directive:
//
//	// conflint:worker lifecycle=<chan> <reason>   stops when <chan> closes
//	// conflint:worker lifecycle=none <reason>     never blocks at all
//	// conflint:worker lifecycle=external <reason> stopped by an external
//	                                               mechanism (http server
//	                                               Shutdown, process exit)
//
// For lifecycle=<chan>, every blocking operation reachable from the
// worker body must be guarded by the lifecycle channel on all paths:
// ranging over the channel, receiving from it, or selecting with a case
// that receives from it (or with a default). An unguarded block — a bare
// send, a receive from some other channel, a default-less select with no
// lifecycle case, a WaitGroup.Wait, a blocking stdlib serve loop — would
// keep the worker alive after shutdown closes its channel, which is
// exactly the hang the gateway's drain contract forbids.
//
// The analysis is interprocedural: per-function "may block" summaries
// (first blocking operation, with the witness chain that reaches it)
// are driven to a fixpoint over the call graph, so a worker calling a
// helper that calls Runner.Each sees the send buried two frames down.
// A blocking operation under a reasoned conflint:ignore is exempt at
// its source — the ignore expresses "this send is provably bounded",
// and every transitive report through it disappears with it.
//
// Conservatism: unresolvable callees are assumed non-blocking, nested
// go statements and uncalled function literals are their own spawn
// sites' problem, and mutex acquisitions are lockcheck's department.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// ShutdownPath returns the worker shutdown-path analyzer.
func ShutdownPath() *Analyzer {
	return &Analyzer{
		Name:  "shutdownpath",
		Doc:   "every conflint:worker must declare lifecycle=<chan>|none|external, and all its blocking ops must be guarded by that lifecycle",
		Check: func(p *Package) []Finding { return p.Mod.interprocFindings(p, "shutdownpath", shutdownPathModule) },
	}
}

// workerInfo is one parsed conflint:worker directive.
type workerInfo struct {
	lifecycle string // channel name, "none", "external", or "" (undeclared)
	reason    string // the human reason, lifecycle token stripped
}

// parseWorkerDirective splits a directive's rest-string into the
// lifecycle token (first field, when prefixed lifecycle=) and reason.
func parseWorkerDirective(rest string) workerInfo {
	fields := strings.Fields(rest)
	if len(fields) > 0 {
		if lc, ok := strings.CutPrefix(fields[0], "lifecycle="); ok {
			return workerInfo{lifecycle: lc, reason: strings.Join(fields[1:], " ")}
		}
	}
	return workerInfo{reason: rest}
}

// scanWorkerInfo collects parsed worker directives: line -> info.
func scanWorkerInfo(fset *token.FileSet, f *File) map[int]workerInfo {
	out := make(map[int]workerInfo)
	for line, rest := range scanWorkers(fset, f) {
		out[line] = parseWorkerDirective(rest)
	}
	return out
}

// blockInfo is one function's may-block summary: the first blocking
// operation in source order, with the witness chain reaching it.
type blockInfo struct {
	pos   token.Pos
	why   string // the ultimate reason ("sends on jobs", "waits on wg")
	steps []string
}

const maxBlockSteps = 8

// spState is the module-wide shutdownpath fixpoint state.
type spState struct {
	m      *Module
	blocks map[string]*blockInfo
}

// ignored reports whether a reasoned conflint:ignore covers a position,
// marking the directive used (shutdownpath consumes directives at
// source level, before finishRun's suppression pass, so it must feed
// stale-ignore detection itself).
func (sp *spState) ignored(pos token.Pos) bool {
	p := sp.m.Fset.Position(pos)
	info, line, ok := sp.m.ignoreAt(p.Filename, p.Line)
	if !ok || info.reason == "" {
		return false
	}
	sp.m.noteIgnoreUsed(p.Filename, line)
	return true
}

// lastSelName returns the final name of an expression ("as.trigger" ->
// "trigger"), the currency lifecycle channels are matched in: the
// spawner writes `lifecycle=trigger` and both `as.trigger` in a literal
// body and `w.trigger` in a named worker method match it.
func lastSelName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.ParenExpr:
		return lastSelName(e.X)
	case *ast.CallExpr:
		// <-ctx.Done(): match on the method name.
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			return sel.Sel.Name
		}
	}
	return ""
}

// commReceivesFrom reports whether a select clause receives from the
// named lifecycle channel.
func commReceivesFrom(cc *ast.CommClause, name string) bool {
	var rhs ast.Expr
	switch c := cc.Comm.(type) {
	case *ast.ExprStmt:
		rhs = c.X
	case *ast.AssignStmt:
		if len(c.Rhs) == 1 {
			rhs = c.Rhs[0]
		}
	}
	u, ok := rhs.(*ast.UnaryExpr)
	if !ok || u.Op != token.ARROW {
		return false
	}
	return lastSelName(u.X) == name
}

// scanBlocking walks one body (go statements and function literals
// skipped: their blocking is their own spawn/call site's problem),
// reporting each unguarded blocking operation. lifecycle is the guard
// channel name ("" or "none" guard nothing), and hit receives the op's
// position, ultimate reason, and witness chain.
func (sp *spState) scanBlocking(fd *funcDecl, body ast.Node, lifecycle string, hit func(pos token.Pos, why string, steps []string)) {
	m := sp.m
	guardName := lifecycle
	if guardName == "none" || guardName == "external" {
		guardName = ""
	}
	direct := func(pos token.Pos, why string) {
		if sp.ignored(pos) {
			return
		}
		hit(pos, why, []string{m.stepf(pos, "%s", why)})
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			hasDefault, guarded := false, false
			for _, cl := range s.Body.List {
				cc, ok := cl.(*ast.CommClause)
				if !ok {
					continue
				}
				if cc.Comm == nil {
					hasDefault = true
					continue
				}
				if guardName != "" && commReceivesFrom(cc, guardName) {
					guarded = true
				}
			}
			if !hasDefault && !guarded {
				direct(s.Pos(), describeSelect(lifecycle))
			}
			// The comm operations belong to the select; only the clause
			// bodies can block on their own.
			for _, cl := range s.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok {
					for _, st := range cc.Body {
						ast.Inspect(st, walk)
					}
				}
			}
			return false
		case *ast.SendStmt:
			direct(s.Arrow, fmt.Sprintf("sends on %s with no lifecycle guard", exprString(m.Fset, s.Chan)))
			return true
		case *ast.UnaryExpr:
			if s.Op != token.ARROW {
				return true
			}
			if guardName != "" && lastSelName(s.X) == guardName {
				return true // receiving from the lifecycle IS the guard
			}
			direct(s.OpPos, fmt.Sprintf("receives from %s with no lifecycle guard", exprString(m.Fset, s.X)))
			return true
		case *ast.RangeStmt:
			if fd.pkg.isChan(s.X) {
				if guardName == "" || lastSelName(s.X) != guardName {
					direct(s.Pos(), fmt.Sprintf("ranges over channel %s, which is not the lifecycle channel", exprString(m.Fset, s.X)))
				}
			}
			return true
		case *ast.CallExpr:
			sp.checkCall(fd, s, hit)
			return true
		}
		return true
	}
	ast.Inspect(body, walk)
}

func describeSelect(lifecycle string) string {
	if lifecycle == "" || lifecycle == "none" || lifecycle == "external" {
		return "blocks in a select with no default case"
	}
	return fmt.Sprintf("blocks in a select with no default and no case receiving from lifecycle channel %s", lifecycle)
}

// checkCall reports blocking calls: known-blocking stdlib serve loops,
// sync.WaitGroup.Wait, and module callees whose summary may block.
func (sp *spState) checkCall(fd *funcDecl, call *ast.CallExpr, hit func(pos token.Pos, why string, steps []string)) {
	m := sp.m
	if sp.ignored(call.Pos()) {
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if path, name := fd.pkg.qualified(sel); path != "" {
			if name, ok := blockingStdlibFuncs[path+"."+name]; ok {
				hit(call.Pos(), fmt.Sprintf("blocks in %s until an external shutdown", name),
					[]string{m.stepf(call.Pos(), "blocks in %s", name)})
			}
			return
		}
		tk := fd.pkg.typeKey(sel.X)
		if methods, ok := blockingStdlibMethods[tk]; ok && methods[sel.Sel.Name] {
			hit(call.Pos(), fmt.Sprintf("blocks in %s.%s until an external shutdown", tk, sel.Sel.Name),
				[]string{m.stepf(call.Pos(), "blocks in %s.%s", tk, sel.Sel.Name)})
			return
		}
		if sel.Sel.Name == "Wait" && tk == "sync.WaitGroup" {
			hit(call.Pos(), fmt.Sprintf("waits on %s with no lifecycle guard", exprString(m.Fset, sel.X)),
				[]string{m.stepf(call.Pos(), "waits on %s", exprString(m.Fset, sel.X))})
			return
		}
	}
	key := m.calleeKey(fd.pkg, call)
	if key == "" {
		return
	}
	if b := sp.blocks[key]; b != nil {
		steps := append([]string{m.stepf(call.Pos(), "calls %s", m.shortKey(key))}, b.steps...)
		if len(steps) > maxBlockSteps {
			steps = steps[:maxBlockSteps]
		}
		hit(call.Pos(), b.why, steps)
	}
}

// summarize recomputes one function's may-block summary; true on change.
func (sp *spState) summarize(key string) bool {
	if sp.blocks[key] != nil {
		return false // monotone: the first-found block is kept
	}
	node := sp.m.Graph().Node(key)
	if node == nil || node.Fn == nil || node.Fn.decl.Body == nil {
		return false
	}
	var found *blockInfo
	sp.scanBlocking(node.Fn, node.Fn.decl.Body, "", func(pos token.Pos, why string, steps []string) {
		if found == nil || pos < found.pos {
			found = &blockInfo{pos: pos, why: why, steps: steps}
		}
	})
	if found != nil {
		sp.blocks[key] = found
		return true
	}
	return false
}

// shutdownPathModule runs the analysis: may-block summaries to a
// fixpoint, then a check of every annotated worker spawn site.
func shutdownPathModule(m *Module) []Finding {
	sp := &spState{m: m, blocks: make(map[string]*blockInfo)}
	g := m.Graph()
	m.fixpoint("shutdownpath", g.Keys(), nil, sp.summarize)

	var out []Finding
	fset := m.Fset
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			workers := scanWorkerInfo(fset, f)
			if len(workers) == 0 {
				continue
			}
			for _, fn := range fileFuncs(f) {
				fd := &funcDecl{pkg: p, file: f, decl: fn}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					gs, ok := n.(*ast.GoStmt)
					if !ok {
						return true
					}
					pos := fset.Position(gs.Pos())
					info, ok := workerAtInfo(workers, pos.Line)
					if !ok {
						return true
					}
					out = append(out, checkWorkerSite(sp, fd, gs, info, pos)...)
					return true
				})
			}
		}
	}
	return out
}

func workerAtInfo(workers map[int]workerInfo, line int) (workerInfo, bool) {
	if w, ok := workers[line]; ok {
		return w, true
	}
	if w, ok := workers[line-1]; ok {
		return w, true
	}
	return workerInfo{}, false
}

// checkWorkerSite validates one annotated spawn: the directive must
// declare a lifecycle and a reason, and for channel lifecycles every
// blocking op reachable from the body must be guarded.
func checkWorkerSite(sp *spState, fd *funcDecl, gs *ast.GoStmt, info workerInfo, pos token.Position) []Finding {
	m := sp.m
	if info.lifecycle == "" && info.reason == "" {
		return nil // a fully bare directive is goleak's finding
	}
	var out []Finding
	if info.lifecycle == "" {
		return []Finding{{
			Rule: "shutdownpath", File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Message: "conflint:worker must declare its shutdown mechanism: lifecycle=<chan> (stops when the channel closes), lifecycle=none (never blocks), or lifecycle=external (stopped externally)",
			Hint:    "name the channel the worker's blocking ops are guarded by, e.g. // conflint:worker lifecycle=trigger <reason>",
		}}
	}
	if info.reason == "" {
		out = append(out, Finding{
			Rule: "shutdownpath", File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Message: "conflint:worker needs a reason beyond the lifecycle token (// conflint:worker lifecycle=... <why this worker exists>)",
			Hint:    "state what the worker does and who stops it",
		})
	}
	if info.lifecycle == "external" {
		return out // shutdown is somebody else's provable contract
	}
	var body ast.Node
	workerFd := fd
	if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
		body = lit.Body
	} else if key := m.calleeKey(fd.pkg, gs.Call); key != "" {
		if node := m.Graph().Node(key); node != nil && node.Fn != nil && node.Fn.decl.Body != nil {
			workerFd = node.Fn
			body = node.Fn.decl.Body
		}
	}
	if body == nil {
		return out // unresolvable spawn target: conservative silence
	}
	sp.scanBlocking(workerFd, body, info.lifecycle, func(opPos token.Pos, why string, steps []string) {
		p := m.Fset.Position(opPos)
		witness := append([]string{m.stepf(gs.Pos(), "worker spawned (lifecycle=%s)", info.lifecycle)}, steps...)
		if len(witness) > maxBlockSteps {
			witness = witness[:maxBlockSteps]
		}
		out = append(out, Finding{
			Rule: "shutdownpath", File: p.Filename, Line: p.Line, Col: p.Column,
			Message: fmt.Sprintf("worker (lifecycle=%s) %s: on shutdown it would hang here instead of draining promptly", info.lifecycle, why),
			Hint:    "guard the operation with a select on the lifecycle channel, move it off the worker, or conflint:ignore with a boundedness argument",
			Witness: witness,
		})
	})
	return out
}
