// The goroutine-leak analyzer: every `go` statement must come with an
// argument for why the goroutine does not outlive its work. A spawn
// site passes if any of these hold, checked in order:
//
//  1. it carries a `// conflint:worker <reason>` annotation (on the go
//     statement's line or the line above) — the escape hatch for
//     deliberate long-lived workers like a daemon's metrics server. The
//     reason is mandatory; a bare annotation is itself a finding;
//  2. it is WaitGroup-paired: the spawner calls wg.Add before the spawn
//     and wg.Wait after, and the spawned body (or a function it calls)
//     calls Done on a sync.WaitGroup;
//  3. the spawned body is tied to a lifecycle: it (or a callee) selects
//     on a channel receive, or receives from a context Done channel;
//  4. the spawned body provably terminates: no unbounded `for {}`
//     (one with no break/return anywhere inside), no range over a
//     channel, no empty select, no known-blocking stdlib call
//     (http.Server.Serve and friends) — transitively through resolved
//     callees, where an unresolvable callee is assumed to terminate
//     (conservative toward silence, like the rest of the suite) and
//     recursion is treated as terminating.
//
// Termination is judged per spawn site: walking a body skips nested
// `go` statements and non-spawned function literals, because what a
// *different* goroutine does is that goroutine's own spawn-site problem.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

const workerDirective = "conflint:worker"

// GoLeak returns the goroutine-lifecycle analyzer.
func GoLeak() *Analyzer {
	return &Analyzer{
		Name:  "goleak",
		Doc:   "every go statement must terminate, be WaitGroup-paired, follow a lifecycle channel, or carry conflint:worker <reason>",
		Check: checkGoLeak,
	}
}

func checkGoLeak(p *Package) []Finding {
	m := p.Mod
	fset := m.Fset
	term := &termState{m: m, memo: make(map[string]termFacts), active: make(map[string]bool)}
	var out []Finding
	for _, f := range p.Files {
		workers := scanWorkers(fset, f)
		for line, reason := range workers {
			if reason == "" {
				out = append(out, Finding{
					Rule: "goleak", File: f.Path, Line: line, Col: 1,
					Message: "conflint:worker needs a reason (// conflint:worker <why this goroutine is deliberately long-lived>)",
					Hint:    "state the worker's lifecycle (who stops it, or why running forever is intended)",
				})
			}
		}
		for _, fn := range fileFuncs(f) {
			if fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				pos := fset.Position(g.Pos())
				if r, ok := workerAt(workers, pos.Line); ok {
					if r == "" {
						// The bare annotation was already reported;
						// it covers nothing.
					} else {
						return true
					}
				}
				if f.waitGroupPaired(m, p, fn, g, term) {
					return true
				}
				facts := term.spawnFacts(p, g)
				if facts.lifecycle {
					return true
				}
				if facts.terminates {
					return true
				}
				out = append(out, Finding{
					Rule: "goleak", File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Message: fmt.Sprintf("goroutine may leak: %s, and it is neither WaitGroup-paired nor tied to a lifecycle channel", facts.why),
					Hint:    "bound it (WaitGroup Add/Done/Wait), give it a stop channel or context select, or annotate `// conflint:worker <reason>` if it is deliberately long-lived",
				})
				return true
			})
		}
	}
	return out
}

// scanWorkers collects conflint:worker directives: line -> reason.
func scanWorkers(fset *token.FileSet, f *File) map[int]string {
	out := make(map[int]string)
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if rest, ok := strings.CutPrefix(text, workerDirective); ok {
				out[fset.Position(c.Pos()).Line] = strings.TrimSpace(rest)
			}
		}
	}
	return out
}

// workerAt reports the directive covering a go statement's line (its own
// line or the one above).
func workerAt(workers map[int]string, line int) (string, bool) {
	if r, ok := workers[line]; ok {
		return r, true
	}
	if r, ok := workers[line-1]; ok {
		return r, true
	}
	return "", false
}

// waitGroupPaired checks discipline (2): Add-before-spawn and Wait in
// the spawner on the same WaitGroup expression, Done in the spawned
// body or a resolved callee.
func (f *File) waitGroupPaired(m *Module, p *Package, fn *ast.FuncDecl, g *ast.GoStmt, term *termState) bool {
	var addTargets, waitTargets []string
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Add" && sel.Sel.Name != "Wait" {
			return true
		}
		if p.typeKey(sel.X) != "sync.WaitGroup" {
			return true
		}
		t := exprString(m.Fset, sel.X)
		if sel.Sel.Name == "Add" && call.Pos() < g.Pos() {
			addTargets = append(addTargets, t)
		}
		if sel.Sel.Name == "Wait" {
			waitTargets = append(waitTargets, t)
		}
		return true
	})
	paired := false
	for _, a := range addTargets {
		for _, w := range waitTargets {
			if a == w {
				paired = true
			}
		}
	}
	if !paired {
		return false
	}
	return term.spawnCallsDone(p, g)
}

// spawnCallsDone reports whether the spawned body (or a resolved callee,
// transitively) calls Done on a sync.WaitGroup.
func (t *termState) spawnCallsDone(p *Package, g *ast.GoStmt) bool {
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		return t.bodyCallsDone(p, lit.Body, make(map[string]bool))
	}
	if key := t.m.calleeKey(p, g.Call); key != "" {
		return t.fnCallsDone(key, make(map[string]bool))
	}
	return false
}

func (t *termState) fnCallsDone(key string, seen map[string]bool) bool {
	if seen[key] {
		return false
	}
	seen[key] = true
	node := t.m.Graph().Node(key)
	if node == nil || node.Fn == nil || node.Fn.decl.Body == nil {
		return false
	}
	fd := node.Fn
	return t.bodyCallsDone(fd.pkg, fd.decl.Body, seen)
}

func (t *termState) bodyCallsDone(p *Package, body *ast.BlockStmt, seen map[string]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.GoStmt); ok {
			return false // a nested goroutine's Done is its own pairing
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" &&
			p.typeKey(sel.X) == "sync.WaitGroup" {
			found = true
			return false
		}
		if key := t.m.calleeKey(p, call); key != "" && t.fnCallsDone(key, seen) {
			found = true
			return false
		}
		return true
	})
	return found
}

// termFacts is the per-function termination/lifecycle summary.
type termFacts struct {
	terminates bool
	lifecycle  bool
	why        string // first reason found for non-termination
}

// termState memoizes termination facts per function key.
type termState struct {
	m      *Module
	memo   map[string]termFacts
	active map[string]bool
}

// spawnFacts analyzes the body a go statement spawns.
func (t *termState) spawnFacts(p *Package, g *ast.GoStmt) termFacts {
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		return t.bodyFacts(p, lit.Body, make(map[string]bool))
	}
	if key := t.m.calleeKey(p, g.Call); key != "" {
		return t.fnFacts(key, make(map[string]bool))
	}
	// Unresolvable spawn target (function value, interface method):
	// assume it terminates, like every other unresolved callee.
	return termFacts{terminates: true}
}

func (t *termState) fnFacts(key string, seen map[string]bool) termFacts {
	if got, ok := t.memo[key]; ok {
		return got
	}
	if t.active[key] {
		return termFacts{terminates: true} // recursion terminates by assumption
	}
	node := t.m.Graph().Node(key)
	if node == nil || node.Fn == nil || node.Fn.decl.Body == nil {
		return termFacts{terminates: true}
	}
	t.active[key] = true
	fd := node.Fn
	facts := t.bodyFacts(fd.pkg, fd.decl.Body, seen)
	delete(t.active, key)
	t.memo[key] = facts
	return facts
}

// bodyFacts walks one body, skipping nested go statements and function
// literals (judged at their own spawn/call sites), collecting lifecycle
// evidence and non-termination reasons, and following resolved callees.
func (t *termState) bodyFacts(p *Package, body *ast.BlockStmt, seen map[string]bool) termFacts {
	m := t.m
	facts := termFacts{terminates: true}
	flagNonTerm := func(why string) {
		if facts.terminates {
			facts.terminates = false
			facts.why = why
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			if len(s.Body.List) == 0 {
				flagNonTerm("it blocks forever on an empty select{}")
				return true
			}
			for _, cl := range s.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && commIsReceive(cc) {
					facts.lifecycle = true
				}
			}
		case *ast.UnaryExpr:
			// `<-ctx.Done()` outside a select still ties the goroutine
			// to its context's lifecycle.
			if s.Op == token.ARROW {
				if call, ok := s.X.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
						facts.lifecycle = true
					}
				}
			}
		case *ast.ForStmt:
			if s.Cond == nil && !hasBreakOrReturn(s.Body) {
				flagNonTerm("it loops forever (for {} with no break or return)")
			}
		case *ast.RangeStmt:
			if p.isChan(s.X) {
				flagNonTerm(fmt.Sprintf("it ranges over channel %s, which never ends unless the channel is closed",
					exprString(m.Fset, s.X)))
			}
		case *ast.CallExpr:
			if why := t.blockingStdlibCall(p, s); why != "" {
				flagNonTerm(why)
				return true
			}
			if key := m.calleeKey(p, s); key != "" && !seen[key] {
				seen[key] = true
				sub := t.fnFacts(key, seen)
				if sub.lifecycle {
					facts.lifecycle = true
				}
				if !sub.terminates {
					flagNonTerm(fmt.Sprintf("it calls %s, which %s", m.shortKey(key), sub.why))
				}
			}
		}
		return true
	})
	return facts
}

// commIsReceive reports whether a select clause is a channel receive.
func commIsReceive(cc *ast.CommClause) bool {
	switch c := cc.Comm.(type) {
	case *ast.ExprStmt:
		u, ok := c.X.(*ast.UnaryExpr)
		return ok && u.Op == token.ARROW
	case *ast.AssignStmt:
		if len(c.Rhs) == 1 {
			u, ok := c.Rhs[0].(*ast.UnaryExpr)
			return ok && u.Op == token.ARROW
		}
	}
	return false
}

// hasBreakOrReturn reports whether a loop body can exit: any break or
// return anywhere inside (an approximation — a break bound to an inner
// loop counts, trading a missed leak for no false alarms on the common
// `for { ... if done { break } ... }` shape).
func hasBreakOrReturn(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch s := n.(type) {
		case *ast.GoStmt, *ast.FuncLit:
			return false
		case *ast.BranchStmt:
			if s.Tok == token.BREAK || s.Tok == token.GOTO {
				found = true
			}
		case *ast.ReturnStmt:
			found = true
		}
		return !found
	})
	return found
}

// blockingStdlibNames are stdlib methods/functions that block until an
// external shutdown: calling one makes the goroutine a worker by
// construction.
var blockingStdlibMethods = map[string]map[string]bool{
	"net/http.Server": {"Serve": true, "ServeTLS": true, "ListenAndServe": true, "ListenAndServeTLS": true},
}

var blockingStdlibFuncs = map[string]string{
	"net/http.ListenAndServe":    "http.ListenAndServe",
	"net/http.ListenAndServeTLS": "http.ListenAndServeTLS",
}

// blockingStdlibCall reports a human-readable reason when the call is a
// known-blocking stdlib serve loop, "" otherwise.
func (t *termState) blockingStdlibCall(p *Package, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if path, name := p.qualified(sel); path != "" {
		if name, ok := blockingStdlibFuncs[path+"."+name]; ok {
			return fmt.Sprintf("it blocks in %s until shutdown", name)
		}
		return ""
	}
	key := p.typeKey(sel.X)
	if methods, ok := blockingStdlibMethods[key]; ok && methods[sel.Sel.Name] {
		return fmt.Sprintf("it blocks in %s.%s until shutdown", key, sel.Sel.Name)
	}
	return ""
}
