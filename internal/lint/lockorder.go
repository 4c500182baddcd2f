// The lock-order analyzer: the interprocedural half of the lock story.
// lockcheck proves each acquisition is paired; lockorder proves the
// acquisitions *nest consistently* across the whole module. It abstracts
// every mutex to a lock class, propagates the set of held classes across
// call-graph edges, builds the module's lock-ordering graph, and reports
// every cycle as a potential deadlock with a full witness path — the
// chain of functions and source positions that realizes each edge.
//
// Lock classes:
//
//   - a struct mutex field abstracts to "importPath.Type.field"
//     (every Engine instance shares the class engine.Engine.mu — the
//     standard may-deadlock abstraction);
//   - a local variable obtained from a module call that returns a mutex
//     abstracts to the producing callee, "importPath.Type.Method()"
//     (bench.Lab.lockEngine() is the per-cell lock class);
//   - anything else is unresolved and produces no edges (conservative).
//
// RLock and Lock acquisitions of one mutex share a class: a read lock
// still participates in ordering cycles against writers. Self-edges
// (re-acquiring a held class) are not reported — that is single-lock
// territory, and flagging RLock-under-RLock would drown real inversions.
//
// `go` call sites contribute no edges: the spawned goroutine does not
// run under the spawner's held set.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// LockOrder returns the interprocedural lock-ordering analyzer.
func LockOrder() *Analyzer {
	return &Analyzer{
		Name:  "lockorder",
		Doc:   "mutex acquisitions must nest consistently module-wide: any cycle in the lock-ordering graph is a potential deadlock",
		Check: checkLockOrder,
	}
}

func checkLockOrder(p *Package) []Finding {
	return p.Mod.interprocFindings(p, "lockorder", lockOrderModule)
}

// interprocFindings runs a module-wide analysis once (cached) and returns
// the findings whose file belongs to package p, so per-package Check
// calls never duplicate a module-level finding. Each rule's pass runs
// under its own sync.Once, so RunParallel can warm different rules from
// different goroutines while per-package checks hit the warm cache.
func (m *Module) interprocFindings(p *Package, rule string, run func(m *Module) []Finding) []Finding {
	m.interMu.Lock()
	if m.inter == nil {
		m.inter = make(map[string][]Finding)
	}
	if m.interOnce == nil {
		m.interOnce = make(map[string]*sync.Once)
	}
	once := m.interOnce[rule]
	if once == nil {
		once = new(sync.Once)
		m.interOnce[rule] = once
	}
	m.interMu.Unlock()
	once.Do(func() {
		all := run(m)
		m.interMu.Lock()
		m.inter[rule] = all
		m.interMu.Unlock()
	})
	m.interMu.Lock()
	all := m.inter[rule]
	m.interMu.Unlock()
	inPkg := make(map[string]bool, len(p.Files))
	for _, f := range p.Files {
		inPkg[f.Path] = true
	}
	var out []Finding
	for _, f := range all {
		if inPkg[f.File] {
			out = append(out, f)
		}
	}
	return out
}

// lockEvent is one Lock/RLock/Unlock/RUnlock call, in source order.
type lockEvent struct {
	acquire  bool
	rlock    bool // RLock/RUnlock flavor
	target   string
	class    string // resolved lock class, "" when unresolvable
	pos      token.Pos
	deferred bool
	consumed bool
}

// heldInterval is one span of a function body during which a lock class
// is held.
type heldInterval struct {
	class      string
	rlock      bool // acquired via RLock (a read session, for readpath)
	start, end token.Pos
}

// pathStep is one hop of an acquisition witness: a call (callee != "") or
// the final acquire (callee == "", class names the lock).
type pathStep struct {
	fn     string
	pos    token.Pos
	callee string
	class  string
}

// orderEdge is one "holding from, acquires to" observation with its
// witness: the position where from was acquired, and the step chain
// that reaches the acquisition of to.
type orderEdge struct {
	from, to string
	holder   string // function holding from
	fromPos  token.Pos
	steps    []pathStep
}

// lockOrderModule builds the lock-ordering graph and reports cycles.
func lockOrderModule(m *Module) []Finding {
	g := m.Graph()
	trans := &transAcqState{m: m, memo: make(map[string]map[string][]pathStep), active: make(map[string]bool)}

	edges := make(map[string]*orderEdge) // "from\x00to" -> first witness
	addEdge := func(e *orderEdge) {
		k := e.from + "\x00" + e.to
		if _, ok := edges[k]; !ok {
			edges[k] = e
		}
	}
	for _, key := range g.Keys() {
		node := g.Node(key)
		if node.Fn == nil || node.Fn.decl.Body == nil {
			continue
		}
		intervals := m.lockIntervals(node.Fn)
		// Intra-function nesting: an acquisition inside a held interval.
		for _, outer := range intervals {
			for _, inner := range intervals {
				if outer.class == inner.class {
					continue
				}
				if outer.start < inner.start && inner.start < outer.end {
					addEdge(&orderEdge{
						from: outer.class, to: inner.class, holder: key, fromPos: outer.start,
						steps: []pathStep{{fn: key, pos: inner.start, class: inner.class}},
					})
				}
			}
		}
		// Interprocedural nesting: a call made while holding, where the
		// callee transitively acquires.
		for _, cs := range node.Out {
			if cs.Go {
				continue
			}
			acq := trans.of(cs.Callee)
			if len(acq) == 0 {
				continue
			}
			var classes []string
			for c := range acq {
				classes = append(classes, c)
			}
			sort.Strings(classes)
			for _, outer := range intervals {
				if outer.start >= cs.Pos || cs.Pos >= outer.end {
					continue
				}
				for _, c := range classes {
					if c == outer.class {
						continue
					}
					steps := append([]pathStep{{fn: key, pos: cs.Pos, callee: cs.Callee}}, acq[c]...)
					addEdge(&orderEdge{from: outer.class, to: c, holder: key, fromPos: outer.start, steps: steps})
				}
			}
		}
	}
	return m.lockOrderCycles(edges)
}

// transAcqState memoizes, per function, every lock class the function
// may acquire (directly or through callees) with one witness path each.
type transAcqState struct {
	m      *Module
	memo   map[string]map[string][]pathStep
	active map[string]bool
}

// of returns class -> witness path for a function key.
func (t *transAcqState) of(key string) map[string][]pathStep {
	if got, ok := t.memo[key]; ok {
		return got
	}
	if t.active[key] {
		return nil // recursion: the cycle adds no new classes
	}
	t.active[key] = true
	defer delete(t.active, key)

	out := make(map[string][]pathStep)
	node := t.m.Graph().Node(key)
	if node == nil || node.Fn == nil || node.Fn.decl.Body == nil {
		t.memo[key] = out
		return out
	}
	for _, ev := range t.m.lockEvents(node.Fn) {
		if !ev.acquire || ev.class == "" {
			continue
		}
		if _, ok := out[ev.class]; !ok {
			out[ev.class] = []pathStep{{fn: key, pos: ev.pos, class: ev.class}}
		}
	}
	for _, cs := range node.Out {
		if cs.Go {
			continue
		}
		sub := t.of(cs.Callee)
		var classes []string
		for c := range sub {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			if _, ok := out[c]; !ok {
				out[c] = append([]pathStep{{fn: key, pos: cs.Pos, callee: cs.Callee}}, sub[c]...)
			}
		}
	}
	t.memo[key] = out
	return out
}

// lockEvents scans a function body for lock operations in source order,
// resolving each target to its class.
func (m *Module) lockEvents(fd *funcDecl) []*lockEvent {
	fn, p := fd.decl, fd.pkg
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		return true
	})
	var out []*lockEvent
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		ev := &lockEvent{pos: call.Pos(), deferred: deferred[call]}
		switch sel.Sel.Name {
		case "Lock":
			ev.acquire = true
		case "RLock":
			ev.acquire, ev.rlock = true, true
		case "Unlock":
		case "RUnlock":
			ev.rlock = true
		default:
			return true
		}
		ev.target = exprString(m.Fset, sel.X)
		ev.class = m.lockClass(p, fn, sel.X)
		out = append(out, ev)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// lockIntervals pairs each acquisition with its release: the next
// unconsumed same-target, same-flavor release after it. A deferred (or
// missing) release holds the class to the end of the body.
func (m *Module) lockIntervals(fd *funcDecl) []heldInterval {
	events := m.lockEvents(fd)
	end := fd.decl.Body.End()
	var out []heldInterval
	for i, ev := range events {
		if !ev.acquire || ev.class == "" {
			continue
		}
		iv := heldInterval{class: ev.class, rlock: ev.rlock, start: ev.pos, end: end}
		for _, rel := range events[i+1:] {
			if rel.acquire || rel.consumed || rel.rlock != ev.rlock || rel.target != ev.target {
				continue
			}
			rel.consumed = true
			if !rel.deferred {
				iv.end = rel.pos
			}
			break
		}
		out = append(out, iv)
	}
	return out
}

// lockClass abstracts a lock target expression to its class (see the
// package comment), or "" when unresolvable.
func (m *Module) lockClass(p *Package, fn *ast.FuncDecl, target ast.Expr) string {
	switch t := target.(type) {
	case *ast.SelectorExpr:
		key := p.typeKey(t.X)
		sel := p.Info.Selections[t]
		if key == "" || sel == nil || sel.Kind() != types.FieldVal || len(sel.Index()) != 1 {
			return ""
		}
		if _, ok := isMutexType(sel.Obj().Type()); !ok {
			return ""
		}
		return key + "." + t.Sel.Name
	case *ast.Ident:
		call := producingCall(fn.Body, t.Name)
		if call == nil {
			return ""
		}
		callee := m.calleeKey(p, call)
		if callee == "" {
			return ""
		}
		res := signature(p.callee(call)).Results()
		if res.Len() == 0 {
			return ""
		}
		if _, isMu := isMutexType(res.At(0).Type()); !isMu {
			return ""
		}
		return callee + "()"
	}
	return ""
}

// producingCall finds the call expression a local name is defined from
// (`em := l.lockEngine(sys, db)`).
func producingCall(body *ast.BlockStmt, name string) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name == name {
				if call, ok := as.Rhs[i].(*ast.CallExpr); ok {
					found = call
				}
				return false
			}
		}
		return true
	})
	return found
}

// lockOrderCycles finds every elementary cycle of the ordering graph and
// renders one finding per cycle, anchored at the first edge's holder
// acquisition, with the full witness in Finding.Witness.
func (m *Module) lockOrderCycles(edges map[string]*orderEdge) []Finding {
	adj := make(map[string][]string)
	byPair := make(map[string]*orderEdge)
	nodeSet := make(map[string]bool)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
		byPair[e.from+"\x00"+e.to] = e
		nodeSet[e.from], nodeSet[e.to] = true, true
	}
	var nodes []string
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		sort.Strings(adj[n])
	}

	const maxCycles = 32
	var cycles [][]string
	// Elementary cycles with minimal-node canonical start: from each
	// start node, DFS only through nodes >= start, so every cycle is
	// enumerated exactly once, rooted at its smallest class.
	var dfs func(start, at string, path []string, onPath map[string]bool)
	dfs = func(start, at string, path []string, onPath map[string]bool) {
		if len(cycles) >= maxCycles {
			return
		}
		for _, next := range adj[at] {
			if next == start {
				cycles = append(cycles, append(append([]string{}, path...), start))
				continue
			}
			if next < start || onPath[next] {
				continue
			}
			onPath[next] = true
			dfs(start, next, append(path, next), onPath)
			delete(onPath, next)
		}
	}
	for _, start := range nodes {
		dfs(start, start, []string{start}, map[string]bool{start: true})
	}

	fset := m.Fset
	var out []Finding
	for _, cyc := range cycles {
		first := byPair[cyc[0]+"\x00"+cyc[1]]
		var short []string
		for _, c := range cyc {
			short = append(short, m.shortKey(c))
		}
		var witness []string
		for i := 0; i+1 < len(cyc); i++ {
			e := byPair[cyc[i]+"\x00"+cyc[i+1]]
			witness = append(witness, fmt.Sprintf("edge %s -> %s:", m.shortKey(e.from), m.shortKey(e.to)))
			witness = append(witness, fmt.Sprintf("  %s acquires %s at %s",
				m.shortKey(e.holder), m.shortKey(e.from), m.relPos(fset.Position(e.fromPos))))
			for _, st := range e.steps {
				if st.callee != "" {
					witness = append(witness, fmt.Sprintf("  %s calls %s at %s",
						m.shortKey(st.fn), m.shortKey(st.callee), m.relPos(fset.Position(st.pos))))
				} else {
					witness = append(witness, fmt.Sprintf("  %s acquires %s at %s",
						m.shortKey(st.fn), m.shortKey(st.class), m.relPos(fset.Position(st.pos))))
				}
			}
		}
		pos := fset.Position(first.fromPos)
		out = append(out, Finding{
			Rule: "lockorder", File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Message: fmt.Sprintf("potential deadlock: lock-order cycle %s", strings.Join(short, " -> ")),
			Hint:    "pick one global acquisition order for these mutexes and restructure the callers that violate it",
			Witness: witness,
		})
	}
	return out
}

// relPos renders a position with the path relative to the module root.
func (m *Module) relPos(pos token.Position) string {
	file := pos.Filename
	if rel, err := filepath.Rel(m.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = rel
	}
	return fmt.Sprintf("%s:%d", file, pos.Line)
}
