// The module-wide call graph: the substrate for the interprocedural
// analyzers (lockorder, goleak, hotalloc, epoch, dettaint, shutdownpath,
// pure, readpath). Edges come from go/types: every call whose target is
// statically known and declared in the module — package functions,
// cross-package calls, generic instantiations, and methods selected on a
// concrete receiver, promoted methods and method calls on a loaded
// atomic.Pointer's result included. Dynamic calls (function values,
// interface methods) produce no edge; every analyzer built on the graph
// treats a missing edge conservatively.
//
// Nodes are keyed "importPath.Func" for functions and
// "importPath.Type.Method" for methods. Node and edge order is
// deterministic (keys sorted, call sites in source order), so every
// downstream finding and witness path is stable.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// funcDecl is one declared function with the package and file that hold
// it.
type funcDecl struct {
	pkg  *Package
	file *File
	decl *ast.FuncDecl
}

// CallSite is one statically resolved call from one function to another
// module function.
type CallSite struct {
	Caller string
	Callee string
	// Pos is the call's position in the caller.
	Pos token.Pos
	// Go and Defer mark `go f()` and `defer f()` call sites.
	Go    bool
	Defer bool
}

// CGNode is one function in the call graph.
type CGNode struct {
	Key string
	Fn  *funcDecl
	// Out lists resolved outgoing calls in source order.
	Out []*CallSite
}

// CallGraph is the module-wide graph.
type CallGraph struct {
	nodes map[string]*CGNode
	keys  []string
	edges int
}

// Node returns the graph node for a function key, or nil.
func (g *CallGraph) Node(key string) *CGNode { return g.nodes[key] }

// Keys returns every node key in sorted order.
func (g *CallGraph) Keys() []string { return g.keys }

// Stats returns the node and edge counts.
func (g *CallGraph) Stats() (nodes, edges int) { return len(g.keys), g.edges }

// Graph builds (once) and returns the module's call graph.
func (m *Module) Graph() *CallGraph {
	if m.graph != nil {
		return m.graph
	}
	g := &CallGraph{nodes: make(map[string]*CGNode)}
	// Every declared function is a node, even if no call resolves to it.
	// A key declared twice (init) keeps its last declaration.
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for _, d := range f.AST.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				key := funcKey(p, fn)
				node := g.nodes[key]
				if node == nil {
					node = &CGNode{Key: key}
					g.nodes[key] = node
				}
				node.Fn = &funcDecl{pkg: p, file: f, decl: fn}
				if fn.Body != nil {
					node.Out = m.resolveCalls(p, fn, key)
					g.edges += len(node.Out)
				}
			}
		}
	}
	for key := range g.nodes {
		g.keys = append(g.keys, key)
	}
	sort.Strings(g.keys)
	m.graph = g
	return g
}

// funcKey returns the graph key of a declared function.
func funcKey(p *Package, fn *ast.FuncDecl) string {
	return funcObjKey(p.Info.Defs[fn.Name].(*types.Func))
}

// resolveCalls finds every statically resolvable call in a function body,
// including calls inside function literals (attributed to the enclosing
// declaration: the literal runs with the declaration's lock and lifecycle
// context unless spawned, and spawned literals are additionally analyzed
// at their go sites).
func (m *Module) resolveCalls(p *Package, fn *ast.FuncDecl, key string) []*CallSite {
	// Mark calls that are the operand of go/defer statements.
	goCalls := make(map[*ast.CallExpr]bool)
	deferCalls := make(map[*ast.CallExpr]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.GoStmt:
			goCalls[s.Call] = true
		case *ast.DeferStmt:
			deferCalls[s.Call] = true
		}
		return true
	})
	var out []*CallSite
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := m.calleeKey(p, call)
		if callee == "" {
			return true
		}
		out = append(out, &CallSite{
			Caller: key, Callee: callee, Pos: call.Pos(),
			Go: goCalls[call], Defer: deferCalls[call],
		})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// calleeKey resolves a call expression to a module function key, or ""
// for dynamic, interface, stdlib and otherwise unresolvable targets.
func (m *Module) calleeKey(p *Package, call *ast.CallExpr) string {
	fn := p.callee(call)
	if fn == nil || !m.inModule(fn) || isInterfaceMethod(fn) {
		return ""
	}
	return funcObjKey(fn)
}

// shortKey trims the module path off a symbol key for human-readable
// findings ("repro/internal/engine.Engine.mu" → "internal/engine.Engine.mu").
func (m *Module) shortKey(key string) string {
	if m.Path != "" && len(key) > len(m.Path)+1 && key[:len(m.Path)+1] == m.Path+"/" {
		return key[len(m.Path)+1:]
	}
	return key
}
