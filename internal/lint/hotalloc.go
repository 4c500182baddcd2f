// The hot-path allocation analyzer: the measure path — everything
// reachable from a function annotated `// conflint:hotpath` in its doc
// comment (the Runner workload entry points and the autopilot window
// loop) — runs once per query per window, so a per-iteration allocation
// there is a per-query allocation. Within loops of hot-path functions
// the analyzer flags the four allocation shapes that hide in plain
// sight:
//
//   - a function literal built per iteration (its capture environment is
//     heap-allocated every pass) — except directly under `go`, where the
//     allocation is per-goroutine, not per-element;
//   - fmt.Sprintf, which allocates its result and boxes its arguments;
//   - string concatenation (`s += x`, `s = s + x`), quadratic in the
//     loop trip count;
//   - append to a function-local slice declared with no capacity, which
//     reallocs its way up instead of a single make([]T, 0, n).
//
// Reachability follows the static call graph, including `go` edges (a
// worker spawned by the hot path is the hot path). Functions the graph
// cannot see into (interface methods, function values) are not flagged —
// consistent with the suite's conservative-resolution policy.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

const hotpathDirective = "conflint:hotpath"

// HotAlloc returns the hot-path allocation analyzer.
func HotAlloc() *Analyzer {
	return &Analyzer{
		Name:  "hotalloc",
		Doc:   "loops reachable from conflint:hotpath roots must not allocate per iteration (closures, Sprintf, string concat, append without preallocation)",
		Check: checkHotAlloc,
	}
}

func checkHotAlloc(p *Package) []Finding {
	return p.Mod.interprocFindings(p, "hotalloc", hotAllocModule)
}

func hotAllocModule(m *Module) []Finding {
	g := m.Graph()
	reach := m.hotReachable()
	var out []Finding
	for _, key := range g.Keys() {
		if !reach[key] {
			continue
		}
		node := g.Node(key)
		if node.Fn == nil || node.Fn.decl.Body == nil {
			continue
		}
		out = append(out, m.hotAllocFn(node.Fn, key)...)
	}
	return out
}

// hotReachable returns every function key reachable from a hotpath root.
func (m *Module) hotReachable() map[string]bool {
	g := m.Graph()
	reach := make(map[string]bool)
	var queue []string
	for _, key := range g.Keys() {
		node := g.Node(key)
		if node.Fn != nil && hasHotpathDirective(node.Fn.decl) {
			reach[key] = true
			queue = append(queue, key)
		}
	}
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		node := g.Node(key)
		if node == nil {
			continue
		}
		for _, cs := range node.Out {
			if !reach[cs.Callee] {
				reach[cs.Callee] = true
				queue = append(queue, cs.Callee)
			}
		}
	}
	return reach
}

// hasHotpathDirective reports a conflint:hotpath marker in the doc
// comment of a function declaration.
func hasHotpathDirective(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.Contains(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), hotpathDirective) {
			return true
		}
	}
	return false
}

// hotAllocFn flags per-iteration allocations inside one hot function.
func (m *Module) hotAllocFn(fd *funcDecl, key string) []Finding {
	fn, f, p := fd.decl, fd.file, fd.pkg
	fset := m.Fset
	short := m.shortKey(key)
	var out []Finding
	report := func(pos token.Pos, msg, hint string, fixes ...[]TextEdit) {
		pp := fset.Position(pos)
		fnd := Finding{
			Rule: "hotalloc", File: pp.Filename, Line: pp.Line, Col: pp.Column,
			Message: msg, Hint: hint,
		}
		if len(fixes) > 0 {
			fnd.Fixes = fixes[0]
		}
		out = append(out, fnd)
	}

	goLits := make(map[*ast.FuncLit]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
				goLits[lit] = true
			}
		}
		return true
	})

	var walk func(n ast.Node, depth int, loop *ast.RangeStmt)
	walk = func(n ast.Node, depth int, loop *ast.RangeStmt) {
		ast.Inspect(n, func(c ast.Node) bool {
			if c == nil || c == n {
				return true
			}
			switch s := c.(type) {
			case *ast.ForStmt:
				// A plain for offers no countable source: no prealloc fix
				// inside it.
				walk(s.Body, depth+1, nil)
				return false
			case *ast.RangeStmt:
				walk(s.Body, depth+1, s)
				return false
			case *ast.FuncLit:
				if depth > 0 && !goLits[s] {
					report(s.Pos(), fmt.Sprintf("hot path %s builds a closure on every loop iteration", short),
						"hoist the function literal out of the loop (or pass the varying values as arguments)", nil)
				}
				// Allocations inside the literal body run when the
				// literal runs, not per enclosing iteration — and its
				// own loops are walked via the call graph when the
				// literal is attributed to this declaration.
				walk(s.Body, 0, nil)
				return false
			case *ast.CallExpr:
				if depth > 0 && isSprintf(p, s) {
					report(s.Pos(), fmt.Sprintf("hot path %s calls fmt.Sprintf inside a loop: one allocation per element", short),
						"format once outside the loop, or use strconv/append-style building")
				}
				if depth > 0 {
					if name, pos, ok := m.bareAppend(p, f, fn, s); ok {
						report(pos, fmt.Sprintf("hot path %s appends to %s inside a loop, but %s was declared without capacity", short, name, name),
							fmt.Sprintf("preallocate: %s := make([]T, 0, n) before the loop", name),
							m.preallocFix(p, f, fn, name, loop))
					}
				}
			case *ast.AssignStmt:
				if depth > 0 && isStringConcat(p, s) {
					report(s.Pos(), fmt.Sprintf("hot path %s concatenates strings inside a loop: quadratic allocation", short),
						"use a strings.Builder (or collect parts and strings.Join once)")
				}
			}
			return true
		})
	}
	walk(fn.Body, 0, nil)
	return out
}

// preallocFix builds the edit preallocating a capacity-less local slice
// to the enclosing range loop's element count: the innermost loop must
// range over a simple variable or field chain (no calls, not the slice
// itself) whose type supports len, and the declaration must precede the
// loop. Covers the three capacity-less shapes bareAppend admits:
// `var x []T`, `x := []T{}`, `x := make([]T, 0)`.
func (m *Module) preallocFix(p *Package, f *File, fn *ast.FuncDecl, name string, loop *ast.RangeStmt) []TextEdit {
	if loop == nil || !simpleRangeSrc(loop.X, name) {
		return nil
	}
	if !lenCapable(p, loop.X) {
		return nil
	}
	srcText := exprString(m.Fset, loop.X)
	init, spec, found := localSliceDecl(fn.Body, name)
	if !found {
		return nil
	}
	var declNode ast.Node = spec
	if init != nil {
		declNode = init
	}
	if declNode == nil || declNode.End() >= loop.Pos() {
		return nil
	}
	switch e := init.(type) {
	case nil: // var x []T
		if spec == nil || len(spec.Names) != 1 || len(spec.Values) != 0 {
			return nil
		}
		at, ok := spec.Type.(*ast.ArrayType)
		if !ok || at.Len != nil {
			return nil
		}
		return []TextEdit{{
			File:  f.Path,
			Start: m.offsetOf(spec.Pos()),
			End:   m.offsetOf(spec.End()),
			New:   fmt.Sprintf("%s = make(%s, 0, len(%s))", name, exprString(m.Fset, spec.Type), srcText),
		}}
	case *ast.CompositeLit: // x := []T{}
		if _, isSlice := e.Type.(*ast.ArrayType); !isSlice {
			return nil
		}
		return []TextEdit{{
			File:  f.Path,
			Start: m.offsetOf(e.Pos()),
			End:   m.offsetOf(e.End()),
			New:   fmt.Sprintf("make(%s, 0, len(%s))", exprString(m.Fset, e.Type), srcText),
		}}
	case *ast.CallExpr: // x := make([]T, 0)
		if len(e.Args) != 2 {
			return nil
		}
		at := m.offsetOf(e.Rparen)
		return []TextEdit{{File: f.Path, Start: at, End: at, New: fmt.Sprintf(", len(%s)", srcText)}}
	}
	return nil
}

// simpleRangeSrc admits range sources safe to mention inside a len():
// an identifier or a selector chain of identifiers, not naming the
// slice being grown (evaluating them twice is free and effectless).
func simpleRangeSrc(e ast.Expr, avoid string) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name != avoid
	case *ast.SelectorExpr:
		return simpleRangeSrc(x.X, avoid)
	}
	return false
}

// lenCapable reports whether the expression's type supports len(): a
// slice, array, pointer to array, map, or string.
func lenCapable(p *Package, e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		_, isArray := ptr.Elem().Underlying().(*types.Array)
		return isArray
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array, *types.Map:
		return true
	case *types.Basic:
		return u.Info()&types.IsString != 0
	}
	return false
}

// isSprintf matches fmt.Sprintf (and Sprint/Sprintln) calls.
func isSprintf(p *Package, call *ast.CallExpr) bool {
	switch path, name := p.qualified(call.Fun); {
	case path != "fmt":
		return false
	case name == "Sprintf", name == "Sprint", name == "Sprintln":
		return true
	}
	return false
}

// isStringConcat matches `s += x` and `s = s + x` where s is a string.
func isStringConcat(p *Package, as *ast.AssignStmt) bool {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	concat := false
	switch as.Tok {
	case token.ADD_ASSIGN:
		concat = true
	case token.ASSIGN:
		if bin, ok := as.Rhs[0].(*ast.BinaryExpr); ok && bin.Op == token.ADD {
			if exprString(p.Mod.Fset, bin.X) == exprString(p.Mod.Fset, as.Lhs[0]) {
				concat = true
			}
		}
	}
	if !concat {
		return false
	}
	b, ok := underlying(p.Info.TypeOf(as.Lhs[0])).(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// bareAppend matches `x = append(x, ...)` where x is a slice declared in
// this function with no capacity: `var x []T`, `x := []T{}`, or
// `x := make([]T, 0)`. Slices that arrive as parameters, fields, or
// preallocated makes are left alone.
func (m *Module) bareAppend(p *Package, f *File, fn *ast.FuncDecl, call *ast.CallExpr) (name string, pos token.Pos, ok bool) {
	id, isIdent := call.Fun.(*ast.Ident)
	if !isIdent || id.Name != "append" || len(call.Args) < 2 {
		return "", 0, false
	}
	target, isIdent := call.Args[0].(*ast.Ident)
	if !isIdent {
		return "", 0, false
	}
	decl, _, declared := localSliceDecl(fn.Body, target.Name)
	if !declared || preallocated(decl) {
		return "", 0, false
	}
	return target.Name, call.Pos(), true
}

// localSliceDecl finds how a local name is first declared, returning the
// initializer expression (nil for `var x []T` with no value), the
// ValueSpec when declared by one (for -fix rewrites), and whether a
// slice-shaped declaration was found at all.
func localSliceDecl(body *ast.BlockStmt, name string) (init ast.Expr, spec *ast.ValueSpec, found bool) {
	done := false
	ast.Inspect(body, func(n ast.Node) bool {
		if done {
			return false
		}
		switch s := n.(type) {
		case *ast.ValueSpec:
			for i, id := range s.Names {
				if id.Name != name {
					continue
				}
				if _, isSlice := s.Type.(*ast.ArrayType); s.Type != nil && !isSlice {
					return false
				}
				if i < len(s.Values) {
					init = s.Values[i]
				}
				spec = s
				found, done = true, true
				return false
			}
		case *ast.AssignStmt:
			if s.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name != name || len(s.Rhs) != len(s.Lhs) {
					continue
				}
				switch r := s.Rhs[i].(type) {
				case *ast.CompositeLit:
					if _, isSlice := r.Type.(*ast.ArrayType); isSlice {
						init = r
						found, done = true, true
					}
				case *ast.CallExpr:
					if fid, ok := r.Fun.(*ast.Ident); ok && fid.Name == "make" && len(r.Args) > 0 {
						if _, isSlice := r.Args[0].(*ast.ArrayType); isSlice {
							init = r
							found, done = true, true
						}
					}
				}
				return false
			}
		}
		return true
	})
	return init, spec, found
}

// preallocated reports whether a slice initializer reserves capacity:
// make with an explicit cap, make with a nonzero length, or a composite
// literal with elements.
func preallocated(init ast.Expr) bool {
	switch e := init.(type) {
	case *ast.CallExpr:
		if len(e.Args) >= 3 {
			return true
		}
		if len(e.Args) == 2 {
			if bl, ok := e.Args[1].(*ast.BasicLit); ok && bl.Value == "0" {
				return false
			}
			return true
		}
		return false
	case *ast.CompositeLit:
		return len(e.Elts) > 0
	}
	return false
}
