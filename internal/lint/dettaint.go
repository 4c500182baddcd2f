// The determinism-taint analyzer: the interprocedural generalization of
// the determinism rule. The per-package rule bans nondeterminism sources
// syntactically inside report-producing packages; dettaint tracks the
// *values* those sources produce as they flow through assignments,
// calls, returns, and struct fields, and reports them only where they
// can change rendered bytes: at report/artifact/audit sinks.
//
// Sources (the taint lattice's non-bottom elements, one per origin):
//
//	time.Now / Since / Until / Tick   wall-clock
//	math/rand package-level funcs     global rand source
//	runtime.GOMAXPROCS / NumCPU       parallelism-dependent values
//	map iteration (collected slices)  randomized range order
//
// Sinks are declared with a doc-comment directive on the function:
//
//	// conflint:sink <label>
//
// (the label is mandatory — a bare directive is a finding). A finding
// is reported when (a) a tainted value is passed as an argument to a
// sink function, anywhere in the module, or (b) a source is read or a
// tainted struct field is loaded inside the sink's call closure — the
// functions a sink provably reaches, where the bytes are being built.
//
// Sanitizers: sorting clears map-iteration-order taint (sorted output
// no longer depends on range order); len/cap/make/new produce clean
// values. Nothing clears wall-clock or rand taint — those need a
// reasoned conflint:ignore where observability genuinely wants them.
//
// Per-function summaries (does the return value carry taint? does it
// forward taint from parameter i?) and the module-wide tainted-field
// set are driven to a fixpoint on the deterministic worklist
// (dataflow.go); witnesses chain source → assignments → fields → sink.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

const sinkDirective = "conflint:sink"

// DetTaint returns the determinism-taint analyzer.
func DetTaint() *Analyzer {
	return &Analyzer{
		Name:  "dettaint",
		Doc:   "nondeterminism sources (wall clock, global rand, map order, GOMAXPROCS) must not flow into conflint:sink report functions",
		Check: func(p *Package) []Finding { return p.Mod.interprocFindings(p, "dettaint", detTaintModule) },
	}
}

// dtVal is one abstract value: an optional taint plus the set of
// parameters it may forward (a bitmask over the enclosing function's
// parameters, for summaries).
type dtVal struct {
	t      *taintVal
	params uint64
}

func (v dtVal) union(o dtVal) dtVal {
	out := dtVal{t: v.t, params: v.params | o.params}
	if out.t == nil {
		out.t = o.t
	}
	return out
}

// dtSummary is one function's taint summary.
type dtSummary struct {
	ret       *taintVal // non-nil: the return value may carry this taint
	retParams uint64    // the return value may forward these parameters
}

// dtAnalysis is the module-wide fixpoint state.
type dtAnalysis struct {
	m       *Module
	sums    map[string]*dtSummary
	fields  map[fieldKey]*taintVal
	readers map[fieldKey][]string // field -> functions that read it
	written map[string][]fieldKey // function -> fields it assigns
	// sink declarations and the sink call closure.
	roots   map[string]string // sink function key -> label
	via     map[string]sinkHop
	changed bool // set when fields gained taint during one recompute
}

type sinkHop struct {
	from string
	pos  token.Pos
	root string
}

// sourceCall classifies a call as a nondeterminism source ("" if not).
func sourceCall(p *Package, call *ast.CallExpr) string {
	switch path, name := p.qualified(call.Fun); path {
	case "time":
		switch name {
		case "Now", "Since", "Until", "Tick":
			return "time." + name
		}
	case "math/rand", "math/rand/v2":
		if bannedRandFunc(name) {
			return "rand." + name
		}
	case "runtime":
		switch name {
		case "GOMAXPROCS", "NumCPU":
			return "runtime." + name
		}
	}
	return ""
}

const mapOrderSrc = "map iteration order"

// scanSinks collects conflint:sink directives from function doc
// comments: key -> label, plus findings for label-less directives.
func scanSinks(m *Module) (map[string]string, []Finding) {
	roots := make(map[string]string)
	var bare []Finding
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for _, fn := range fileFuncs(f) {
				if fn.Doc == nil {
					continue
				}
				for _, c := range fn.Doc.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, sinkDirective)
					if !ok {
						continue
					}
					label := strings.TrimSpace(strings.TrimLeft(rest, " \t—-"))
					if label == "" {
						// The fix labels the sink after the function it
						// marks — mechanical, and it arms the rule: the
						// re-lint then audits the sink's call closure.
						at := m.offsetOf(c.End())
						pos := m.Fset.Position(c.Pos())
						bare = append(bare, Finding{
							Rule: "dettaint", File: f.Path, Line: pos.Line, Col: pos.Column,
							Message: "conflint:sink needs a label (// conflint:sink <what this renders>)",
							Hint:    "name the artifact this function produces",
							Fixes:   []TextEdit{{File: f.Path, Start: at, End: at, New: " " + fn.Name.Name}},
						})
						continue
					}
					roots[funcKey(p, fn)] = label
				}
			}
		}
	}
	return roots, bare
}

// sinkClosure BFSes from the sink roots over resolved, non-go call
// edges, recording for each reached function the hop that discovered it
// (for witness chains). Roots are processed in sorted order so the
// discovered parents are deterministic.
func (a *dtAnalysis) sinkClosure() {
	a.via = make(map[string]sinkHop)
	g := a.m.Graph()
	var rootKeys []string
	for k := range a.roots {
		rootKeys = append(rootKeys, k)
	}
	sort.Strings(rootKeys)
	for _, root := range rootKeys {
		queue := []string{root}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			node := g.Node(cur)
			if node == nil {
				continue
			}
			for _, cs := range node.Out {
				if cs.Go {
					continue
				}
				if _, seen := a.via[cs.Callee]; seen {
					continue
				}
				if _, isRoot := a.roots[cs.Callee]; isRoot {
					continue
				}
				a.via[cs.Callee] = sinkHop{from: cur, pos: cs.Pos, root: root}
				queue = append(queue, cs.Callee)
			}
		}
	}
}

// inClosure reports the root whose closure contains key ("" if none).
func (a *dtAnalysis) inClosure(key string) string {
	if _, ok := a.roots[key]; ok {
		return key
	}
	if hop, ok := a.via[key]; ok {
		return hop.root
	}
	return ""
}

// closureChain renders the call chain from a sink root down to key.
func (a *dtAnalysis) closureChain(key string) []string {
	var hops []string
	cur := key
	for {
		hop, ok := a.via[cur]
		if !ok {
			break
		}
		hops = append(hops, a.m.stepf(hop.pos, "%s calls %s", a.m.shortKey(hop.from), a.m.shortKey(cur)))
		cur = hop.from
	}
	root := cur
	out := []string{fmt.Sprintf("report sink %s (%s)", a.m.shortKey(root), a.roots[root])}
	for i := len(hops) - 1; i >= 0; i-- {
		out = append(out, hops[i])
	}
	return out
}

// scanFieldDeps builds the field-reader and field-writer indexes that
// let the fixpoint requeue exactly the functions a newly tainted field
// can reach.
func (a *dtAnalysis) scanFieldDeps() {
	m := a.m
	g := m.Graph()
	a.readers = make(map[fieldKey][]string)
	a.written = make(map[string][]fieldKey)
	readSet := make(map[fieldKey]map[string]bool)
	for _, key := range g.Keys() {
		node := g.Node(key)
		if node == nil || node.Fn == nil || node.Fn.decl.Body == nil {
			continue
		}
		fd := node.Fn
		writes := make(map[ast.Expr]bool)
		ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				for _, l := range as.Lhs {
					writes[l] = true
				}
			}
			return true
		})
		ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			tk := fd.pkg.typeKey(sel.X)
			if tk == "" {
				return true
			}
			fk := fieldKey{tk, sel.Sel.Name}
			if writes[ast.Expr(sel)] {
				a.written[key] = append(a.written[key], fk)
			} else {
				if readSet[fk] == nil {
					readSet[fk] = make(map[string]bool)
				}
				readSet[fk][key] = true
			}
			return true
		})
	}
	for fk, set := range readSet {
		var ks []string
		for k := range set {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		a.readers[fk] = ks
	}
}

// dtCtx walks one function body.
type dtCtx struct {
	a      *dtAnalysis
	fd     *funcDecl
	key    string
	env    map[string]dtVal
	params map[string]int
	ret    dtVal
	mapRng int // depth of enclosing range-over-map statements
	report func(pos token.Pos, msg string, witness []string)
}

func (a *dtAnalysis) newCtx(key string, report func(pos token.Pos, msg string, witness []string)) *dtCtx {
	node := a.m.Graph().Node(key)
	if node == nil || node.Fn == nil || node.Fn.decl.Body == nil {
		return nil
	}
	dc := &dtCtx{a: a, fd: node.Fn, key: key, env: make(map[string]dtVal), params: make(map[string]int), report: report}
	i := 0
	if ps := node.Fn.decl.Type.Params; ps != nil {
		for _, fld := range ps.List {
			for _, n := range fld.Names {
				if i < 64 {
					dc.params[n.Name] = i
				}
				i++
			}
		}
	}
	return dc
}

func (dc *dtCtx) run() {
	dc.walkStmts(dc.fd.decl.Body.List)
}

func (dc *dtCtx) walkStmts(list []ast.Stmt) {
	for _, s := range list {
		dc.walkStmt(s)
	}
}

func (dc *dtCtx) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		n := len(s.Lhs)
		var vals []dtVal
		if len(s.Rhs) == n {
			for _, r := range s.Rhs {
				vals = append(vals, dc.eval(r))
			}
		} else {
			// Multi-assign from one call: every target shares the
			// call's taint (coarse, conservative toward reporting at
			// the summary level but sinks see the same value anyway).
			v := dc.eval(s.Rhs[0])
			for i := 0; i < n; i++ {
				vals = append(vals, v)
			}
		}
		for i, l := range s.Lhs {
			dc.assign(l, vals[i], s.Rhs[min(i, len(s.Rhs)-1)])
		}
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if ok && sortCall(dc.fd.pkg, call) && len(call.Args) > 0 {
			// A sort sanitizes map-iteration-order taint on its target,
			// seen through a conversion to a sort.Interface type
			// (`sort.Sort(byValue(vcs))`).
			target := call.Args[0]
			if conv, ok := target.(*ast.CallExpr); ok && len(conv.Args) == 1 && dc.fd.pkg.Info.Types[conv.Fun].IsType() {
				target = conv.Args[0]
			}
			if id, ok := rootExprIdent(target); ok {
				if v, has := dc.env[id]; has && v.t != nil && v.t.src == mapOrderSrc {
					v.t = nil
					dc.env[id] = v
				}
			}
			return
		}
		dc.eval(s.X)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			dc.ret = dc.ret.union(dc.eval(r))
		}
	case *ast.IfStmt:
		if s.Init != nil {
			dc.walkStmt(s.Init)
		}
		dc.eval(s.Cond)
		dc.walkStmts(s.Body.List)
		if s.Else != nil {
			dc.walkStmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			dc.walkStmt(s.Init)
		}
		if s.Cond != nil {
			dc.eval(s.Cond)
		}
		dc.walkStmts(s.Body.List)
		if s.Post != nil {
			dc.walkStmt(s.Post)
		}
	case *ast.RangeStmt:
		v := dc.eval(s.X)
		isMap := dc.fd.pkg.isMap(s.X)
		// Range variables inherit the ranged value's taint.
		for _, e := range []ast.Expr{s.Key, s.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				dc.env[id.Name] = v
			}
		}
		if isMap {
			dc.mapRng++
		}
		dc.walkStmts(s.Body.List)
		if isMap {
			dc.mapRng--
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			dc.walkStmt(s.Init)
		}
		if s.Tag != nil {
			dc.eval(s.Tag)
		}
		dc.walkStmts(s.Body.List)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			dc.walkStmt(s.Init)
		}
		dc.walkStmt(s.Assign)
		dc.walkStmts(s.Body.List)
	case *ast.CaseClause:
		for _, e := range s.List {
			dc.eval(e)
		}
		dc.walkStmts(s.Body)
	case *ast.SelectStmt:
		dc.walkStmts(s.Body.List)
	case *ast.CommClause:
		if s.Comm != nil {
			dc.walkStmt(s.Comm)
		}
		dc.walkStmts(s.Body)
	case *ast.BlockStmt:
		dc.walkStmts(s.List)
	case *ast.LabeledStmt:
		dc.walkStmt(s.Stmt)
	case *ast.SendStmt:
		dc.eval(s.Chan)
		dc.eval(s.Value)
	case *ast.IncDecStmt:
		dc.eval(s.X)
	case *ast.DeferStmt:
		dc.eval(s.Call)
	case *ast.GoStmt:
		dc.eval(s.Call)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						dc.assign(name, dc.eval(vs.Values[i]), vs.Values[i])
					}
				}
			}
		}
	}
}

// assign records one value landing in a target: locals update the
// environment, resolvable struct fields join the module-wide tainted
// field set (requeuing their readers via the fixpoint's deps hook).
func (dc *dtCtx) assign(target ast.Expr, v dtVal, src ast.Expr) {
	m := dc.a.m
	// Appends inside a map range carry iteration-order taint.
	if dc.mapRng > 0 && v.t == nil && isAppendCall(src) {
		v.t = &taintVal{src: mapOrderSrc, steps: []string{m.stepf(src.Pos(), "collected during map iteration")}}
	}
	switch t := target.(type) {
	case *ast.Ident:
		if t.Name == "_" {
			return
		}
		old := dc.env[t.Name]
		dc.env[t.Name] = old.union(v)
	case *ast.SelectorExpr:
		if v.t == nil {
			return
		}
		tk := dc.fd.pkg.typeKey(t.X)
		if tk == "" {
			return
		}
		fk := fieldKey{tk, t.Sel.Name}
		if dc.a.fields[fk] == nil {
			dc.a.fields[fk] = v.t.extend(m.stepf(target.Pos(), "assigned to %s.%s", m.shortKey(fk.typ), fk.field))
			dc.a.changed = true
		}
	case *ast.IndexExpr:
		dc.eval(t.X)
		dc.eval(t.Index)
	case *ast.StarExpr:
		dc.eval(t.X)
	}
}

func isAppendCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "append"
}

func rootExprIdent(e ast.Expr) (string, bool) {
	id := rootIdent(e)
	if id == nil {
		return "", false
	}
	return id.Name, true
}

// eval computes the abstract value of an expression, reporting sources,
// tainted field reads, and tainted sink arguments when in report mode.
func (dc *dtCtx) eval(e ast.Expr) dtVal {
	switch e := e.(type) {
	case nil:
		return dtVal{}
	case *ast.Ident:
		if i, ok := dc.params[e.Name]; ok {
			if v, has := dc.env[e.Name]; has {
				return v.union(dtVal{params: 1 << uint(i)})
			}
			return dtVal{params: 1 << uint(i)}
		}
		return dc.env[e.Name]
	case *ast.ParenExpr:
		return dc.eval(e.X)
	case *ast.StarExpr:
		return dc.eval(e.X)
	case *ast.UnaryExpr:
		return dc.eval(e.X)
	case *ast.BinaryExpr:
		return dc.eval(e.X).union(dc.eval(e.Y))
	case *ast.IndexExpr:
		v := dc.eval(e.X)
		dc.eval(e.Index)
		return v
	case *ast.SliceExpr:
		return dc.eval(e.X)
	case *ast.KeyValueExpr:
		return dc.eval(e.Value)
	case *ast.CompositeLit:
		var v dtVal
		for _, el := range e.Elts {
			v = v.union(dc.eval(el))
		}
		return v
	case *ast.TypeAssertExpr:
		return dc.eval(e.X)
	case *ast.SelectorExpr:
		return dc.evalSelector(e)
	case *ast.CallExpr:
		return dc.evalCall(e)
	case *ast.FuncLit:
		return dtVal{} // judged at its own call sites when resolvable
	default:
		return dtVal{}
	}
}

// evalSelector handles field reads: a load of a module struct field that
// the fixpoint marked tainted yields that taint (and is a finding inside
// a sink closure).
func (dc *dtCtx) evalSelector(sel *ast.SelectorExpr) dtVal {
	m := dc.a.m
	base := dc.eval(sel.X)
	tk := dc.fd.pkg.typeKey(sel.X)
	if tk == "" {
		return base
	}
	fk := fieldKey{tk, sel.Sel.Name}
	t := dc.a.fields[fk]
	if t == nil {
		return base
	}
	v := base.union(dtVal{t: t.extend(m.stepf(sel.Pos(), "read in %s", m.shortKey(dc.key)))})
	if dc.report != nil {
		if root := dc.a.inClosure(dc.key); root != "" {
			witness := append(dc.a.closureChain(dc.key), t.steps...)
			witness = append(witness, m.stepf(sel.Pos(), "read while rendering"))
			dc.report(sel.Pos(), fmt.Sprintf("tainted field %s.%s (source: %s) is read inside the call closure of report sink %s (%s): rendered bytes would vary run to run",
				m.shortKey(fk.typ), fk.field, t.src, m.shortKey(root), dc.a.roots[root]), witness)
		}
	}
	return v
}

func (dc *dtCtx) evalCall(call *ast.CallExpr) dtVal {
	m := dc.a.m
	// Builtins that never carry taint / always merge their args.
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch id.Name {
		case "len", "cap", "make", "new":
			for _, a := range call.Args {
				dc.eval(a)
			}
			return dtVal{}
		case "append":
			var v dtVal
			for _, a := range call.Args {
				v = v.union(dc.eval(a))
			}
			return v
		}
	}
	// Nondeterminism sources.
	if src := sourceCall(dc.fd.pkg, call); src != "" {
		t := &taintVal{src: src, steps: []string{m.stepf(call.Pos(), "%s called in %s", src, m.shortKey(dc.key))}}
		if dc.report != nil {
			if root := dc.a.inClosure(dc.key); root != "" {
				witness := append(dc.a.closureChain(dc.key), m.stepf(call.Pos(), "%s read while rendering", src))
				dc.report(call.Pos(), fmt.Sprintf("%s inside the call closure of report sink %s (%s): the rendered artifact would embed a nondeterministic value",
					src, m.shortKey(root), dc.a.roots[root]), witness)
			}
		}
		return dtVal{t: t}
	}
	// Module callee with a summary.
	if key := m.calleeKey(dc.fd.pkg, call); key != "" {
		argVals := make([]dtVal, len(call.Args))
		for i, a := range call.Args {
			argVals[i] = dc.eval(a)
		}
		if label, isSink := dc.a.roots[key]; isSink && dc.report != nil {
			for i, av := range argVals {
				if av.t == nil {
					continue
				}
				witness := append(append([]string(nil), av.t.steps...),
					m.stepf(call.Args[i].Pos(), "passed to report sink %s (%s)", m.shortKey(key), label))
				dc.report(call.Args[i].Pos(), fmt.Sprintf("tainted value (source: %s) passed to report sink %s (%s): rendered bytes would vary run to run",
					av.t.src, m.shortKey(key), label), witness)
			}
		}
		var out dtVal
		if s := dc.a.sums[key]; s != nil {
			if s.ret != nil {
				out.t = s.ret.extend(m.stepf(call.Pos(), "returned by %s", m.shortKey(key)))
			}
			for i, av := range argVals {
				if i < 64 && s.retParams&(1<<uint(i)) != 0 {
					if out.t == nil && av.t != nil {
						out.t = av.t.extend(m.stepf(call.Pos(), "flows through %s", m.shortKey(key)))
					}
					out.params |= av.params
				}
			}
		}
		return out
	}
	// Unresolved call (stdlib, conversion, function value): taint in,
	// taint out — fmt.Sprintf of a wall-clock value is still wall-clock.
	var v dtVal
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		v = v.union(dc.eval(sel.X))
	}
	for _, a := range call.Args {
		v = v.union(dc.eval(a))
	}
	if v.t != nil {
		v.t = v.t.extend(m.stepf(call.Pos(), "through %s", exprString(m.Fset, call.Fun)))
	}
	return v
}

// recompute runs one function's transfer and folds the result into its
// summary; true when the summary (or the field set) changed.
func (a *dtAnalysis) recompute(key string) bool {
	a.changed = false
	dc := a.newCtx(key, nil)
	if dc == nil {
		return false
	}
	dc.run()
	old := a.sums[key]
	if old == nil {
		old = &dtSummary{}
		a.sums[key] = old
	}
	changed := a.changed
	if old.ret == nil && dc.ret.t != nil {
		old.ret = dc.ret.t
		changed = true
	}
	if grown := old.retParams | dc.ret.params; grown != old.retParams {
		old.retParams = grown
		changed = true
	}
	return changed
}

// detTaintModule runs the whole analysis: sink scan, field-dependency
// scan, summary fixpoint, then one reporting pass.
func detTaintModule(m *Module) []Finding {
	roots, out := scanSinks(m)
	if len(roots) == 0 {
		return out
	}
	a := &dtAnalysis{
		m:      m,
		sums:   make(map[string]*dtSummary),
		fields: make(map[fieldKey]*taintVal),
		roots:  roots,
	}
	a.sinkClosure()
	a.scanFieldDeps()
	g := m.Graph()
	m.fixpoint("dettaint", g.Keys(), func(key string) []string {
		var deps []string
		for _, fk := range a.written[key] {
			if a.fields[fk] != nil {
				deps = append(deps, a.readers[fk]...)
			}
		}
		sort.Strings(deps)
		return deps
	}, a.recompute)

	for _, key := range g.Keys() {
		dc := a.newCtx(key, nil)
		if dc == nil {
			continue
		}
		reported := make(map[token.Pos]bool)
		dc.report = func(pos token.Pos, msg string, witness []string) {
			if reported[pos] {
				return
			}
			reported[pos] = true
			p := m.Fset.Position(pos)
			out = append(out, Finding{
				Rule: "dettaint", File: p.Filename, Line: p.Line, Col: p.Column,
				Message: msg,
				Hint:    "derive the value from simulated measures, sort map-collected slices, or conflint:ignore with a reason if observability genuinely needs it",
				Witness: witness,
			})
		}
		dc.run()
	}
	return out
}
