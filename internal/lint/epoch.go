// The epoch analyzer: the machine-checked version of the what-if cache
// contract from PR 5. Config-bearing fields (the engine's catalog,
// views, indexes, the cluster's shard topology) are annotated
//
//	// conflint:guardedby mu conflint:epoch
//
// and the invalidation counter itself
//
//	// conflint:guardedby mu conflint:epochcounter
//
// (the tokens are whitespace-separated so they compose with lockcheck's
// guardedby annotation). The rule: any function that writes an epoch
// field must bump an epoch counter on every path before returning —
// either directly (write/++ of a counter field) or by calling, on every
// such path, a callee that itself provably bumps on all of its paths.
// A mutate-without-bump would leave stale what-if sessions validating
// against a configuration that no longer exists.
//
// The analysis is a forward must-analysis over each function body
// (branch joins AND the bumped bit, loops may run zero times, a defer
// of a bumping callee covers every later return) plus an interprocedural
// "bumps on all paths" summary computed to a fixpoint over the call
// graph (dataflow.go). Go-spawned calls never count as bumps. Writes
// through a locally constructed value (`c := &Cluster{...}`) are exempt:
// a constructor initializes, it does not mutate observable state.
//
// Conservatism: writes inside function literals are not attributed to
// the enclosing function, and an unresolvable write target produces no
// finding — consistent with the rest of the suite, silence over noise.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

const (
	epochDirective        = "conflint:epoch"
	epochCounterDirective = "conflint:epochcounter"
)

// Epoch returns the epoch-bump analyzer.
func Epoch() *Analyzer {
	return &Analyzer{
		Name:  "epoch",
		Doc:   "functions writing conflint:epoch config-bearing fields must bump a conflint:epochcounter on every path before returning",
		Check: func(p *Package) []Finding { return p.Mod.interprocFindings(p, "epoch", epochModule) },
	}
}

// epochSets are the module-wide annotated fields.
type epochSets struct {
	guarded  map[fieldKey]token.Pos // epoch-directive fields -> declaration pos
	counters map[fieldKey]bool      // epochcounter-directive fields
	guards   map[fieldKey]string    // epoch fields -> their conflint:guardedby mutex
}

// fieldHasToken reports whether a struct field's doc or trailing comment
// carries the exact whitespace-separated token.
func fieldHasToken(fld *ast.Field, tok string) bool {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			for _, w := range strings.Fields(strings.TrimPrefix(c.Text, "//")) {
				if w == tok {
					return true
				}
			}
		}
	}
	return false
}

func epochSetsOf(m *Module) *epochSets {
	if m.epochs != nil {
		return m.epochs
	}
	s := &epochSets{guarded: make(map[fieldKey]token.Pos), counters: make(map[fieldKey]bool), guards: make(map[fieldKey]string)}
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for _, d := range f.AST.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					key := p.ImportPath + "." + ts.Name.Name
					for _, fld := range st.Fields.List {
						for _, n := range fld.Names {
							if fieldHasToken(fld, epochDirective) {
								s.guarded[fieldKey{key, n.Name}] = n.Pos()
								if mu := guardAnnotation(fld); mu != "" {
									s.guards[fieldKey{key, n.Name}] = mu
								}
							}
							if fieldHasToken(fld, epochCounterDirective) {
								s.counters[fieldKey{key, n.Name}] = true
							}
						}
					}
				}
			}
		}
	}
	m.epochs = s
	return s
}

// counterNames renders the declared counters for findings.
func (s *epochSets) counterNames(m *Module) string {
	var ns []string
	for fk := range s.counters {
		ns = append(ns, m.shortKey(fk.typ)+"."+fk.field)
	}
	sort.Strings(ns)
	if len(ns) == 0 {
		return "an epoch counter"
	}
	return strings.Join(ns, ", ")
}

// epochWrite is one pending config-field write awaiting a bump.
type epochWrite struct {
	pos token.Pos
	key fieldKey
}

// epochCall is a call made while a write was pending to a callee that
// does not bump on all paths — witness material for the finding.
type epochCall struct {
	pos    token.Pos
	callee string
}

// epochState is the abstract per-path state of the must-bump analysis.
type epochState struct {
	terminated bool // control already left the function on this path
	bumped     bool
	writes     []epochWrite
	tried      []epochCall
}

func joinEpoch(a, b epochState) epochState {
	if a.terminated {
		return b
	}
	if b.terminated {
		return a
	}
	out := epochState{bumped: a.bumped && b.bumped}
	out.writes = append(out.writes, a.writes...)
	for _, w := range b.writes {
		if !hasWrite(out.writes, w.pos) {
			out.writes = append(out.writes, w)
		}
	}
	out.tried = append(out.tried, a.tried...)
	for _, c := range b.tried {
		if !hasTried(out.tried, c.pos) {
			out.tried = append(out.tried, c)
		}
	}
	return out
}

func hasWrite(ws []epochWrite, pos token.Pos) bool {
	for _, w := range ws {
		if w.pos == pos {
			return true
		}
	}
	return false
}

func hasTried(cs []epochCall, pos token.Pos) bool {
	for _, c := range cs {
		if c.pos == pos {
			return true
		}
	}
	return false
}

// epochEval walks one function body. In summary mode (report == nil) it
// records the bumped bit at every exit; in report mode it emits one
// finding per unbumped pending write.
type epochEval struct {
	m      *Module
	sets   *epochSets
	sums   map[string]bool // bumpsAlways summaries (may be mid-fixpoint)
	fd     *funcDecl
	exits  []bool
	report func(w epochWrite, st epochState, exitPos token.Pos)
	seen   map[token.Pos]bool // writes already reported
}

func (ev *epochEval) run() {
	body := ev.fd.decl.Body
	out := ev.stmts(body.List, epochState{})
	if !out.terminated {
		ev.exit(out, body.End())
	}
}

func (ev *epochEval) exit(st epochState, pos token.Pos) {
	ev.exits = append(ev.exits, st.bumped)
	if ev.report == nil || st.bumped {
		return
	}
	for _, w := range st.writes {
		if ev.seen[w.pos] {
			continue
		}
		ev.seen[w.pos] = true
		ev.report(w, st, pos)
	}
}

// bumpsAlways reports whether every exit of the walked body was bumped.
func (ev *epochEval) bumpsAlways() bool {
	if len(ev.exits) == 0 {
		return true // no reachable exit: vacuously true
	}
	for _, b := range ev.exits {
		if !b {
			return false
		}
	}
	return true
}

func (ev *epochEval) stmts(list []ast.Stmt, in epochState) epochState {
	for _, s := range list {
		if in.terminated {
			return in
		}
		in = ev.stmt(s, in)
	}
	return in
}

func (ev *epochEval) stmt(s ast.Stmt, in epochState) epochState {
	switch s := s.(type) {
	case *ast.ExprStmt:
		ev.applyCalls(s.X, &in)
		return in
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			ev.applyCalls(r, &in)
		}
		for _, l := range s.Lhs {
			ev.target(l, &in)
		}
		return in
	case *ast.IncDecStmt:
		ev.target(s.X, &in)
		return in
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			ev.applyCalls(r, &in)
		}
		ev.exit(in, s.Pos())
		in.terminated = true
		return in
	case *ast.DeferStmt:
		// A deferred bump covers every return after this point.
		if key := ev.m.calleeKey(ev.fd.pkg, s.Call); key != "" && ev.sums[key] {
			in.bumped = true
		}
		ev.counterAddrArg(s.Call, &in)
		return in
	case *ast.GoStmt:
		return in // async: never a bump on this path
	case *ast.IfStmt:
		if s.Init != nil {
			in = ev.stmt(s.Init, in)
		}
		ev.applyCalls(s.Cond, &in)
		thenOut := ev.stmts(s.Body.List, in)
		elseOut := in
		if s.Else != nil {
			elseOut = ev.stmt(s.Else, in)
		}
		return joinEpoch(thenOut, elseOut)
	case *ast.ForStmt:
		if s.Init != nil {
			in = ev.stmt(s.Init, in)
		}
		if s.Cond != nil {
			ev.applyCalls(s.Cond, &in)
		}
		body := ev.stmts(s.Body.List, in)
		if s.Post != nil && !body.terminated {
			body = ev.stmt(s.Post, body)
		}
		if s.Cond == nil {
			// for{}: the loop cannot be skipped; its only exits are
			// breaks and returns (returns are handled at their site,
			// breaks approximate as terminated).
			return body
		}
		return joinEpoch(in, body)
	case *ast.RangeStmt:
		ev.applyCalls(s.X, &in)
		body := ev.stmts(s.Body.List, in)
		return joinEpoch(in, body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			in = ev.stmt(s.Init, in)
		}
		if s.Tag != nil {
			ev.applyCalls(s.Tag, &in)
		}
		return ev.clauses(s.Body.List, in)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			in = ev.stmt(s.Init, in)
		}
		if s.Assign != nil {
			in = ev.stmt(s.Assign, in)
		}
		return ev.clauses(s.Body.List, in)
	case *ast.SelectStmt:
		// Exactly one clause runs (select blocks until one is ready).
		out := epochState{terminated: true}
		for _, cl := range s.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			cur := in
			if cc.Comm != nil {
				cur = ev.stmt(cc.Comm, cur)
			}
			out = joinEpoch(out, ev.stmts(cc.Body, cur))
		}
		if len(s.Body.List) == 0 {
			return in
		}
		return out
	case *ast.BlockStmt:
		return ev.stmts(s.List, in)
	case *ast.LabeledStmt:
		return ev.stmt(s.Stmt, in)
	case *ast.BranchStmt:
		// break/continue/goto leave this straight-line path; their
		// targets are approximated as terminated (conservative toward
		// silence: a jumped-to path is never reported).
		in.terminated = true
		return in
	case *ast.SendStmt:
		ev.applyCalls(s.Chan, &in)
		ev.applyCalls(s.Value, &in)
		return in
	case *ast.DeclStmt:
		ev.applyCalls(s, &in)
		return in
	default:
		if s != nil {
			ev.applyCalls(s, &in)
		}
		return in
	}
}

// clauses joins a switch's case bodies; without a default the zero-case
// fall-through joins in too.
func (ev *epochEval) clauses(list []ast.Stmt, in epochState) epochState {
	out := epochState{terminated: true}
	hasDefault := false
	for _, cl := range list {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		cur := in
		for _, e := range cc.List {
			ev.applyCalls(e, &cur)
		}
		out = joinEpoch(out, ev.stmts(cc.Body, cur))
	}
	if !hasDefault {
		out = joinEpoch(out, in)
	}
	return out
}

// applyCalls folds the effect of every call inside an expression (or
// declaration statement) into the state, skipping function literals:
// a call to a callee that bumps on all paths sets bumped, a call to any
// other module function while a write is pending is witness material.
func (ev *epochEval) applyCalls(n ast.Node, st *epochState) {
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key := ev.m.calleeKey(ev.fd.pkg, call); key != "" {
			if ev.sums[key] {
				st.bumped = true
			} else if len(st.writes) > 0 && !hasTried(st.tried, call.Pos()) && len(st.tried) < 6 {
				st.tried = append(st.tried, epochCall{pos: call.Pos(), callee: key})
			}
		}
		ev.counterAddrArg(call, st)
		return true
	})
}

// counterAddrArg treats passing &x.counter to any call (atomic.AddInt64
// and friends) as a bump.
func (ev *epochEval) counterAddrArg(call *ast.CallExpr, st *epochState) {
	for _, a := range call.Args {
		u, ok := a.(*ast.UnaryExpr)
		if !ok || u.Op != token.AND {
			continue
		}
		if fk, ok := ev.fieldOf(u.X); ok && ev.sets.counters[fk] {
			st.bumped = true
		}
	}
}

// target folds one assignment/inc-dec target into the state: counter
// fields bump, epoch fields become pending writes (unless the base was
// constructed locally).
func (ev *epochEval) target(e ast.Expr, st *epochState) {
	fk, ok := ev.fieldOf(e)
	if !ok {
		return
	}
	if ev.sets.counters[fk] {
		st.bumped = true
		return
	}
	if _, ok := ev.sets.guarded[fk]; !ok {
		return
	}
	sel := baseSelector(e)
	if sel != nil && ev.freshBase(sel) {
		return
	}
	if !hasWrite(st.writes, e.Pos()) {
		st.writes = append(st.writes, epochWrite{pos: e.Pos(), key: fk})
	}
}

// fieldOf resolves an assignment target to a module struct field.
func (ev *epochEval) fieldOf(e ast.Expr) (fieldKey, bool) {
	sel := baseSelector(e)
	if sel == nil {
		return fieldKey{}, false
	}
	key := ev.fd.pkg.typeKey(sel.X)
	if key == "" {
		return fieldKey{}, false
	}
	return fieldKey{key, sel.Sel.Name}, true
}

// baseSelector unwraps indexes/derefs/parens down to the field selector:
// `e.indexes[k]` and `(*c).spec` both resolve to their selector.
func baseSelector(e ast.Expr) *ast.SelectorExpr {
	for {
		switch t := e.(type) {
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.SelectorExpr:
			return t
		default:
			return nil
		}
	}
}

// freshBase reports whether the selector's root variable is constructed
// inside this function (`c := &Cluster{...}`, `e := new(Engine)`):
// initializing a value nobody else can see yet needs no invalidation.
func (ev *epochEval) freshBase(sel *ast.SelectorExpr) bool {
	id := rootIdent(sel.X)
	if id == nil {
		return false
	}
	fresh := false
	ast.Inspect(ev.fd.decl.Body, func(n ast.Node) bool {
		if fresh {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE {
			return true
		}
		for i, l := range as.Lhs {
			lid, ok := l.(*ast.Ident)
			if !ok || lid.Name != id.Name {
				continue
			}
			if i < len(as.Rhs) && isFreshExpr(as.Rhs[i]) {
				fresh = true
			}
		}
		return true
	})
	return fresh
}

func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t
		default:
			return nil
		}
	}
}

func isFreshExpr(e ast.Expr) bool {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.UnaryExpr:
			if t.Op != token.AND {
				return false
			}
			e = t.X
		case *ast.CompositeLit:
			return true
		case *ast.CallExpr:
			id, ok := t.Fun.(*ast.Ident)
			return ok && id.Name == "new"
		default:
			return false
		}
	}
}

// epochModule runs the whole analysis: annotation scan, bumps-on-all-
// paths summaries to a fixpoint, then a reporting pass per function.
func epochModule(m *Module) []Finding {
	sets := epochSetsOf(m)
	if len(sets.guarded) == 0 {
		return nil
	}
	g := m.Graph()
	sums := make(map[string]bool)
	m.fixpoint("epoch", g.Keys(), nil, func(key string) bool {
		if sums[key] {
			return false // monotone: a bumper stays a bumper
		}
		node := g.Node(key)
		if node == nil || node.Fn == nil || node.Fn.decl.Body == nil {
			return false
		}
		ev := &epochEval{m: m, sets: sets, sums: sums, fd: node.Fn}
		ev.run()
		if ev.bumpsAlways() {
			sums[key] = true
			return true
		}
		return false
	})

	var out []Finding
	if len(sets.counters) == 0 {
		// Epoch fields with no counter anywhere: every write is a
		// violation by construction; say so once, at each field.
		var fks []fieldKey
		for fk := range sets.guarded {
			fks = append(fks, fk)
		}
		sort.Slice(fks, func(i, j int) bool {
			if fks[i].typ != fks[j].typ {
				return fks[i].typ < fks[j].typ
			}
			return fks[i].field < fks[j].field
		})
		for _, fk := range fks {
			pos := m.Fset.Position(sets.guarded[fk])
			out = append(out, Finding{
				Rule: "epoch", File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Message: fmt.Sprintf("%s.%s is marked conflint:epoch but no field is marked conflint:epochcounter: there is nothing to bump", m.shortKey(fk.typ), fk.field),
				Hint:    "mark the invalidation counter with conflint:epochcounter",
			})
		}
		return out
	}
	counters := sets.counterNames(m)
	for _, key := range g.Keys() {
		node := g.Node(key)
		if node == nil || node.Fn == nil || node.Fn.decl.Body == nil {
			continue
		}
		key := key
		ev := &epochEval{m: m, sets: sets, sums: sums, fd: node.Fn, seen: make(map[token.Pos]bool)}
		ev.report = func(w epochWrite, st epochState, exitPos token.Pos) {
			pos := m.Fset.Position(w.pos)
			witness := []string{m.stepf(w.pos, "%s writes %s.%s", m.shortKey(key), m.shortKey(w.key.typ), w.key.field)}
			for _, c := range st.tried {
				if c.pos > w.pos {
					witness = append(witness, m.stepf(c.pos, "calls %s, which does not bump on every path", m.shortKey(c.callee)))
				}
			}
			witness = append(witness, m.stepf(exitPos, "returns with the write unbumped"))
			out = append(out, Finding{
				Rule: "epoch", File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Message: fmt.Sprintf("%s writes config-bearing field %s.%s but can return without bumping %s: stale what-if sessions would keep validating against the old configuration", m.shortKey(key), m.shortKey(w.key.typ), w.key.field, counters),
				Hint:    "bump the epoch counter on every path before returning (directly, via a deferred bump, or by calling a callee that always bumps)",
				Witness: witness,
			})
		}
		ev.run()
	}
	return out
}
