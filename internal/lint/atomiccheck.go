// The atomic-discipline analyzer guards the Metrics counters' lock-free
// contract (PR 2): a field that is ever accessed atomically must be
// accessed atomically everywhere, and raw 64-bit fields driven through
// sync/atomic functions must be alignment-safe on 32-bit platforms.
//
// Two field families are tracked per package:
//
//   - typed atomics (atomic.Int64 and friends): every use must go through
//     a method call (Load/Store/Add/...); a bare read of the field value
//     is a data race that the race detector only catches when a test
//     happens to collide on it.
//   - raw atomics: plain int64/uint64 fields passed by address to
//     atomic.AddInt64-style functions. Any other read or write of such a
//     field is flagged, and the field's offset must be 8-byte aligned
//     under 32-bit layout rules (the documented sync/atomic requirement;
//     typed atomics embed align64 and are immune). Offsets come from
//     go/types' gc sizes for 386, which lay out align64 the way the
//     compiler does.
package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

var atomicMethodNames = map[string]bool{
	"Load": true, "Store": true, "Add": true, "Swap": true,
	"CompareAndSwap": true, "Or": true, "And": true,
}

// atomicFuncWidth maps sync/atomic function names to the bit width of the
// word they operate on (0 = not an atomic accessor).
func atomicFuncWidth(name string) int {
	switch name {
	case "AddInt64", "LoadInt64", "StoreInt64", "SwapInt64", "CompareAndSwapInt64",
		"AddUint64", "LoadUint64", "StoreUint64", "SwapUint64", "CompareAndSwapUint64":
		return 64
	case "AddInt32", "LoadInt32", "StoreInt32", "SwapInt32", "CompareAndSwapInt32",
		"AddUint32", "LoadUint32", "StoreUint32", "SwapUint32", "CompareAndSwapUint32",
		"AddUintptr", "LoadUintptr", "StoreUintptr", "SwapUintptr", "CompareAndSwapUintptr":
		return 32
	}
	return 0
}

// AtomicCheck returns the atomic-discipline analyzer.
func AtomicCheck() *Analyzer {
	return &Analyzer{
		Name:  "atomic",
		Doc:   "fields accessed via sync/atomic must never be accessed plainly, and raw 64-bit atomics must be alignment-safe",
		Check: checkAtomics,
	}
}

// fieldKey identifies a struct field across a package.
type fieldKey struct {
	typ   string // namedKey of the struct
	field string
}

// atomicSets are the module-wide tracked fields, computed once: typed
// atomic fields by declaring struct, raw atomically-accessed fields with
// their bit width, and the sanctioned &x.f nodes inside atomic calls.
type atomicSets struct {
	typed      map[fieldKey]bool
	raw        map[fieldKey]int
	sanctioned map[ast.Node]bool
}

func atomicSetsOf(m *Module) *atomicSets {
	if m.atomics != nil {
		return m.atomics
	}
	s := &atomicSets{
		typed:      make(map[fieldKey]bool),
		raw:        make(map[fieldKey]int),
		sanctioned: make(map[ast.Node]bool),
	}
	for _, p := range m.Pkgs {
		// Typed atomic fields declared on this package's structs.
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
						// The sync/atomic value types (not pointers to them).
						nt, ok := types.Unalias(p.Info.TypeOf(fld.Type)).(*types.Named)
						if !ok || nt.Obj().Pkg() == nil || nt.Obj().Pkg().Path() != "sync/atomic" {
							continue
						}
						for _, n := range fld.Names {
							s.typed[fieldKey{key, n.Name}] = true
						}
					}
				}
			}
		}
		// Raw fields accessed through sync/atomic functions.
		for _, f := range p.Files {
			for _, fn := range fileFuncs(f) {
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					path, name := p.qualified(call.Fun)
					if path != "sync/atomic" {
						return true
					}
					width := atomicFuncWidth(name)
					if width == 0 || len(call.Args) == 0 {
						return true
					}
					addr, ok := call.Args[0].(*ast.UnaryExpr)
					if !ok {
						return true
					}
					fieldSel, ok := addr.X.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if key := p.typeKey(fieldSel.X); key != "" {
						s.raw[fieldKey{key, fieldSel.Sel.Name}] = width
						s.sanctioned[fieldSel] = true
					}
					return true
				})
			}
		}
	}
	m.atomics = s
	return s
}

func checkAtomics(p *Package) []Finding {
	m := p.Mod
	fset := m.Fset
	var out []Finding

	sets := atomicSetsOf(m)
	typed, raw, sanctioned := sets.typed, sets.raw, sets.sanctioned

	// Pass 2: every selector use of a tracked field must be atomic.
	for _, f := range p.Files {
		for _, fn := range fileFuncs(f) {
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				key := p.typeKey(sel.X)
				if key == "" {
					return true
				}
				fk := fieldKey{key, sel.Sel.Name}
				if typed[fk] {
					// Allowed only as the receiver of an atomic method:
					// parent must be a SelectorExpr naming one.
					if par, ok := f.Parent(sel).(*ast.SelectorExpr); ok && atomicMethodNames[par.Sel.Name] {
						return true
					}
					pos := fset.Position(sel.Pos())
					out = append(out, Finding{
						Rule: "atomic", File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Message: fmt.Sprintf("atomic field %s.%s used without an atomic method: this is a data race with its lock-free writers", shortKey(key), sel.Sel.Name),
						Hint:    fmt.Sprintf("use %s.Load() / .Store() / .Add()", exprString(fset, sel)),
					})
					return true
				}
				if _, ok := raw[fk]; ok && !sanctioned[sel] {
					pos := fset.Position(sel.Pos())
					out = append(out, Finding{
						Rule: "atomic", File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Message: fmt.Sprintf("field %s.%s is accessed via sync/atomic elsewhere but plainly here: mixed access is a data race", shortKey(key), sel.Sel.Name),
						Hint:    "route every access through the same sync/atomic calls (or switch the field to atomic.Int64)",
					})
				}
				return true
			})
		}
	}

	// Pass 3: alignment of raw 64-bit atomic fields under 32-bit layout,
	// reported once, against the declaring package.
	for fk, width := range raw {
		if width != 64 {
			continue
		}
		tn, _ := p.Types.Scope().Lookup(strings.TrimPrefix(fk.typ, p.ImportPath+".")).(*types.TypeName)
		if tn == nil || p.ImportPath+"."+tn.Name() != fk.typ {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		fields := make([]*types.Var, st.NumFields())
		for i := range fields {
			fields[i] = st.Field(i)
		}
		offs := sizes32.Offsetsof(fields)
		for i, fld := range fields {
			if fld.Name() != fk.field || offs[i]%8 == 0 {
				continue
			}
			pos := fset.Position(fld.Pos())
			out = append(out, Finding{
				Rule: "atomic", File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Message: fmt.Sprintf("64-bit atomic field %s.%s sits at 32-bit offset %d: sync/atomic requires 8-byte alignment on 32-bit platforms", shortKey(fk.typ), fk.field, offs[i]),
				Hint:    "move the field to the front of the struct, pad to 8 bytes, or use atomic.Int64 (which embeds align64)",
			})
		}
	}
	return out
}

// sizes32 is the gc layout of a 32-bit platform.
var sizes32 = types.SizesFor("gc", "386")

// fileFuncs returns the file's function declarations with bodies.
func fileFuncs(f *File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, d := range f.AST.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
			out = append(out, fn)
		}
	}
	return out
}

func shortKey(key string) string {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '/' {
			return key[i+1:]
		}
	}
	return key
}
