// Type checking: every loaded package is checked with go/types, the
// module's own packages from source in dependency order and every other
// import from the compiler's export data, located with
// `go list -export -deps` per module root. The analyzers ask the
// resulting types.Info their questions — "is this expression a map?",
// "what named type is this selector's base?", "which function does this
// call reach?" — and get exact answers.
package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// maxTypeErrors caps how many type errors a failed load reports.
const maxTypeErrors = 10

// typeCheck type-checks every package of m. Any type error fails the
// load: the analyzers never run on partial type information.
func (m *Module) typeCheck() error {
	m.byPath = make(map[string]*Package, len(m.Pkgs))
	for _, p := range m.Pkgs {
		m.byPath[p.ImportPath] = p
	}
	exports, err := m.exportFiles()
	if err != nil {
		return err
	}
	im := &srcImporter{
		byPath: m.byPath,
		active: make(map[string]bool),
		gc: importer.ForCompiler(m.Fset, "gc", func(path string) (io.ReadCloser, error) {
			file := exports[path]
			if file == "" {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(file)
		}),
	}
	for _, p := range m.Pkgs {
		if _, err := im.Import(p.ImportPath); err != nil {
			return err
		}
	}
	if len(im.errs) == 0 {
		return nil
	}
	msgs := make([]string, 0, maxTypeErrors)
	for _, e := range im.errs {
		if len(msgs) == maxTypeErrors {
			msgs = append(msgs, fmt.Sprintf("(and %d more)", len(im.errs)-maxTypeErrors))
			break
		}
		msgs = append(msgs, e.Error())
	}
	return fmt.Errorf("lint: type errors:\n\t%s", strings.Join(msgs, "\n\t"))
}

// srcImporter checks module packages from source on first import and
// delegates everything else to the export-data importer.
type srcImporter struct {
	byPath map[string]*Package
	active map[string]bool // packages being checked (import-cycle guard)
	gc     types.Importer
	errs   []error
}

func (im *srcImporter) Import(path string) (*types.Package, error) {
	p := im.byPath[path]
	if p == nil {
		return im.gc.Import(path)
	}
	if p.Types != nil {
		return p.Types, nil
	}
	if im.active[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	im.active[path] = true
	defer delete(im.active, path)
	conf := types.Config{
		Importer: im,
		Error:    func(err error) { im.errs = append(im.errs, err) },
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	asts := make([]*ast.File, len(p.Files))
	for i, f := range p.Files {
		asts[i] = f.AST
	}
	// Errors are collected through conf.Error; the package is complete
	// enough to keep checking its importers, and the load fails after.
	pkg, _ := conf.Check(path, p.Mod.Fset, asts, info)
	p.Types, p.Info = pkg, info
	return pkg, nil
}

// exportFiles maps every import reachable from the module but outside it
// to its export-data file, running `go list -export -deps` once per
// module root (the nearest go.mod above each importing package).
func (m *Module) exportFiles() (map[string]string, error) {
	wanted := make(map[string]map[string]bool) // module root -> imports
	for _, p := range m.Pkgs {
		root := m.modRootOf(p.Dir)
		for _, f := range p.Files {
			for _, imp := range f.AST.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if m.byPath[path] != nil || path == "unsafe" {
					continue
				}
				if wanted[root] == nil {
					wanted[root] = make(map[string]bool)
				}
				wanted[root][path] = true
			}
		}
	}
	roots := make([]string, 0, len(wanted))
	for r := range wanted {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	exports := make(map[string]string)
	for _, root := range roots {
		paths := make([]string, 0, len(wanted[root]))
		for p := range wanted[root] {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		if err := goListExports(root, paths, exports); err != nil {
			return nil, err
		}
	}
	return exports, nil
}

// modRootOf returns the directory of the nearest go.mod at or above dir,
// stopping at the module root (a fixture directory has none).
func (m *Module) modRootOf(dir string) string {
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil || d == m.Root {
			return d
		}
		if filepath.Dir(d) == d {
			return m.Root
		}
	}
}

// goListExports runs `go list -export -deps` in dir for paths and records
// each listed package's export-data file (the first listing wins).
func goListExports(dir string, paths []string, exports map[string]string) error {
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export", "--"}, paths...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("lint: go list -export in %s: %v\n%s", dir, err, strings.TrimSpace(stderr.String()))
	}
	dec := json.NewDecoder(&stdout)
	for {
		var pkg struct{ ImportPath, Export string }
		err := dec.Decode(&pkg)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("lint: go list -export output: %w", err)
		}
		if _, ok := exports[pkg.ImportPath]; !ok {
			exports[pkg.ImportPath] = pkg.Export
		}
	}
}

// typeKey returns the named-type key of an expression's type ("" for a
// package name, which has none).
func (p *Package) typeKey(e ast.Expr) string { return namedKey(p.Info.TypeOf(e)) }

// namedKey returns "importPath.TypeName" for a named type or a pointer
// to one ("time.Time", "repro/internal/engine.Engine"), or "" for
// unnamed, predeclared and unknown types.
func namedKey(t types.Type) string {
	for t != nil {
		ptr, ok := types.Unalias(t).(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// underlying returns the underlying type of t, looking through
// pointers; nil stays nil.
func underlying(t types.Type) types.Type {
	for t != nil {
		ptr, ok := t.Underlying().(*types.Pointer)
		if !ok {
			return t.Underlying()
		}
		t = ptr.Elem()
	}
	return nil
}

// isChan reports whether an expression is a channel.
func (p *Package) isChan(e ast.Expr) bool {
	_, ok := underlying(p.Info.TypeOf(e)).(*types.Chan)
	return ok
}

// isMap reports whether an expression is a map.
func (p *Package) isMap(e ast.Expr) bool {
	_, ok := underlying(p.Info.TypeOf(e)).(*types.Map)
	return ok
}

// importedPath returns the import path a package-name identifier refers
// to, or "" when e is not a package name.
func (p *Package) importedPath(e ast.Expr) string {
	id, ok := e.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// qualified returns the import path and name of a package-qualified
// selector (`time.Now` -> "time", "Now"), or "" when the selector is
// anything else.
func (p *Package) qualified(e ast.Expr) (path, name string) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	if path = p.importedPath(sel.X); path == "" {
		return "", ""
	}
	return path, sel.Sel.Name
}

// callee returns the function or method a call statically targets —
// package functions, methods selected on a value (interface methods
// included), generic instantiations — or nil for builtins, conversions
// and calls of function values.
func (p *Package) callee(call *ast.CallExpr) *types.Func {
	fun := unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = p.Info.Uses[f]
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[f]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			obj = sel.Obj()
		} else {
			obj = p.Info.Uses[f.Sel]
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return fn.Origin()
}

// funcObjKey returns a function's key in the call graph's format:
// "importPath.Func" for functions, "importPath.Type.Method" for methods
// (the receiver's named type, pointers stripped). Methods of unnamed
// interfaces have no key.
func funcObjKey(fn *types.Func) string {
	if recv := signature(fn).Recv(); recv != nil {
		if tk := namedKey(recv.Type()); tk != "" {
			return tk + "." + fn.Name()
		}
		return ""
	}
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// isInterfaceMethod reports whether fn is an interface's abstract method.
func isInterfaceMethod(fn *types.Func) bool {
	recv := signature(fn).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// inModule reports whether a function is declared in one of the loaded
// packages.
func (m *Module) inModule(fn *types.Func) bool {
	return fn.Pkg() != nil && m.byPath[fn.Pkg().Path()] != nil
}

// signature returns a function's signature.
func signature(fn *types.Func) *types.Signature { return fn.Type().(*types.Signature) }

// isMutexType reports whether t is sync.Mutex or sync.RWMutex, or a
// pointer to one.
func isMutexType(t types.Type) (rw, ok bool) {
	switch namedKey(t) {
	case "sync.Mutex":
		return false, true
	case "sync.RWMutex":
		return true, true
	}
	return false, false
}

// returnsError reports whether a signature's last result is `error`.
func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	return res.Len() > 0 && types.Identical(res.At(res.Len()-1).Type(), errorType)
}

var errorType = types.Universe.Lookup("error").Type()
