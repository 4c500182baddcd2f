// Package lint implements conflint, the repository's own static-analysis
// suite. It enforces, at the source level, the invariants PR 1 and PR 2
// established by construction and test: the engine's lock discipline, the
// determinism of everything that feeds rendered reports, the atomicity of
// the metrics counters, and the absence of silently dropped errors.
//
// The suite is stdlib-only: packages are parsed with go/parser and
// type-checked with go/types (typecheck.go) — the module's own packages
// from source, every other import from the export data `go list
// -export` reports — so every analyzer works from exact types. A load
// with type errors fails, naming file and line: no rule ever runs on
// partial type information. The analyzers stay conservative where the
// program is dynamic — a call through a function value or an interface
// has no static target and produces no interprocedural finding
// (documented per analyzer).
//
// Findings can be suppressed line-by-line with
//
//	// conflint:ignore <reason>
//
// placed on the offending line or the line directly above. The reason is
// mandatory; a bare directive is itself a finding. Policy (see README
// "Invariants & static analysis"): directives are for provably benign
// cases only — wall-clock observability that never reaches a rendered
// report, best-effort writes to a disconnecting HTTP client — never for
// silencing a rule the code could satisfy.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Finding is one rule violation at one source position.
type Finding struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
	// Hint, when non-empty, is a suggested edit (the -hints mode prints
	// it under the offending source line).
	Hint string `json:"hint,omitempty"`
	// Package and Symbol locate the finding structurally (import path
	// and enclosing top-level declaration) — the key baselines use, so
	// a baseline survives reformatting while dying with the code it
	// described.
	Package string `json:"package,omitempty"`
	Symbol  string `json:"symbol,omitempty"`
	// Witness, for interprocedural findings, is the step-by-step path
	// that realizes the violation (lockorder cycle edges).
	Witness []string `json:"witness,omitempty"`
	// Fixes, when non-empty, is a machine-applicable suggested fix: a
	// set of byte-offset edits that together resolve the finding
	// (fix.go applies them under `conflint -fix`). Edits within one
	// finding are applied atomically or not at all.
	Fixes []TextEdit `json:"fixes,omitempty"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// File is one parsed, non-test Go source file.
type File struct {
	Path string // absolute path
	AST  *ast.File
	// lines is the raw source split by newline, for -hints output.
	lines []string
	// ignores maps a directive's own line number to the directive. A
	// directive suppresses findings on its line and the line below.
	ignores map[int]*ignoreInfo
	// parents maps every AST node to its parent, built on demand.
	parents map[ast.Node]ast.Node
}

// SourceLine returns the 1-based source line, or "".
func (f *File) SourceLine(n int) string {
	if n < 1 || n > len(f.lines) {
		return ""
	}
	return f.lines[n-1]
}

// Parent returns the syntactic parent of a node in this file.
func (f *File) Parent(n ast.Node) ast.Node {
	if f.parents == nil {
		f.parents = make(map[ast.Node]ast.Node)
		var stack []ast.Node
		ast.Inspect(f.AST, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if len(stack) > 0 {
				f.parents[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)
			return true
		})
	}
	return f.parents[n]
}

// Package is one parsed, type-checked package directory.
type Package struct {
	ImportPath string
	Dir        string
	Name       string
	Files      []*File
	Mod        *Module
	Types      *types.Package
	Info       *types.Info
}

// Module is a loaded source tree: the unit conflint runs over.
type Module struct {
	Root string // directory containing go.mod (or the fixture dir)
	Path string // module path from go.mod ("fixture" for test loads)
	Fset *token.FileSet
	Pkgs []*Package

	byPath  map[string]*Package // loaded packages by import path
	atomics *atomicSets         // lazy module-wide atomic-field sets (atomiccheck.go)
	graph   *CallGraph          // lazy module-wide call graph (callgraph.go)
	callers map[string][]string // lazy reverse call-graph edges (dataflow.go)
	epochs  *epochSets          // lazy epoch annotation sets (epoch.go)
	// inter caches module-wide analyzer results by rule name, so the
	// per-package Check calls of interprocedural rules share one run.
	// interMu guards it: RunParallel warms the cache from worker
	// goroutines (one per interprocedural rule, never two for the same
	// rule), while the sequential path takes the lock uncontended.
	interMu   sync.Mutex
	inter     map[string][]Finding  // conflint:guardedby interMu
	interOnce map[string]*sync.Once // conflint:guardedby interMu
	// statMu guards fixIters, the per-rule fixpoint iteration counts
	// (dataflow.go) reported in BENCH_conflint.json.
	statMu   sync.Mutex
	fixIters map[string]int // conflint:guardedby statMu
	// eff is the module-wide effect-summary state (effects.go), built
	// once under effOnce and shared by the pure and readpath rules.
	effOnce sync.Once
	eff     *effectState
	// usedMu guards usedIgnores: "path:line" of every ignore directive
	// that actually suppressed a finding this run. Most suppression
	// happens in finishRun, but shutdownpath consumes directives at
	// source level during its module pass and records them here.
	usedMu      sync.Mutex
	usedIgnores map[string]bool // conflint:guardedby usedMu
}

// noteIgnoreUsed records that the directive at path:line suppressed a
// finding (stale-ignore detection reads the set in finishRun).
func (m *Module) noteIgnoreUsed(path string, line int) {
	m.usedMu.Lock()
	defer m.usedMu.Unlock()
	if m.usedIgnores == nil {
		m.usedIgnores = make(map[string]bool)
	}
	m.usedIgnores[fmt.Sprintf("%s:%d", path, line)] = true
}

func (m *Module) ignoreUsed(path string, line int) bool {
	m.usedMu.Lock()
	defer m.usedMu.Unlock()
	return m.usedIgnores[fmt.Sprintf("%s:%d", path, line)]
}

// Analyzer is one conflint rule.
type Analyzer struct {
	Name  string
	Doc   string
	Check func(p *Package) []Finding
}

// All returns every analyzer in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		LockCheck(),
		Determinism(),
		AtomicCheck(),
		ErrCheck(),
		LockOrder(),
		GoLeak(),
		HotAlloc(),
		Epoch(),
		DetTaint(),
		ShutdownPath(),
		Pure(),
		ReadPath(),
	}
}

// ByNames resolves a comma-separated rule list against All. Unknown,
// empty, and duplicate names are hard errors — a typo in -rules must
// never silently run the wrong (or the same) rule set.
func ByNames(csv string) ([]*Analyzer, error) {
	if csv == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	seen := make(map[string]bool)
	var out []*Analyzer
	for _, n := range strings.Split(csv, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			return nil, fmt.Errorf("empty rule name in %q (have: %s)", csv, ruleNames())
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (have: %s)", n, ruleNames())
		}
		if seen[n] {
			return nil, fmt.Errorf("duplicate rule %q in %q", n, csv)
		}
		seen[n] = true
		out = append(out, a)
	}
	return out, nil
}

func ruleNames() string {
	var ns []string
	for _, a := range All() {
		ns = append(ns, a.Name)
	}
	return strings.Join(ns, ", ")
}

// skippedDirs are never descended into when loading a module.
func skipDir(name string) bool {
	switch name {
	case "testdata", "vendor", "artifacts":
		return true
	}
	return strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// LoadModule parses and type-checks every non-test Go file under root
// (the directory holding go.mod), nested modules included. Test files
// are excluded by design: the invariants guard production code paths,
// and test helpers legitimately drop errors and read clocks.
func LoadModule(root string) (*Module, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{Root: root, Path: modPath, Fset: token.NewFileSet()}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		imp := modPath
		if rel != "." {
			imp = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := m.loadDir(path, imp)
		if err != nil {
			return err
		}
		if pkg != nil {
			m.Pkgs = append(m.Pkgs, pkg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].ImportPath < m.Pkgs[j].ImportPath })
	if err := m.typeCheck(); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadFixture parses and type-checks a single directory as a one-package
// module (the fixture tests' entry point).
func LoadFixture(dir string) (*Module, error) {
	m := &Module{Root: dir, Path: "fixture", Fset: token.NewFileSet()}
	pkg, err := m.loadDir(dir, "fixture")
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	m.Pkgs = []*Package{pkg}
	if err := m.typeCheck(); err != nil {
		return nil, err
	}
	return m, nil
}

// loadDir parses the non-test Go files of one directory, returning nil
// when there are none.
func (m *Module) loadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{ImportPath: importPath, Dir: dir, Mod: m}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(m.Fset, path, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		file := &File{
			Path:    path,
			AST:     f,
			lines:   strings.Split(string(src), "\n"),
			ignores: scanIgnores(m.Fset, f),
		}
		pkg.Files = append(pkg.Files, file)
		if pkg.Name == "" {
			pkg.Name = f.Name.Name
		}
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	sort.Slice(pkg.Files, func(i, j int) bool { return pkg.Files[i].Path < pkg.Files[j].Path })
	return pkg, nil
}

// modulePath extracts the module path from a go.mod.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// baseTypeName strips pointers/parens/generics from a receiver type.
func baseTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// exprString renders an expression compactly ("e.mu", "w.e.mu") for
// matching lock/unlock pairs.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var b strings.Builder
	// printer.Fprint never fails on a bytes-like writer.
	_ = printer.Fprint(&b, fset, e)
	return b.String()
}

const ignoreDirective = "conflint:ignore"

// ignoreInfo is one conflint:ignore directive: its reason (empty for a
// bare directive) and the comment's source extent, kept so `-fix` can
// delete a directive that suppresses nothing.
type ignoreInfo struct {
	reason   string
	pos, end token.Pos
}

// scanIgnores collects ignore directives by comment line.
func scanIgnores(fset *token.FileSet, f *ast.File) map[int]*ignoreInfo {
	out := make(map[int]*ignoreInfo)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if rest, ok := strings.CutPrefix(text, ignoreDirective); ok {
				out[fset.Position(c.Pos()).Line] = &ignoreInfo{
					reason: strings.TrimSpace(rest),
					pos:    c.Pos(),
					end:    c.End(),
				}
			}
		}
	}
	return out
}

// Run executes the analyzers over every package, applies ignore
// directives, reports reason-less directives, and returns findings in
// position order.
func Run(m *Module, analyzers []*Analyzer) []Finding {
	fs, _ := RunTimed(m, analyzers)
	return fs
}

// RunTimed is Run, additionally reporting each analyzer's wall time
// across the whole module (for BENCH_conflint.json).
func RunTimed(m *Module, analyzers []*Analyzer) ([]Finding, map[string]time.Duration) {
	walls := make(map[string]time.Duration, len(analyzers))
	var raw []Finding
	for _, a := range analyzers {
		t0 := time.Now()
		for _, p := range m.Pkgs {
			raw = append(raw, a.Check(p)...)
		}
		walls[a.Name] += time.Since(t0)
	}
	return finishRun(m, raw, analyzers), walls
}

// symbolAt locates a source line structurally: the import path of its
// package and the top-level declaration enclosing it ("Engine.Run",
// "dedupe", "Lab" — "" for file-level positions). This is the baseline
// key, stable under reformatting and unrelated edits.
func (m *Module) symbolAt(path string, line int) (pkg, symbol string) {
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			if f.Path != path {
				continue
			}
			for _, d := range f.AST.Decls {
				start := m.Fset.Position(d.Pos()).Line
				end := m.Fset.Position(d.End()).Line
				// A declaration's doc comment (where annotations live)
				// belongs to the declaration.
				switch dd := d.(type) {
				case *ast.FuncDecl:
					if dd.Doc != nil {
						start = m.Fset.Position(dd.Doc.Pos()).Line
					}
				case *ast.GenDecl:
					if dd.Doc != nil {
						start = m.Fset.Position(dd.Doc.Pos()).Line
					}
				}
				if line < start || line > end {
					continue
				}
				switch dd := d.(type) {
				case *ast.FuncDecl:
					name := dd.Name.Name
					if dd.Recv != nil && len(dd.Recv.List) > 0 {
						if rn := baseTypeName(dd.Recv.List[0].Type); rn != "" {
							name = rn + "." + name
						}
					}
					return p.ImportPath, name
				case *ast.GenDecl:
					for _, spec := range dd.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok &&
							m.Fset.Position(ts.Pos()).Line <= line && line <= m.Fset.Position(ts.End()).Line {
							return p.ImportPath, ts.Name.Name
						}
					}
					return p.ImportPath, ""
				}
			}
			return p.ImportPath, ""
		}
	}
	return "", ""
}

// ignoreAt returns the directive covering the given line (a directive
// covers its own line and the one directly below it), along with the
// directive's own line number.
func (m *Module) ignoreAt(path string, line int) (*ignoreInfo, int, bool) {
	f := m.fileOf(path)
	if f == nil {
		return nil, 0, false
	}
	if info, ok := f.ignores[line]; ok {
		return info, line, true
	}
	if info, ok := f.ignores[line-1]; ok {
		return info, line - 1, true
	}
	return nil, 0, false
}

// fileOf returns the loaded file for a path, if any.
func (m *Module) fileOf(path string) *File {
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			if f.Path == path {
				return f
			}
		}
	}
	return nil
}

// RenderText prints findings for humans; with hints, each finding is
// followed by the offending source line and a suggested edit.
func RenderText(m *Module, fs []Finding, hints bool) string {
	var b strings.Builder
	for _, f := range fs {
		rel := f.File
		if r, err := filepath.Rel(m.Root, f.File); err == nil {
			rel = r
		}
		fmt.Fprintf(&b, "%s:%d:%d: [%s] %s\n", rel, f.Line, f.Col, f.Rule, f.Message)
		for _, w := range f.Witness {
			fmt.Fprintf(&b, "    %s\n", w)
		}
		if hints {
			if file := m.fileOf(f.File); file != nil {
				if src := strings.TrimRight(file.SourceLine(f.Line), " \t"); src != "" {
					fmt.Fprintf(&b, "        %s\n", strings.TrimLeft(src, " \t"))
				}
			}
			if f.Hint != "" {
				fmt.Fprintf(&b, "        fix: %s\n", f.Hint)
			}
		}
	}
	return b.String()
}

// RenderJSON prints findings as a JSON array (paths relative to root).
func RenderJSON(m *Module, fs []Finding) (string, error) {
	rel := make([]Finding, len(fs))
	for i, f := range fs {
		rel[i] = f
		if r, err := filepath.Rel(m.Root, f.File); err == nil {
			rel[i].File = r
		}
	}
	data, err := json.MarshalIndent(rel, "", "  ")
	if err != nil {
		return "", err
	}
	return string(data) + "\n", nil
}
