package lint

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestLockOrderWitness pins the shape of a lockorder finding on the
// seeded two-mutex inversion: one cycle, anchored at the first edge's
// acquisition, with a witness path that walks both edges — including the
// leg that is only visible through a call edge.
func TestLockOrderWitness(t *testing.T) {
	m, err := LoadFixture(filepath.Join("testdata", "src", "lockorder"))
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(m, []*Analyzer{LockOrder()})
	if len(findings) != 1 {
		t.Fatalf("want exactly one lockorder finding, got %d: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Rule != "lockorder" || f.Line != 16 {
		t.Errorf("want [lockorder] anchored at AB's s.a.Lock() (line 16), got %s", f)
	}
	if !strings.Contains(f.Message, "fixture.S.a -> fixture.S.b -> fixture.S.a") {
		t.Errorf("cycle message wrong: %s", f.Message)
	}
	witness := strings.Join(f.Witness, "\n")
	for _, want := range []string{
		"edge fixture.S.a -> fixture.S.b:",
		"edge fixture.S.b -> fixture.S.a:",
		"fixture.S.AB acquires fixture.S.a",
		"fixture.S.BA calls fixture.S.grab",
		"fixture.S.grab acquires fixture.S.a",
	} {
		if !strings.Contains(witness, want) {
			t.Errorf("witness missing %q:\n%s", want, witness)
		}
	}

	// The witness must survive both renderers.
	text := RenderText(m, findings, false)
	if !strings.Contains(text, "edge fixture.S.a -> fixture.S.b:") {
		t.Errorf("text rendering drops the witness:\n%s", text)
	}
	j, err := RenderJSON(m, findings)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(j, `"witness"`) || !strings.Contains(j, "fixture.S.grab") {
		t.Errorf("JSON rendering drops the witness:\n%s", j)
	}
}

// TestBareWorkerDirective mirrors TestBareIgnoreDirective: a reason-less
// conflint:worker is a finding and suppresses nothing, so the leak under
// it is reported too. (A want comment cannot share the directive's line
// without becoming its reason, hence the pinned line numbers.)
func TestBareWorkerDirective(t *testing.T) {
	m, err := LoadFixture(filepath.Join("testdata", "src", "goleakbare"))
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(m, All())
	if len(findings) != 2 {
		t.Fatalf("want 2 findings (bare directive + unsuppressed leak), got %d: %v", len(findings), findings)
	}
	if findings[0].Rule != "goleak" || findings[0].Line != 10 ||
		!strings.Contains(findings[0].Message, "needs a reason") {
		t.Errorf("want bare-directive finding at line 10, got %s", findings[0])
	}
	if findings[1].Rule != "goleak" || findings[1].Line != 11 ||
		!strings.Contains(findings[1].Message, "may leak") {
		t.Errorf("want leak finding at line 11, got %s", findings[1])
	}
}

// TestFindingOrdering is the determinism golden: on the hotalloc fixture
// the findings come out in exactly (file, line, col, rule) order, with
// package and symbol attribution filled in.
func TestFindingOrdering(t *testing.T) {
	m, err := LoadFixture(filepath.Join("testdata", "src", "hotalloc"))
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(m, All())
	wantLines := []int{16, 17, 18, 19, 31}
	if len(findings) != len(wantLines) {
		t.Fatalf("want %d findings, got %d: %v", len(wantLines), len(findings), findings)
	}
	for i, f := range findings {
		if f.Line != wantLines[i] {
			t.Errorf("finding %d: want line %d, got %s", i, wantLines[i], f)
		}
		if f.Rule != "hotalloc" || f.Package == "" || f.Symbol == "" {
			t.Errorf("finding %d: want hotalloc with package+symbol attribution, got %+v", i, f)
		}
	}
	if findings[4].Symbol != "helper" {
		t.Errorf("want symbol attribution \"helper\" on the callee finding, got %q", findings[4].Symbol)
	}
	sorted := sort.SliceIsSorted(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	if !sorted {
		t.Errorf("findings are not in (file, line, col, rule) order: %v", findings)
	}
}

// TestCallGraphDeterminism builds the module graph twice and requires
// identical node and edge sequences: every downstream witness depends on
// this ordering.
func TestCallGraphDeterminism(t *testing.T) {
	build := func() ([]string, int) {
		m, err := LoadFixture(filepath.Join("testdata", "src", "lockorder"))
		if err != nil {
			t.Fatal(err)
		}
		g := m.Graph()
		_, edges := g.Stats()
		return g.Keys(), edges
	}
	k1, e1 := build()
	k2, e2 := build()
	if strings.Join(k1, ",") != strings.Join(k2, ",") || e1 != e2 {
		t.Errorf("call graph not deterministic: %v/%d vs %v/%d", k1, e1, k2, e2)
	}
	if len(k1) == 0 || e1 == 0 {
		t.Errorf("lockorder fixture graph unexpectedly empty: %d nodes, %d edges", len(k1), e1)
	}
}

// FuzzLoad feeds arbitrary Go sources through the loader and the full
// analyzer stack — parse, type-check, call graph, all twelve rules.
// Inputs that do not load (syntax or type errors, unknown imports) are
// skipped; an input that loads must run every rule without panicking.
// The corpus is seeded from the rule fixtures: each is a whole package
// in one file, so every seed loads and drives its rule's machinery.
func FuzzLoad(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "src", "*", "*.go"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no fixture seeds: %v", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Fuzz(func(t *testing.T, src string) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "fuzz.go"), []byte(src), 0o644); err != nil {
			t.Skip()
		}
		m, err := LoadFixture(dir)
		if err != nil {
			t.Skip() // inputs that do not load are expected; panics are the bug
		}
		Run(m, All())
	})
}
