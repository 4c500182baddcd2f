package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts golden expectations from fixture sources. Each
// `// want "regexp"` names a finding that must be reported on its line;
// every reported finding must be named by a want.
var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

type wantSpec struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

func loadWants(t *testing.T, m *Module) []*wantSpec {
	t.Helper()
	var out []*wantSpec
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for i, line := range f.lines {
				sm := wantRe.FindStringSubmatch(line)
				if sm == nil {
					continue
				}
				re, err := regexp.Compile(sm[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", f.Path, i+1, sm[1], err)
				}
				out = append(out, &wantSpec{file: f.Path, line: i + 1, pattern: re})
			}
		}
	}
	return out
}

// TestFixtures runs ALL analyzers over each fixture package and requires
// an exact, bidirectional match between findings and want expectations —
// running every rule on every fixture also proves the rules do not
// false-positive on each other's material.
func TestFixtures(t *testing.T) {
	dirs, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() || d.Name() == "ignore" || d.Name() == "goleakbare" {
			continue // these fixtures pin line numbers in their own tests
		}
		t.Run(d.Name(), func(t *testing.T) {
			m, err := LoadFixture(filepath.Join("testdata", "src", d.Name()))
			if err != nil {
				t.Fatal(err)
			}
			findings := Run(m, All())
			wants := loadWants(t, m)
			for _, f := range findings {
				ok := false
				for _, w := range wants {
					if w.file == f.File && w.line == f.Line && !w.matched && w.pattern.MatchString(f.Message) {
						w.matched = true
						ok = true
						break
					}
				}
				if !ok {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: expected a finding matching %q, got none",
						w.file, w.line, w.pattern)
				}
			}
		})
	}
}

// TestBareIgnoreDirective checks that a reason-less directive is a
// finding and suppresses nothing.
func TestBareIgnoreDirective(t *testing.T) {
	m, err := LoadFixture(filepath.Join("testdata", "src", "ignore"))
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(m, All())
	if len(findings) != 2 {
		t.Fatalf("want 2 findings (bare directive + unsuppressed discard), got %d: %v", len(findings), findings)
	}
	if findings[0].Rule != "ignore" || findings[0].Line != 11 {
		t.Errorf("want [ignore] at line 11, got %s", findings[0])
	}
	if findings[1].Rule != "errcheck" || findings[1].Line != 12 {
		t.Errorf("want [errcheck] at line 12, got %s", findings[1])
	}
}

func TestByNames(t *testing.T) {
	as, err := ByNames("lock,errcheck")
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 || as[0].Name != "lock" || as[1].Name != "errcheck" {
		t.Errorf("ByNames(lock,errcheck) = %v", as)
	}
	if _, err := ByNames("nosuchrule"); err == nil {
		t.Error("ByNames(nosuchrule) should fail")
	}
	all, err := ByNames("")
	if err != nil || len(all) != 12 {
		t.Errorf("ByNames(\"\") = %d analyzers, err %v; want 12", len(all), err)
	}
	if _, err := ByNames("lock,lock"); err == nil || !strings.Contains(err.Error(), "duplicate rule") {
		t.Errorf("ByNames(lock,lock) = %v; want duplicate-rule error", err)
	}
	if _, err := ByNames("lock,,errcheck"); err == nil || !strings.Contains(err.Error(), "empty rule name") {
		t.Errorf("ByNames(lock,,errcheck) = %v; want empty-name error", err)
	}
	if _, err := ByNames("nosuchrule"); err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Errorf("ByNames(nosuchrule) = %v; want error listing known rules (incl. epoch)", err)
	}
}

// TestRenderers smoke-tests the two output formats on a fixture run.
func TestRenderers(t *testing.T) {
	m, err := LoadFixture(filepath.Join("testdata", "src", "errcheck"))
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(m, All())
	if len(findings) == 0 {
		t.Fatal("errcheck fixture produced no findings")
	}
	text := RenderText(m, findings, true)
	if !strings.Contains(text, "[errcheck]") || !strings.Contains(text, "fix: ") {
		t.Errorf("hints rendering missing pieces:\n%s", text)
	}
	j, err := RenderJSON(m, findings)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(j, `"rule": "errcheck"`) || strings.Contains(j, m.Root) {
		t.Errorf("JSON rendering wrong (want relative paths, errcheck rule):\n%s", j)
	}
}

// TestLoadRejectsTypeErrors checks that a package with a type error
// fails to load, naming file and line, so no analyzer ever runs on
// partial type information.
func TestLoadRejectsTypeErrors(t *testing.T) {
	m, err := LoadFixture(filepath.Join("testdata", "typeerror"))
	if err == nil {
		t.Fatalf("a package with a type error loaded (%d packages)", len(m.Pkgs))
	}
	if m != nil {
		t.Errorf("a failed load returned a module")
	}
	if !strings.Contains(err.Error(), filepath.Join("typeerror", "typeerror.go")+":9:") {
		t.Errorf("load error does not name typeerror.go:9: %v", err)
	}
}
