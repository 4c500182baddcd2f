// Command conflint runs the repository's invariant analyzers (internal/lint)
// over the module and reports findings. It is wired into `make verify` via
// `make lint` and must exit clean on this repo.
//
// Usage:
//
//	conflint [flags] [packages]
//
// Packages are directory patterns relative to the module root ("./...",
// "./internal/engine", "internal/autopilot/..."); the default is the whole
// module. Note the module is always loaded in full — cross-package rules
// like atomic-discipline need the whole tree — and the patterns only select
// which packages' findings are reported.
//
// A baseline file (-baseline) suppresses known findings so the tool can be
// adopted on a codebase that is not yet clean. Entries are keyed by
// rule+package+symbol — never line numbers — so unrelated edits in a file do
// not invalidate the baseline. Parsing is strict: a malformed baseline is a
// load error (exit 2), never an empty suppression set. This repository's end
// state is an empty baseline: every rule runs clean with no suppressions.
//
// With -bench-json, the run additionally executes the full analyzer set
// twice — once sequentially (timing each analyzer) and once parallel over a
// fresh load — records the load wall (parse, go list -export, type-check),
// both run walls and the interprocedural fixpoint iteration counts, and
// verifies the two runs' findings are byte-identical.
//
// Exit status: 0 no findings, 1 findings, 2 usage or load error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	start := time.Now()
	fs := flag.NewFlagSet("conflint", flag.ContinueOnError)
	var (
		jsonOut   = fs.Bool("json", false, "emit findings as a JSON array (shorthand for -format json)")
		format    = fs.String("format", "", "output format: text (default), json, or sarif (SARIF 2.1.0)")
		sarifOut  = fs.String("sarif", "", "additionally write a SARIF 2.1.0 log to this file (the CI code-scanning artifact)")
		hints     = fs.Bool("hints", false, "lint-fix-hints mode: print the offending line and a suggested edit under each finding")
		fix       = fs.Bool("fix", false, "apply suggested fixes (finding-atomic, non-overlapping), gofmt the touched files, then re-lint to prove the fixed findings are gone and no new ones appeared")
		rules     = fs.String("rules", "", "comma-separated rule subset (default: all); names: lock, determinism, atomic, errcheck, lockorder, goleak, hotalloc, epoch, dettaint, shutdownpath, pure, readpath")
		benchJSON = fs.String("bench-json", "", "write a BENCH-style JSON record (per-rule counts and wall, fixpoint iterations, fix-plan wall, sequential-vs-parallel wall) to this file")
		listRules = fs.Bool("list-rules", false, "print the analyzers and exit")
		baseline  = fs.String("baseline", "", "suppress findings matching this baseline file (entries keyed rule+package+symbol; malformed files are load errors)")
		writeBase = fs.String("write-baseline", "", "write the current findings to this baseline file and exit 0")
		parallel  = fs.Int("parallel", 0, "lint worker parallelism across packages (0 = GOMAXPROCS, 1 = sequential); findings are identical at any setting")
	)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: conflint [flags] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}

	if *listRules {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	if *jsonOut && *format == "" {
		*format = "json"
	}
	switch *format {
	case "", "text", "json", "sarif":
	default:
		fmt.Fprintf(os.Stderr, "conflint: unknown -format %q (have: text, json, sarif)\n", *format)
		return 2
	}
	if *fix && (*benchJSON != "" || *writeBase != "") {
		fmt.Fprintf(os.Stderr, "conflint: -fix cannot be combined with -bench-json or -write-baseline\n")
		return 2
	}

	analyzers, err := lint.ByNames(*rules)
	if err != nil {
		fmt.Fprintf(os.Stderr, "conflint: %v\n", err)
		return 2
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "conflint: %v\n", err)
		return 2
	}
	loadStart := time.Now()
	m, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "conflint: %v\n", err)
		return 2
	}
	loadWall := time.Since(loadStart)

	var findings []lint.Finding
	var bench *benchStats
	if *benchJSON != "" {
		findings, bench, err = benchRun(root, m, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "conflint: %v\n", err)
			return 2
		}
		bench.loadWall = loadWall
	} else {
		findings = lint.RunParallel(m, analyzers, *parallel)
	}
	findings = filterFindings(root, findings, fs.Args())

	if *writeBase != "" {
		if err := lint.WriteBaseline(*writeBase, findings); err != nil {
			fmt.Fprintf(os.Stderr, "conflint: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "conflint: wrote %d baseline entries to %s\n",
			len(lint.BaselineEntries(findings)), *writeBase)
		return 0
	}

	findings, baselined, err := applyBaseline(findings, *baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "conflint: %v\n", err)
		return 2
	}

	if *fix {
		code, err := runFix(root, m, analyzers, findings, fs.Args(), *baseline, *parallel)
		if err != nil {
			fmt.Fprintf(os.Stderr, "conflint: %v\n", err)
			return 2
		}
		return code
	}

	if *benchJSON != "" {
		if err := writeBench(*benchJSON, m, analyzers, findings, bench); err != nil {
			fmt.Fprintf(os.Stderr, "conflint: %v\n", err)
			return 2
		}
	}

	if *sarifOut != "" {
		s, err := lint.RenderSARIF(m, analyzers, findings)
		if err != nil {
			fmt.Fprintf(os.Stderr, "conflint: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*sarifOut, []byte(s), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "conflint: %v\n", err)
			return 2
		}
	}

	switch *format {
	case "json":
		out, err := lint.RenderJSON(m, findings)
		if err != nil {
			fmt.Fprintf(os.Stderr, "conflint: %v\n", err)
			return 2
		}
		fmt.Print(out)
	case "sarif":
		out, err := lint.RenderSARIF(m, analyzers, findings)
		if err != nil {
			fmt.Fprintf(os.Stderr, "conflint: %v\n", err)
			return 2
		}
		fmt.Print(out)
	default:
		fmt.Print(lint.RenderText(m, findings, *hints))
	}

	nodes, edges := m.Graph().Stats()
	fmt.Fprintf(os.Stderr, "conflint: %d rules, %d finding(s) (%d baselined), callgraph %d nodes / %d edges, %.2fs wall\n",
		len(analyzers), len(findings), baselined, nodes, edges, time.Since(start).Seconds())

	if len(findings) > 0 {
		return 1
	}
	return 0
}

// applyBaseline drops findings matching the baseline file, returning
// the kept findings and the suppressed count. An empty path keeps all.
func applyBaseline(findings []lint.Finding, path string) ([]lint.Finding, int, error) {
	if path == "" {
		return findings, 0, nil
	}
	base, err := lint.ReadBaseline(path)
	if err != nil {
		return nil, 0, err
	}
	baselined := 0
	kept := findings[:0]
	for _, f := range findings {
		if base[lint.BaselineKey(f.Rule, f.Package, f.Symbol)] {
			baselined++
			continue
		}
		kept = append(kept, f)
	}
	return kept, baselined, nil
}

// runFix applies the findings' suggested fixes and proves the pass
// sound: the fixed tree is re-parsed and re-linted with the identical
// rule set, filter, and baseline, and the result must contain exactly
// the unfixed findings — every remaining (rule, message) pair existed
// before, and the count dropped by the number of applied fixes. That
// check is also what makes -fix idempotent: a second pass finds none of
// the fixed findings to fix again.
//
// Exit code: 0 when no findings remain, 1 when unfixable findings
// remain, 2 when verification fails (a fix changed analysis results in
// an unexpected way, e.g. labeling a sink armed its closure audit).
func runFix(root string, m *lint.Module, analyzers []*lint.Analyzer, findings []lint.Finding, patterns []string, baseline string, parallel int) (int, error) {
	plan, err := lint.PlanFixes(m, findings)
	if err != nil {
		return 2, err
	}
	if len(plan.Applied) == 0 {
		fmt.Fprintf(os.Stderr, "conflint: no fixable findings; %d finding(s) remain\n", len(findings))
		if len(findings) > 0 {
			return 1, nil
		}
		return 0, nil
	}
	if err := plan.Write(); err != nil {
		return 2, err
	}

	m2, err := lint.LoadModule(root)
	if err != nil {
		return 2, err
	}
	after := filterFindings(root, lint.RunParallel(m2, analyzers, parallel), patterns)
	after, _, err = applyBaseline(after, baseline)
	if err != nil {
		return 2, err
	}

	before := make(map[string]int, len(findings))
	for _, f := range findings {
		before[f.Rule+"\x00"+f.Message]++
	}
	fresh := 0
	for _, f := range after {
		k := f.Rule + "\x00" + f.Message
		if before[k] == 0 {
			fresh++
			fmt.Fprintf(os.Stderr, "conflint: fix introduced: %s\n", f)
		} else {
			before[k]--
		}
	}
	if fresh > 0 || len(after) != len(findings)-len(plan.Applied) {
		fmt.Fprintf(os.Stderr, "conflint: fix verification failed: %d finding(s) before, %d fixed, %d after (%d new)\n",
			len(findings), len(plan.Applied), len(after), fresh)
		return 2, nil
	}
	fmt.Fprintf(os.Stderr, "conflint: applied %d fix(es) across %d file(s); %d finding(s) remain (%d fix(es) dropped for overlap)\n",
		len(plan.Applied), len(plan.Files), len(after), len(plan.Dropped))
	if len(after) > 0 {
		return 1, nil
	}
	return 0, nil
}

// benchStats is the extra instrumentation a -bench-json run records.
type benchStats struct {
	loadWall  time.Duration // parse, go list -export and type-check
	seqWall   time.Duration
	parWall   time.Duration
	fixWall   time.Duration
	fixable   int
	perRule   map[string]time.Duration
	fixIters  map[string]int
	identical bool
}

// benchRun executes the analyzers twice — sequentially on m (timing each
// analyzer) and in parallel on a fresh parse — and checks the rendered
// findings are byte-identical. The sequential findings are returned as
// the run's result.
func benchRun(root string, m *lint.Module, analyzers []*lint.Analyzer) ([]lint.Finding, *benchStats, error) {
	t0 := time.Now()
	seqF, perRule := lint.RunTimed(m, analyzers)
	seqWall := time.Since(t0)

	m2, err := lint.LoadModule(root)
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	parF := lint.RunParallel(m2, analyzers, 0)
	parWall := time.Since(t1)

	seqJSON, err := lint.RenderJSON(m, seqF)
	if err != nil {
		return nil, nil, err
	}
	parJSON, err := lint.RenderJSON(m2, parF)
	if err != nil {
		return nil, nil, err
	}

	// Time the fix planner (plan only — nothing is written): the edit
	// computation plus per-file splice-and-gofmt over every fixable
	// finding of the run.
	t2 := time.Now()
	plan, err := lint.PlanFixes(m, seqF)
	if err != nil {
		return nil, nil, err
	}
	fixWall := time.Since(t2)

	return seqF, &benchStats{
		seqWall:   seqWall,
		parWall:   parWall,
		fixWall:   fixWall,
		fixable:   len(plan.Applied),
		perRule:   perRule,
		fixIters:  m.FixpointIters(),
		identical: seqJSON == parJSON,
	}, nil
}

// scopeRuleKeys restricts a per-rule map to the selected analyzers (the
// shared "effects" fixpoint is attributed to its consumers, pure and
// readpath), so -bench-json never reports sections for unselected
// rules.
func scopeRuleKeys[V any](src map[string]V, analyzers []*lint.Analyzer) map[string]V {
	allowed := make(map[string]bool, len(analyzers)+1)
	for _, a := range analyzers {
		allowed[a.Name] = true
		if a.Name == "pure" || a.Name == "readpath" {
			allowed["effects"] = true
		}
	}
	out := make(map[string]V, len(src))
	for k, v := range src {
		if allowed[k] {
			out[k] = v
		}
	}
	return out
}

// moduleRoot walks upward from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// filterFindings keeps findings inside the selected package patterns.
// Patterns are module-root-relative directories, with "..." matching any
// suffix; no patterns (or "./...") selects everything.
func filterFindings(root string, fs []lint.Finding, patterns []string) []lint.Finding {
	if len(patterns) == 0 {
		return fs
	}
	var out []lint.Finding
	for _, f := range fs {
		rel, err := filepath.Rel(root, filepath.Dir(f.File))
		if err != nil {
			rel = filepath.Dir(f.File)
		}
		rel = filepath.ToSlash(rel)
		for _, pat := range patterns {
			if matchPattern(rel, pat) {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

func matchPattern(relDir, pat string) bool {
	pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
	if pat == "..." || pat == "." || pat == "" {
		return true
	}
	if prefix, ok := strings.CutSuffix(pat, "/..."); ok {
		return relDir == prefix || strings.HasPrefix(relDir, prefix+"/")
	}
	return relDir == pat
}

// writeBench records the run in the same shape as the BENCH_*.json
// artifacts the other harnesses produce.
func writeBench(path string, m *lint.Module, analyzers []*lint.Analyzer, fs []lint.Finding, bench *benchStats) error {
	perRule := make(map[string]int)
	for _, a := range analyzers {
		perRule[a.Name] = 0
	}
	for _, f := range fs {
		perRule[f.Rule]++
	}
	nodes, edges := m.Graph().Stats()
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000.0 }
	var b strings.Builder
	b.WriteString("{\n  \"bench\": \"conflint\",\n")
	fmt.Fprintf(&b, "  \"findings\": %d,\n", len(fs))
	fmt.Fprintf(&b, "  \"gomaxprocs\": %d,\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "  \"callgraph\": {\"nodes\": %d, \"edges\": %d},\n", nodes, edges)
	if bench != nil {
		speedup := 0.0
		if bench.parWall > 0 {
			speedup = float64(bench.seqWall) / float64(bench.parWall)
		}
		fmt.Fprintf(&b, "  \"load_ms\": %.3f,\n", ms(bench.loadWall))
		fmt.Fprintf(&b, "  \"wall_ms\": {\"sequential\": %.3f, \"parallel\": %.3f, \"speedup\": %.2f},\n",
			ms(bench.seqWall), ms(bench.parWall), speedup)
		fmt.Fprintf(&b, "  \"findings_identical\": %v,\n", bench.identical)
		fmt.Fprintf(&b, "  \"fix\": {\"fixable\": %d, \"plan_wall_ms\": %.3f},\n", bench.fixable, ms(bench.fixWall))
		writeSortedMap(&b, "fixpoint_iterations", scopeRuleKeys(bench.fixIters, analyzers), func(v int) string { return fmt.Sprintf("%d", v) })
		b.WriteString(",\n")
		writeSortedMap(&b, "per_rule_wall_ms", scopeRuleKeys(bench.perRule, analyzers), func(v time.Duration) string { return fmt.Sprintf("%.3f", ms(v)) })
		b.WriteString(",\n")
	}
	b.WriteString("  \"per_rule\": {")
	names := make([]string, 0, len(analyzers)+1)
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	if perRule["ignore"] > 0 {
		names = append(names, "ignore")
	}
	for i, n := range names {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "\n    %q: %d", n, perRule[n])
	}
	b.WriteString("\n  }\n}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// writeSortedMap renders a map as a JSON object with sorted keys, so the
// bench file is byte-stable run to run.
func writeSortedMap[V any](b *strings.Builder, name string, m map[string]V, render func(V) string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(b, "  %q: {", name)
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "%q: %s", k, render(m[k]))
	}
	b.WriteString("}")
}
