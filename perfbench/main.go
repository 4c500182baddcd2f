// Command perfbench is the repository's wall-clock benchmark. It runs one
// of three workloads, each putting most of its time in different modules:
//
//	serve     multi-tenant gateway over loopback HTTP, 4-shard cluster in 1C
//	evaluate  the paper's measurement: the NREF3J sample in P, then in 1C
//	tune      five recommender searches, each applied with a transition
//
// Usage (from the repository root, through perfbench/run.sh, which builds
// it first):
//
//	perfbench --workload serve --seed 1 --seconds 25 --trace 0
//	perfbench --list     # every metric with its unit
//	perfbench --pin      # recompute pinned.json on this commit
//
// A run sets up setupReps times (setup_s is the median), then measures
// for --seconds. With --trace 0 it prints the end-to-end metrics; with
// --trace 1 it measures untraced for half of --seconds, then for the other
// half with spans recorded around each call into a layer, replays the traced schedule layer by layer, runs
// the layer probes, writes the spans under .bench_build/, and prints the
// per-layer metrics and the tracing overhead. The last line of standard
// output is the result; the line before it is the run record. Every
// output the program returns is checked; a mismatch is a failed
// operation and fails the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// phase is how long one measured phase lasts: the whole --seconds, or
// half of it in a traced run, which measures untraced and then traced.
func (o options) phase() time.Duration {
	d := time.Duration(o.seconds) * time.Second
	if o.trace {
		d /= 2
	}
	return d
}

// runCtx collects one run's operation counts, metrics and record.
type runCtx struct {
	opts      options
	tr        *tracer // nil when untraced
	attempted int
	failed    int
	errs      []error // the first few failures, for standard error
	e2e       map[string]float64
	layer     map[string]float64
	record    map[string]any
}

// op counts one operation, failed when err is non-nil.
func (c *runCtx) op(err error) {
	c.attempted++
	if err != nil {
		c.fail(err)
	}
}

// fail records a failure that is not an operation of its own (a failed
// shutdown).
func (c *runCtx) fail(err error) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, err)
	}
}

func (c *runCtx) endToEnd(p phase) {
	for k, v := range p.endToEndOf() {
		c.e2e[k] = v
	}
	c.record["op_latencies"] = len(p.lat)
}

var workloads = map[string]func(*runCtx) error{
	"serve":    runServe,
	"evaluate": runEvaluate,
	"tune":     runTune,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload to run: serve, evaluate or tune")
	seed := fs.Int64("seed", 1, "traffic seed (request schedule, query and search order)")
	seconds := fs.Int("seconds", 25, "how long to measure, in seconds (whole passes on evaluate and tune)")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	list := fs.Bool("list", false, "print every metric with its unit and exit")
	pin := fs.Bool("pin", false, "print the pinned outputs of this commit (the content of pinned.json) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		printList(stdout)
		return 0
	}
	if *pin {
		return pinMain(stdout, stderr)
	}
	fn, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload serve|evaluate|tune, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	c := &runCtx{
		opts:   options{workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1},
		e2e:    map[string]float64{},
		layer:  map[string]float64{},
		record: map[string]any{},
	}
	if c.opts.trace {
		c.tr = newTracer()
	}
	start := time.Now()
	cpu0, err := readCPU()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := fn(c); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *wl, err)
		return 1
	}
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	c.e2e["peak_rss_mb"] = rss
	cpu1, err := readCPU()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	c.record["cpu_steal_frac"] = stolen(cpu0, cpu1)
	for _, e := range c.errs {
		fmt.Fprintf(stderr, "perfbench: %s: failed: %v\n", *wl, e)
	}

	defs, got := endToEnd, c.e2e
	if c.opts.trace {
		defs, got = perLayer, c.layer
		got["trace.spans"] = float64(len(c.tr.snapshot()))
	}
	metrics, missing, err := collect(defs, got)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rec := c.runRecord(time.Since(start), missing)
	if c.opts.trace {
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.json", *wl, *seed))
		if err := writeSpans(path, rec, c.tr.snapshot()); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		rec["spans_file"] = path
	}
	result := map[string]any{
		"correct":   c.failed == 0,
		"attempted": c.attempted,
		"failed":    c.failed,
		"metrics":   metrics,
	}
	for _, v := range []any{map[string]any{"record": rec}, result} {
		b, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
	}
	if c.failed > 0 {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect maps every defined metric to its value, filling 0 for those the
// workload does not exercise (returned as missing). A value under a name
// that is not defined is a bug in the benchmark.
func collect(defs []metricDef, got map[string]float64) (map[string]metric, []string, error) {
	out := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			missing = append(missing, d.Name)
		}
		out[d.Name] = metric{v, d.Unit}
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return nil, nil, fmt.Errorf("metric %q is not defined", name)
		}
	}
	return out, missing, nil
}

// runRecord describes the conditions of the run.
func (c *runCtx) runRecord(wall time.Duration, notExercised []string) map[string]any {
	rec := map[string]any{
		"workload":    c.opts.workload,
		"seed":        c.opts.seed,
		"seconds":     c.opts.seconds,
		"trace":       c.opts.trace,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"scale":       scale,
		"data_seed":   dataSeed,
		"setups":      setupReps,
		"wall_s":      wall.Seconds(),
		"attempted":   c.attempted,
		"failed":      c.failed,
		"end_to_end":  c.e2e,
		"setup_steps": map[string]float64{},
	}
	for _, k := range []string{"datagen.generate_s", "engine.collect_stats_s", "engine.apply_config_s", "shard.build_s"} {
		if v, ok := c.layer[k]; ok {
			rec["setup_steps"].(map[string]float64)[k] = v
		}
	}
	if len(notExercised) > 0 {
		sort.Strings(notExercised)
		rec["not_exercised"] = notExercised
	}
	for k, v := range c.record {
		rec[k] = v
	}
	return rec
}

// pinMain prints the outputs the checks compare against.
func pinMain(stdout, stderr io.Writer) int {
	p, err := computePins()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: pin: %v\n", err)
		return 1
	}
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: pin: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}
