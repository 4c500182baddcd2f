package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload. An operation is one HTTP query on
// serve, one workload query on evaluate, and one recommendation (search
// plus transition) on tune.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// tuneCases are the five recommender searches of the tune workload.
var tuneCases = []struct{ System, Family string }{
	{"A", "NREF2J"},
	{"B", "NREF2J"},
	{"B", "NREF3J"},
	{"C", "SkTH3J"},
	{"C", "UnTH3J"},
}

func caseName(system, family string) string { return system + "-" + family }

// perLayer are the metrics of single layers, printed by every traced run.
// A workload that does not exercise a layer reports it as 0 and names it
// in the run record's not_exercised list.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"gateway.handle_ms.p50", "ms"},
		{"gateway.handle_ms.p99", "ms"},
		{"gateway.self_ms.p50", "ms"},
		{"gateway.wire_ms.p50", "ms"},
		{"gateway.allocs_per_req", "count"},
		{"gateway.rejected", "count"},
		{"sql.parse_us.p50", "us"},
		{"optimizer.optimize_us.p50", "us"},
		{"shard.run_ms.p50", "ms"},
		{"shard.run_ms.p99", "ms"},
		{"shard.allocs_per_query", "count"},
		{"shard.exchange_queries", "count"},
		{"shard.fallbacks", "count"},
		{"btree.seek_ns", "ns"},
		{"btree.insert_ns", "ns"},
		{"exec.run_ms.total", "ms"},
		{"exec.run_ms.p50", "ms"},
		{"exec.rows_per_s", "1/s"},
		{"exec.allocs_per_query", "count"},
		{"exec.bytes_per_query", "B"},
		{"storage.scan_ns_per_row", "ns"},
		{"whatif.estimates", "count"},
		{"whatif.hit_rate", "frac"},
		{"whatif.us_per_estimate", "us"},
		{"whatif.estimate_us.cold", "us"},
		{"whatif.estimate_us.warm", "us"},
	}
	for _, c := range tuneCases {
		defs = append(defs, metricDef{"recommender.search_s." + caseName(c.System, c.Family), "s"})
	}
	defs = append(defs,
		metricDef{"recommender.search_s.total", "s"},
		metricDef{"recommender.allocs_per_search", "count"},
	)
	for _, c := range tuneCases {
		defs = append(defs, metricDef{"engine.transition_s." + caseName(c.System, c.Family), "s"})
	}
	defs = append(defs,
		metricDef{"engine.transition_s.total", "s"},
		metricDef{"engine.build_allocs", "count"},
		metricDef{"datagen.generate_s", "s"},
		metricDef{"engine.collect_stats_s", "s"},
		metricDef{"engine.apply_config_s", "s"},
		metricDef{"shard.build_s", "s"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_cpu_frac", "frac"},
		metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"trace.overhead_frac.ops_per_s", "frac"},
		metricDef{"trace.overhead_frac.op_p50_ms", "frac"},
		metricDef{"trace.spans", "count"},
	)
	return defs
}()

// printList writes every metric by name with its unit.
func printList(w io.Writer) {
	fmt.Fprintln(w, "end-to-end (--trace 0):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-40s %s\n", m.Name, m.Unit)
	}
	fmt.Fprintln(w, "per-layer (--trace 1):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-40s %s\n", m.Name, m.Unit)
	}
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty). It
// sorts a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// phase is one measured stretch of a workload.
type phase struct {
	wall time.Duration // denominator of ops_per_s
	lat  []float64     // per-operation latency, ms
}

// repeated builds the phase of a workload that repeats the same
// operations pass after pass: each operation's latency is its median over
// the passes, so one slow pass moves no figure by much. wall is the time
// one pass of all operations takes.
func repeated(byOp map[int][]float64, wall time.Duration) phase {
	p := phase{wall: wall}
	for _, xs := range byOp {
		p.lat = append(p.lat, median(xs))
	}
	return p
}

// endToEndOf derives the latency and throughput metrics of a phase.
func (p phase) endToEndOf() map[string]float64 {
	return map[string]float64{
		"ops_per_s": float64(len(p.lat)) / p.wall.Seconds(),
		"op_p50_ms": quantile(p.lat, 0.50),
		"op_p99_ms": quantile(p.lat, 0.99),
	}
}

// overhead records how much tracing worsened the end-to-end figures.
func overhead(layer map[string]float64, untraced, traced phase) {
	u, t := untraced.endToEndOf(), traced.endToEndOf()
	layer["trace.overhead_frac.ops_per_s"] = (u["ops_per_s"] - t["ops_per_s"]) / u["ops_per_s"]
	layer["trace.overhead_frac.op_p50_ms"] = (t["op_p50_ms"] - u["op_p50_ms"]) / u["op_p50_ms"]
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// cpuSample is the machine-wide CPU time and the part of it the
// hypervisor gave to other guests (steal), in clock ticks, from /proc/stat.
type cpuSample struct{ total, steal uint64 }

func readCPU() (cpuSample, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuSample{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuSample{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var s cpuSample
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cpuSample{}, err
		}
		s.total += n
		if i == 7 {
			s.steal = n
		}
	}
	return s, nil
}

// stolen returns the share of the CPU time between a and b that was
// stolen.
func stolen(a, b cpuSample) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// stopwatch times an interval. The machine is a guest of a shared host:
// when the host is oversubscribed, the hypervisor takes the guest's CPUs
// away (steal), and wall time grows with other guests' load. Timings are
// therefore reported as wall time less the share of it that was stolen —
// the time the interval would take on the guest's CPUs alone. The record
// keeps the raw wall figures too.
type stopwatch struct {
	t   time.Time
	cpu cpuSample
}

// startWatch starts a stopwatch. main checks once that /proc/stat is
// readable; should a later read fail, elapsed reports raw wall time.
func startWatch() stopwatch {
	cpu, err := readCPU()
	if err != nil {
		cpu = cpuSample{}
	}
	return stopwatch{time.Now(), cpu}
}

// elapsed returns the wall time since the start and that time less its
// stolen share.
func (s stopwatch) elapsed() (wall, unstolen time.Duration) {
	wall = time.Since(s.t)
	cpu, err := readCPU()
	if err != nil || s.cpu.total == 0 {
		return wall, wall
	}
	return wall, time.Duration(float64(wall) * (1 - stolen(s.cpu, cpu)))
}

// allocs returns the cumulative heap allocation count and bytes.
func allocs() (objects, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// runtimeSample is a snapshot of the Go runtime's GC and allocation
// counters.
type runtimeSample struct {
	gcCycles, allocBytes uint64
	gcCPU, totalCPU      float64
}

var runtimeMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		gcCycles:   s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// runtimeDelta records the runtime's work between two samples.
func runtimeDelta(layer map[string]float64, a, b runtimeSample) {
	layer["runtime.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
	layer["runtime.alloc_mb"] = float64(b.allocBytes-a.allocBytes) / (1 << 20)
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		layer["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	}
}
