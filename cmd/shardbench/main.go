// Command shardbench measures the sharded engine's partition-parallel
// scaling curve and verifies its determinism contract, writing
// BENCH_shard.json.
//
// For each shard count it loads one NREF coordinator, builds a cluster,
// runs a fixed multi-join workload, and records:
//
//   - a hash of every result's rendered bytes (must be identical at
//     every shard count — the byte-identity contract),
//   - simulated seconds for one workload pass, the derived simulated
//     throughput (must scale monotonically with shard count:
//     max-of-shards replaces sum-of-shards in the cost model) and the
//     simulated speedup over the 1-shard baseline (always reported —
//     the machine-independent scaling number),
//   - best-of-N wall-clock milliseconds over the repetitions
//     (informational on one core; the ≥1.5× speedup at 4 shards is
//     computed and asserted only when GOMAXPROCS ≥ 4),
//   - the count of coordinator-serial fallbacks, which must be zero:
//     every workload query — self-joins and key-mismatched joins
//     included — runs partition-parallel via partition-wise joins or
//     cross-shard row exchange,
//   - the coordinator-side goal level and recommended configuration
//     (topology-invariant: E, H and recommendations always derive from
//     the full coordinator data).
//
// It then runs the elastic autoscaler in dry-run mode against the
// observed window metrics and records the audited proposals; dry-run
// must leave the topology untouched.
//
// Exit status is nonzero if any contract is violated, so `make
// shard-smoke` doubles as a regression gate.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/recommender"
	"repro/internal/shard"
)

// workload is the fixed benchmark mix: multi-join aggregates
// partition-wise on the native keys, a key-mismatched join that forces
// a cross-shard row exchange, IN-subqueries with global HAVING sets,
// single-table scans, and one self-join-only query that runs
// partition-wise on the shared key.
var workload = []string{
	`SELECT t.lineage, COUNT(DISTINCT t2.nref_id)
	 FROM source s, taxonomy t, taxonomy t2
	 WHERE t.nref_id = s.nref_id AND t.lineage = t2.lineage
	   AND s.p_name = 'Simian Virus 40'
	 GROUP BY t.lineage`,
	`SELECT t.taxon_id, COUNT(*)
	 FROM taxonomy t, organism o
	 WHERE t.nref_id = o.nref_id AND t.nref_id = 'NF0000041'
	 GROUP BY t.taxon_id`,
	`SELECT taxon_id, COUNT(*) FROM taxonomy GROUP BY taxon_id`,
	`SELECT lineage, COUNT(DISTINCT nref_id) FROM taxonomy GROUP BY lineage`,
	`SELECT o.name, COUNT(*) FROM organism o, taxonomy t
	 WHERE o.taxon_id = t.taxon_id AND o.ordinal = 7 GROUP BY o.name`,
	`SELECT r.taxon_id, COUNT(*) FROM taxonomy r, organism s
	 WHERE r.nref_id = s.nref_id
	   AND r.nref_id IN (SELECT nref_id FROM taxonomy GROUP BY nref_id HAVING COUNT(*) < 4)
	 GROUP BY r.taxon_id`,
	`SELECT t.taxon_id, COUNT(*) FROM taxonomy t, taxonomy t2
	 WHERE t.nref_id = t2.nref_id AND t.nref_id = 'NF0000041' GROUP BY t.taxon_id`,
}

// topologyResult is one shard count's record in BENCH_shard.json.
type topologyResult struct {
	Shards    int   `json:"shards"`
	Pool      int   `json:"pool"`
	Queries   int   `json:"queries"`
	Fallbacks int64 `json:"fallbacks"`
	// Exchanges counts queries that repartitioned at least one table.
	Exchanges  int64   `json:"exchanges"`
	ResultHash string  `json:"result_hash"`
	SimSeconds float64 `json:"sim_seconds"`
	SimQPS     float64 `json:"sim_qps"`
	// SimSpeedup is this topology's simulated speedup over the 1-shard
	// baseline — reported unconditionally (it does not depend on the
	// machine), unlike the wall-clock figure.
	SimSpeedup float64 `json:"sim_speedup"`
	// WallMillis is the best (minimum) single-repetition wall time.
	WallMillis float64 `json:"wall_ms"`
	GoalLevel  float64 `json:"goal_level"`
	RecHash    string  `json:"recommendation_hash"`
}

type benchReport struct {
	Scale     float64          `json:"scale"`
	Seed      int64            `json:"seed"`
	Mode      string           `json:"mode"`
	CPUs      int              `json:"cpus"`
	Reps      int              `json:"reps"`
	Topology  []topologyResult `json:"topology"`
	Rec       string           `json:"recommendation"`
	Autoscale struct {
		DryRun bool                `json:"dry_run"`
		Audit  []shard.AuditRecord `json:"audit"`
	} `json:"autoscale"`
	WallSpeedup4 float64  `json:"wall_speedup_4,omitempty"`
	Violations   []string `json:"violations,omitempty"`
}

func main() {
	scale := flag.Float64("scale", 0.001, "NREF data scale factor")
	seed := flag.Int64("seed", 42, "data generation seed")
	mode := flag.String("mode", "hash", "partitioning mode (hash or range)")
	pool := flag.Int("pool", 4, "worker-pool width per partition-parallel query")
	shardList := flag.String("shards", "1,2,4,8", "comma-separated shard counts")
	reps := flag.Int("reps", 3, "workload repetitions per topology (min 3: wall time is best-of-N)")
	smoke := flag.Bool("smoke", false, "CI preset: shards 1,4")
	out := flag.String("o", "BENCH_shard.json", "output file")
	flag.Parse()

	if *smoke {
		*shardList = "1,4"
	}
	// Wall time is best-of-N; fewer than 3 repetitions makes the minimum
	// a noise sample, so the floor holds even in smoke mode.
	if *reps < 3 {
		*reps = 3
	}
	counts, err := parseCounts(*shardList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shardbench:", err)
		os.Exit(2)
	}
	if err := run(*scale, *seed, *mode, *pool, counts, *reps, *out); err != nil {
		fmt.Fprintln(os.Stderr, "shardbench:", err)
		os.Exit(1)
	}
}

func parseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q", part)
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

func run(scale float64, seed int64, mode string, pool int, counts []int, reps int, out string) error {
	fmt.Printf("shardbench: NREF scale %g seed %d, mode %s, pool %d, %d queries × %d reps, GOMAXPROCS=%d\n",
		scale, seed, mode, pool, len(workload), reps, runtime.GOMAXPROCS(0))

	coord := engine.New(catalog.NREF(), scale, engine.SystemB())
	if err := datagen.GenerateNREF(coord, datagen.NREFOptions{ScaleFactor: scale, Seed: seed}); err != nil {
		return err
	}
	coord.CollectStats()
	if _, err := coord.ApplyConfig(engine.OneColumnConfiguration(coord)); err != nil {
		return err
	}

	// Topology-invariant coordinator surfaces: the goal level over the
	// estimates E and the recommended configuration.
	goal := core.Example2Goal()
	est := make([]core.Measure, len(workload))
	for i, q := range workload {
		m, err := coord.Estimate(q)
		if err != nil {
			return fmt.Errorf("estimate query %d: %w", i, err)
		}
		est[i] = core.Measure{Seconds: m.Seconds, TimedOut: m.TimedOut}
	}
	goalLevel := goal.Satisfaction(core.NewCFC(est, 0))
	budget := coord.NewWhatIf().EstimateSize(engine.OneColumnConfiguration(coord))
	recCfg, err := recommender.New(coord, recommender.SystemB()).Parallel(1).Recommend(workload, budget)
	if err != nil {
		return fmt.Errorf("recommend: %w", err)
	}
	recRender := renderConfig(recCfg)

	report := benchReport{Scale: scale, Seed: seed, Mode: mode, CPUs: runtime.GOMAXPROCS(0), Reps: reps, Rec: recRender}
	var wallByShards = map[int]float64{}
	for _, n := range counts {
		cl, err := shard.New(coord, shard.Spec{Shards: n, Mode: shard.Mode(mode)}, pool)
		if err != nil {
			return fmt.Errorf("build %d-shard cluster: %w", n, err)
		}
		h := fnv.New64a()
		var simSeconds float64 // one workload pass (identical every rep: the sim clock is deterministic)
		bestWall := time.Duration(0)
		for rep := 0; rep < reps; rep++ {
			start := time.Now()
			for i, q := range workload {
				res, m, err := cl.Run(q, 0)
				if err != nil {
					return fmt.Errorf("%d shards, query %d: %w", n, i, err)
				}
				if rep == 0 {
					h.Write([]byte(render(res)))
					simSeconds += m.Seconds
				}
			}
			if w := time.Since(start); rep == 0 || w < bestWall {
				bestWall = w
			}
		}

		// The recommendation and goal level must be reproducible with the
		// cluster live at this topology (they read the coordinator only).
		recAgain, err := recommender.New(coord, recommender.SystemB()).Parallel(1).Recommend(workload, budget)
		if err != nil {
			return fmt.Errorf("recommend at %d shards: %w", n, err)
		}

		st := cl.Stats()
		tr := topologyResult{
			Shards:     n,
			Pool:       pool,
			Queries:    len(workload) * reps,
			Fallbacks:  st.Fallbacks,
			Exchanges:  st.Exchanges,
			ResultHash: fmt.Sprintf("%016x", h.Sum64()),
			SimSeconds: simSeconds,
			SimQPS:     float64(len(workload)) / simSeconds,
			SimSpeedup: 1,
			WallMillis: float64(bestWall.Microseconds()) / 1000,
			GoalLevel:  goalLevel,
			RecHash:    hashString(renderConfig(recAgain)),
		}
		if base := report.Topology; len(base) > 0 && simSeconds > 0 {
			tr.SimSpeedup = base[0].SimSeconds / simSeconds
		}
		report.Topology = append(report.Topology, tr)
		wallByShards[n] = tr.WallMillis
		fmt.Printf("shardbench: %2d shards — sim %8.1fs (%6.4f q/s sim, %.2fx), wall %7.1fms best-of-%d, hash %s, %d fallbacks, %d exchanges\n",
			n, tr.SimSeconds, tr.SimQPS, tr.SimSpeedup, tr.WallMillis, reps, tr.ResultHash, tr.Fallbacks, tr.Exchanges)
	}

	// Dry-run autoscaler demo over the largest topology: the observed
	// metrics drive the default rules, every proposal is audited, nothing
	// mutates.
	last := counts[len(counts)-1]
	cl, err := shard.New(coord, shard.Spec{Shards: last, Mode: shard.Mode(mode)}, pool)
	if err != nil {
		return err
	}
	upd := shard.NewUpdater(cl, shard.Bounds{MinShards: 1, MaxShards: 16, MinPool: 1, MaxPool: 32}, true)
	rec := &shard.Recommender{Rules: shard.DefaultRules(60), Predict: cl.PredictSeconds}
	meanSim := report.Topology[len(report.Topology)-1].SimSeconds / float64(len(workload)*reps)
	for w := 1; w <= 3; w++ {
		upd.Apply(rec.Recommend(
			shard.State{Shards: cl.Shards(), Pool: cl.Pool()},
			shard.WindowMetrics{Window: w, Queries: len(workload) * reps, MeanSeconds: meanSim, GoalLevel: goalLevel},
		))
	}
	report.Autoscale.DryRun = true
	report.Autoscale.Audit = upd.Audit()

	report.Violations = check(&report, wallByShards, cl, last)
	for _, v := range report.Violations {
		fmt.Fprintln(os.Stderr, "shardbench: VIOLATION:", v)
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("shardbench: wrote %s\n", out)
	if len(report.Violations) > 0 {
		return fmt.Errorf("%d contract violation(s)", len(report.Violations))
	}
	return nil
}

// check enforces the determinism and scaling contracts.
func check(r *benchReport, wall map[int]float64, cl *shard.Cluster, lastShards int) []string {
	var out []string
	base := r.Topology[0]
	for _, tr := range r.Topology[1:] {
		if tr.ResultHash != base.ResultHash {
			out = append(out, fmt.Sprintf("results at %d shards differ from %d shards (%s vs %s)",
				tr.Shards, base.Shards, tr.ResultHash, base.ResultHash))
		}
		if tr.RecHash != base.RecHash {
			out = append(out, fmt.Sprintf("recommendation at %d shards differs from %d shards", tr.Shards, base.Shards))
		}
	}
	for i := 1; i < len(r.Topology); i++ {
		prev, cur := r.Topology[i-1], r.Topology[i]
		if cur.SimQPS < prev.SimQPS {
			out = append(out, fmt.Sprintf("simulated throughput regressed: %.4f q/s at %d shards < %.4f at %d",
				cur.SimQPS, cur.Shards, prev.SimQPS, prev.Shards))
		}
	}
	for _, tr := range r.Topology {
		if tr.Fallbacks != 0 {
			out = append(out, fmt.Sprintf("%d coordinator-serial fallbacks at %d shards, want 0 (partition-wise joins + row exchange cover the workload)",
				tr.Fallbacks, tr.Shards))
		}
	}
	// Wall clock is machine-dependent: both the JSON field and the
	// assertion exist only when enough cores back the fan-out. The
	// simulated speedup above is the portable scaling record.
	if runtime.GOMAXPROCS(0) >= 4 {
		if w1, ok1 := wall[1]; ok1 {
			if w4, ok4 := wall[4]; ok4 && w4 > 0 {
				r.WallSpeedup4 = w1 / w4
				if r.WallSpeedup4 < 1.5 {
					out = append(out, fmt.Sprintf("wall speedup at 4 shards is %.2fx, want >= 1.5x on %d cores",
						r.WallSpeedup4, runtime.GOMAXPROCS(0)))
				}
			}
		}
	}
	for _, a := range r.Autoscale.Audit {
		if a.Action == shard.ActionApply || a.Action == shard.ActionError {
			out = append(out, fmt.Sprintf("dry-run autoscaler performed action %q on window %d", a.Action, a.Window))
		}
	}
	if cl.Shards() != lastShards {
		out = append(out, fmt.Sprintf("dry-run autoscaler mutated topology to %d shards", cl.Shards()))
	}
	if st := cl.Stats(); st.Reshards != 0 {
		out = append(out, fmt.Sprintf("dry-run autoscaler performed %d reshards", st.Reshards))
	}
	return out
}

// render canonicalizes a result for hashing.
func render(res *exec.Result) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Cols, ","))
	sb.WriteByte('\n')
	for _, row := range res.Rows {
		sb.WriteString(row.Key())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// renderConfig canonicalizes a configuration (sorted index and view
// definitions) for identity comparison.
func renderConfig(c conf.Configuration) string {
	lines := make([]string, 0, len(c.Indexes)+len(c.Views))
	for _, d := range c.Indexes {
		lines = append(lines, "index "+d.Table+"("+strings.Join(d.Columns, ",")+")")
	}
	for _, v := range c.Views {
		lines = append(lines, "view "+v.Name+" = "+v.SQL)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func hashString(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}
