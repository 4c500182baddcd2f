package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/conf"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/workload"
)

// The dataset is fixed: every workload runs on the paper's databases
// generated with dataSeed at the gateway's default scale, and on query
// samples drawn with dataSeed. The --seed argument drives only the
// traffic (which query each request sends, in what order queries and
// searches are fed), so every seed does the same total work and the
// pinned outputs below hold for any seed. A seeded sample would not do:
// five seeds of the 30-query NREF3J sample ran 2.2-9.2 s in P.
const (
	dataSeed = 42
	scale    = 0.0002
)

// setupSteps accumulates the wall time of the set-up steps of one set-up,
// by per-layer metric name.
type setupSteps map[string]float64

func (s setupSteps) timed(name string, fn func() error) error {
	t := time.Now()
	err := fn()
	s[name] += time.Since(t).Seconds()
	return err
}

// loadNREF generates the NREF database into a fresh engine, collects
// statistics and applies P.
func loadNREF(profile engine.Profile, steps setupSteps) (*engine.Engine, error) {
	e := engine.New(catalog.NREF(), scale, profile)
	err := steps.timed("datagen.generate_s", func() error {
		return datagen.GenerateNREF(e, datagen.NREFOptions{ScaleFactor: scale, Seed: dataSeed})
	})
	if err != nil {
		return nil, err
	}
	return e, statsAndP(e, steps)
}

// loadTPCH is loadNREF for the skewed (SkTH) or uniform (UnTH) TPC-H
// database.
func loadTPCH(profile engine.Profile, skew bool, steps setupSteps) (*engine.Engine, error) {
	e := engine.New(catalog.TPCH(), scale, profile)
	opts := datagen.TPCHOptions{ScaleFactor: scale, Seed: dataSeed}
	if skew {
		opts.Skew, opts.ZipfS = true, 1
	}
	if err := steps.timed("datagen.generate_s", func() error { return datagen.GenerateTPCH(e, opts) }); err != nil {
		return nil, err
	}
	return e, statsAndP(e, steps)
}

func statsAndP(e *engine.Engine, steps setupSteps) error {
	t := time.Now()
	e.CollectStats()
	steps["engine.collect_stats_s"] += time.Since(t).Seconds()
	return steps.timed("engine.apply_config_s", func() error {
		_, err := e.ApplyConfig(engine.PConfiguration(e))
		return err
	})
}

// transition moves an engine to a configuration, timed as a set-up step.
func transition(e *engine.Engine, c conf.Configuration, steps setupSteps) error {
	return steps.timed("engine.apply_config_s", func() error {
		_, err := e.Transition(c)
		return err
	})
}

// sample draws the family's n-query sample the way the paper's
// experiments do: stratified by optimizer estimates in P (the engine must
// be in P).
func sample(e *engine.Engine, family string, n int) ([]string, error) {
	var fam workload.Family
	opts := workload.DefaultOptions()
	switch family {
	case "NREF2J":
		fam = workload.NREF2J(e.Schema, e, opts)
	case "NREF3J":
		fam = workload.NREF3J(e.Schema, e, opts)
	case "SkTH3J":
		fam = workload.SkTH3J(e.Schema, e, opts)
	case "UnTH3J":
		fam = workload.UnTH3J(e.Schema, e, opts)
	default:
		return nil, fmt.Errorf("unknown family %q", family)
	}
	var estErr error
	s := fam.Sample(n, func(q string) float64 {
		m, err := e.Estimate(q)
		if err != nil && estErr == nil {
			estErr = fmt.Errorf("estimating %q: %w", q, err)
		}
		return m.Seconds
	}, dataSeed)
	if estErr != nil {
		return nil, estErr
	}
	return s.SQLs(), nil
}

// setUp builds the workload's state setupReps times and records the
// median time (less steal, see stopwatch) as setup_s and the median wall
// time of each set-up step. Only the last build's state survives: before
// each later build, teardown lets the previous state go, and its garbage
// is collected before the clock starts.
func (c *runCtx) setUp(teardown func() error, build func(steps setupSteps) error) error {
	var walls []float64
	stepRuns := make(map[string][]float64)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			if err := teardown(); err != nil {
				return err
			}
		}
		runtime.GC()
		steps := setupSteps{}
		w := startWatch()
		if err := build(steps); err != nil {
			return err
		}
		_, d := w.elapsed()
		walls = append(walls, d.Seconds())
		for k, v := range steps {
			stepRuns[k] = append(stepRuns[k], v)
		}
	}
	c.e2e["setup_s"] = median(walls)
	for k, v := range stepRuns {
		c.layer[k] = median(v)
	}
	return nil
}

// setupReps is how many times each run sets up; setup_s is the median.
const setupReps = 5

// permutation returns a seeded order of n items.
func permutation(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// rowsDigest hashes rendered result rows (each value by its String form,
// which is also how the gateway renders rows).
func rowsDigest(rows [][]string) string {
	h := sha256.New()
	for _, r := range rows {
		h.Write([]byte(strings.Join(r, "\x1f")))
		h.Write([]byte{'\x1e'})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func renderRows(res *exec.Result) [][]string {
	if res == nil {
		return nil
	}
	out := make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		row := make([]string, len(r))
		for j, v := range r {
			row[j] = v.String()
		}
		out[i] = row
	}
	return out
}

// configDigest hashes a configuration's structures in order.
func configDigest(c conf.Configuration) string {
	var lines []string
	for _, v := range c.Views {
		lines = append(lines, v.String())
	}
	for _, d := range c.Indexes {
		lines = append(lines, d.String())
	}
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:8])
}

// pins are the program outputs expected on the fixed dataset, recorded at
// the commit that added the benchmark. Simulated seconds are the paper's
// measurement and must never move; a mismatch is a failed operation.
type pins struct {
	Serve    []servePin           `json:"serve"`
	Evaluate map[string][]evalPin `json:"evaluate"`
	Tune     []tunePin            `json:"tune"`
}

// servePin is the gateway's answer to one pool query.
type servePin struct {
	RowCount   int     `json:"row_count"`
	SimSeconds float64 `json:"sim_seconds"`
}

// evalPin is one sample query's measure under one configuration. A query
// that hits the paper's 30-minute simulated timeout is pinned as timed out
// with no rows: that is the measurement, not a failure.
type evalPin struct {
	SimSeconds float64 `json:"sim_seconds"`
	TimedOut   bool    `json:"timed_out,omitempty"`
	Rows       string  `json:"rows"`
}

// tunePin is one search's recommendation and its transition cost.
type tunePin struct {
	Case         string  `json:"case"`
	Config       string  `json:"config"`
	BuildSeconds float64 `json:"build_sim_seconds"`
}

//go:embed pinned.json
var pinnedJSON []byte

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return p, fmt.Errorf("pinned.json: %w", err)
	}
	return p, nil
}
