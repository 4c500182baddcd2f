// Package recommender implements autonomic configuration recommenders in
// the mold the paper benchmarks (§2.1): given a workload and a storage
// budget, search the space of index (and materialized-view) configurations
// for one minimizing the estimated workload cost, where every estimate is
// a hypothetical what-if estimate H(q, Ch, P) obtained through the
// engine's optimizer from the current configuration's statistics.
//
// Three profiles reproduce the behavioral envelope of the paper's
// commercial Systems A, B and C:
//
//   - System A enumerates per-query candidate permutations aggressively
//     and gives up when the candidate space exceeds its work limit — the
//     paper §4.1.2 observed exactly this: A produced no recommendation at
//     all for the NREF3J 100-query workload.
//   - System B generates targeted composites and runs a workload-level
//     greedy knapsack on total estimated cost.
//   - System C additionally proposes materialized views over the
//     workload's joins, and indexes on those views (paper Table 3).
package recommender

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sql"
)

// ErrTooComplex reports that the recommender capitulated: the candidate
// space for the workload exceeded its evaluation budget (System A on
// NREF3J).
var ErrTooComplex = errors.New("recommender: workload candidate space exceeds the evaluation limit")

// Config parameterizes a recommender profile.
type Config struct {
	Name string
	// MaxWidth bounds index key width (the paper's recommendations never
	// exceeded 4 columns; Tables 2 and 3).
	MaxWidth int
	// TopPerQuery keeps the best candidates per query after solo
	// evaluation, before the workload-level search.
	TopPerQuery int
	// EvalLimit bounds the total number of per-query candidate
	// evaluations; exceeded => ErrTooComplex. 0 means unlimited.
	EvalLimit int
	// Permute enumerates all ordered permutations of relevant column
	// subsets (System A's aggressive generation) instead of targeted
	// composites.
	Permute bool
	// UseViews adds materialized-view candidates (System C).
	UseViews bool
	// MinGainFrac stops the greedy search when the best candidate's gain
	// falls below this fraction of the current total estimated cost.
	MinGainFrac float64
	// PerQuery ranks candidates only by their solo (single-query) gains
	// instead of re-evaluating the workload each greedy round.
	PerQuery bool
	// MaxIndexes caps the number of non-auto indexes in the
	// recommendation (0 = unlimited).
	MaxIndexes int
}

// SystemA returns the paper's System A profile.
func SystemA() Config {
	return Config{
		Name: "A", MaxWidth: 4, TopPerQuery: 2,
		EvalLimit: 8000, Permute: true, PerQuery: true,
		MinGainFrac: 0.01, MaxIndexes: 12,
	}
}

// SystemB returns the paper's System B profile.
func SystemB() Config {
	return Config{
		Name: "B", MaxWidth: 4, TopPerQuery: 3,
		MinGainFrac: 0.002,
	}
}

// SystemC returns the paper's System C profile.
func SystemC() Config {
	return Config{
		Name: "C", MaxWidth: 4, TopPerQuery: 3,
		UseViews: true, MinGainFrac: 0.002,
	}
}

// ConfigOf maps a system name to its recommender profile.
func ConfigOf(system string) (Config, error) {
	switch system {
	case "A":
		return SystemA(), nil
	case "B":
		return SystemB(), nil
	case "C":
		return SystemC(), nil
	}
	return Config{}, fmt.Errorf("unknown recommender %q", system)
}

// candidate is one atomic configuration change: a set of indexes, possibly
// bundled with the materialized view they are defined on.
type candidate struct {
	key     string
	indexes []conf.IndexDef
	views   []conf.ViewDef
	// size is the estimated full-scale bytes, filled lazily.
	size int64
	// soloGain accumulates single-query gains (for ranking).
	soloGain float64
}

// scoredCand pairs a candidate with its single-query gain. byGainDesc
// sorts best-gain-first (ties by key for determinism); a named
// sort.Interface keeps the per-query ranking loop closure-free on the
// recommendation path.
type scoredCand struct {
	c    *candidate
	gain float64
}

type byGainDesc []scoredCand

func (s byGainDesc) Len() int      { return len(s) }
func (s byGainDesc) Swap(a, b int) { s[a], s[b] = s[b], s[a] }
func (s byGainDesc) Less(a, b int) bool {
	if s[a].gain != s[b].gain {
		return s[a].gain > s[b].gain
	}
	return s[a].c.key < s[b].c.key
}

func (c *candidate) applyTo(cfg conf.Configuration) conf.Configuration {
	out := cfg.Clone()
	for _, v := range c.views {
		if !out.HasView(v.Name) {
			out.Views = append(out.Views, v)
		}
	}
	for _, ix := range c.indexes {
		out.AddIndex(ix)
	}
	return out
}

// inConfig reports whether the configuration already contains everything
// the candidate would add.
func (c *candidate) inConfig(cfg conf.Configuration) bool {
	for _, v := range c.views {
		if !cfg.HasView(v.Name) {
			return false
		}
	}
	for _, ix := range c.indexes {
		if !cfg.HasIndex(ix) {
			return false
		}
	}
	return true
}

// tables returns the base tables the candidate concerns (for affected-
// query filtering).
func (c *candidate) tables() map[string]bool {
	out := make(map[string]bool)
	for _, ix := range c.indexes {
		out[strings.ToLower(ix.Table)] = true
	}
	for _, v := range c.views {
		for _, t := range v.BaseTables {
			out[strings.ToLower(t)] = true
		}
	}
	return out
}

// Recommender searches configurations for one engine + profile.
type Recommender struct {
	e       *engine.Engine
	cfg     Config
	run     core.Runner
	session *engine.WhatIf
}

// New creates a recommender over the engine (which should be in the P
// configuration with statistics collected, per §3.2.3). The search runs
// sequentially unless Parallel raises the fan-out.
func New(e *engine.Engine, cfg Config) *Recommender {
	return &Recommender{e: e, cfg: cfg, run: core.Runner{Parallelism: 1}}
}

// Parallel sets the candidate-evaluation fan-out (1 = sequential,
// 0 = GOMAXPROCS) and returns the recommender for chaining. The
// recommendation is byte-identical at any setting: estimates fan out over
// index-addressed slices and every selection reduces sequentially.
func (r *Recommender) Parallel(n int) *Recommender {
	r.run.Parallelism = n
	return r
}

// UseSession makes the search estimate through an existing what-if
// session instead of opening its own, so a long-lived caller (the
// autopilot controller) shares one estimate cache across retunes and
// with its own predictions. The session must belong to the same engine.
func (r *Recommender) UseSession(w *engine.WhatIf) *Recommender {
	r.session = w
	return r
}

// soloJob is one (query, candidate) pair of the solo-evaluation fan-out.
type soloJob struct {
	qi int
	c  *candidate
}

// Recommend returns a configuration for the workload within the storage
// budget (full-scale bytes for structures beyond the base configuration).
//
// conflint:hotpath — the whole candidate search runs inside here; every
// allocation repeats per candidate per round.
func (r *Recommender) Recommend(queries []string, budget int64) (conf.Configuration, error) {
	base := r.e.Current().Clone()
	base.Name = r.cfg.Name + " R"

	// Analyze the workload once.
	qs := make([]*sql.Query, len(queries))
	for i, text := range queries {
		q, err := r.e.AnalyzeSQL(text)
		if err != nil {
			return conf.Configuration{}, fmt.Errorf("recommender: %w", err)
		}
		qs[i] = q
	}

	// Candidate generation, with the capitulation check applied to the
	// size of the candidate space before any evaluation happens.
	perQuery := make([][]*candidate, len(qs))
	evals := 0
	for i, q := range qs {
		perQuery[i] = r.generate(q)
		evals += r.evalUnits(q)
	}
	if r.cfg.EvalLimit > 0 && evals > r.cfg.EvalLimit {
		return conf.Configuration{}, fmt.Errorf("%w (%d evaluations > %d)",
			ErrTooComplex, evals, r.cfg.EvalLimit)
	}

	w := r.session
	if w == nil {
		w = r.e.NewWhatIf()
	}

	// Baseline cost per query in the starting configuration, fanned over
	// the pool into an index-addressed slice.
	baseCost := make([]float64, len(qs))
	err := r.run.Each(len(qs), func(i int) error {
		m, err := w.Estimate(qs[i], base)
		if err != nil {
			return err
		}
		baseCost[i] = m.Seconds
		return nil
	})
	if err != nil {
		return conf.Configuration{}, err
	}

	// Solo evaluation: estimate every (query, candidate) pair in parallel
	// through the delta path, then reduce per query sequentially so the
	// TopPerQuery ranking is order-independent of the fan-out.
	nJobs := 0
	for i := range perQuery {
		nJobs += len(perQuery[i])
	}
	jobs := make([]soloJob, 0, nJobs)
	for i := range perQuery {
		for _, c := range perQuery[i] {
			jobs = append(jobs, soloJob{qi: i, c: c})
		}
	}
	gains := make([]float64, len(jobs))
	err = r.run.Each(len(jobs), func(k int) error {
		j := jobs[k]
		delta := conf.Configuration{Indexes: j.c.indexes, Views: j.c.views}
		m, err := w.EstimateWith(qs[j.qi], base, delta)
		if err != nil {
			return err
		}
		gains[k] = baseCost[j.qi] - m.Seconds
		return nil
	})
	if err != nil {
		return conf.Configuration{}, err
	}

	// Sequential reduction: keep the best TopPerQuery candidates per query.
	pool := make(map[string]*candidate)
	k := 0
	for i := range qs {
		ss := make([]scoredCand, 0, len(perQuery[i]))
		for range perQuery[i] {
			if g := gains[k]; g > 0 {
				ss = append(ss, scoredCand{jobs[k].c, g})
			}
			k++
		}
		sort.Sort(byGainDesc(ss))
		if len(ss) > r.cfg.TopPerQuery {
			ss = ss[:r.cfg.TopPerQuery]
		}
		for _, s := range ss {
			if p, ok := pool[s.c.key]; ok {
				p.soloGain += s.gain
			} else {
				c := *s.c
				c.soloGain = s.gain
				pool[s.c.key] = &c
			}
		}
	}

	// Estimate candidate sizes (key-sorted first so every later stage sees
	// one deterministic candidate order).
	cands := make([]*candidate, 0, len(pool))
	for _, c := range pool {
		cands = append(cands, c)
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].key < cands[b].key })
	err = r.run.Each(len(cands), func(i int) error {
		c := cands[i]
		c.size = w.EstimateSize(conf.Configuration{Indexes: c.indexes, Views: c.views})
		return nil
	})
	if err != nil {
		return conf.Configuration{}, err
	}

	if r.cfg.PerQuery {
		return r.packBySoloGain(base, cands, budget), nil
	}
	return r.greedy(w, base, qs, baseCost, cands, budget)
}

// packBySoloGain is System A's cruder selection: rank the pooled
// candidates by accumulated single-query gain density and add them while
// the budget lasts, without workload-level re-evaluation.
func (r *Recommender) packBySoloGain(base conf.Configuration, cands []*candidate, budget int64) conf.Configuration {
	sort.SliceStable(cands, func(a, b int) bool {
		da := cands[a].soloGain / float64(cands[a].size+1)
		db := cands[b].soloGain / float64(cands[b].size+1)
		if da != db {
			return da > db
		}
		return cands[a].key < cands[b].key
	})
	out := base
	var used int64
	for _, c := range cands {
		if c.inConfig(out) {
			continue
		}
		if used+c.size > budget {
			continue
		}
		if r.cfg.MaxIndexes > 0 && nonAutoCount(out)+len(c.indexes) > r.cfg.MaxIndexes {
			continue
		}
		out = c.applyTo(out)
		used += c.size
	}
	return out
}

// nonAutoCount counts the recommendation's own indexes.
func nonAutoCount(c conf.Configuration) int {
	n := 0
	for _, d := range c.Indexes {
		if !d.Auto {
			n++
		}
	}
	return n
}

// queryCost is one improved query cost found during a greedy trial.
type queryCost struct {
	qi      int
	seconds float64
}

// roundResult is one candidate's outcome in a greedy round: its total
// gain over the affected queries and the per-query costs that improved.
type roundResult struct {
	gain  float64
	costs []queryCost
}

// greedy is the workload-level knapsack: each round adds the candidate
// with the best total-gain-per-byte, re-estimating affected queries, until
// no candidate clears the minimum-gain bar or the budget is exhausted.
// Each round evaluates its feasible candidates in parallel and then
// selects sequentially in candidate order, so the chosen sequence is
// byte-identical at any parallelism.
func (r *Recommender) greedy(w *engine.WhatIf, base conf.Configuration, qs []*sql.Query,
	baseCost []float64, cands []*candidate, budget int64) (conf.Configuration, error) {

	cur := base
	cost := append([]float64(nil), baseCost...)
	var used int64

	// affected[i] lists queries touching candidate i's tables.
	affected := make([][]int, len(cands))
	for ci, c := range cands {
		tabs := c.tables()
		for qi, q := range qs {
			for _, t := range q.Tables {
				if tabs[strings.ToLower(t.Table.Name)] {
					affected[ci] = append(affected[ci], qi)
					break
				}
			}
		}
	}

	work := make([]int, 0, len(cands))
	results := make([]roundResult, len(cands))
	for round := 0; round < 64; round++ {
		total := 0.0
		for _, c := range cost {
			total += c
		}
		// The feasibility filter depends on the evolving configuration and
		// budget, so it runs sequentially; the surviving candidates then
		// estimate concurrently.
		work = work[:0]
		for ci, c := range cands {
			if c.inConfig(cur) || used+c.size > budget {
				continue
			}
			if r.cfg.MaxIndexes > 0 && nonAutoCount(cur)+len(c.indexes) > r.cfg.MaxIndexes {
				continue
			}
			work = append(work, ci)
		}
		if len(work) == 0 {
			break
		}
		if err := r.greedyRound(w, cur, qs, cost, cands, affected, work, results); err != nil {
			return conf.Configuration{}, err
		}
		// Density comparison with deterministic tie-breaks, in candidate
		// order — exactly the sequential scan's selection.
		bestGain, bestIdx, bestK := 0.0, -1, -1
		for k, ci := range work {
			if results[k].gain <= 0 {
				continue
			}
			if bestIdx < 0 || results[k].gain/float64(cands[ci].size+1) > bestGain/float64(cands[bestIdx].size+1) {
				bestGain, bestIdx, bestK = results[k].gain, ci, k
			}
		}
		if bestIdx < 0 || bestGain < r.cfg.MinGainFrac*total {
			break
		}
		cur = cands[bestIdx].applyTo(cur)
		used += cands[bestIdx].size
		for _, qc := range results[bestK].costs {
			cost[qc.qi] = qc.seconds
		}
	}
	return cur, nil
}

// greedyRound evaluates one round's feasible candidates (work, indexes
// into cands) against the current configuration, writing each outcome
// into results[k]. Trials go through the what-if delta path: the base
// configuration's structures resolve once in the session and each
// candidate only contributes its own delta.
func (r *Recommender) greedyRound(w *engine.WhatIf, cur conf.Configuration, qs []*sql.Query,
	cost []float64, cands []*candidate, affected [][]int, work []int, results []roundResult) error {
	return r.run.Each(len(work), func(k int) error {
		ci := work[k]
		c := cands[ci]
		delta := conf.Configuration{Indexes: c.indexes, Views: c.views}
		gain := 0.0
		costs := make([]queryCost, 0, len(affected[ci]))
		for _, qi := range affected[ci] {
			m, err := w.EstimateWith(qs[qi], cur, delta)
			if err != nil {
				return err
			}
			if m.Seconds < cost[qi] {
				gain += cost[qi] - m.Seconds
				costs = append(costs, queryCost{qi: qi, seconds: m.Seconds})
			}
		}
		results[k] = roundResult{gain: gain, costs: costs}
		return nil
	})
}

// evalUnits sizes the candidate space for one query. Permuting profiles
// (System A) consider combinations of one index per table instance, so
// their space is the product of the per-alias permutation counts — the
// multiplicative blowup that makes self-joining three-table workloads
// (NREF3J) exceed the limit while two-table workloads stay under it.
func (r *Recommender) evalUnits(q *sql.Query) int {
	if !r.cfg.Permute {
		return len(r.generate(q))
	}
	sets := relevantColumns(q)
	units := 1
	for _, cs := range sets {
		rel := len(concatUnique(cs.eq, cs.rng, cs.join, cs.in, cs.group))
		n := permCount(rel, r.cfg.MaxWidth)
		if n < 1 {
			n = 1
		}
		units *= n
		if units > 1<<30 {
			return 1 << 30
		}
	}
	return units
}

// permCount returns sum_{k=1..maxLen} n!/(n-k)!.
func permCount(n, maxLen int) int {
	total := 0
	for k := 1; k <= maxLen && k <= n; k++ {
		p := 1
		for i := 0; i < k; i++ {
			p *= n - i
		}
		total += p
	}
	return total
}
