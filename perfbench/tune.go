package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/conf"
	"repro/internal/engine"
	"repro/internal/recommender"
)

// The tune workload is the recommender loop: five searches on the paper's
// 100-query samples, each from a fresh what-if session (users pay a cold
// cache on every search), each recommendation applied with
// Engine.Transition and the engine returned to P afterwards. --seed
// permutes the order of the five searches.
const (
	tuneSample      = 100
	tuneParallelism = 2
)

// tuneCase is one search with the engine it runs on.
type tuneCase struct {
	name    string
	eng     *engine.Engine
	rec     recommender.Config
	queries []string
	budget  int64
	pin     tunePin
}

type tuneState struct {
	cases []*tuneCase
	nref  *engine.Engine // System B's NREF engine, for the layer probes
}

// newTune loads the engines and samples. pins may be nil (when computing
// them); otherwise there is one per case, in tuneCases order.
func newTune(steps setupSteps, pins []tunePin) (*tuneState, error) {
	if pins != nil && len(pins) != len(tuneCases) {
		return nil, fmt.Errorf("pinned.json has %d tune entries, want %d", len(pins), len(tuneCases))
	}
	engines := make(map[string]*engine.Engine) // by system and database
	s := &tuneState{}
	for i, tc := range tuneCases {
		db := map[string]string{"NREF2J": "NREF", "NREF3J": "NREF", "SkTH3J": "SkTH", "UnTH3J": "UnTH"}[tc.Family]
		key := tc.System + "-" + db
		e := engines[key]
		if e == nil {
			var err error
			profile := map[string]engine.Profile{"A": engine.SystemA(), "B": engine.SystemB(), "C": engine.SystemC()}[tc.System]
			switch db {
			case "NREF":
				e, err = loadNREF(profile, steps)
			default:
				e, err = loadTPCH(profile, db == "SkTH", steps)
			}
			if err != nil {
				return nil, err
			}
			engines[key] = e
		}
		qs, err := sample(e, tc.Family, tuneSample)
		if err != nil {
			return nil, err
		}
		name := caseName(tc.System, tc.Family)
		var pin tunePin
		if pins != nil {
			if pin = pins[i]; pin.Case != name {
				return nil, fmt.Errorf("pinned.json tune entry %d is %q, want %q", i, pin.Case, name)
			}
		}
		s.cases = append(s.cases, &tuneCase{
			name:    name,
			eng:     e,
			rec:     map[string]recommender.Config{"A": recommender.SystemA(), "B": recommender.SystemB(), "C": recommender.SystemC()}[tc.System],
			queries: qs,
			budget:  e.NewWhatIf().EstimateSize(engine.OneColumnConfiguration(e)),
			pin:     pin,
		})
	}
	s.nref = engines["B-NREF"]
	return s, nil
}

// tuneOp is one search and transition of one case: their wall times, and
// the two together less steal (see stopwatch).
type tuneOp struct {
	search, apply, total time.Duration
	searchAllocs, build  uint64
	cfg                  conf.Configuration
}

// recommend runs one case's search and applies its recommendation, then
// returns the engine to P (untimed). It starts from a collected heap, so
// the garbage of the previous case is not collected on this one's time.
// Allocation counts are taken only when traced: reading them stops the
// world.
func (tc *tuneCase) recommend(tr *tracer, id int64) (tuneOp, error) {
	var op tuneOp
	var a0, a1, a2 uint64
	runtime.GC()
	if tr != nil {
		a0, _ = allocs()
	}
	root := tr.begin("tune.recommendation", id, -1)
	sp := tr.begin("recommender.search", id, root)
	w := startWatch()
	t0 := time.Now()
	cfg, err := recommender.New(tc.eng, tc.rec).Parallel(tuneParallelism).Recommend(tc.queries, tc.budget)
	t1 := time.Now()
	tr.end(sp)
	if err != nil {
		tr.end(root)
		return op, fmt.Errorf("%s: %w", tc.name, err)
	}
	if tr != nil {
		a1, _ = allocs()
	}
	sp = tr.begin("engine.transition", id, root)
	t2 := time.Now()
	rep, err := tc.eng.Transition(cfg)
	t3 := time.Now()
	_, total := w.elapsed()
	tr.end(sp)
	tr.end(root)
	if tr != nil {
		a2, _ = allocs()
	}
	if err != nil {
		return op, fmt.Errorf("%s: applying: %w", tc.name, err)
	}
	op = tuneOp{search: t1.Sub(t0), apply: t3.Sub(t2), total: total, searchAllocs: a1 - a0, build: a2 - a1, cfg: cfg}
	if _, err := tc.eng.Transition(engine.PConfiguration(tc.eng)); err != nil {
		return op, fmt.Errorf("%s: returning to P: %w", tc.name, err)
	}
	if d := configDigest(cfg); d != tc.pin.Config || rep.BuildSeconds != tc.pin.BuildSeconds {
		return op, fmt.Errorf("%s: recommendation %s build %v sim s, pinned %s %v",
			tc.name, d, rep.BuildSeconds, tc.pin.Config, tc.pin.BuildSeconds)
	}
	return op, nil
}

// tunePhase is one measured stretch of whole passes.
type tunePhase struct {
	phase
	search, apply map[string][]float64 // seconds, by case
	searchAllocs  []float64
	buildAllocs   []float64
	last          map[string]conf.Configuration
	passes        int
}

// passes runs whole passes over the cases, each pass in its own seeded
// order, until d has elapsed. ops_per_s counts only search and transition
// time (the return to P is bookkeeping, not user work): it is the five
// cases over the sum of their median times.
func (s *tuneState) passes(c *runCtx, tr *tracer, d time.Duration, firstPass int) tunePhase {
	p := tunePhase{search: map[string][]float64{}, apply: map[string][]float64{}, last: map[string]conf.Configuration{}}
	byOp := make(map[int][]float64)
	for start := time.Now(); p.passes == 0 || time.Since(start) < d; p.passes++ {
		for _, i := range permutation(c.opts.seed*1_000_003+int64(firstPass+p.passes), len(s.cases)) {
			tc := s.cases[i]
			op, err := tc.recommend(tr, int64((firstPass+p.passes)*len(s.cases)+i))
			c.op(err)
			if err != nil {
				continue
			}
			byOp[i] = append(byOp[i], ms(op.total))
			p.search[tc.name] = append(p.search[tc.name], op.search.Seconds())
			p.apply[tc.name] = append(p.apply[tc.name], op.apply.Seconds())
			p.searchAllocs = append(p.searchAllocs, float64(op.searchAllocs))
			p.buildAllocs = append(p.buildAllocs, float64(op.build))
			p.last[tc.name] = op.cfg
		}
	}
	var perPass float64
	for _, xs := range byOp {
		perPass += median(xs)
	}
	p.phase = repeated(byOp, time.Duration(perPass*float64(time.Millisecond)))
	return p
}

func runTune(c *runCtx) error {
	p, err := loadPins()
	if err != nil {
		return err
	}
	var s *tuneState
	err = c.setUp(func() error { s = nil; return nil }, func(st setupSteps) error {
		var err error
		s, err = newTune(st, p.Tune)
		return err
	})
	if err != nil {
		return err
	}

	untraced := s.passes(c, nil, c.opts.phase(), 0)
	c.endToEnd(untraced.phase)
	c.record["passes"] = untraced.passes
	if c.tr == nil {
		return nil
	}

	r0 := readRuntime()
	engine.ResetWhatIfCounters()
	traced := s.passes(c, c.tr, c.opts.phase(), untraced.passes)
	calls, hits := engine.WhatIfCounters()
	runtimeDelta(c.layer, r0, readRuntime())
	overhead(c.layer, untraced.phase, traced.phase)
	c.record["traced_passes"] = traced.passes

	var searchTotal, applyTotal float64
	for _, tc := range s.cases {
		sm, am := median(traced.search[tc.name]), median(traced.apply[tc.name])
		c.layer["recommender.search_s."+tc.name] = sm
		c.layer["engine.transition_s."+tc.name] = am
		searchTotal += sm
		applyTotal += am
	}
	c.layer["recommender.search_s.total"] = searchTotal
	c.layer["engine.transition_s.total"] = applyTotal
	c.layer["recommender.allocs_per_search"] = median(traced.searchAllocs)
	c.layer["engine.build_allocs"] = median(traced.buildAllocs)
	c.layer["whatif.estimates"] = float64(calls)
	if calls > 0 {
		c.layer["whatif.hit_rate"] = float64(hits) / float64(calls)
		var searchWall float64
		for _, xs := range traced.search {
			searchWall += sum(xs)
		}
		c.layer["whatif.us_per_estimate"] = searchWall * 1e6 / float64(calls)
	}
	if err := s.estimateProbe(c.layer, traced.last); err != nil {
		return err
	}
	var nrefQueries []string
	for _, tc := range s.cases {
		if tc.eng == s.nref {
			nrefQueries = append(nrefQueries, tc.queries...)
		}
	}
	parse, opt, err := frontEndProbe(s.nref, nrefQueries)
	if err != nil {
		return err
	}
	c.layer["sql.parse_us.p50"], c.layer["optimizer.optimize_us.p50"] = parse, opt
	if _, err := s.nref.Transition(engine.OneColumnConfiguration(s.nref)); err != nil {
		return err
	}
	if err := storageAndBtree(c.layer, s.nref, c.opts.seed); err != nil {
		return err
	}
	_, err = s.nref.Transition(engine.PConfiguration(s.nref))
	return err
}

// estimateProbe times WhatIf.Estimate of every sample query against its
// case's recommendation: once in a fresh session (cold), then again in the
// same session (warm).
func (s *tuneState) estimateProbe(layer map[string]float64, recs map[string]conf.Configuration) error {
	var cold, warm []float64
	for _, tc := range s.cases {
		cfg, ok := recs[tc.name]
		if !ok {
			continue
		}
		for _, text := range tc.queries {
			q, err := tc.eng.AnalyzeSQL(text)
			if err != nil {
				return err
			}
			w := tc.eng.NewWhatIf()
			for _, into := range []*[]float64{&cold, &warm} {
				t := time.Now()
				if _, err := w.Estimate(q, cfg); err != nil {
					return fmt.Errorf("%s: what-if estimate: %w", tc.name, err)
				}
				*into = append(*into, float64(time.Since(t).Nanoseconds())/1e3)
			}
		}
	}
	layer["whatif.estimate_us.cold"] = median(cold)
	layer["whatif.estimate_us.warm"] = median(warm)
	return nil
}
