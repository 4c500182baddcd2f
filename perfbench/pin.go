package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/recommender"
	"repro/internal/sql"
)

// computePins runs every workload's deterministic part once and returns
// the outputs the checks compare against. pinned.json holds its output at
// the commit that added the benchmark.
func computePins() (pins, error) {
	var p pins
	steps := setupSteps{}

	s, err := serveBackend(steps)
	if err != nil {
		return p, err
	}
	for i, text := range s.pool {
		stmt, err := sql.ParseSelect(text)
		if err != nil {
			return p, err
		}
		q, err := sql.Analyze(s.coord.Schema, stmt)
		if err != nil {
			return p, err
		}
		res, m, err := s.cl.RunAnalyzed(q, core.DefaultTimeout)
		if err != nil {
			return p, fmt.Errorf("serve pool query %d: %w", i, err)
		}
		p.Serve = append(p.Serve, servePin{RowCount: len(res.Rows), SimSeconds: m.Seconds})
	}

	ev, err := newEvaluate(steps, nil)
	if err != nil {
		return p, err
	}
	p.Evaluate = map[string][]evalPin{}
	for ci, e := range ev.engines {
		for i, q := range ev.queries {
			res, m, err := e.Run(q, core.DefaultTimeout)
			if err != nil {
				return p, fmt.Errorf("evaluate %s query %d: %w", evalConfigs[ci], i, err)
			}
			p.Evaluate[evalConfigs[ci]] = append(p.Evaluate[evalConfigs[ci]], evalPin{SimSeconds: m.Seconds, TimedOut: m.TimedOut, Rows: rowsDigest(renderRows(res))})
		}
	}

	tu, err := newTune(steps, nil)
	if err != nil {
		return p, err
	}
	for _, tc := range tu.cases {
		cfg, err := recommender.New(tc.eng, tc.rec).Parallel(tuneParallelism).Recommend(tc.queries, tc.budget)
		if err != nil {
			return p, fmt.Errorf("%s: %w", tc.name, err)
		}
		rep, err := tc.eng.Transition(cfg)
		if err != nil {
			return p, fmt.Errorf("%s: applying: %w", tc.name, err)
		}
		if _, err := tc.eng.Transition(engine.PConfiguration(tc.eng)); err != nil {
			return p, fmt.Errorf("%s: returning to P: %w", tc.name, err)
		}
		p.Tune = append(p.Tune, tunePin{Case: tc.name, Config: configDigest(cfg), BuildSeconds: rep.BuildSeconds})
	}
	return p, nil
}
