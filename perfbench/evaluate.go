package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
)

// The evaluate workload is the paper's own measurement: the 30-query
// NREF3J sample run in P, then in 1C, unsharded, two queries at a time.
// Each configuration lives in its own engine, so a pass runs queries and
// nothing else. --seed shuffles the order the runner is fed (see order).
const (
	evalSample      = 30
	evalParallelism = 2
)

var evalConfigs = []string{"P", "1C"}

type evalState struct {
	engines []*engine.Engine // indexed like evalConfigs
	queries []string
	pins    map[string][]evalPin
}

// newEvaluate loads one engine per configuration and the sample. pins may
// be nil (when computing them).
func newEvaluate(steps setupSteps, pins map[string][]evalPin) (*evalState, error) {
	s := &evalState{pins: pins}
	for _, name := range evalConfigs {
		e, err := loadNREF(engine.SystemB(), steps)
		if err != nil {
			return nil, err
		}
		if name == "1C" {
			if err := transition(e, engine.OneColumnConfiguration(e), steps); err != nil {
				return nil, err
			}
		} else if s.queries, err = sample(e, "NREF3J", evalSample); err != nil {
			return nil, err
		}
		if pins != nil && len(pins[name]) != evalSample {
			return nil, fmt.Errorf("pinned.json has %d evaluate entries for %s, want %d", len(pins[name]), name, evalSample)
		}
		s.engines = append(s.engines, e)
	}
	return s, nil
}

// pass runs the sample once per configuration and adds each
// configuration's time (ms, less steal) to byConfig. One such run — what
// core.Runner.RunWorkload does, with each query's rows kept for the check
// — is an operation of this workload. Each run starts from a collected
// heap, so the garbage of the previous one is not collected on its time.
func (s *evalState) pass(c *runCtx, tr *tracer, passNo int, byConfig map[int][]float64) {
	runner := core.Runner{Parallelism: evalParallelism}
	for ci, e := range s.engines {
		cfg := evalConfigs[ci]
		order := s.order(cfg, c.opts.seed, passNo)
		runtime.GC()
		ps := tr.begin("evaluate.run."+cfg, int64(passNo), -1)
		errs := make([]error, len(order))
		w := startWatch()
		err := runner.Each(len(order), func(j int) error {
			i := order[j]
			sp := tr.begin("engine.run", int64(passNo*len(s.queries)+i), ps)
			res, m, err := e.Run(s.queries[i], core.DefaultTimeout)
			tr.end(sp)
			errs[j] = s.check(cfg, i, res, m, err)
			return errs[j]
		})
		_, d := w.elapsed()
		tr.end(ps)
		c.attempted++
		if err == nil {
			byConfig[ci] = append(byConfig[ci], ms(d))
			continue
		}
		// Each reports only the first failure; count every query's.
		for _, err := range errs {
			if err != nil {
				c.fail(err)
			}
		}
	}
}

// check compares one query's outcome with its pin.
func (s *evalState) check(cfg string, i int, res *exec.Result, m engine.Measure, err error) error {
	if err != nil {
		return fmt.Errorf("%s query %d: %w", cfg, i, err)
	}
	pin := s.pins[cfg][i]
	if m.TimedOut != pin.TimedOut || m.Seconds != pin.SimSeconds {
		return fmt.Errorf("%s query %d: sim_seconds %v (timed out %v), pinned %v (%v)", cfg, i, m.Seconds, m.TimedOut, pin.SimSeconds, pin.TimedOut)
	}
	if d := rowsDigest(renderRows(res)); d != pin.Rows {
		return fmt.Errorf("%s query %d: rows digest %s, pinned %s", cfg, i, d, pin.Rows)
	}
	return nil
}

// order feeds the runner the evalParallelism longest queries of the
// configuration first, by pinned simulated seconds, one per worker, then
// the rest in an order shuffled by the seed and the pass number. Two
// self-joins take most of a pass, and a pass ends when the longest one
// does: fed in sample order, it started up to a second late depending on
// the shuffle, and a pass took up to 30% longer.
func (s *evalState) order(cfg string, seed int64, passNo int) []int {
	pins := s.pins[cfg]
	out := make([]int, len(pins))
	for i := range out {
		out[i] = i
	}
	sort.SliceStable(out, func(a, b int) bool { return pins[out[a]].SimSeconds > pins[out[b]].SimSeconds })
	rest := out[evalParallelism:]
	rand.New(rand.NewSource(seed*1_000_003+int64(passNo))).Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return out
}

// passes runs whole passes until d has elapsed. Each configuration's
// latency is its median over the passes, and ops_per_s is the two runs
// over the sum of those medians.
func (s *evalState) passes(c *runCtx, tr *tracer, d time.Duration, firstPass int) (phase, int) {
	byConfig := make(map[int][]float64)
	n := 0
	for start := time.Now(); n == 0 || time.Since(start) < d; n++ {
		s.pass(c, tr, firstPass+n, byConfig)
	}
	var perPass float64
	for _, xs := range byConfig {
		perPass += median(xs)
	}
	return repeated(byConfig, time.Duration(perPass*float64(time.Millisecond))), n
}

func runEvaluate(c *runCtx) error {
	p, err := loadPins()
	if err != nil {
		return err
	}
	var s *evalState
	err = c.setUp(func() error { s = nil; return nil }, func(st setupSteps) error {
		var err error
		s, err = newEvaluate(st, p.Evaluate)
		return err
	})
	if err != nil {
		return err
	}

	untraced, n := s.passes(c, nil, c.opts.phase(), 0)
	c.endToEnd(untraced)
	c.record["passes"] = n
	if c.tr == nil {
		return nil
	}

	r0 := readRuntime()
	traced, tn := s.passes(c, c.tr, c.opts.phase(), n)
	runtimeDelta(c.layer, r0, readRuntime())
	overhead(c.layer, untraced, traced)
	c.record["traced_passes"] = tn
	if err := s.replayExec(c); err != nil {
		return err
	}
	parse, opt, err := frontEndProbe(s.engines[0], s.queries)
	if err != nil {
		return err
	}
	c.layer["sql.parse_us.p50"], c.layer["optimizer.optimize_us.p50"] = parse, opt
	return storageAndBtree(c.layer, s.engines[1], c.opts.seed)
}

// replayExec runs every sample query once per configuration through
// exec.Run on the plan Engine.Prepare returns, one at a time.
func (s *evalState) replayExec(c *runCtx) error {
	var run []float64
	var rows int64
	var objs, bytes uint64
	for ci, e := range s.engines {
		for i, q := range s.queries {
			p, err := e.Prepare(q)
			if err != nil {
				return err
			}
			ctx := &exec.Ctx{Model: e.Model, LimitSeconds: core.DefaultTimeout}
			o0, b0 := allocs()
			t := time.Now()
			res, err := exec.Run(p, ctx)
			d := time.Since(t)
			o1, b1 := allocs()
			if errors.Is(err, exec.ErrTimeout) && s.pins[evalConfigs[ci]][i].TimedOut {
				err = nil
			}
			if err != nil {
				return fmt.Errorf("replaying %s query %d: %w", evalConfigs[ci], i, err)
			}
			if rowsDigest(renderRows(res)) != s.pins[evalConfigs[ci]][i].Rows {
				return fmt.Errorf("replaying %s query %d: rows differ from the pinned ones", evalConfigs[ci], i)
			}
			run = append(run, ms(d))
			rows += ctx.Meter.Rows
			objs += o1 - o0
			bytes += b1 - b0
		}
	}
	total := sum(run)
	n := float64(len(run))
	c.layer["exec.run_ms.total"] = total
	c.layer["exec.run_ms.p50"] = median(run)
	c.layer["exec.rows_per_s"] = float64(rows) / (total / 1e3)
	c.layer["exec.allocs_per_query"] = float64(objs) / n
	c.layer["exec.bytes_per_query"] = float64(bytes) / n
	return nil
}
