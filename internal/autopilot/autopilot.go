// Package autopilot runs the benchmark as a long-lived autonomic control
// loop instead of a batch. Where the paper evaluates a recommender as a
// one-shot oracle — recommend, apply, replay a frozen 100-query sample —
// the autopilot serves an unbounded, seeded stream of family queries
// through the engine's concurrent read path, observes sliding windows of
// live measurements, and lets a controller retune the configuration (via
// the recommender and the engine's incremental Transition) while traffic
// keeps flowing.
//
// The split:
//
//   - Stream     — seeded mixture-of-families query source with a drift
//     schedule that shifts the mix over time (stream.go)
//   - Grade      — the window grader: CFC quantiles, mean, goal verdicts;
//     the observer adds the mix and E/A ratios (observer.go)
//   - Controller — detects mix shifts and goal violations, recommends,
//     predicts and applies through a caller-supplied apply (controller.go)
//   - Metrics    — atomic counters + /metrics and /healthz handlers
//     (metrics.go)
//
// The gateway's one control goroutine drives the same Grade, Controller
// and ScaleLoop over live traffic.
//
// In bounded mode (Options.Windows > 0) with Options.Sync set, a run is
// fully deterministic: same seed ⇒ byte-identical window reports at any
// parallelism, mirroring the batch runner's determinism guarantee. With
// Sync off, transitions are applied concurrently with the next window's
// traffic — the daemon's production posture.
package autopilot

import (
	"context"
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/recommender"
	"repro/internal/shard"
	"repro/internal/workload"
)

// Options configures one autopilot instance.
type Options struct {
	// System selects the engine profile ("A", "B" or "C").
	System string
	// Recommender selects the tuner: a system profile name or "1C" for
	// the paper's reference configuration as a baseline. Empty = System.
	Recommender string

	// Families is the initial stream mixture. All families must live on
	// the same database.
	Families []FamilyShare
	// Drift, when non-nil, shifts the mixture at a window boundary.
	Drift *Drift

	Scale float64
	Seed  int64
	// PoolSize is the per-family sampled pool the stream draws from
	// (the paper's workloads use 100).
	PoolSize int

	// WindowSize is queries per observation window.
	WindowSize int
	// Windows bounds the run; 0 streams until the context is canceled.
	Windows int

	// Parallelism is the query fan-out within a window (core.Runner).
	Parallelism int

	// Goal is the QoS target; zero value = the paper's Example 2 goal.
	Goal core.Goal

	// MixShiftThreshold is the moved-probability-mass fraction beyond
	// which the controller treats the mix as shifted (default
	// DefaultMixShiftThreshold).
	MixShiftThreshold float64

	// Timeout is the per-query simulated timeout (default 1800s).
	Timeout float64

	// Sync applies transitions at window boundaries instead of
	// overlapping them with the next window's traffic. Deterministic;
	// used by tests and CI.
	Sync bool

	// Warmup tunes once on a warmup window before serving, so traffic
	// starts under a configuration fitted to the initial mix.
	Warmup bool

	// Static freezes the configuration after warmup: the decaying
	// baseline the drift experiment compares against.
	Static bool

	// Autoscale, when non-nil, feeds every window report through the
	// shard autoscaler's recommend/apply loop (the ScaleMetrics bridge) —
	// the batch counterpart of the gateway's live elastic loop. The
	// cluster is the caller's: the autopilot grades its own traffic and
	// only drives the scale decision.
	Autoscale *ScaleLoop
}

// ScaleLoop bundles the elastic-scaling collaborators a control loop
// drives between windows: the cluster under management plus the shard
// package's pure Recommender and side-effecting Updater.
type ScaleLoop struct {
	Cluster *shard.Cluster
	Rec     *shard.Recommender
	Upd     *shard.Updater
}

// Scale hands one window's metrics to recommend→apply.
func (s *ScaleLoop) Scale(m shard.WindowMetrics) {
	cur := shard.State{Shards: s.Cluster.Shards(), Pool: s.Cluster.Pool()}
	s.Upd.Apply(s.Rec.Recommend(cur, m))
}

func (o *Options) setDefaults() {
	if o.System == "" {
		o.System = "B"
	}
	if o.Recommender == "" {
		o.Recommender = o.System
	}
	if o.Scale == 0 {
		o.Scale = 0.0002
	}
	if o.PoolSize == 0 {
		o.PoolSize = 30
	}
	if o.WindowSize == 0 {
		o.WindowSize = 24
	}
	if len(o.Goal.Steps) == 0 {
		o.Goal = core.Example2Goal()
	}
	if o.MixShiftThreshold == 0 {
		o.MixShiftThreshold = DefaultMixShiftThreshold
	}
	if o.Timeout == 0 {
		o.Timeout = core.DefaultTimeout
	}
}

// Autopilot is one assembled control loop over one engine.
type Autopilot struct {
	opts     Options
	eng      *engine.Engine
	stream   *Stream
	runner   core.Runner
	estR     core.Runner // no OnMeasure hook: estimates are not traffic
	ctrl     *Controller
	metrics  *Metrics
	famOrder []string

	curName string
}

// New loads the engine and family pools through a bench.Lab (the PR 1
// substrate: loading, stratified sampling and the storage budget are the
// batch benchmark's own) and assembles the control loop. The lab is not
// retained: once traffic starts, the autopilot owns the engine's
// configuration lifecycle.
func New(opts Options) (*Autopilot, error) {
	opts.setDefaults()
	if len(opts.Families) == 0 {
		return nil, fmt.Errorf("autopilot: no families configured")
	}
	db, err := bench.DBOfFamily(opts.Families[0].Family)
	if err != nil {
		return nil, err
	}
	for _, fs := range opts.Families[1:] {
		d, err := bench.DBOfFamily(fs.Family)
		if err != nil {
			return nil, err
		}
		if d != db {
			return nil, fmt.Errorf("autopilot: families span databases %s and %s; one engine serves one database", db, d)
		}
	}
	if opts.Recommender != "1C" {
		if _, err := recommender.ConfigOf(opts.Recommender); err != nil {
			return nil, fmt.Errorf("autopilot: %w", err)
		}
	}

	lab := bench.NewLab(opts.Scale, opts.Seed)
	lab.WorkloadSize = opts.PoolSize
	lab.Parallelism = opts.Parallelism

	famOrder := make([]string, len(opts.Families))
	pools := make([]workload.Family, len(opts.Families))
	shares := make([]float64, len(opts.Families))
	for i, fs := range opts.Families {
		famOrder[i] = fs.Family
		pools[i] = lab.Workload(opts.System, fs.Family)
		shares[i] = fs.Weight
	}
	var drifted []float64
	driftAt := 0
	if opts.Drift != nil {
		drifted = make([]float64, len(famOrder))
		for _, fs := range opts.Drift.Shares {
			found := false
			for i, name := range famOrder {
				if name == fs.Family {
					drifted[i] = fs.Weight
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("autopilot: drift family %q is not in the base mixture", fs.Family)
			}
		}
		driftAt = opts.Drift.AtWindow
		if opts.Warmup {
			driftAt++ // the warmup window occupies stream position 0
		}
	}

	eng := lab.Engine(opts.System, db)
	budget := lab.Budget(opts.System, db)

	stream, err := newStream(opts.Seed+1, pools, shares, drifted, driftAt)
	if err != nil {
		return nil, err
	}

	metrics := NewMetrics()
	a := &Autopilot{
		opts:     opts,
		eng:      eng,
		stream:   stream,
		runner:   core.Runner{Parallelism: opts.Parallelism, OnMeasure: metrics.ObserveQuery},
		estR:     core.Runner{Parallelism: opts.Parallelism},
		metrics:  metrics,
		famOrder: famOrder,
		curName:  "P",
	}
	a.ctrl, err = NewController(ControllerOptions{
		Engine:      eng,
		Profile:     opts.Recommender,
		Budget:      budget,
		Parallelism: opts.Parallelism,
		Timeout:     opts.Timeout,
		Threshold:   opts.MixShiftThreshold,
		Apply:       eng.Transition,
		Metrics:     metrics,
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// Metrics exposes the live counters (for the daemon's HTTP endpoints).
func (a *Autopilot) Metrics() *Metrics { return a.metrics }

// Run drives the control loop: warmup tune (if configured), then one
// window per iteration until the bound or the context ends. It returns
// every window report plus the retune log.
//
// In overlapped mode a retune launched after window w runs concurrently
// with window w+1's traffic and is joined before window w+2, so a
// transition overlaps exactly one window of queries and every later
// window runs fully under the new configuration.
//
// conflint:hotpath — the window loop: every statement here executes once
// per window while traffic flows.
func (a *Autopilot) Run(ctx context.Context) (reports []WindowReport, retunes []RetuneRecord, err error) {
	obs := &observer{goal: a.opts.Goal, timeout: a.opts.Timeout, famOrder: a.famOrder}
	reports = make([]WindowReport, 0, a.opts.Windows)
	retunes = make([]RetuneRecord, 0, a.opts.Windows)

	// firstFull tracks the window that will be the first served entirely
	// by the most recently applied configuration (-1 = none awaited).
	firstFull := -1
	lastPredicted := 0.0
	// join waits out a retune and logs it; an applied one becomes the
	// current configuration, with window next the first fully under it.
	join := func(job *retuneJob, next int) bool {
		<-job.done
		retunes = append(retunes, job.rec)
		if job.rec.Err != "" {
			return false
		}
		a.curName = job.rec.Name
		firstFull, lastPredicted = next, job.rec.PredictedMean
		return true
	}

	streamPos := 0
	if a.opts.Warmup {
		qs, err := a.stream.Window(streamPos, a.opts.WindowSize)
		if err != nil {
			return nil, nil, err
		}
		streamPos++
		join(a.ctrl.launch(-1, "warmup", sqlsOf(qs), CountMix(familiesOf(qs), a.famOrder)), -1)
	}

	var pending *retuneJob
	// The in-flight retune is joined before every return: it may be
	// mid-Transition, and exiting while it holds the engine's write lock
	// would drop accepted work on the floor (the shutdown-ordering
	// contract shared with the gateway).
	defer func() {
		if pending != nil {
			join(pending, -1)
		}
	}()

	for w := 0; a.opts.Windows == 0 || w < a.opts.Windows; w++ {
		if err := ctx.Err(); err != nil {
			break
		}
		qs, err := a.stream.Window(streamPos, a.opts.WindowSize)
		if err != nil {
			return reports, retunes, err
		}
		streamPos++
		sqls := sqlsOf(qs)
		startCfg := a.curName

		ms, err := a.runner.RunWorkload(a.eng, sqls, a.opts.Timeout)
		if err != nil {
			return reports, retunes, fmt.Errorf("autopilot: window %d: %w", w, err)
		}
		est, err := a.estR.EstimateWorkload(a.eng, sqls)
		if err != nil {
			return reports, retunes, fmt.Errorf("autopilot: window %d estimates: %w", w, err)
		}

		cfgLabel := startCfg
		if pending != nil {
			// The overlapped retune ran concurrently with this window's
			// traffic; join it before observing.
			if join(pending, w+1) {
				cfgLabel = startCfg + "→" + a.curName
			}
			pending = nil
		}

		rep := obs.observe(w, cfgLabel, qs, ms, est)
		if w == firstFull && rep.MeanSeconds > 0 && lastPredicted > 0 {
			rep.HypoRatio = lastPredicted / rep.MeanSeconds
			firstFull = -1
		}

		if !a.opts.Static {
			if d := a.ctrl.consider(rep); d.Retune {
				rep.Trigger = d.Reason
				job := a.ctrl.launch(w, d.Reason, sqls, rep.Mix)
				if a.opts.Sync {
					join(job, w+1)
				} else {
					pending = job
				}
			}
		}

		a.scaleWindow(rep)
		a.metrics.ObserveWindow(rep)
		reports = append(reports, rep)
	}

	return reports, retunes, nil
}

// scaleWindow hands one window's digest to the elastic loop, if one is
// configured: the report lowers to shard.WindowMetrics through the
// ScaleMetrics bridge (batch windows have no admission queue, so queue
// depth is 0) — the same path the gateway's control goroutine scales
// its closed windows through.
func (a *Autopilot) scaleWindow(rep WindowReport) {
	s := a.opts.Autoscale
	if s == nil || s.Cluster == nil || s.Rec == nil || s.Upd == nil {
		return
	}
	s.Scale(rep.ScaleMetrics(0))
}

func sqlsOf(qs []workload.Query) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.SQL
	}
	return out
}

func familiesOf(qs []workload.Query) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.Family
	}
	return out
}
