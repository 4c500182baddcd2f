package autopilot

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/recommender"
)

// Decision is the controller's verdict on one window report.
type Decision struct {
	Retune bool
	Reason string
}

// RetuneRecord documents one configuration change: why it was triggered,
// what it built, what the what-if estimator promised, and (once the next
// full window has been served) what it delivered. WallMS is the only
// wall-clock field and never appears in rendered reports.
type RetuneRecord struct {
	// Window is the index of the report that triggered the tune
	// (-1 for the warmup tune that precedes traffic).
	Window int
	Reason string
	Name   string

	Built, Kept, Dropped int
	BuildSeconds         float64

	// PredictedMean is the what-if mean seconds per query for the
	// triggering window's queries under the new configuration.
	PredictedMean float64

	WallMS int64
	Err    string
}

// DefaultMixShiftThreshold is the moved probability mass beyond which a
// mix counts as shifted from the one last tuned for.
const DefaultMixShiftThreshold = 0.25

// ControllerOptions assembles a Controller.
type ControllerOptions struct {
	Engine      *engine.Engine
	Profile     string  // "A", "B", "C", or "1C" for the reference configuration
	Budget      int64   // storage budget in bytes
	Parallelism int     // search and prediction fan-out (core.Runner semantics)
	Timeout     float64 // caps each predicted query cost (0 = no cap)
	Threshold   float64 // mix-shift threshold (0 = DefaultMixShiftThreshold)
	// Apply installs a chosen configuration: Engine.Transition for the
	// batch loop, the gateway's cluster-aware transition for the gateway.
	Apply   func(conf.Configuration) (engine.BuildReport, error)
	Metrics *Metrics // counts retunes when non-nil
}

// Controller decides when to retune and performs the retunes: consider
// judges a window report; the retune recommends, what-if predicts and
// applies. One goroutine owns the decision state (the batch loop's, or
// the gateway's control goroutine) and alone calls Step or launch. The
// retune body may run concurrently with traffic: it reads through the
// what-if session (read lock) and applies through a transition (write
// lock).
type Controller struct {
	o      ControllerOptions
	recCfg recommender.Config

	// threshold is the L1/2 mixture distance beyond which the observed
	// mix counts as shifted from the one last tuned for.
	threshold float64

	lastTuneMix  []float64
	tunedThisMix bool
	epoch        int

	// whatif is the controller's long-lived estimation session. The
	// recommender search and the post-search prediction share its
	// relevance-keyed cache; the session invalidates itself when a
	// Transition moves the engine's configuration epoch, so it stays
	// correct across retunes.
	whatif *engine.WhatIf
}

// controller is the package's own spelling of Controller.
type controller = Controller

// NewController assembles a controller with its own what-if session.
func NewController(o ControllerOptions) (*Controller, error) {
	c := &Controller{o: o, threshold: o.Threshold, whatif: o.Engine.NewWhatIf()}
	if c.threshold == 0 {
		c.threshold = DefaultMixShiftThreshold
	}
	if o.Profile != "1C" {
		var err error
		if c.recCfg, err = recommender.ConfigOf(o.Profile); err != nil {
			return nil, fmt.Errorf("autopilot: %w", err)
		}
	}
	return c, nil
}

// consider inspects a window report and decides whether to retune. A
// mixture shift always warrants a retune (the configuration was chosen
// for a different workload); a goal violation warrants one only if the
// current mix has not already been tuned for — retrying an identical
// problem would churn structures for nothing.
//
// conflint:pure — the controller's propose/apply split: deciding is an
// observation of the report, and only begin (owner-goroutine-only)
// commits state. A consider that mutated the controller could skew
// every later window's decision.
func (c *Controller) consider(rep WindowReport) Decision {
	mix := proportions(rep.Mix)
	shifted := c.lastTuneMix != nil && l1Half(mix, c.lastTuneMix) > c.threshold
	violated := !rep.Satisfied
	switch {
	case shifted && violated:
		return Decision{true, "mix-shift+goal-violation"}
	case shifted:
		return Decision{true, "mix-shift"}
	case violated && !c.tunedThisMix:
		return Decision{true, "goal-violation"}
	}
	return Decision{}
}

// l1Half is half the L1 distance between two distributions: the total
// probability mass that moved.
func l1Half(a, b []float64) float64 {
	var d float64
	for i := range a {
		x := a[i] - b[i]
		if x < 0 {
			x = -x
		}
		d += x
	}
	return d / 2
}

// Step is the synchronous control step: consider rep and, if it calls
// for a retune, retune over sqls. ok is false when nothing changed.
func (c *Controller) Step(rep WindowReport, sqls []string) (rec RetuneRecord, ok bool) {
	d := c.consider(rep)
	if !d.Retune {
		return RetuneRecord{}, false
	}
	rec = c.begin(rep.Window, d.Reason, rep.Mix)
	c.retune(&rec, sqls)
	return rec, true
}

// retuneJob is one in-flight retune.
type retuneJob struct {
	done chan struct{}
	rec  RetuneRecord
}

// launch is Step's retune half for the overlapped batch loop: the body
// runs on its own goroutine. Call only with no other job in flight.
func (c *Controller) launch(window int, reason string, sqls []string, mix []FamilyCount) *retuneJob {
	job := &retuneJob{done: make(chan struct{}), rec: c.begin(window, reason, mix)}
	go func() {
		defer close(job.done)
		c.retune(&job.rec, sqls)
	}()
	return job
}

// begin commits a decision on the owner's goroutine, so configuration
// names never depend on scheduling.
func (c *Controller) begin(window int, reason string, mix []FamilyCount) RetuneRecord {
	c.epoch++
	c.lastTuneMix = proportions(mix)
	c.tunedThisMix = true
	if c.o.Metrics != nil {
		c.o.Metrics.RetunesInFlight.Add(1)
	}
	return RetuneRecord{Window: window, Reason: reason, Name: fmt.Sprintf("R%d", c.epoch)}
}

// retune recommends, predicts and applies, filling rec.
func (c *Controller) retune(rec *RetuneRecord, sqls []string) {
	// conflint:ignore WallMS is wall-clock observability for the operator; it is excluded from all rendered reports
	start := time.Now()
	defer func() {
		// conflint:ignore WallMS is wall-clock observability for the operator; it is excluded from all rendered reports
		rec.WallMS = time.Since(start).Milliseconds()
		if c.o.Metrics != nil {
			c.o.Metrics.RetunesInFlight.Add(-1)
			c.o.Metrics.RetuneWallMS.Add(rec.WallMS)
			if rec.Err == "" {
				c.o.Metrics.RetunesApplied.Add(1)
				c.o.Metrics.StructuresBuilt.Add(int64(rec.Built))
				c.o.Metrics.StructuresDropped.Add(int64(rec.Dropped))
			} else {
				c.o.Metrics.RetuneErrors.Add(1)
			}
		}
	}()

	runner := core.Runner{Parallelism: c.o.Parallelism}
	var cfg conf.Configuration
	if c.o.Profile == "1C" {
		cfg = engine.OneColumnConfiguration(c.o.Engine)
	} else {
		var err error
		cfg, err = recommender.New(c.o.Engine, c.recCfg).
			Parallel(runner.Parallelism).
			UseSession(c.whatif).
			Recommend(dedupe(sqls), c.o.Budget)
		if err != nil {
			rec.Err = err.Error()
			return
		}
	}
	cfg.Name = rec.Name

	// Predict before applying: what-if mean for the triggering window's
	// queries under the candidate, seen from the current configuration.
	// The prediction reuses the search's session, so the winning
	// configuration's estimates are usually already cached.
	hyp, err := runner.WhatIfSessionWorkload(c.whatif, sqls, cfg)
	if err != nil {
		rec.Err = err.Error()
		return
	}
	var total float64
	for _, m := range hyp {
		s := m.Seconds
		if c.o.Timeout > 0 && s > c.o.Timeout {
			s = c.o.Timeout
		}
		total += s
	}
	if len(hyp) > 0 {
		rec.PredictedMean = total / float64(len(hyp))
	}

	rep, err := c.o.Apply(cfg)
	if err != nil {
		rec.Err = err.Error()
		return
	}
	rec.Built, rec.Kept, rec.Dropped = rep.Built, rep.Kept, rep.Dropped
	rec.BuildSeconds = rep.BuildSeconds
}

// dedupe returns the sorted distinct queries of a window: the stream
// draws with replacement, but the recommender wants the workload's
// support, not its multiset.
func dedupe(sqls []string) []string {
	seen := make(map[string]bool, len(sqls))
	out := make([]string, 0, len(sqls))
	for _, s := range sqls {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}
