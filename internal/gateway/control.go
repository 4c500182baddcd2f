package gateway

import (
	"sync"
	"sync/atomic"

	"repro/internal/autopilot"
	"repro/internal/core"
	"repro/internal/shard"
)

// control is the gateway's one control goroutine, the live form of the
// window body of autopilot.Run. It serves two events, off the hot path
// while traffic keeps flowing:
//
//   - A tenant nudge (a full sliding window in violation) carrying the
//     blended family mix of all tenants' windows: the autopilot's
//     controller retunes on the first violation or a mix shift,
//     recommending over the union of the tenants' recent queries.
//   - A closed autoscale window, graded by autopilot.Grade and lowered
//     through ScaleMetrics: the scale loop may reshard or resize the pool.
//
// Events arriving mid-action coalesce: closed windows queue in order,
// nudges collapse into the latest one.
type control struct {
	g     *Gateway
	tuner *autopilot.Controller // nil unless Tuning
	scale *autopilot.ScaleLoop  // nil unless Autoscale on a cluster
	goal  core.Goal             // the autoscale windows' goal

	mu      sync.Mutex
	window  []core.Measure          // conflint:guardedby mu (accumulating autoscale window)
	errored int                     // conflint:guardedby mu
	windowN int                     // conflint:guardedby mu (autoscale windows closed so far)
	pending []shard.WindowMetrics   // conflint:guardedby mu (closed, not yet scaled)
	nudge   []autopilot.FamilyCount // conflint:guardedby mu (mix at the latest unserved nudge; nil = none)

	trigger chan struct{} // capacity 1: a burst of events is one wake-up
	done    chan struct{}
	stop1   sync.Once

	nudges  int // nudges served (control goroutine only)
	applied atomic.Int64
	failed  atomic.Int64
	windows atomic.Int64 // autoscale windows scaled
}

// newControl assembles the control loop, nil when neither tuning nor
// autoscaling is on.
func newControl(g *Gateway, b *Backend) (*control, error) {
	autoscale := g.cfg.Autoscale && b.Cluster != nil
	if !g.cfg.Tuning && !autoscale {
		return nil, nil
	}
	c := &control{g: g, trigger: make(chan struct{}, 1), done: make(chan struct{})}
	if g.cfg.Tuning {
		tuner, err := autopilot.NewController(autopilot.ControllerOptions{
			Engine:      b.Engine,
			Profile:     g.cfg.System,
			Budget:      b.Budget,
			Parallelism: 1,
			Timeout:     g.cfg.TimeoutSeconds,
			Apply:       g.transition,
		})
		if err != nil {
			return nil, err
		}
		c.tuner = tuner
	}
	if autoscale {
		upd := shard.NewUpdater(b.Cluster, shard.Bounds{
			MinShards: g.cfg.MinShards, MaxShards: g.cfg.MaxShards,
			MinPool: g.cfg.MinPool, MaxPool: g.cfg.MaxPool,
		}, g.cfg.AutoscaleDryRun)
		upd.Cooldown = g.cfg.AutoscaleCooldown
		rec := &shard.Recommender{Rules: shard.DefaultRules(g.cfg.AutoscaleTarget), Predict: b.Cluster.PredictSeconds}
		c.scale = &autopilot.ScaleLoop{Cluster: b.Cluster, Rec: rec, Upd: upd}
		c.goal = g.cfg.autoscaleGoalOf()
		c.window = make([]core.Measure, 0, g.cfg.AutoscaleWindow)
	}
	return c, nil
}

// start launches the control goroutine.
func (c *control) start() {
	// conflint:worker lifecycle=trigger control loop; control.stop closes trigger and waits on done
	go func() {
		defer close(c.done)
		for range c.trigger {
			c.serve()
		}
	}()
}

// stop ends the loop and waits out an in-flight Transition or reshard,
// which must never be abandoned midway.
func (c *control) stop() {
	c.stop1.Do(func() { close(c.trigger) })
	<-c.done
}

// wake nudges the goroutine without blocking the hot path.
func (c *control) wake() {
	select {
	case c.trigger <- struct{}{}:
	default:
	}
}

// nudgeTuner records a goal violation with the mix it was seen under.
func (c *control) nudgeTuner() {
	mix := c.g.windowMix()
	c.mu.Lock()
	c.nudge = mix
	c.mu.Unlock()
	c.wake()
}

// observe folds one completion into the autoscale window and, at a
// window boundary, grades and queues it.
func (c *control) observe(seconds float64, timedOut, errored bool) {
	c.mu.Lock()
	if errored {
		c.errored++
	} else {
		c.window = append(c.window, core.Measure{Seconds: seconds, TimedOut: timedOut})
	}
	if len(c.window)+c.errored < c.g.cfg.AutoscaleWindow {
		c.mu.Unlock()
		return
	}
	c.closeWindowLocked()
	c.mu.Unlock()
	c.wake()
}

// closeWindowLocked grades the window — timeouts count at the gateway's
// limit, so a window with timeouts never reads as idle — and queues its
// ScaleMetrics, the bridge the autopilot's batch loop scales through.
func (c *control) closeWindowLocked() autopilot.WindowReport {
	c.windowN++
	rep := autopilot.Grade(c.goal, c.window, c.g.cfg.TimeoutSeconds)
	rep.Window = c.windowN
	c.pending = append(c.pending, rep.ScaleMetrics(c.g.queueDepth()))
	c.window = c.window[:0]
	c.errored = 0
	return rep
}

// serve handles every queued event: windows in order, then the nudge.
func (c *control) serve() {
	for {
		c.mu.Lock()
		windows, mix := c.pending, c.nudge
		c.pending, c.nudge = nil, nil
		c.mu.Unlock()
		if len(windows) == 0 && mix == nil {
			return
		}
		for _, w := range windows {
			c.scale.Scale(w)
			c.windows.Add(1)
		}
		if mix != nil {
			c.retune(mix)
		}
	}
}

// retune serves one nudge; the nudge is itself the violation, so the
// report carries only the mix. All tenants share one engine, so the
// recommender serves the union of their recent queries.
func (c *control) retune(mix []autopilot.FamilyCount) {
	c.nudges++
	var sqls []string
	for _, name := range c.g.tenantOrder {
		sqls = c.g.tenants[name].appendRecentQueries(sqls)
	}
	if len(sqls) == 0 {
		return
	}
	rec, ok := c.tuner.Step(autopilot.WindowReport{Window: c.nudges, Mix: mix}, sqls)
	switch {
	case !ok:
	case rec.Err != "":
		c.failed.Add(1)
	default:
		c.applied.Add(1)
	}
}

// windowMix counts every tenant's sliding-window families.
func (g *Gateway) windowMix() []autopilot.FamilyCount {
	var families []string
	for _, name := range g.tenantOrder {
		families = g.tenants[name].appendWindowFamilies(families)
	}
	return autopilot.CountMix(families, g.famOrder)
}

// queueDepth sums the tenants' admission queue backlogs.
func (g *Gateway) queueDepth() float64 {
	var depth int
	for _, name := range g.tenantOrder {
		depth += len(g.tenants[name].queue)
	}
	return float64(depth)
}
