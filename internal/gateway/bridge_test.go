package gateway

import (
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
)

// TestAutoscalerWindowReportBridge pins the satellite contract from the
// elastic loop rework: the control loop grades each closed autoscale
// window into a full autopilot.WindowReport and the metrics handed to
// the scaling rules are exactly that report lowered through
// ScaleMetrics — goal level, mean latency, and window number all carry
// over from the report, and the queue depth is the gateway's.
func TestAutoscalerWindowReportBridge(t *testing.T) {
	g := &Gateway{}
	c := &control{g: g, goal: core.Example2Goal()}
	for i := 0; i < 8; i++ {
		c.window = append(c.window, core.Measure{Seconds: float64(i+1) * 0.1})
	}
	c.window = append(c.window, core.Measure{Seconds: 30, TimedOut: true})

	rep := c.closeWindowLocked()
	if rep.Window != 1 || rep.Queries != 9 || rep.Timeouts != 1 {
		t.Fatalf("report header = window %d, queries %d, timeouts %d; want 1, 9, 1", rep.Window, rep.Queries, rep.Timeouts)
	}
	if rep.MeanSeconds <= 0 || rep.P50 <= 0 || rep.P95 < rep.P50 {
		t.Errorf("report quantiles look unfilled: %+v", rep)
	}

	// The queued metrics must be the report's ScaleMetrics, field for
	// field — the one code path shared with the autopilot's batch loop.
	if len(c.pending) != 1 {
		t.Fatalf("closing a window queued %d metrics, want 1", len(c.pending))
	}
	w := c.pending[0]
	want := rep.ScaleMetrics(g.queueDepth())
	if w != want {
		t.Errorf("queued metrics = %+v, want report.ScaleMetrics = %+v", w, want)
	}
	if w.GoalLevel != rep.Satisfaction {
		t.Errorf("GoalLevel %v does not carry the report's Satisfaction %v", w.GoalLevel, rep.Satisfaction)
	}
	if w.MeanSeconds != rep.MeanSeconds || w.Window != rep.Window || w.Queries != rep.Queries {
		t.Errorf("metrics %+v disagree with report %+v", w, rep)
	}

	// Closing a second window advances the sequence number.
	c.window = append(c.window, core.Measure{Seconds: 0.2})
	if rep2 := c.closeWindowLocked(); rep2.Window != 2 || c.pending[1].Window != 2 {
		t.Errorf("second window number = %d (queued %d), want 2", rep2.Window, c.pending[1].Window)
	}
}

// TestAutoscaleWindowCountsTimeoutsAtLimit: a window that is mostly fast
// but has timeouts must not read as idle. Each timeout counts at the
// gateway's limit in the window mean (the §4.3 lower bound), so 29
// one-second queries plus 3 timeouts average well above the latency
// target, and the default rules must not halve shards and pool.
func TestAutoscaleWindowCountsTimeoutsAtLimit(t *testing.T) {
	g := &Gateway{cfg: Config{TimeoutSeconds: core.DefaultTimeout, AutoscaleWindow: 32}}
	c := &control{g: g, goal: core.Example2Goal()}
	for i := 0; i < 29; i++ {
		c.observe(1, false, false)
	}
	for i := 0; i < 3; i++ {
		c.observe(core.DefaultTimeout, true, false)
	}
	if len(c.pending) != 1 {
		t.Fatalf("32 completions closed %d windows, want 1", len(c.pending))
	}
	w := c.pending[0]
	if want := (29 + 3*core.DefaultTimeout) / 32; w.MeanSeconds != want {
		t.Errorf("window mean = %v, want %v (timeouts at the limit)", w.MeanSeconds, want)
	}
	rec := (&shard.Recommender{Rules: shard.DefaultRules(60)}).Recommend(shard.State{Shards: 4, Pool: 4}, w)
	if p := rec.Proposal; p != nil && (p.ToShards < p.FromShards || p.ToPool < p.FromPool) {
		t.Errorf("a window with %d timeouts scaled in: %+v", 3, p)
	}
}
