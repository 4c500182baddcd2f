package autopilot

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/promtext"
)

// Metrics is the autopilot's observability surface: lock-free counters
// updated from the worker pool as queries complete, plus a mutex-guarded
// snapshot of the most recent window report. It backs both the periodic
// text report and the daemon's /metrics and /healthz endpoints.
type Metrics struct {
	start time.Time

	QueriesServed    atomic.Int64
	Timeouts         atomic.Int64
	WindowsCompleted atomic.Int64
	GoalViolations   atomic.Int64

	RetunesApplied    atomic.Int64
	RetuneErrors      atomic.Int64
	RetunesInFlight   atomic.Int64
	StructuresBuilt   atomic.Int64
	StructuresDropped atomic.Int64
	RetuneWallMS      atomic.Int64

	mu       sync.Mutex
	last     WindowReport // conflint:guardedby mu
	haveLast bool         // conflint:guardedby mu
}

// NewMetrics starts the uptime clock.
func NewMetrics() *Metrics {
	// conflint:ignore uptime is wall-clock observability; it feeds /metrics and /healthz, never a rendered report
	return &Metrics{start: time.Now()}
}

// ObserveQuery is the core.Runner.OnMeasure hook: one completed query.
func (m *Metrics) ObserveQuery(q core.Measure) {
	m.QueriesServed.Add(1)
	if q.TimedOut {
		m.Timeouts.Add(1)
	}
}

// ObserveWindow records a completed window report.
func (m *Metrics) ObserveWindow(rep WindowReport) {
	m.WindowsCompleted.Add(1)
	if !rep.Satisfied {
		m.GoalViolations.Add(1)
	}
	m.mu.Lock()
	m.last = rep
	m.haveLast = true
	m.mu.Unlock()
}

// Snapshot is a point-in-time copy of every metric, for reports and the
// perf-trajectory JSON.
type Snapshot struct {
	UptimeSeconds     float64    `json:"uptime_seconds"`
	QueriesServed     int64      `json:"queries_served"`
	Timeouts          int64      `json:"timeouts"`
	WindowsCompleted  int64      `json:"windows_completed"`
	GoalViolations    int64      `json:"goal_violations"`
	RetunesApplied    int64      `json:"retunes_applied"`
	RetuneErrors      int64      `json:"retune_errors"`
	RetunesInFlight   int64      `json:"retunes_in_flight"`
	StructuresBuilt   int64      `json:"structures_built"`
	StructuresDropped int64      `json:"structures_dropped"`
	RetuneWallMS      int64      `json:"retune_wall_ms"`
	LastWindow        *WindowRow `json:"last_window,omitempty"`
}

// WindowRow is the JSON-safe view of a window report (infinite quantiles
// are clamped to -1, meaning "beyond timeout").
type WindowRow struct {
	Window       int     `json:"window"`
	Config       string  `json:"config"`
	Queries      int     `json:"queries"`
	P50          float64 `json:"p50_seconds"`
	P95          float64 `json:"p95_seconds"`
	P99          float64 `json:"p99_seconds"`
	MeanSeconds  float64 `json:"mean_seconds"`
	Timeouts     int     `json:"timeouts"`
	EAMedian     float64 `json:"ea_ratio_p50"`
	EAP90        float64 `json:"ea_ratio_p90"`
	Satisfied    bool    `json:"goal_satisfied"`
	Satisfaction float64 `json:"goal_satisfaction"`
}

func rowOf(rep WindowReport) *WindowRow {
	return &WindowRow{
		Window:       rep.Window,
		Config:       rep.Config,
		Queries:      rep.Queries,
		P50:          promtext.Finite(rep.P50),
		P95:          promtext.Finite(rep.P95),
		P99:          promtext.Finite(rep.P99),
		MeanSeconds:  promtext.Finite(rep.MeanSeconds),
		Timeouts:     rep.Timeouts,
		EAMedian:     rep.EAMedian,
		EAP90:        rep.EAP90,
		Satisfied:    rep.Satisfied,
		Satisfaction: rep.Satisfaction,
	}
}

// Snapshot copies the current metric values.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		// conflint:ignore uptime is wall-clock observability; Snapshot consumers never render it into deterministic artifacts
		UptimeSeconds:     time.Since(m.start).Seconds(),
		QueriesServed:     m.QueriesServed.Load(),
		Timeouts:          m.Timeouts.Load(),
		WindowsCompleted:  m.WindowsCompleted.Load(),
		GoalViolations:    m.GoalViolations.Load(),
		RetunesApplied:    m.RetunesApplied.Load(),
		RetuneErrors:      m.RetuneErrors.Load(),
		RetunesInFlight:   m.RetunesInFlight.Load(),
		StructuresBuilt:   m.StructuresBuilt.Load(),
		StructuresDropped: m.StructuresDropped.Load(),
		RetuneWallMS:      m.RetuneWallMS.Load(),
	}
	m.mu.Lock()
	if m.haveLast {
		s.LastWindow = rowOf(m.last)
	}
	m.mu.Unlock()
	return s
}

// Handler serves /metrics (Prometheus text exposition) and /healthz
// (JSON liveness) off this metrics set.
func (m *Metrics) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", m.serveMetrics)
	mux.HandleFunc("/healthz", m.serveHealth)
	return mux
}

func (m *Metrics) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	s := m.Snapshot()
	var p promtext.Writer
	p.Metric("autopilot_uptime_seconds", "gauge", "Seconds since the autopilot started.", s.UptimeSeconds)
	p.Metric("autopilot_queries_served_total", "counter", "Queries completed across all windows.", float64(s.QueriesServed))
	p.Metric("autopilot_query_timeouts_total", "counter", "Queries that hit the simulated timeout.", float64(s.Timeouts))
	p.Metric("autopilot_windows_completed_total", "counter", "Observation windows completed.", float64(s.WindowsCompleted))
	p.Metric("autopilot_goal_violations_total", "counter", "Windows whose CFC missed the goal.", float64(s.GoalViolations))
	p.Metric("autopilot_retunes_applied_total", "counter", "Retunes whose configuration was applied.", float64(s.RetunesApplied))
	p.Metric("autopilot_retune_errors_total", "counter", "Retunes that failed before applying.", float64(s.RetuneErrors))
	p.Metric("autopilot_retunes_in_flight", "gauge", "Retunes running right now.", float64(s.RetunesInFlight))
	p.Metric("autopilot_structures_built_total", "counter", "Indexes and views built by retunes.", float64(s.StructuresBuilt))
	p.Metric("autopilot_structures_dropped_total", "counter", "Indexes and views dropped by retunes.", float64(s.StructuresDropped))
	p.Metric("autopilot_retune_wall_ms_total", "counter", "Wall-clock milliseconds spent retuning.", float64(s.RetuneWallMS))
	if lw := s.LastWindow; lw != nil {
		p.Metric("autopilot_window_index", "gauge", "Index of the last completed window.", float64(lw.Window))
		p.Metric("autopilot_window_p50_seconds", "gauge", "Last window's median simulated latency (-1 when among timeouts).", lw.P50)
		p.Metric("autopilot_window_p95_seconds", "gauge", "Last window's p95 simulated latency (-1 when among timeouts).", lw.P95)
		p.Metric("autopilot_window_p99_seconds", "gauge", "Last window's p99 simulated latency (-1 when among timeouts).", lw.P99)
		p.Metric("autopilot_window_mean_seconds", "gauge", "Last window's mean simulated latency, timeouts at the limit.", lw.MeanSeconds)
		p.Metric("autopilot_window_ea_ratio_p50", "gauge", "Last window's median estimate-to-actual ratio.", lw.EAMedian)
		p.Metric("autopilot_window_ea_ratio_p90", "gauge", "Last window's p90 estimate-to-actual ratio.", lw.EAP90)
		p.Metric("autopilot_window_goal_satisfied", "gauge", "1 when the last window met the goal.", promtext.Bool(lw.Satisfied))
		p.Metric("autopilot_window_goal_satisfaction", "gauge", "Last window's graded goal satisfaction in [0,1].", lw.Satisfaction)
	}
	w.Header().Set("Content-Type", promtext.ContentType)
	// conflint:ignore best-effort write to a scraper that may have disconnected; nothing to do with the error
	io.WriteString(w, p.String())
}

func (m *Metrics) serveHealth(w http.ResponseWriter, _ *http.Request) {
	s := m.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	// conflint:ignore best-effort write to a health-check client that may have disconnected; nothing to do with the error
	json.NewEncoder(w).Encode(map[string]any{
		"status":            "ok",
		"uptime_seconds":    s.UptimeSeconds,
		"windows_completed": s.WindowsCompleted,
		"queries_served":    s.QueriesServed,
		"retunes_in_flight": s.RetunesInFlight,
	})
}
