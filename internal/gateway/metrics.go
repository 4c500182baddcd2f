package gateway

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/promtext"
)

// Snapshot is the gateway-wide observability record: global counters
// plus one TenantSnapshot per tenant, in config order.
type Snapshot struct {
	Ready    bool  `json:"ready"`
	Draining bool  `json:"draining"`
	Inflight int64 `json:"inflight"`

	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`

	Retunes    int64            `json:"retunes"`
	RetuneErrs int64            `json:"retune_errors,omitempty"`
	AuditKept  int64            `json:"audit_records"`
	AuditLost  int64            `json:"audit_overflow,omitempty"`
	Sharding   *ShardSnapshot   `json:"sharding,omitempty"`
	Tenants    []TenantSnapshot `json:"tenants"`
}

// ShardSnapshot reports the shard cluster and autoscaler state (absent
// when the gateway serves unsharded).
type ShardSnapshot struct {
	Shards    int    `json:"shards"`
	Pool      int    `json:"pool"`
	Mode      string `json:"mode"`
	Queries   int64  `json:"queries"`
	Fallbacks int64  `json:"fallbacks"`
	Timeouts  int64  `json:"timeouts,omitempty"`
	Reshards  int64  `json:"reshards"`

	Autoscale        bool             `json:"autoscale,omitempty"`
	AutoscaleDryRun  bool             `json:"autoscale_dry_run,omitempty"`
	AutoscaleWindows int64            `json:"autoscale_windows,omitempty"`
	AutoscaleActions map[string]int64 `json:"autoscale_actions,omitempty"`
}

// Stats assembles the live snapshot.
func (g *Gateway) Stats() Snapshot {
	s := Snapshot{
		Ready:    g.Ready(),
		Inflight: g.inflight.Load(),
		Accepted: g.accepted.Load(),
		Rejected: g.rejected.Load(),
	}
	g.acceptMu.RLock()
	s.Draining = g.draining
	g.acceptMu.RUnlock()
	c := g.ctrlP.Load()
	if c != nil {
		s.Retunes = c.applied.Load()
		s.RetuneErrs = c.failed.Load()
	}
	g.audit.mu.Lock()
	s.AuditKept = int64(len(g.audit.records))
	s.AuditLost = g.audit.dropped
	g.audit.mu.Unlock()
	if b := g.backend.Load(); b != nil && b.Cluster != nil {
		cl := b.Cluster
		st := cl.Stats()
		sh := &ShardSnapshot{
			Shards:    cl.Shards(),
			Pool:      cl.Pool(),
			Mode:      string(cl.Spec().Mode),
			Queries:   st.Queries,
			Fallbacks: st.Fallbacks,
			Timeouts:  st.Timeouts,
			Reshards:  st.Reshards,
		}
		if c != nil && c.scale != nil {
			sh.Autoscale = true
			sh.AutoscaleDryRun = c.scale.Upd.DryRun
			sh.AutoscaleWindows = c.windows.Load()
			audit := c.scale.Upd.Audit()
			if len(audit) > 0 {
				sh.AutoscaleActions = make(map[string]int64, 4)
				for _, rec := range audit {
					sh.AutoscaleActions[rec.Action]++
				}
			}
		}
		s.Sharding = sh
	}
	s.Tenants = make([]TenantSnapshot, 0, len(g.tenantOrder))
	for _, name := range g.tenantOrder {
		s.Tenants = append(s.Tenants, g.tenants[name].snapshot())
	}
	return s
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// conflint:ignore best-effort response write; the client owns the socket
	enc.Encode(g.Stats())
}

// handleMetrics renders the Prometheus text exposition. Tenants iterate
// in config order and reason keys are sorted, so scrapes are stable.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s := g.Stats()
	var p promtext.Writer
	p.Metric("gateway_ready", "gauge", "1 once the catalog is loaded and the gateway accepts queries.", promtext.Bool(s.Ready))
	p.Metric("gateway_inflight", "gauge", "Queries executing on the engine right now.", float64(s.Inflight))
	p.Metric("gateway_accepted_total", "counter", "Queries admitted across all tenants.", float64(s.Accepted))
	p.Metric("gateway_rejected_total", "counter", "Requests rejected across all tenants and stages.", float64(s.Rejected))
	p.Metric("gateway_retunes_total", "counter", "Goal-triggered configuration transitions applied.", float64(s.Retunes))
	if sh := s.Sharding; sh != nil {
		p.Metric("gateway_shards", "gauge", "Current shard count.", float64(sh.Shards))
		p.Metric("gateway_shard_pool", "gauge", "Current partition worker-pool width.", float64(sh.Pool))
		p.Metric("gateway_reshards_total", "counter", "Live topology changes applied.", float64(sh.Reshards))
		p.Family("gateway_autoscale_actions_total", "counter", "Autoscaler audit records by action.")
		for _, a := range sortedKeys(sh.AutoscaleActions) {
			p.Sample("gateway_autoscale_actions_total", float64(sh.AutoscaleActions[a]), "action", a)
		}
	}

	perTenant := func(name, typ, help string, value func(TenantSnapshot) float64) {
		p.Family(name, typ, help)
		for _, t := range s.Tenants {
			p.Sample(name, value(t), "tenant", t.Tenant)
		}
	}
	perTenant("gateway_tenant_admitted_total", "counter", "Queries admitted per tenant.",
		func(t TenantSnapshot) float64 { return float64(t.Admitted) })
	perTenant("gateway_tenant_completed_total", "counter", "Queries completed per tenant.",
		func(t TenantSnapshot) float64 { return float64(t.Completed) })
	p.Family("gateway_tenant_rejected_total", "counter", "Rejections per tenant by reason.")
	for _, t := range s.Tenants {
		for _, reason := range sortedKeys(t.Rejected) {
			p.Sample("gateway_tenant_rejected_total", float64(t.Rejected[reason]), "tenant", t.Tenant, "reason", reason)
		}
	}
	perTenant("gateway_tenant_goal_level", "gauge", "Cumulative goal satisfaction level in [0,1].",
		func(t TenantSnapshot) float64 { return t.GoalLevel })
	perTenant("gateway_tenant_window_goal_level", "gauge", "Sliding-window goal satisfaction level in [0,1].",
		func(t TenantSnapshot) float64 { return t.WindowGoalLevel })
	perTenant("gateway_tenant_window_p50_seconds", "gauge", "Sliding-window median simulated latency (-1 when among timeouts).",
		func(t TenantSnapshot) float64 { return t.WindowP50 })
	perTenant("gateway_tenant_window_p95_seconds", "gauge", "Sliding-window p95 simulated latency (-1 when among timeouts).",
		func(t TenantSnapshot) float64 { return t.WindowP95 })
	w.Header().Set("Content-Type", promtext.ContentType)
	// conflint:ignore best-effort response write; the client owns the socket
	io.WriteString(w, p.String())
}

// sortedKeys returns a counter map's keys in order, so scrapes and
// reports are stable.
func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// GoalReport renders the deterministic per-tenant goal ledger: for a
// seeded schedule it is byte-identical across runs and parallelism (the
// numbers derive from order-insensitive cumulative counters). Reasons
// and tenants iterate in sorted/config order.
//
// conflint:sink per-tenant goal ledger
func (g *Gateway) GoalReport() string {
	var b strings.Builder
	b.WriteString("tenant  admitted  completed  timeouts  rejected  goal_level\n")
	for _, name := range g.tenantOrder {
		t := g.tenants[name].snapshot()
		var nrej int64
		reasons := sortedKeys(t.Rejected)
		for _, reason := range reasons {
			nrej += t.Rejected[reason]
		}
		b.WriteString(t.Tenant)
		b.WriteString("  ")
		b.WriteString(strconv.FormatInt(t.Admitted, 10))
		b.WriteString("  ")
		b.WriteString(strconv.FormatInt(t.Completed, 10))
		b.WriteString("  ")
		b.WriteString(strconv.FormatInt(t.Timeouts, 10))
		b.WriteString("  ")
		b.WriteString(strconv.FormatInt(nrej, 10))
		b.WriteString("  ")
		b.WriteString(strconv.FormatFloat(t.GoalLevel, 'f', 4, 64))
		b.WriteByte('\n')
		for _, reason := range reasons {
			b.WriteString("  ")
			b.WriteString(t.Tenant)
			b.WriteString(".rejected.")
			b.WriteString(reason)
			b.WriteString(" = ")
			b.WriteString(strconv.FormatInt(t.Rejected[reason], 10))
			b.WriteByte('\n')
		}
	}
	return b.String()
}
