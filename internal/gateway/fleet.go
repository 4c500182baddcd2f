package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// FleetTenant is one tenant identity the fleet drives sessions as.
type FleetTenant struct {
	Name     string
	APIKey   string
	Families []string
}

// FleetOptions configures a seeded session fleet against a gateway URL.
type FleetOptions struct {
	BaseURL string
	Client  *http.Client

	Tenants []FleetTenant

	// Sessions is the total session count, assigned to tenants
	// round-robin; each session issues QueriesPerSession queries
	// sampled (seeded) from the tenant's pools.
	Sessions          int
	QueriesPerSession int

	// Workers bounds concurrently active sessions.
	Workers int

	Seed int64

	// Sync executes the seeded schedule as an indexed fan-out: worker w
	// of N takes schedule positions w, w+N, w+2N, ... so the executed
	// request set — and with per-tenant caps at or above Workers, every
	// admission decision — is identical at any worker count. Async mode
	// instead races whole sessions, the production posture.
	Sync bool
}

func (o *FleetOptions) setDefaults() error {
	if o.BaseURL == "" {
		return fmt.Errorf("fleet: no base URL")
	}
	if len(o.Tenants) == 0 {
		return fmt.Errorf("fleet: no tenants")
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	if o.Sessions == 0 {
		o.Sessions = 100
	}
	if o.QueriesPerSession == 0 {
		o.QueriesPerSession = 1
	}
	if o.Workers == 0 {
		o.Workers = 8
	}
	return nil
}

// fleetReq is one scheduled request: seq is its schedule position, which
// the gateway threads into the audit log.
type fleetReq struct {
	seq    int64
	tenant int
	family string
	sql    string
}

// Fleet is a seeded load generator: the schedule is fixed at build time,
// so two fleets with the same options issue the identical request set.
type Fleet struct {
	opts     FleetOptions
	schedule []fleetReq // flat, seq order; session i owns seqs [i*qps, (i+1)*qps)
}

// NewFleet fetches each tenant's query pools from the gateway (which
// must be ready) and builds the seeded schedule.
func NewFleet(opts FleetOptions) (*Fleet, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	pools := make([]map[string][]string, len(opts.Tenants))
	for ti, t := range opts.Tenants {
		pools[ti] = make(map[string][]string, len(t.Families))
		for _, fam := range t.Families {
			qs, err := fetchPool(opts.Client, opts.BaseURL, t.APIKey, fam)
			if err != nil {
				return nil, fmt.Errorf("fleet: tenant %s pool %s: %w", t.Name, fam, err)
			}
			if len(qs) == 0 {
				return nil, fmt.Errorf("fleet: tenant %s pool %s is empty", t.Name, fam)
			}
			pools[ti][fam] = qs
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	schedule := make([]fleetReq, 0, opts.Sessions*opts.QueriesPerSession)
	seq := int64(0)
	for s := 0; s < opts.Sessions; s++ {
		ti := s % len(opts.Tenants)
		fams := opts.Tenants[ti].Families
		for k := 0; k < opts.QueriesPerSession; k++ {
			fam := fams[rng.Intn(len(fams))]
			pool := pools[ti][fam]
			schedule = append(schedule, fleetReq{
				seq:    seq,
				tenant: ti,
				family: fam,
				sql:    pool[rng.Intn(len(pool))],
			})
			seq++
		}
	}
	return &Fleet{opts: opts, schedule: schedule}, nil
}

func fetchPool(c *http.Client, base, key, family string) ([]string, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/pool?family="+family, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-API-Key", key)
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var out struct {
		Queries []string `json:"queries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Queries, nil
}

// FleetReport aggregates one fleet run. Latencies are client-observed
// wall clock (the operator's view); simulated per-query costs live in
// the gateway's own ledgers.
type FleetReport struct {
	Sessions int `json:"sessions"`
	Requests int `json:"requests"`
	Workers  int `json:"workers"`

	Accepted int64            `json:"accepted"`
	Rejected int64            `json:"rejected"`
	Errors   int64            `json:"transport_errors,omitempty"`
	ByReason map[string]int64 `json:"rejected_by_reason,omitempty"`

	RejectionRate float64 `json:"rejection_rate"`
	WallSeconds   float64 `json:"wall_seconds"`
	Throughput    float64 `json:"requests_per_sec"`
	P50Millis     float64 `json:"p50_ms"`
	P99Millis     float64 `json:"p99_ms"`
}

// Run executes the schedule and aggregates the outcome.
func (f *Fleet) Run() (FleetReport, error) {
	rep := FleetReport{
		Sessions: f.opts.Sessions,
		Requests: len(f.schedule),
		Workers:  f.opts.Workers,
		ByReason: make(map[string]int64),
	}
	var (
		mu        sync.Mutex
		latencies = make([]float64, 0, len(f.schedule)) // conflint:guardedby mu
		wg        sync.WaitGroup
	)
	record := func(lat float64, status int, reason string, transportErr bool) {
		mu.Lock()
		defer mu.Unlock()
		if transportErr {
			rep.Errors++
			return
		}
		latencies = append(latencies, lat)
		if status == http.StatusOK {
			rep.Accepted++
			return
		}
		rep.Rejected++
		if reason == "" {
			reason = fmt.Sprintf("http-%d", status)
		}
		rep.ByReason[reason]++
	}

	// conflint:ignore wall-clock throughput measurement for the operator's bench artifact; never enters audit or goal ledgers
	start := time.Now()
	if f.opts.Sync {
		for w := 0; w < f.opts.Workers; w++ {
			wg.Add(1)
			// conflint:worker lifecycle=none indexed fan-out over the fixed schedule; joined below
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(f.schedule); i += f.opts.Workers {
					f.issue(f.schedule[i], record)
				}
			}(w)
		}
	} else {
		sessions := make(chan int)
		for w := 0; w < f.opts.Workers; w++ {
			wg.Add(1)
			// conflint:worker lifecycle=sessions session runner; drains the sessions channel, joined below
			go func() {
				defer wg.Done()
				for s := range sessions {
					lo := s * f.opts.QueriesPerSession
					for i := lo; i < lo+f.opts.QueriesPerSession; i++ {
						f.issue(f.schedule[i], record)
					}
				}
			}()
		}
		for s := 0; s < f.opts.Sessions; s++ {
			sessions <- s
		}
		close(sessions)
	}
	wg.Wait()
	// conflint:ignore wall-clock throughput measurement for the operator's bench artifact; never enters audit or goal ledgers
	rep.WallSeconds = time.Since(start).Seconds()
	// Release the pooled connections. One the transport dialed for a
	// request that another connection then served never carried a
	// request; the server counts it as new, not idle, and a graceful
	// http.Server.Shutdown waits on it until its deadline.
	f.opts.Client.CloseIdleConnections()

	if rep.Requests > 0 {
		rep.RejectionRate = float64(rep.Rejected) / float64(rep.Requests)
	}
	if rep.WallSeconds > 0 {
		rep.Throughput = float64(rep.Requests) / rep.WallSeconds
	}
	sort.Float64s(latencies)
	if n := len(latencies); n > 0 {
		rep.P50Millis = latencies[(n-1)/2]
		rep.P99Millis = latencies[(n*99+99)/100-1]
	}
	if len(rep.ByReason) == 0 {
		rep.ByReason = nil
	}
	return rep, nil
}

// issue posts one scheduled request and records its outcome.
func (f *Fleet) issue(r fleetReq, record func(lat float64, status int, reason string, transportErr bool)) {
	t := f.opts.Tenants[r.tenant]
	body, err := json.Marshal(queryRequest{Seq: r.seq, Family: r.family, SQL: r.sql})
	if err != nil {
		record(0, 0, "", true)
		return
	}
	req, err := http.NewRequest(http.MethodPost, f.opts.BaseURL+"/v1/query", bytes.NewReader(body))
	if err != nil {
		record(0, 0, "", true)
		return
	}
	req.Header.Set("X-API-Key", t.APIKey)
	req.Header.Set("Content-Type", "application/json")
	// conflint:ignore wall-clock client latency for the operator's bench artifact; never enters audit or goal ledgers
	begin := time.Now()
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		record(0, 0, "", true)
		return
	}
	// conflint:ignore wall-clock client latency for the operator's bench artifact; never enters audit or goal ledgers
	lat := time.Since(begin).Seconds() * 1000
	reason := ""
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e) == nil {
			reason = e.Error
		}
	}
	// conflint:ignore best-effort drain so the connection is reusable
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	record(lat, resp.StatusCode, reason, false)
}
