package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gateway"
	"repro/internal/optimizer"
	"repro/internal/shard"
	"repro/internal/sql"
)

// The serve workload: a closed loop of two clients (gateway callers wait
// for each reply) sending a seeded schedule of NREF2J pool queries as
// three tenants over loopback HTTP to a gateway that serves through a
// 4-shard hash cluster in 1C, with tuning and autoscaling off. Tenant
// caps exceed the client count, so admission never sees a full queue.
const (
	serveClients   = 2
	serveShards    = 4
	serveShardPool = 2
	servePool      = 30
)

var serveTenants = []string{"alpha", "beta", "gamma"}

// spanHeader carries the client span's index to the traced handler, so
// the handler span is parented to the request that caused it.
const spanHeader = "X-Perfbench-Span"

// tracedHandler wraps the gateway's ServeHTTP with a span per request
// when a tracer is installed.
type tracedHandler struct {
	next http.Handler
	tr   atomic.Pointer[tracer]
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, err := strconv.Atoi(r.Header.Get(spanHeader))
	if err != nil {
		parent = -1
	}
	id := tr.spanID(parent)
	s := tr.begin("gateway.handle", id, parent)
	h.next.ServeHTTP(w, r)
	tr.end(s)
}

// serveState is one set-up of the serve workload.
type serveState struct {
	coord     *engine.Engine
	cl        *shard.Cluster
	gw        *gateway.Gateway
	srv       *http.Server
	served    chan struct{} // closed once srv.Serve has returned
	serveErr  error         // srv.Serve's result, read after served closes
	url       string
	transport *http.Transport
	client    *http.Client
	handler   *tracedHandler
	pool      []string
	wantRows  []string // unsharded engine's rows digest per pool query
	pins      []servePin
}

// serveBackend loads the coordinator in 1C, samples the pool in P and
// builds the shard cluster over the coordinator.
func serveBackend(steps setupSteps) (*serveState, error) {
	coord, err := loadNREF(engine.SystemB(), steps)
	if err != nil {
		return nil, err
	}
	pool, err := sample(coord, "NREF2J", servePool)
	if err != nil {
		return nil, err
	}
	if err := transition(coord, engine.OneColumnConfiguration(coord), steps); err != nil {
		return nil, err
	}
	s := &serveState{coord: coord, pool: pool}
	err = steps.timed("shard.build_s", func() error {
		var err error
		s.cl, err = shard.New(coord, shard.Spec{Shards: serveShards, Mode: shard.ModeHash}, serveShardPool)
		return err
	})
	return s, err
}

func newServe(steps setupSteps, pins []servePin) (*serveState, error) {
	s, err := serveBackend(steps)
	if err != nil {
		return nil, err
	}
	if len(pins) != len(s.pool) {
		return nil, fmt.Errorf("pinned.json has %d serve entries for a %d-query pool", len(pins), len(s.pool))
	}
	s.pins = pins
	if err := s.referenceRows(); err != nil {
		return nil, err
	}
	if err := s.start(); err != nil {
		return nil, err
	}
	return s, nil
}

// referenceRows runs every pool query on the unsharded engine; gateway
// responses must carry the same rows.
func (s *serveState) referenceRows() error {
	s.wantRows = make([]string, len(s.pool))
	for i, q := range s.pool {
		res, _, err := s.coord.Run(q, core.DefaultTimeout)
		if err != nil {
			return fmt.Errorf("reference run of pool query %d: %w", i, err)
		}
		s.wantRows[i] = rowsDigest(renderRows(res))
	}
	return nil
}

// start brings up the gateway on a loopback listener.
func (s *serveState) start() error {
	cfg := gateway.Config{
		System:    "B",
		Scale:     scale,
		Seed:      dataSeed,
		Pool:      servePool,
		Shards:    serveShards,
		ShardMode: string(shard.ModeHash),
		ShardPool: serveShardPool,
	}
	for _, name := range serveTenants {
		cfg.Tenants = append(cfg.Tenants, gateway.TenantConfig{
			Name:           name,
			APIKey:         name + "-key",
			Families:       []string{"NREF2J"},
			MaxQueue:       4 * serveClients,
			MaxConcurrency: serveClients,
			MaxRows:        1 << 30, // every row, so responses can be checked
			Window:         32,
		})
	}
	gw, err := gateway.New(gateway.Options{
		Config:  cfg,
		Backend: &gateway.Backend{Engine: s.coord, Pools: map[string][]string{"NREF2J": s.pool}, Cluster: s.cl},
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := gw.WaitReady(ctx); err != nil {
		return fmt.Errorf("gateway not ready: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.gw = gw
	s.handler = &tracedHandler{next: gw}
	s.srv = &http.Server{Handler: s.handler}
	s.served = make(chan struct{})
	s.url = "http://" + ln.Addr().String() + "/v1/query"
	s.transport = &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients, DisableCompression: true}
	s.client = &http.Client{Transport: s.transport}
	// conflint:worker lifecycle=external loopback HTTP server; close shuts it down and waits on served
	go func() {
		defer close(s.served)
		s.serveErr = s.srv.Serve(ln)
	}()
	return nil
}

// close drains the gateway, then stops the listener and waits for it.
func (s *serveState) close() error {
	if s.srv == nil {
		return nil
	}
	s.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.gw.Shutdown(ctx)
	if e := s.srv.Shutdown(ctx); err == nil {
		err = e
	}
	<-s.served
	if err == nil && !errors.Is(s.serveErr, http.ErrServerClosed) {
		err = s.serveErr
	}
	return err
}

// request is one scheduled query: which pool query, as which tenant.
type request struct {
	seq    int64
	pool   int
	tenant int
}

// queryResponse is the part of the gateway's /v1/query reply the checks
// read.
type queryResponse struct {
	Seq        int64      `json:"seq"`
	SimSeconds float64    `json:"sim_seconds"`
	TimedOut   bool       `json:"timed_out"`
	RowCount   int        `json:"row_count"`
	Rows       [][]string `json:"rows"`
}

// send issues one request and checks the reply. It returns the
// client-observed latency.
func (s *serveState) send(tr *tracer, rq request) (time.Duration, error) {
	body, err := json.Marshal(map[string]any{"seq": rq.seq, "family": "NREF2J", "sql": s.pool[rq.pool]})
	if err != nil {
		return 0, err
	}
	hr, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hr.Header.Set("X-API-Key", serveTenants[rq.tenant]+"-key")
	sp := tr.begin("client.request", rq.seq, -1)
	if sp >= 0 {
		hr.Header.Set(spanHeader, strconv.Itoa(sp))
	}
	t := time.Now()
	resp, err := s.client.Do(hr)
	if err != nil {
		tr.end(sp)
		return 0, fmt.Errorf("request %d: %w", rq.seq, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t)
	tr.end(sp)
	if err != nil {
		return lat, fmt.Errorf("request %d: reading reply: %w", rq.seq, err)
	}
	if resp.StatusCode != http.StatusOK {
		return lat, fmt.Errorf("request %d: status %d: %s", rq.seq, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return lat, s.check(rq, raw)
}

// check compares a reply with the unsharded engine's rows and the pinned
// row count and simulated seconds of its pool query.
func (s *serveState) check(rq request, raw []byte) error {
	var r queryResponse
	if err := json.Unmarshal(raw, &r); err != nil {
		return fmt.Errorf("request %d: decoding reply: %w", rq.seq, err)
	}
	pin := s.pins[rq.pool]
	switch {
	case r.Seq != rq.seq:
		return fmt.Errorf("request %d: reply carries seq %d", rq.seq, r.Seq)
	case r.TimedOut:
		return fmt.Errorf("request %d (pool %d): timed out", rq.seq, rq.pool)
	case r.RowCount != pin.RowCount || r.SimSeconds != pin.SimSeconds:
		return fmt.Errorf("request %d (pool %d): row_count %d sim_seconds %v, pinned %d %v",
			rq.seq, rq.pool, r.RowCount, r.SimSeconds, pin.RowCount, pin.SimSeconds)
	case len(r.Rows) != r.RowCount || rowsDigest(r.Rows) != s.wantRows[rq.pool]:
		return fmt.Errorf("request %d (pool %d): rows differ from the unsharded engine's", rq.seq, rq.pool)
	}
	return nil
}

// warm sends every pool query once, checked; this is the last step of
// set-up.
func (s *serveState) warm(c *runCtx) {
	for i := range s.pool {
		_, err := s.send(nil, request{seq: int64(i), pool: i, tenant: i % len(serveTenants)})
		c.op(err)
	}
}

// servedReq is a completed request with its latency.
type servedReq struct {
	request
	latMS float64
	err   error
}

// loop runs the closed loop for d and returns the completed requests in
// client order, with the loop's time; times are less the loop's stolen
// share (see stopwatch). Client k's schedule is a function of (seed, phase, k)
// alone: rounds that each send every pool query once, in shuffled order,
// as a random tenant. Whole rounds keep the query mix, and so the work
// per request, the same for every seed.
func (s *serveState) loop(tr *tracer, seed int64, phaseNo int, d time.Duration) ([]servedReq, time.Duration) {
	per := make([][]servedReq, serveClients)
	runtime.GC() // start from a collected heap, as the other workloads do
	w := startWatch()
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for k := 0; k < serveClients; k++ {
		wg.Add(1)
		// conflint:worker lifecycle=none closed-loop client; stops at the deadline and is joined by wg
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(phaseNo*serveClients+k)))
			var round []int
			for n := int64(0); time.Now().Before(deadline); n++ {
				if len(round) == 0 {
					round = rng.Perm(len(s.pool))
				}
				rq := request{
					seq:    int64(1+phaseNo)<<40 | int64(k)<<32 | n,
					pool:   round[0],
					tenant: rng.Intn(len(serveTenants)),
				}
				round = round[1:]
				lat, err := s.send(tr, rq)
				per[k] = append(per[k], servedReq{rq, ms(lat), err})
			}
		}(k)
	}
	wg.Wait()
	wall, unstolen := w.elapsed()
	share := float64(unstolen) / float64(wall)
	var out []servedReq
	for _, reqs := range per {
		for _, r := range reqs {
			r.latMS *= share // requests are too short to read steal each
			out = append(out, r)
		}
	}
	return out, unstolen
}

// account counts the requests as operations and returns their phase.
func account(c *runCtx, reqs []servedReq, wall time.Duration) phase {
	p := phase{wall: wall}
	for _, r := range reqs {
		c.op(r.err)
		if r.err == nil {
			p.lat = append(p.lat, r.latMS)
		}
	}
	return p
}

func runServe(c *runCtx) error {
	p, err := loadPins()
	if err != nil {
		return err
	}
	var s *serveState
	defer func() {
		if s != nil {
			if err := s.close(); err != nil {
				c.fail(fmt.Errorf("shutdown: %w", err))
			}
		}
	}()
	teardown := func() error {
		err := s.close()
		s = nil
		if err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		return nil
	}
	err = c.setUp(teardown, func(st setupSteps) error {
		var err error
		if s, err = newServe(st, p.Serve); err != nil {
			return err
		}
		s.warm(c)
		return nil
	})
	if err != nil {
		return err
	}
	c.record["pool_queries"] = len(s.pool)

	reqs, wall := s.loop(nil, c.opts.seed, 0, c.opts.phase())
	untraced := account(c, reqs, wall)
	c.endToEnd(untraced)
	c.record["ops"] = len(reqs)
	if c.tr == nil {
		return nil
	}

	r0, st0 := readRuntime(), s.cl.Stats()
	m0, _ := allocs()
	s.handler.tr.Store(c.tr)
	reqs, wall = s.loop(c.tr, c.opts.seed, 1, c.opts.phase())
	s.handler.tr.Store(nil)
	m1, _ := allocs()
	r1, st1 := readRuntime(), s.cl.Stats()
	traced := account(c, reqs, wall)
	c.record["traced_ops"] = len(traced.lat)
	runtimeDelta(c.layer, r0, r1)
	overhead(c.layer, untraced, traced)
	c.layer["gateway.allocs_per_req"] = float64(m1-m0) / float64(len(reqs))
	c.layer["gateway.rejected"] = float64(s.gw.Stats().Rejected)
	c.layer["shard.exchange_queries"] = float64(st1.Exchanges - st0.Exchanges)
	c.layer["shard.fallbacks"] = float64(st1.Fallbacks - st0.Fallbacks)

	spans := c.tr.snapshot()
	self := selfTimes(spans)
	handle := make(map[int64]float64)
	var handleMS, wireMS []float64
	for i, sp := range spans {
		d := float64(sp.EndNS-sp.StartNS) / 1e6
		switch sp.Name {
		case "gateway.handle":
			handle[sp.ID] = d
			handleMS = append(handleMS, d)
		case "client.request":
			wireMS = append(wireMS, float64(self[i])/1e6)
		}
	}
	c.layer["gateway.handle_ms.p50"] = quantile(handleMS, 0.50)
	c.layer["gateway.handle_ms.p99"] = quantile(handleMS, 0.99)
	c.layer["gateway.wire_ms.p50"] = median(wireMS)
	if err := s.replay(c, reqs, handle); err != nil {
		return err
	}
	return storageAndBtree(c.layer, s.coord, c.opts.seed)
}

// replay re-runs the traced phase's schedule one request at a time
// through the layers below the gateway — parse and analyze, optimize on
// the coordinator's physical design, and the cluster's RunAnalyzed — for
// at most the run's duration.
func (s *serveState) replay(c *runCtx, reqs []servedReq, handle map[int64]float64) error {
	var parse, opt, run, self []float64
	var allocsTotal uint64
	phys := s.coord.Physical()
	start := time.Now()
	for _, r := range reqs {
		if time.Since(start) > c.opts.phase() {
			break
		}
		t0 := time.Now()
		stmt, err := sql.ParseSelect(s.pool[r.pool])
		if err != nil {
			return err
		}
		q, err := sql.Analyze(s.coord.Schema, stmt)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := optimizer.Optimize(phys, q, s.coord.Profile.Opts); err != nil {
			return err
		}
		t2 := time.Now()
		a0, _ := allocs()
		t3 := time.Now()
		res, m, err := s.cl.RunAnalyzed(q, core.DefaultTimeout)
		t4 := time.Now()
		a1, _ := allocs()
		if err == nil && (m.Seconds != s.pins[r.pool].SimSeconds || rowsDigest(renderRows(res)) != s.wantRows[r.pool]) {
			err = errors.New("replayed result differs from the pinned one")
		}
		if err != nil {
			return fmt.Errorf("replaying pool query %d: %w", r.pool, err)
		}
		parse = append(parse, float64(t1.Sub(t0).Nanoseconds())/1e3)
		opt = append(opt, float64(t2.Sub(t1).Nanoseconds())/1e3)
		runMS := ms(t4.Sub(t3))
		run = append(run, runMS)
		allocsTotal += a1 - a0
		if h, ok := handle[r.seq]; ok {
			self = append(self, h-runMS)
		}
	}
	c.record["replayed"] = len(run)
	c.layer["sql.parse_us.p50"] = median(parse)
	c.layer["optimizer.optimize_us.p50"] = median(opt)
	c.layer["shard.run_ms.p50"] = quantile(run, 0.50)
	c.layer["shard.run_ms.p99"] = quantile(run, 0.99)
	c.layer["shard.allocs_per_query"] = float64(allocsTotal) / float64(len(run))
	c.layer["gateway.self_ms.p50"] = median(self)
	return nil
}
