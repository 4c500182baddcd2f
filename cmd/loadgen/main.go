// Command loadgen drives a seeded session fleet against a gateway —
// hundreds to thousands of sessions across tenants — and writes the
// BENCH_gateway.json artifact (throughput, p50/p99, rejection rate,
// per-tenant goal satisfaction).
//
// Usage:
//
//	loadgen -selfhost [-config tenants.json] [-sessions 500] ...
//	loadgen -url http://host:8080 -tenants name:key:FAM+FAM,... ...
//
// -selfhost boots a gateway in-process on an ephemeral port (the
// `make gateway-smoke` path: no daemon choreography needed), runs the
// fleet, asserts the gateway went ready and admitted queries, drains it
// cleanly and fails if any retune failed; the artifact is written after
// the drain, so it counts every retune. -sync executes the seeded schedule as an indexed fan-out
// (tuning off), the mode whose per-tenant audit dumps and goal reports
// are byte-identical across runs and worker counts.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/gateway"
)

func main() {
	url := flag.String("url", "", "target gateway base URL (remote mode)")
	tenantsFlag := flag.String("tenants", "", "remote-mode tenant identities as name:key:FAM+FAM,...")
	selfhost := flag.Bool("selfhost", false, "boot a gateway in-process and drive it")
	configPath := flag.String("config", "", "selfhost tenant config JSON (default: built-in 3-tenant config)")
	scale := flag.Float64("scale", 0.0002, "selfhost data scale factor (built-in config only)")
	tuning := flag.Bool("tuning", false, "selfhost: enable the per-tenant goal tuner (built-in config only)")
	shards := flag.Int("shards", 0, "selfhost: serve partition-parallel through a shard cluster of this size (0 = config's setting)")
	sessions := flag.Int("sessions", 500, "total sessions, assigned to tenants round-robin")
	queries := flag.Int("queries", 1, "queries per session")
	workers := flag.Int("workers", 16, "concurrent sessions")
	seed := flag.Int64("seed", 42, "schedule seed")
	syncMode := flag.Bool("sync", false, "deterministic indexed fan-out over the seeded schedule (disables tuning)")
	outFile := flag.String("o", "", "write BENCH_gateway.json-style metrics to this file")
	goalReport := flag.Bool("goal-report", false, "selfhost: print the deterministic per-tenant goal report")
	auditDir := flag.String("audit-dir", "", "selfhost: write per-tenant audit dumps (JSONL) into this directory")
	flag.Parse()

	if *selfhost == (*url != "") {
		fmt.Fprintln(os.Stderr, "loadgen: need exactly one of -selfhost or -url")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*url, *tenantsFlag, *selfhost, *configPath, *scale, *tuning, *shards,
		*sessions, *queries, *workers, *seed, *syncMode, *outFile, *goalReport, *auditDir); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// defaultConfig is the built-in 3-tenant selfhost topology: two
// single-family tenants plus one mixed tenant with a tight queue, so an
// overloaded run observes real backpressure.
func defaultConfig(scale float64, tuning bool) gateway.Config {
	return gateway.Config{
		System: "B",
		Scale:  scale,
		Seed:   42,
		Pool:   30,
		Tuning: tuning,
		Tenants: []gateway.TenantConfig{
			{Name: "alpha", APIKey: "alpha-key", Families: []string{"NREF2J"}, MaxQueue: 16, MaxConcurrency: 2, Window: 16},
			{Name: "beta", APIKey: "beta-key", Families: []string{"NREF3J"}, MaxQueue: 16, MaxConcurrency: 2, Window: 16},
			{Name: "gamma", APIKey: "gamma-key", Families: []string{"NREF2J", "NREF3J"}, MaxQueue: 4, MaxConcurrency: 1, Window: 16},
		},
	}
}

func parseTenants(s string) ([]gateway.FleetTenant, error) {
	var out []gateway.FleetTenant
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("tenant %q: want name:key:FAM+FAM", part)
		}
		out = append(out, gateway.FleetTenant{
			Name:     fields[0],
			APIKey:   fields[1],
			Families: strings.Split(fields[2], "+"),
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no tenants in %q", s)
	}
	return out, nil
}

func run(url, tenantsFlag string, selfhost bool, configPath string, scale float64, tuning bool, shards int,
	sessions, queries, workers int, seed int64, syncMode bool, outFile string, goalReport bool, auditDir string) (runErr error) {
	var (
		g         *gateway.Gateway
		fleetTen  []gateway.FleetTenant
		readySecs float64
		err       error
	)

	if selfhost {
		var cfg gateway.Config
		if configPath != "" {
			cfg, err = gateway.LoadConfig(configPath)
			if err != nil {
				return err
			}
		} else {
			cfg = defaultConfig(scale, tuning)
		}
		if syncMode && cfg.Tuning {
			fmt.Println("loadgen: -sync disables tuning (the determinism contract fixes the configuration)")
			cfg.Tuning = false
		}
		if shards > 0 {
			cfg.Shards = shards
			if err := cfg.Normalize(); err != nil {
				return err
			}
		}
		for _, t := range cfg.Tenants {
			fleetTen = append(fleetTen, gateway.FleetTenant{Name: t.Name, APIKey: t.APIKey, Families: t.Families})
		}

		g, err = gateway.New(gateway.Options{Config: cfg})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: g}
		// conflint:worker lifecycle=external selfhost listener lives for the whole run; the deferred srv.Shutdown below closes it last, after the gateway drain
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "loadgen: serve:", err)
			}
		}()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				runErr = errors.Join(runErr, fmt.Errorf("listener shutdown: %w", err))
			}
		}()
		url = "http://" + ln.Addr().String()

		fmt.Printf("loadgen: selfhost gateway on %s (system %s, scale %g); loading catalog...\n", url, cfg.System, cfg.Scale)
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		err = g.WaitReady(ctx)
		cancel()
		if err != nil {
			return err
		}
		readySecs = time.Since(start).Seconds()
		if !probeReady(url) {
			return fmt.Errorf("/readyz did not report ok after load")
		}
		fmt.Printf("loadgen: ready in %.1fs\n", readySecs)
	} else {
		if fleetTen, err = parseTenants(tenantsFlag); err != nil {
			return err
		}
		if !probeReady(url) {
			return fmt.Errorf("%s/readyz is not ok", url)
		}
	}

	fleet, err := gateway.NewFleet(gateway.FleetOptions{
		BaseURL:           url,
		Tenants:           fleetTen,
		Sessions:          sessions,
		QueriesPerSession: queries,
		Workers:           workers,
		Seed:              seed,
		Sync:              syncMode,
	})
	if err != nil {
		return err
	}
	fmt.Printf("loadgen: %d sessions x %d queries over %d tenants, %d workers (sync=%v, seed %d)\n",
		sessions, queries, len(fleetTen), workers, syncMode, seed)
	rep, err := fleet.Run()
	if err != nil {
		return err
	}
	fmt.Printf("loadgen: %d/%d accepted, %d rejected (%.1f%%), %.1f req/s, p50 %.1fms p99 %.1fms in %.1fs\n",
		rep.Accepted, rep.Requests, rep.Rejected, rep.RejectionRate*100,
		rep.Throughput, rep.P50Millis, rep.P99Millis, rep.WallSeconds)
	if rep.Accepted == 0 {
		return fmt.Errorf("no queries admitted")
	}
	if rep.Errors > 0 {
		return fmt.Errorf("%d transport errors", rep.Errors)
	}

	if selfhost {
		if auditDir != "" {
			if err := os.MkdirAll(auditDir, 0o755); err != nil {
				return err
			}
			for _, t := range fleetTen {
				path := filepath.Join(auditDir, "audit_"+t.Name+".jsonl")
				if err := os.WriteFile(path, g.AuditDumpTenant(t.Name), 0o644); err != nil {
					return err
				}
			}
		}
		if goalReport {
			fmt.Println()
			fmt.Print(g.GoalReport())
		}
	}

	if selfhost {
		// Drain before reporting, so the artifact counts every retune,
		// including one still in flight when the fleet finished.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := g.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		s := g.Stats()
		if s.Inflight != 0 {
			return fmt.Errorf("shutdown left %d queries in flight", s.Inflight)
		}
		fmt.Printf("loadgen: gateway drained cleanly (%d accepted, %d rejected, %d retunes)\n",
			s.Accepted, s.Rejected, s.Retunes)
		if s.RetuneErrs > 0 {
			return fmt.Errorf("%d retunes failed", s.RetuneErrs)
		}
	}

	if outFile != "" {
		if err := writeBenchJSON(outFile, url, g, rep, seed, syncMode, readySecs); err != nil {
			return err
		}
	}
	return nil
}

func probeReady(url string) bool {
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// writeBenchJSON emits the gateway bench artifact: the fleet's
// client-side view plus the gateway's per-tenant goal ledgers (selfhost)
// or the remote /v1/stats snapshot.
func writeBenchJSON(path, url string, g *gateway.Gateway, rep gateway.FleetReport, seed int64, syncMode bool, readySecs float64) error {
	rec := map[string]any{
		"bench":         "gateway",
		"seed":          seed,
		"sync":          syncMode,
		"ready_seconds": round3(readySecs),
		"fleet":         rep,
	}
	if g != nil {
		s := g.Stats()
		rec["tenants"] = s.Tenants
		rec["retunes"] = s.Retunes
	} else if url != "" {
		resp, err := http.Get(url + "/v1/stats")
		if err == nil {
			defer resp.Body.Close()
			var s gateway.Snapshot
			if json.NewDecoder(resp.Body).Decode(&s) == nil {
				rec["tenants"] = s.Tenants
				rec["retunes"] = s.Retunes
			}
		}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func round3(x float64) float64 { return float64(int64(x*1000+0.5)) / 1000 }
