package gateway

import (
	"context"
	"testing"
	"time"
)

// TestRetuneOncePerMix pins the gateway's retune policy, the autopilot
// controller's: a goal that no configuration can meet retunes once for
// a mix, not once per violating window, and retunes again only when the
// blended family mix moves.
func TestRetuneOncePerMix(t *testing.T) {
	cfg := testConfig(TenantConfig{
		Name: "delta", APIKey: "delta-key", Families: []string{"NREF2J", "NREF3J"},
		MaxQueue: 32, MaxConcurrency: 2, Window: 8,
		Goal: "0.000000001:1.0", // every completion misses it
	})
	cfg.Tuning = true
	g, ts := newTestGateway(t, cfg)

	seq := int64(0)
	serve := func(family string, n int) {
		t.Helper()
		sqlText := poolQuery(t, ts.URL, "delta-key", family, 0)
		for i := 0; i < n; i++ {
			if st, body, _ := postQuery(t, ts.URL, "delta-key", seq, family, sqlText); st != 200 {
				t.Fatalf("seq %d: status %d body %v", seq, st, body)
			}
			seq++
		}
	}

	// Three violating windows of one family: the first violation retunes,
	// the later ones find the mix already tuned for.
	serve("NREF2J", 24)
	deadline := time.Now().Add(30 * time.Second)
	for s := g.Stats(); s.Retunes+s.RetuneErrs == 0; s = g.Stats() {
		if time.Now().After(deadline) {
			t.Fatal("the first violation never retuned")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Flip to the other family: two more violating windows, one retune.
	serve("NREF3J", 16)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if s := g.Stats(); s.Retunes != 2 || s.RetuneErrs != 0 {
		t.Errorf("retunes = %d (errors %d), want 2: one per mix, not one per violating window", s.Retunes, s.RetuneErrs)
	}
}
