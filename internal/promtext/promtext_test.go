package promtext

import (
	"math"
	"testing"
)

func TestExposition(t *testing.T) {
	var w Writer
	w.Metric("up", "gauge", "1 when up.\nSecond line.", Bool(true))
	w.Family("hits_total", "counter", `Hits by path \ and code.`)
	w.Sample("hits_total", 1000000, "path", `/a"b`, "code", "200")
	w.Sample("hits_total", 2.5, "path", "x\ny")
	w.Metric("p95_seconds", "gauge", "p95.", math.Inf(1))
	w.Metric("nan", "gauge", "nan.", math.NaN())
	want := `# HELP up 1 when up.\nSecond line.
# TYPE up gauge
up 1
# HELP hits_total Hits by path \\ and code.
# TYPE hits_total counter
hits_total{code="200",path="/a\"b"} 1000000
hits_total{path="x\ny"} 2.5
# HELP p95_seconds p95.
# TYPE p95_seconds gauge
p95_seconds -1
# HELP nan nan.
# TYPE nan gauge
nan -1
`
	if got := w.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestFinite(t *testing.T) {
	for _, x := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if Finite(x) != -1 {
			t.Errorf("Finite(%v) = %v, want -1", x, Finite(x))
		}
	}
	if Finite(0.25) != 0.25 {
		t.Errorf("Finite changed a finite value")
	}
}
