// Package promtext renders the Prometheus text exposition format
// (version 0.0.4) so its callers only name metrics: it owns the HELP and
// TYPE lines, label quoting, sorted label keys, and the clamp of
// non-finite values (a CFC quantile among timeouts is +Inf) to -1.
package promtext

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the exposition's HTTP Content-Type.
const ContentType = "text/plain; version=0.0.4"

var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)

// Writer accumulates one exposition.
type Writer struct {
	b strings.Builder
}

// Family opens a metric family with its HELP and TYPE lines. typ is
// "counter" or "gauge".
func (w *Writer) Family(name, typ, help string) {
	w.b.WriteString("# HELP ")
	w.b.WriteString(name)
	w.b.WriteByte(' ')
	helpEscaper.WriteString(&w.b, help)
	w.b.WriteString("\n# TYPE ")
	w.b.WriteString(name)
	w.b.WriteByte(' ')
	w.b.WriteString(typ)
	w.b.WriteByte('\n')
}

// Metric writes a label-free family and its one sample.
func (w *Writer) Metric(name, typ, help string, v float64) {
	w.Family(name, typ, help)
	w.Sample(name, v)
}

// Sample writes one sample of the family opened last. labels alternate
// key and value; they are written with keys sorted and values quoted.
func (w *Writer) Sample(name string, v float64, labels ...string) {
	w.b.WriteString(name)
	if len(labels) >= 2 {
		keys := make([]int, 0, len(labels)/2)
		for i := 0; i+1 < len(labels); i += 2 {
			keys = append(keys, i)
		}
		sort.Slice(keys, func(a, b int) bool { return labels[keys[a]] < labels[keys[b]] })
		w.b.WriteByte('{')
		for n, i := range keys {
			if n > 0 {
				w.b.WriteByte(',')
			}
			w.b.WriteString(labels[i])
			w.b.WriteString(`="`)
			labelEscaper.WriteString(&w.b, labels[i+1])
			w.b.WriteByte('"')
		}
		w.b.WriteByte('}')
	}
	w.b.WriteByte(' ')
	w.b.WriteString(formatValue(Finite(v)))
	w.b.WriteByte('\n')
}

// String returns the exposition text.
func (w *Writer) String() string { return w.b.String() }

// Finite clamps ±Inf and NaN to -1, the "beyond the timeout" marker of
// every metrics surface, JSON included.
func Finite(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return -1
	}
	return x
}

// Bool is a boolean gauge's value: 1 or 0.
func Bool(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// formatValue writes integers without an exponent (1000000, not 1e+06).
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
