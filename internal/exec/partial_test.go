package exec_test

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/val"
)

func (w *world) plan(t *testing.T, text string) *plan.Plan {
	t.Helper()
	stmt, err := sql.ParseSelect(text)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sql.Analyze(w.schema, stmt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := optimizer.Optimize(w.phys, q, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func sameRows(t *testing.T, what string, got, want []val.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if val.CompareRows(got[i], want[i]) != 0 {
			t.Fatalf("%s: row %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestRunIsOnePartition pins unsharded execution as the one-partition
// case of partition-parallel execution: Run bills what RunPartial bills
// and returns what MergePartials returns over that one partial. Merging
// the partial with itself doubles COUNT and SUM, leaves MIN, MAX, AVG
// and COUNT(DISTINCT) alone (and repeats every plain row), and leaves
// the partial as it was.
func TestRunIsOnePartition(t *testing.T) {
	w := newWorld(t)
	// Per output column: 'k' keeps its value under a self-merge, 'd'
	// doubles. An empty spec marks a plain projection, whose rows repeat.
	cases := []struct {
		sql  string
		cols string
	}{
		{`SELECT g, COUNT(*), COUNT(s), SUM(k), MIN(k), MAX(k), AVG(k), COUNT(DISTINCT s) FROM t GROUP BY g`, "kdddkkkk"},
		{`SELECT COUNT(*), MIN(k), MAX(v), SUM(v) FROM u`, "dkkd"},
		{`SELECT g, COUNT(*), SUM(k), COUNT(DISTINCT s) FROM t
			WHERE k IN (SELECT k FROM u WHERE v < 100 GROUP BY k HAVING COUNT(*) >= 2) GROUP BY g`, "kddk"},
		{`SELECT k, v FROM u WHERE v < 40 ORDER BY v DESC`, ""},
	}
	for _, c := range cases {
		p := w.plan(t, c.sql)

		runCtx := &exec.Ctx{Model: w.phys.Model}
		want, err := exec.Run(p, runCtx)
		if err != nil {
			t.Fatal(err)
		}
		partCtx := &exec.Ctx{Model: w.phys.Model}
		part, err := exec.RunPartial(p, partCtx)
		if err != nil {
			t.Fatal(err)
		}
		if runCtx.Meter != partCtx.Meter {
			t.Errorf("%s: Run billed %v, RunPartial %v", c.sql, &runCtx.Meter, &partCtx.Meter)
		}
		mergeCtx := &exec.Ctx{Model: w.phys.Model}
		once, err := exec.MergePartials(p, []*exec.Partial{part}, mergeCtx)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, c.sql+": merge of one partial", once.Rows, want.Rows)
		if len(once.Cols) != len(want.Cols) {
			t.Fatalf("%s: cols %v, want %v", c.sql, once.Cols, want.Cols)
		}
		for i := range want.Cols {
			if once.Cols[i] != want.Cols[i] {
				t.Fatalf("%s: cols %v, want %v", c.sql, once.Cols, want.Cols)
			}
		}

		twice, err := exec.MergePartials(p, []*exec.Partial{part, part}, &exec.Ctx{Model: w.phys.Model})
		if err != nil {
			t.Fatal(err)
		}
		if c.cols == "" {
			if len(twice.Rows) != 2*len(want.Rows) {
				t.Fatalf("%s: self-merge has %d rows, want %d", c.sql, len(twice.Rows), 2*len(want.Rows))
			}
			for i, r := range want.Rows {
				sameRows(t, c.sql+": self-merge", twice.Rows[2*i:2*i+2], []val.Row{r, r})
			}
		} else {
			if len(twice.Rows) != len(want.Rows) {
				t.Fatalf("%s: self-merge has %d groups, want %d", c.sql, len(twice.Rows), len(want.Rows))
			}
			for i, r := range want.Rows {
				for j, kind := range c.cols {
					exp := r[j]
					if kind == 'd' {
						if exp.K == val.KindInt {
							exp = val.Int(2 * exp.I)
						} else {
							exp = val.Float(2 * exp.F)
						}
					}
					if got := twice.Rows[i][j]; val.Compare(got, exp) != 0 || got.K != exp.K {
						t.Errorf("%s: self-merge row %d col %d = %v, want %v", c.sql, i, j, got, exp)
					}
				}
			}
		}

		// The partial is intact: merging it alone again gives the first
		// merge's result and bill.
		againCtx := &exec.Ctx{Model: w.phys.Model}
		again, err := exec.MergePartials(p, []*exec.Partial{part}, againCtx)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, c.sql+": merge after self-merge", again.Rows, want.Rows)
		if againCtx.Meter != mergeCtx.Meter {
			t.Errorf("%s: re-merge billed %v, first merge %v", c.sql, &againCtx.Meter, &mergeCtx.Meter)
		}
	}
}
