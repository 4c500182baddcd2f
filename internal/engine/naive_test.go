package engine

import (
	"sort"

	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/val"
)

// naiveEval is an independent, obviously-correct query evaluator used as
// the ground truth for plan-equivalence tests: enumerate the FROM list's
// combinations depth-first, left to right, applying every predicate as
// soon as its tables are bound, and fold each complete row straight into
// its group (or the projection). Only one joined row exists at a time,
// so memory stays bounded by the tables and the result, never by the
// join's size. It shares no code with the optimizer or executor.
func naiveEval(e *Engine, q *sql.Query) []val.Row {
	layout := layoutOf(q)

	// IN-subquery sets by brute force.
	sets := make([]map[string]bool, len(q.Ins))
	for i, p := range q.Ins {
		counts := make(map[string]int64)
		e.Heap(p.SubTable.Name).Scan(nil, func(_ storage.RowID, r val.Row) bool {
			v := r[p.SubCol]
			if v.IsNull() {
				return true
			}
			for _, ss := range p.SubSels {
				if !sql.CompareOp(ss.Op, r[ss.Col], ss.Value) {
					return true
				}
			}
			counts[val.Row{v}.Key()]++
			return true
		})
		set := make(map[string]bool)
		for k, n := range counts {
			if p.Having == nil || naiveCmp(n, p.Having.Op, p.Having.Value) {
				set[k] = true
			}
		}
		sets[i] = set
	}

	// Each table's rows, pre-filtered on its local predicates so the
	// enumeration below only checks join predicates.
	local := make([][]val.Row, len(q.Tables))
	for t := range q.Tables {
		e.Heap(q.Tables[t].Table.Name).Scan(nil, func(_ storage.RowID, r val.Row) bool {
			if naiveLocalPasses(q, r, t, sets) {
				local[t] = append(local[t], r)
			}
			return true
		})
	}
	// boundAt[t] marks the tables already bound when table t joins.
	boundAt := make([][]bool, len(q.Tables))
	for t := range boundAt {
		boundAt[t] = make([]bool, len(q.Tables))
		for u := 0; u < t; u++ {
			boundAt[t][u] = true
		}
	}
	// enumerate binds table t's rows into acc, one at a time, and emits
	// every complete row.
	acc := make(val.Row, layout.width)
	var enumerate func(t int, emit func(val.Row))
	enumerate = func(t int, emit func(val.Row)) {
		if t == len(q.Tables) {
			emit(acc)
			return
		}
		for _, r := range local[t] {
			if !naiveJoinPasses(q, layout, acc, r, boundAt[t], t) {
				continue
			}
			copy(acc[layout.base[t]:], r)
			enumerate(t+1, emit)
		}
	}

	// Project.
	if len(q.GroupBy) == 0 && len(q.Aggs) == 0 {
		var out []val.Row
		enumerate(0, func(r val.Row) {
			row := make(val.Row, len(q.Out))
			for i, o := range q.Out {
				row[i] = r[layout.off(o.Col)]
			}
			out = append(out, row)
		})
		sortRows(out)
		return out
	}

	// Group and aggregate.
	type group struct {
		vals     val.Row
		counts   []int64
		sums     []float64
		mins     []val.Value
		maxs     []val.Value
		distinct []map[string]bool
	}
	groups := make(map[string]*group)
	gv := make(val.Row, len(q.GroupBy))
	enumerate(0, func(r val.Row) {
		for i, g := range q.GroupBy {
			gv[i] = r[layout.off(g)]
		}
		k := gv.Key()
		g := groups[k]
		if g == nil {
			g = &group{vals: gv.Clone(),
				counts: make([]int64, len(q.Aggs)), sums: make([]float64, len(q.Aggs)),
				mins: make([]val.Value, len(q.Aggs)), maxs: make([]val.Value, len(q.Aggs)),
				distinct: make([]map[string]bool, len(q.Aggs))}
			groups[k] = g
		}
		for i, a := range q.Aggs {
			if a.Kind == sql.AggCountStar {
				g.counts[i]++
				continue
			}
			v := r[layout.off(a.Col)]
			if v.IsNull() {
				continue
			}
			g.counts[i]++
			g.sums[i] += v.AsFloat()
			if g.counts[i] == 1 || val.Compare(v, g.mins[i]) < 0 {
				g.mins[i] = v
			}
			if g.counts[i] == 1 || val.Compare(v, g.maxs[i]) > 0 {
				g.maxs[i] = v
			}
			if a.Kind == sql.AggCountDistinct {
				if g.distinct[i] == nil {
					g.distinct[i] = make(map[string]bool)
				}
				g.distinct[i][val.Row{v}.Key()] = true
			}
		}
	})
	var out []val.Row
	for _, g := range groups {
		row := make(val.Row, len(q.Out))
		for i, o := range q.Out {
			if o.Kind == sql.OutGroup {
				row[i] = g.vals[o.Index]
				continue
			}
			a := q.Aggs[o.Index]
			switch a.Kind {
			case sql.AggCountStar, sql.AggCountCol:
				row[i] = val.Int(g.counts[o.Index])
			case sql.AggCountDistinct:
				row[i] = val.Int(int64(len(g.distinct[o.Index])))
			case sql.AggSum:
				row[i] = val.Float(g.sums[o.Index])
			case sql.AggMin:
				row[i] = g.mins[o.Index]
			case sql.AggMax:
				row[i] = g.maxs[o.Index]
			case sql.AggAvg:
				row[i] = val.Float(g.sums[o.Index] / float64(g.counts[o.Index]))
			}
		}
		out = append(out, row)
	}
	sortRows(out)
	return out
}

type tLayout struct {
	base  []int
	width int
}

func layoutOf(q *sql.Query) tLayout {
	l := tLayout{base: make([]int, len(q.Tables))}
	for i, t := range q.Tables {
		l.base[i] = l.width
		l.width += len(t.Table.Columns)
	}
	return l
}

func (l tLayout) off(c sql.QCol) int { return l.base[c.Tab] + c.Col }

// naiveLocalPasses checks table-local predicates on a raw table row.
func naiveLocalPasses(q *sql.Query, r val.Row, t int, sets []map[string]bool) bool {
	for _, p := range q.Sels {
		if p.Col.Tab == t && !sql.CompareOp(p.Op, r[p.Col.Col], p.Value) {
			return false
		}
	}
	for i, p := range q.Ins {
		if p.Col.Tab == t && !sets[i][val.Row{r[p.Col.Col]}.Key()] {
			return false
		}
	}
	return true
}

// naiveJoinPasses checks join predicates that become fully bound when
// table t's row r joins the accumulated row acc.
func naiveJoinPasses(q *sql.Query, l tLayout, acc, r val.Row, bound []bool, t int) bool {
	get := func(c sql.QCol) val.Value {
		if c.Tab == t {
			return r[c.Col]
		}
		return acc[l.off(c)]
	}
	for _, j := range q.Joins {
		lb := j.L.Tab == t || bound[j.L.Tab]
		rb := j.R.Tab == t || bound[j.R.Tab]
		touches := j.L.Tab == t || j.R.Tab == t
		if touches && lb && rb && !val.Equal(get(j.L), get(j.R)) {
			return false
		}
	}
	return true
}

func naiveCmp(a int64, op string, b int64) bool {
	switch op {
	case "=":
		return a == b
	case "<>":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	}
	return false
}

func sortRows(rows []val.Row) {
	sort.Slice(rows, func(i, j int) bool { return val.CompareRows(rows[i], rows[j]) < 0 })
}

func rowsEqual(a, b []val.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if val.CompareRows(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}
