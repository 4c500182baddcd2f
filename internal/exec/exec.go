// Package exec executes physical plans over the storage engine.
//
// Execution is real — rows are read, hashed, joined and aggregated — and
// every logical I/O and per-row operation is billed to a cost.Meter with
// the same accounting rules the optimizer uses for its estimates. The
// difference between an estimate E(q,C) and an actual measurement A(q,C)
// is therefore exactly the optimizer's cardinality estimation error, which
// is the phenomenon the paper's Section 5 studies.
//
// Execution is push-based: each operator drives rows into a callback.
// A simulated-time limit (the paper's 30-minute timeout) aborts execution
// with ErrTimeout.
//
// Unsharded execution is the one-partition case of partition-parallel
// execution: Run is RunPartial followed by the finisher MergePartials
// also ends in, so there is one group accumulator, one result sort and,
// through cost.Model.Spill, one spill rule for estimates and actuals.
package exec

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/val"
)

// ErrTimeout reports that the simulated-time limit was exceeded.
var ErrTimeout = errors.New("exec: query exceeded the simulated-time limit")

// Ctx carries the cost meter, cost model and time limit for one execution.
type Ctx struct {
	Meter cost.Meter
	Model cost.Model
	// LimitSeconds aborts execution when the simulated elapsed time
	// exceeds it; 0 disables the limit.
	LimitSeconds float64

	// Preset, when non-nil, supplies the IN-subquery sets instead of
	// computing them from the plan — the sharded execution path computes
	// each set once on the coordinator (over the full tables, so HAVING
	// COUNT(*) predicates see global counts) and injects the values into
	// every partition's execution. Must hold exactly one entry per
	// plan.InSets, in order; the set computation is not billed here (the
	// coordinator billed it once).
	Preset []InSetValues

	ticks int
}

// InSetValues is the materialized value list of one IN-subquery set, in
// the deterministic (ascending) probe order ComputeInSets produces.
type InSetValues struct {
	Vals []val.Value
}

// Seconds returns the simulated time consumed so far.
func (c *Ctx) Seconds() float64 { return c.Model.Seconds(&c.Meter) }

// check tests the time limit (amortized: the limit is evaluated every
// 1024 calls).
func (c *Ctx) check() error {
	c.ticks++
	if c.LimitSeconds <= 0 || c.ticks%1024 != 0 {
		return nil
	}
	if c.Seconds() > c.LimitSeconds {
		return ErrTimeout
	}
	return nil
}

// Result is the output of a query: column names and rows, sorted
// lexicographically for determinism.
type Result struct {
	Cols []string
	Rows []val.Row
}

// inSet is a computed IN-subquery set: the membership test plus the
// ordered values (for set-driven index probes).
type inSet struct {
	keys map[string]bool
	vals []val.Value
}

func (s *inSet) contains(v val.Value) bool {
	return s.keys[val.Row{v}.Key()]
}

type executor struct {
	ctx  *Ctx
	p    *plan.Plan
	sets []*inSet
}

// Run executes the plan and returns its result: the plan's one partition
// run by RunPartial, finished as MergePartials finishes a merge. Run bills
// no merge work.
func Run(p *plan.Plan, ctx *Ctx) (*Result, error) {
	part, err := RunPartial(p, ctx)
	if err != nil {
		return nil, err
	}
	return finish(p, part), nil
}

// finish is the one result finisher. It maps a partial's group states
// (aggregate plans) or operator rows (every other plan) to the query's
// select list, then sorts by the ORDER BY keys with the canonical row
// order as the deterministic tiebreak. The partial is only read.
func finish(p *plan.Plan, part *Partial) *Result {
	q := p.Query
	res := &Result{}
	for _, o := range q.Out {
		res.Cols = append(res.Cols, o.Name)
	}
	if part.agg {
		// Group order is map order: the sort below decides the output.
		aggs := p.Root.(*plan.HashAgg).Aggs
		res.Rows = make([]val.Row, 0, len(part.groups))
		for _, st := range part.groups {
			out := make(val.Row, len(q.Out))
			for i, o := range q.Out {
				if o.Kind == sql.OutGroup {
					out[i] = st.groupVals[o.Index]
				} else {
					out[i] = finishAgg(aggs[o.Index].Kind, st, o.Index)
				}
			}
			res.Rows = append(res.Rows, out)
		}
	} else {
		res.Rows = part.rows
	}
	specs := q.OrderBy
	sort.Slice(res.Rows, func(i, j int) bool {
		a, b := res.Rows[i], res.Rows[j]
		for _, o := range specs {
			c := val.Compare(a[o.OutIdx], b[o.OutIdx])
			if o.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return val.CompareRows(a, b) < 0
	})
	return res
}

// buildSets materializes the plan's IN-subquery sets: from ctx.Preset
// when injected (unbilled — the coordinator already paid), otherwise by
// computing each set with billing.
func (e *executor) buildSets() error {
	if e.ctx.Preset != nil {
		if len(e.ctx.Preset) != len(e.p.InSets) {
			return fmt.Errorf("exec: %d preset IN-sets for a plan with %d", len(e.ctx.Preset), len(e.p.InSets))
		}
		for i := range e.ctx.Preset {
			vals := e.ctx.Preset[i].Vals
			set := &inSet{keys: make(map[string]bool, len(vals)), vals: vals}
			for _, v := range vals {
				set.keys[val.Row{v}.Key()] = true
			}
			e.sets = append(e.sets, set)
		}
		return nil
	}
	for i := range e.p.InSets {
		set, err := e.computeInSet(&e.p.InSets[i])
		if err != nil {
			return err
		}
		e.sets = append(e.sets, set)
	}
	return nil
}

// ComputeInSets evaluates the plan's IN-subquery sets, billing the work
// to ctx, and returns the value lists for injection into other
// executions via Ctx.Preset. The sharded path calls this once on the
// coordinator so every partition tests membership against the same
// globally-computed sets.
func ComputeInSets(p *plan.Plan, ctx *Ctx) ([]InSetValues, error) {
	e := &executor{ctx: ctx, p: p}
	out := make([]InSetValues, len(p.InSets))
	for i := range p.InSets {
		set, err := e.computeInSet(&p.InSets[i])
		if err != nil {
			return nil, err
		}
		out[i] = InSetValues{Vals: set.vals}
	}
	return out, nil
}

// computeInSet evaluates one IN-subquery set.
func (e *executor) computeInSet(is *plan.InSetPlan) (*inSet, error) {
	set := &inSet{keys: make(map[string]bool)}
	add := func(v val.Value) {
		k := val.Row{v}.Key()
		if !set.keys[k] {
			set.keys[k] = true
			set.vals = append(set.vals, v)
		}
	}
	p := is.Pred

	if is.Index != nil {
		// Index-only scan: keys arrive sorted, so the HAVING COUNT(*)
		// test streams on group boundaries.
		e.ctx.Meter.FixedRand += int64(is.Index.Height)
		it := is.Index.Tree.Scan()
		var curKey val.Value
		var curCount int64
		haveCur := false
		flush := func() {
			if haveCur && (p.Having == nil || cmpHaving(curCount, p.Having)) {
				add(curKey)
			}
		}
		for {
			k, _, ok := it.Next()
			if !ok {
				break
			}
			e.ctx.Meter.Rows++
			if err := e.ctx.check(); err != nil {
				return nil, err
			}
			v := k[0]
			if v.IsNull() {
				continue
			}
			if haveCur && val.Equal(v, curKey) {
				curCount++
				continue
			}
			flush()
			curKey, curCount, haveCur = v, 1, true
		}
		flush()
		e.ctx.Meter.SeqPages += it.Scanned() / is.Index.EntriesPerLeaf
		return set, nil
	}

	// Sequential scan plus hash aggregation.
	counts := make(map[string]*struct {
		v val.Value
		n int64
	})
	var scanErr error
	is.Info.Heap.Scan(&e.ctx.Meter, func(_ storage.RowID, r val.Row) bool {
		if err := e.ctx.check(); err != nil {
			scanErr = err
			return false
		}
		v := r[p.SubCol]
		if v.IsNull() {
			return true
		}
		for _, ss := range p.SubSels {
			if !sql.CompareOp(ss.Op, r[ss.Col], ss.Value) {
				return true
			}
		}
		e.ctx.Meter.CPUOps++
		k := val.Row{v}.Key()
		if c := counts[k]; c != nil {
			c.n++
		} else {
			counts[k] = &struct {
				v val.Value
				n int64
			}{v, 1}
		}
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	// Spill accounting for the aggregation hash table.
	e.ctx.Model.Spill(&e.ctx.Meter, memOf(e), int64(len(counts))*24, 0)
	for _, c := range counts {
		if p.Having == nil || cmpHaving(c.n, p.Having) {
			add(c.v)
		}
	}
	// Keep probe order deterministic.
	sort.Slice(set.vals, func(i, j int) bool { return val.Compare(set.vals[i], set.vals[j]) < 0 })
	return set, nil
}

func cmpHaving(n int64, h *sql.Having) bool {
	switch h.Op {
	case "=":
		return n == h.Value
	case "<>":
		return n != h.Value
	case "<":
		return n < h.Value
	case "<=":
		return n <= h.Value
	case ">":
		return n > h.Value
	case ">=":
		return n >= h.Value
	}
	return false
}

// memOf returns the full-scale memory budget the plan was costed under;
// a plan with no recorded budget never spills.
func memOf(e *executor) int64 {
	if e.p.Mem > 0 {
		return e.p.Mem
	}
	return 1 << 62
}
