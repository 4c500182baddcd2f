// Partition-parallel execution: a plan runs against a data partition to
// produce a mergeable Partial instead of a final Result, and Partials from
// every partition merge deterministically into exactly the Result the
// unpartitioned execution produces. Unpartitioned execution is the
// one-partition case: Run is RunPartial plus the same finisher
// MergePartials ends in, so the group accumulator (accumulateAgg) and the
// result sort (finish) each exist once.
//
// The contract that makes merged results byte-identical at any partition
// count:
//
//   - non-aggregate queries concatenate partition rows in partition-index
//     order and re-sort with the one finisher's comparator (ORDER BY keys,
//     then the canonical row order) — a total order, so the multiset of
//     rows determines the bytes;
//   - aggregate queries merge per-group states: counts add exactly
//     (int64), MIN/MAX merge through val.Compare (order-insensitive),
//     COUNT(DISTINCT) unions key sets, and SUM/AVG add float partial sums
//     in partition-index order. Integer-column sums are exact at every
//     partition count (each partial sum is an exactly-representable
//     integer); float-column sums can differ across partition counts by
//     reassociation ULPs — the benchmark families aggregate only COUNT(*)
//     and COUNT(DISTINCT), which are exact.
//
// Partition executions bill their own meters; the merge bills its row and
// group work to the merge context. The caller (internal/shard) combines
// them into the sharded cost: set computation + max over partitions +
// merge. Run bills its one partition and no merge.
package exec

import (
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/val"
)

// Partial is the mergeable output of one partition's execution of a plan.
// It is produced by RunPartial and consumed by MergePartials; the zero
// value is not meaningful.
type Partial struct {
	agg    bool
	rows   []val.Row            // non-aggregate: operator output rows (unsorted)
	groups map[string]*aggState // aggregate: per-group partial states
}

// RunPartial executes the plan over this partition's data and returns a
// mergeable partial result. For aggregate plans (HashAgg root) the
// aggregation state is kept open — counts, partial sums, min/max and
// distinct-value sets per group — so partitions of a group combine
// exactly. For every other plan shape the partition's rows are returned
// for concatenation.
func RunPartial(p *plan.Plan, ctx *Ctx) (*Partial, error) {
	e := &executor{ctx: ctx, p: p}
	if err := e.buildSets(); err != nil {
		return nil, err
	}
	root, ok := p.Root.(*plan.HashAgg)
	if !ok {
		var raw []val.Row
		if err := e.runNode(p.Root, func(r val.Row) error {
			raw = append(raw, r)
			return nil
		}); err != nil {
			return nil, err
		}
		return &Partial{rows: raw}, nil
	}

	groups, err := e.accumulateAgg(root)
	if err != nil {
		return nil, err
	}
	return &Partial{agg: true, groups: groups}, nil
}

// accumulateAgg is the one group accumulator: it runs the aggregate's
// input and folds every row into its group's open state. The optimizer
// only puts a HashAgg at the plan root, so RunPartial is its one caller.
func (e *executor) accumulateAgg(n *plan.HashAgg) (map[string]*aggState, error) {
	groups := make(map[string]*aggState)
	err := e.runNode(n.Input, func(r val.Row) error {
		e.ctx.Meter.CPUOps++
		if err := e.ctx.check(); err != nil {
			return err
		}
		gv := r.Project(n.Groups)
		k := gv.Key()
		st := groups[k]
		if st == nil {
			st = &aggState{
				groupVals: gv,
				counts:    make([]int64, len(n.Aggs)),
				sums:      make([]float64, len(n.Aggs)),
				mins:      make([]val.Value, len(n.Aggs)),
				maxs:      make([]val.Value, len(n.Aggs)),
				distinct:  make([]map[string]bool, len(n.Aggs)),
			}
			groups[k] = st
		}
		for i, a := range n.Aggs {
			if a.Kind == sql.AggCountStar {
				st.counts[i]++
				continue
			}
			v := r[a.Offset]
			if v.IsNull() {
				continue
			}
			st.counts[i]++
			st.sums[i] += v.AsFloat()
			if st.counts[i] == 1 || val.Compare(v, st.mins[i]) < 0 {
				st.mins[i] = v
			}
			if st.counts[i] == 1 || val.Compare(v, st.maxs[i]) > 0 {
				st.maxs[i] = v
			}
			if a.Kind == sql.AggCountDistinct {
				if st.distinct[i] == nil {
					st.distinct[i] = make(map[string]bool)
				}
				st.distinct[i][val.Row{v}.Key()] = true
				e.ctx.Meter.CPUOps++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return groups, nil
}

// cloneAggState deep-copies one group's partial state (distinct sets
// included) so folding can proceed without mutating the source partial:
// MergePartials treats its inputs as read-only.
func cloneAggState(src *aggState) *aggState {
	dst := &aggState{
		groupVals: src.groupVals,
		counts:    append([]int64(nil), src.counts...),
		sums:      append([]float64(nil), src.sums...),
		mins:      append([]val.Value(nil), src.mins...),
		maxs:      append([]val.Value(nil), src.maxs...),
		distinct:  make([]map[string]bool, len(src.distinct)),
	}
	for i, set := range src.distinct {
		if set == nil {
			continue
		}
		d := make(map[string]bool, len(set))
		for k := range set {
			d[k] = true
		}
		dst.distinct[i] = d
	}
	return dst
}

// mergeAggState folds src (one partition's state for a group) into dst in
// place; src is only read. Partitions are folded in partition-index
// order, which fixes the float-sum association; everything else is
// order-insensitive.
func mergeAggState(dst, src *aggState) {
	for i := range dst.counts {
		first := dst.counts[i] == 0
		dst.counts[i] += src.counts[i]
		dst.sums[i] += src.sums[i]
		if src.counts[i] > 0 {
			if first || val.Compare(src.mins[i], dst.mins[i]) < 0 {
				dst.mins[i] = src.mins[i]
			}
			if first || val.Compare(src.maxs[i], dst.maxs[i]) > 0 {
				dst.maxs[i] = src.maxs[i]
			}
		}
		if src.distinct[i] != nil {
			// Copy-on-adopt: never alias src's set into dst, where a later
			// partition's fold would mutate it through dst.
			if dst.distinct[i] == nil {
				dst.distinct[i] = make(map[string]bool, len(src.distinct[i]))
			}
			for k := range src.distinct[i] {
				dst.distinct[i][k] = true
			}
		}
	}
}

// MergePartials reduces the partitions' partial results — in
// partition-index order — into the final Result for the plan, billing the
// merge's row and group work to ctx, and finishes it as Run does. The plan
// must be the one the partials were produced from (any partition's plan,
// or the coordinator's: only the Query output mapping and root shape are
// consulted). Nil partials are rejected by construction: callers must
// pass one partial per partition. The partials themselves are read-only
// inputs: fold states are cloned before the first in-place merge (lazily
// — single-partition groups are adopted without copying), so the same
// partials can be merged again or inspected afterwards.
//
// conflint:pure — the merge is the topology-invariance keystone: it
// must observe the partials, not consume them, so shard counts can
// change between (and even during, for audit re-merges) executions.
// Billing to ctx through the fresh executor is the contract's sanctioned
// exception: a merge prices its own work like every operator.
func MergePartials(p *plan.Plan, parts []*Partial, ctx *Ctx) (*Result, error) {
	e := &executor{ctx: ctx, p: p}
	if _, isAgg := p.Root.(*plan.HashAgg); isAgg {
		// Fold every partition's states group-by-group. A group's first
		// occurrence (lowest partition index) is the fold seed, and later
		// partitions fold in index order, so per-group results are
		// deterministic regardless of map iteration order.
		merged := make(map[string]*aggState)
		cloned := make(map[string]bool)
		for _, part := range parts {
			for k, st := range part.groups {
				e.ctx.Meter.CPUOps++
				cur := merged[k]
				if cur == nil {
					merged[k] = st
					continue
				}
				if !cloned[k] {
					cur = cloneAggState(cur)
					merged[k] = cur
					cloned[k] = true
				}
				mergeAggState(cur, st)
			}
			if err := e.ctx.check(); err != nil {
				return nil, err
			}
		}
		return finish(p, &Partial{agg: true, groups: merged}), nil
	}
	total := 0
	for _, part := range parts {
		total += len(part.rows)
	}
	raw := make([]val.Row, 0, total)
	for _, part := range parts {
		e.ctx.Meter.CPUOps += int64(len(part.rows))
		raw = append(raw, part.rows...)
		if err := e.ctx.check(); err != nil {
			return nil, err
		}
	}
	return finish(p, &Partial{rows: raw}), nil
}
