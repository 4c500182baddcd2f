package exec

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/val"
)

// runNode pushes the rows produced by n into out. Rows are flat layout
// rows; each operator populates the segments of the tables it covers.
func (e *executor) runNode(n plan.Node, out func(val.Row) error) error {
	switch n := n.(type) {
	case *plan.SeqScan:
		return e.runSeqScan(n, out)
	case *plan.IndexScan:
		return e.runIndexScan(n, out)
	case *plan.ViewScan:
		return e.runViewScan(n, out)
	case *plan.HashJoin:
		return e.runHashJoin(n, out)
	case *plan.IndexJoin:
		return e.runIndexJoin(n, out)
	case *plan.MergeJoin:
		return e.runMergeJoin(n, out)
	case *plan.Project:
		return e.runProject(n, out)
	}
	return fmt.Errorf("exec: unknown plan node %T", n)
}

// tabsOf returns the table ordinals whose segments node n populates.
func tabsOf(n plan.Node) []int {
	switch n := n.(type) {
	case *plan.SeqScan:
		return []int{n.Tab}
	case *plan.IndexScan:
		return []int{n.Tab}
	case *plan.ViewScan:
		return append([]int(nil), n.Tabs...)
	case *plan.HashJoin:
		return append(tabsOf(n.Build), tabsOf(n.Probe)...)
	case *plan.IndexJoin:
		return append(tabsOf(n.Outer), n.Tab)
	case *plan.MergeJoin:
		return []int{n.L.Tab, n.R.Tab}
	case *plan.Project:
		return tabsOf(n.Input)
	}
	return nil
}

// passes evaluates pushed-down filters and IN filters on a flat row.
func (e *executor) passes(r val.Row, filters []plan.Filter, ins []plan.InFilter) bool {
	for _, f := range filters {
		e.ctx.Meter.CPUOps++
		if !f.Eval(r) {
			return false
		}
	}
	for _, f := range ins {
		e.ctx.Meter.CPUOps++
		if !e.sets[f.SetID].contains(r[f.Offset]) {
			return false
		}
	}
	return true
}

func (e *executor) runSeqScan(n *plan.SeqScan, out func(val.Row) error) error {
	base := e.p.Layout.Base[n.Tab]
	width := e.p.Layout.Width
	var innerErr error
	n.Info.Heap.Scan(&e.ctx.Meter, func(_ storage.RowID, r val.Row) bool {
		if err := e.ctx.check(); err != nil {
			innerErr = err
			return false
		}
		flat := make(val.Row, width)
		copy(flat[base:], r)
		if !e.passes(flat, n.Filters, n.Ins) {
			return true
		}
		if err := out(flat); err != nil {
			innerErr = err
			return false
		}
		return true
	})
	return innerErr
}

// emitIndexMatch materializes a flat row for one index entry, either from
// the key columns (covering) or by fetching the heap row.
func (e *executor) emitIndexMatch(tab int, info *plan.TableInfo, ix *plan.IndexInfo,
	cur *storage.Cursor, covering bool, key val.Row, rid int64,
	filters []plan.Filter, ins []plan.InFilter, out func(val.Row) error) error {

	base := e.p.Layout.Base[tab]
	flat := make(val.Row, e.p.Layout.Width)
	if covering {
		for j, c := range ix.Cols {
			flat[base+c] = key[j]
		}
	} else {
		r, err := cur.Fetch(&e.ctx.Meter, storage.RowID(rid))
		if err != nil {
			return err
		}
		copy(flat[base:], r)
	}
	if !e.passes(flat, filters, ins) {
		return nil
	}
	return out(flat)
}

func (e *executor) runIndexScan(n *plan.IndexScan, out func(val.Row) error) error {
	if n.Index.Tree == nil {
		return fmt.Errorf("exec: plan uses hypothetical index %s", n.Index.Def.Name())
	}
	cur := n.Info.Heap.NewCursor()
	e.ctx.Meter.FixedRand += int64(n.Index.Height)

	var entries int64
	defer func() {
		if epl := n.Index.EntriesPerLeaf; epl > 0 {
			e.ctx.Meter.SeqPages += entries / epl
		}
	}()

	// With RidSort the matching rids are gathered first and the heap is
	// read in page order afterwards (list prefetch); otherwise each match
	// is fetched (or emitted from the key, if covering) as it streams out
	// of the index.
	ridSort := n.RidSort && !n.Covering
	ridList := make([]storage.RowID, 0, 256)
	base := e.p.Layout.Base[n.Tab]
	width := e.p.Layout.Width

	consume := func(it interface {
		Next() (val.Row, int64, bool)
	}) error {
		for {
			k, rid, ok := it.Next()
			if !ok {
				return nil
			}
			entries++
			e.ctx.Meter.Rows++
			if err := e.ctx.check(); err != nil {
				return err
			}
			if ridSort {
				ridList = append(ridList, storage.RowID(rid))
				continue
			}
			if err := e.emitIndexMatch(n.Tab, n.Info, n.Index, cur, n.Covering, k, rid, n.Filters, n.Ins, out); err != nil {
				return err
			}
		}
	}
	flushRidList := func() error {
		if !ridSort {
			return nil
		}
		e.ctx.Meter.CPUOps += int64(len(ridList))
		var innerErr error
		err := n.Info.Heap.FetchMany(&e.ctx.Meter, ridList, func(_ storage.RowID, r val.Row) bool {
			if err := e.ctx.check(); err != nil {
				innerErr = err
				return false
			}
			flat := make(val.Row, width)
			copy(flat[base:], r)
			if !e.passes(flat, n.Filters, n.Ins) {
				return true
			}
			if err := out(flat); err != nil {
				innerErr = err
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		return innerErr
	}

	if n.DriveInSet >= 0 {
		// One probe per IN-set value.
		for _, v := range e.sets[n.DriveInSet].vals {
			e.ctx.Meter.RandPages++
			if err := consume(n.Index.Tree.SeekPrefix(val.Row{v})); err != nil {
				return err
			}
		}
		return flushRidList()
	}

	prefix := make(val.Row, len(n.EqVals))
	copy(prefix, n.EqVals)
	switch {
	case n.Range != nil:
		lo, hi := prefix, prefix
		loIncl, hiIncl := true, true
		bound := append(prefix.Clone(), n.Range.Value)
		switch n.Range.Op {
		case ">":
			lo, loIncl = bound, false
		case ">=":
			lo = bound
		case "<":
			hi, hiIncl = bound, false
		case "<=":
			hi = bound
		}
		if len(prefix) == 0 {
			// Pure range: unbound side is nil.
			if n.Range.Op == ">" || n.Range.Op == ">=" {
				hi = nil
			} else {
				lo = nil
			}
		}
		e.ctx.Meter.FixedRand++
		if err := consume(n.Index.Tree.SeekRange(lo, hi, loIncl, hiIncl)); err != nil {
			return err
		}
		return flushRidList()
	case len(prefix) > 0:
		e.ctx.Meter.FixedRand++
		if err := consume(n.Index.Tree.SeekPrefix(prefix)); err != nil {
			return err
		}
		return flushRidList()
	default:
		// Full covering leaf scan.
		if err := consume(n.Index.Tree.Scan()); err != nil {
			return err
		}
		return flushRidList()
	}
}

func (e *executor) runViewScan(n *plan.ViewScan, out func(val.Row) error) error {
	width := e.p.Layout.Width
	emit := func(viewRow val.Row) error {
		flat := make(val.Row, width)
		for i, off := range n.ColOffsets {
			if off >= 0 {
				flat[off] = viewRow[i]
			}
		}
		if !e.passes(flat, n.Filters, n.Ins) {
			return nil
		}
		return out(flat)
	}

	if n.Index != nil {
		if n.Index.Tree == nil {
			return fmt.Errorf("exec: plan uses hypothetical view index %s", n.Index.Def.Name())
		}
		cur := n.View.Heap.NewCursor()
		e.ctx.Meter.FixedRand += int64(n.Index.Height) + 1
		it := n.Index.Tree.SeekPrefix(append(val.Row(nil), n.EqVals...))
		var entries int64
		for {
			_, rid, ok := it.Next()
			if !ok {
				break
			}
			entries++
			e.ctx.Meter.Rows++
			if err := e.ctx.check(); err != nil {
				return err
			}
			r, err := cur.Fetch(&e.ctx.Meter, storage.RowID(rid))
			if err != nil {
				return err
			}
			if err := emit(r); err != nil {
				return err
			}
		}
		if epl := n.Index.EntriesPerLeaf; epl > 0 {
			e.ctx.Meter.SeqPages += entries / epl
		}
		return nil
	}

	var innerErr error
	n.View.Heap.Scan(&e.ctx.Meter, func(_ storage.RowID, r val.Row) bool {
		if err := e.ctx.check(); err != nil {
			innerErr = err
			return false
		}
		if err := emit(r); err != nil {
			innerErr = err
			return false
		}
		return true
	})
	return innerErr
}

func (e *executor) runHashJoin(n *plan.HashJoin, out func(val.Row) error) error {
	buildTabs := tabsOf(n.Build)

	// Build phase.
	table := make(map[string][]val.Row)
	var buildRows int64
	err := e.runNode(n.Build, func(r val.Row) error {
		e.ctx.Meter.CPUOps++
		buildRows++
		k := keyOf(r, n.BuildKeys)
		table[k] = append(table[k], r)
		return nil
	})
	if err != nil {
		return err
	}

	// Probe phase.
	var probeRows int64
	err = e.runNode(n.Probe, func(r val.Row) error {
		e.ctx.Meter.CPUOps++
		probeRows++
		if err := e.ctx.check(); err != nil {
			return err
		}
		for _, b := range table[keyOf(r, n.ProbeKeys)] {
			merged := r.Clone()
			copySegments(merged, b, buildTabs, e.p.Layout)
			if len(n.BuildKeys) == 0 {
				e.ctx.Meter.CPUOps++ // cross-product work
			}
			if err := out(merged); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Spill accounting: the optimizer's rule over actual counts.
	e.ctx.Model.Spill(&e.ctx.Meter, memOf(e), buildRows*int64(n.BuildWidth), probeRows*int64(n.BuildWidth))
	return nil
}

// keyOf renders the join key of a row; empty key lists (cross joins) map
// every row to the same bucket.
func keyOf(r val.Row, offsets []int) string {
	if len(offsets) == 0 {
		return ""
	}
	return r.Project(offsets).Key()
}

// copySegments copies the table segments of src for the given ordinals
// into dst.
func copySegments(dst, src val.Row, tabs []int, l plan.Layout) {
	for _, t := range tabs {
		lo := l.Base[t]
		hi := l.Width
		if t+1 < len(l.Base) {
			hi = l.Base[t+1]
		}
		copy(dst[lo:hi], src[lo:hi])
	}
}

func (e *executor) runIndexJoin(n *plan.IndexJoin, out func(val.Row) error) error {
	if n.Index.Tree == nil {
		return fmt.Errorf("exec: plan uses hypothetical index %s", n.Index.Def.Name())
	}
	cur := n.Info.Heap.NewCursor()
	e.ctx.Meter.FixedRand += int64(n.Index.Height)
	base := e.p.Layout.Base[n.Tab]

	var entries int64
	err := e.runNode(n.Outer, func(outer val.Row) error {
		e.ctx.Meter.CPUOps += 2
		if err := e.ctx.check(); err != nil {
			return err
		}
		key := make(val.Row, len(n.Binds))
		for i, b := range n.Binds {
			if b.Const != nil {
				key[i] = *b.Const
			} else {
				key[i] = outer[b.OuterOffset]
			}
		}
		e.ctx.Meter.RandPages++
		it := n.Index.Tree.SeekPrefix(key)
		for {
			k, rid, ok := it.Next()
			if !ok {
				return nil
			}
			entries++
			e.ctx.Meter.Rows++
			if err := e.ctx.check(); err != nil {
				return err
			}
			merged := outer.Clone()
			if n.Covering {
				for j, c := range n.Index.Cols {
					merged[base+c] = k[j]
				}
			} else {
				r, err := cur.Fetch(&e.ctx.Meter, storage.RowID(rid))
				if err != nil {
					return err
				}
				copy(merged[base:], r)
			}
			ok2 := true
			for _, pe := range n.PostEq {
				e.ctx.Meter.CPUOps++
				if !val.Equal(merged[pe.A], merged[pe.B]) {
					ok2 = false
					break
				}
			}
			if !ok2 || !e.passes(merged, n.Filters, n.Ins) {
				continue
			}
			if err := out(merged); err != nil {
				return err
			}
		}
	})
	if epl := n.Index.EntriesPerLeaf; epl > 0 {
		e.ctx.Meter.SeqPages += entries / epl
	}
	return err
}

// aggState accumulates one group.
type aggState struct {
	groupVals val.Row
	counts    []int64
	sums      []float64
	mins      []val.Value
	maxs      []val.Value
	distinct  []map[string]bool
}

// finishAgg produces the final value of aggregate i for a group.
func finishAgg(kind sql.AggKind, st *aggState, i int) val.Value {
	switch kind {
	case sql.AggCountStar, sql.AggCountCol:
		return val.Int(st.counts[i])
	case sql.AggCountDistinct:
		return val.Int(int64(len(st.distinct[i])))
	case sql.AggSum:
		return val.Float(st.sums[i])
	case sql.AggMin:
		if st.counts[i] == 0 {
			return val.Null()
		}
		return st.mins[i]
	case sql.AggMax:
		if st.counts[i] == 0 {
			return val.Null()
		}
		return st.maxs[i]
	case sql.AggAvg:
		if st.counts[i] == 0 {
			return val.Null()
		}
		return val.Float(st.sums[i] / float64(st.counts[i]))
	}
	return val.Null()
}

func (e *executor) runProject(n *plan.Project, out func(val.Row) error) error {
	return e.runNode(n.Input, func(r val.Row) error {
		return out(r.Project(n.Offsets))
	})
}

// keyStream iterates one merge-join side's index leaves, yielding entries
// whose join-key value passes the side's key-level predicates.
type keyStream struct {
	e    *executor
	side *plan.MergeSide
	it   *btree.Iter

	key val.Row
	rid int64
	ok  bool
}

func (e *executor) newKeyStream(side *plan.MergeSide) *keyStream {
	e.ctx.Meter.FixedRand += int64(side.Index.Height)
	return &keyStream{e: e, side: side, it: side.Index.Tree.Scan()}
}

// next advances to the next passing entry.
func (s *keyStream) next() error {
	for {
		k, rid, ok := s.it.Next()
		if !ok {
			s.ok = false
			return nil
		}
		s.e.ctx.Meter.Rows++
		if err := s.e.ctx.check(); err != nil {
			return err
		}
		v := k[0]
		if v.IsNull() {
			continue
		}
		pass := true
		for _, p := range s.side.KeyPreds {
			s.e.ctx.Meter.CPUOps++
			if !sql.CompareOp(p.Op, v, p.Value) {
				pass = false
				break
			}
		}
		if pass {
			for _, p := range s.side.KeyIns {
				s.e.ctx.Meter.CPUOps++
				if !s.e.sets[p.SetID].contains(v) {
					pass = false
					break
				}
			}
		}
		if !pass {
			continue
		}
		s.key, s.rid, s.ok = k, rid, true
		return nil
	}
}

// close bills the leaf pages consumed.
func (s *keyStream) close() {
	if epl := s.side.Index.EntriesPerLeaf; epl > 0 {
		s.e.ctx.Meter.SeqPages += s.it.Scanned() / epl
	}
}

// runMergeJoin merges the two ordered, key-filtered index streams,
// collects the surviving (left, right) pairs per equal key run, fetches
// each non-covered side's surviving rows rid-sorted, and emits the merged
// flat rows. Covering sides carry their key columns through the pair and
// never touch the heap.
func (e *executor) runMergeJoin(n *plan.MergeJoin, out func(val.Row) error) error {
	ls := e.newKeyStream(&n.L)
	rs := e.newKeyStream(&n.R)
	defer ls.close()
	defer rs.close()
	if err := ls.next(); err != nil {
		return err
	}
	if err := rs.next(); err != nil {
		return err
	}

	type entry struct {
		rid int64
		key val.Row // retained only for covering sides
	}
	type pairEnt struct {
		l, r entry
	}
	// Duplicate runs are usually short; starting capacity amortizes the
	// per-key growth across the whole merge.
	pairs := make([]pairEnt, 0, 64)
	lRun := make([]entry, 0, 16)
	rRun := make([]entry, 0, 16)
	keep := func(side *plan.MergeSide, key val.Row, rid int64) entry {
		if side.Covering {
			return entry{rid: rid, key: key.Clone()}
		}
		return entry{rid: rid}
	}
	for ls.ok && rs.ok {
		c := val.Compare(ls.key[0], rs.key[0])
		switch {
		case c < 0:
			if err := ls.next(); err != nil {
				return err
			}
		case c > 0:
			if err := rs.next(); err != nil {
				return err
			}
		default:
			v := ls.key[0]
			lRun = lRun[:0]
			for ls.ok && val.Equal(ls.key[0], v) {
				lRun = append(lRun, keep(&n.L, ls.key, ls.rid))
				if err := ls.next(); err != nil {
					return err
				}
			}
			rRun = rRun[:0]
			for rs.ok && val.Equal(rs.key[0], v) {
				rRun = append(rRun, keep(&n.R, rs.key, rs.rid))
				if err := rs.next(); err != nil {
					return err
				}
			}
			for _, l := range lRun {
				for _, r := range rRun {
					e.ctx.Meter.CPUOps++
					pairs = append(pairs, pairEnt{l, r})
				}
				if err := e.ctx.check(); err != nil {
					return err
				}
			}
		}
	}

	// Materialize each non-covered side's surviving rows, rid-sorted.
	fetchSide := func(side *plan.MergeSide, ridOf func(pairEnt) int64) (map[int64]val.Row, error) {
		if side.Covering {
			return nil, nil
		}
		uniq := make(map[int64]bool, len(pairs))
		for _, p := range pairs {
			uniq[ridOf(p)] = true
		}
		ids := make([]storage.RowID, 0, len(uniq))
		for id := range uniq {
			ids = append(ids, storage.RowID(id))
		}
		e.ctx.Meter.CPUOps += int64(len(ids))
		rows := make(map[int64]val.Row, len(ids))
		var innerErr error
		err := side.Info.Heap.FetchMany(&e.ctx.Meter, ids, func(id storage.RowID, r val.Row) bool {
			if err := e.ctx.check(); err != nil {
				innerErr = err
				return false
			}
			rows[int64(id)] = r
			return true
		})
		if err != nil {
			return nil, err
		}
		return rows, innerErr
	}
	lRows, err := fetchSide(&n.L, func(p pairEnt) int64 { return p.l.rid })
	if err != nil {
		return err
	}
	rRows, err := fetchSide(&n.R, func(p pairEnt) int64 { return p.r.rid })
	if err != nil {
		return err
	}

	fill := func(flat val.Row, side *plan.MergeSide, rows map[int64]val.Row, ent entry) {
		base := e.p.Layout.Base[side.Tab]
		if side.Covering {
			for j, c := range side.Index.Cols {
				flat[base+c] = ent.key[j]
			}
			return
		}
		copy(flat[base:], rows[ent.rid])
	}
	width := e.p.Layout.Width
	for _, p := range pairs {
		if err := e.ctx.check(); err != nil {
			return err
		}
		flat := make(val.Row, width)
		fill(flat, &n.L, lRows, p.l)
		fill(flat, &n.R, rRows, p.r)
		if !e.passes(flat, n.L.PostFilters, n.L.PostIns) ||
			!e.passes(flat, n.R.PostFilters, n.R.PostIns) {
			continue
		}
		if err := out(flat); err != nil {
			return err
		}
	}
	return nil
}
