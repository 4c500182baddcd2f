package optimizer

import (
	"math"

	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/val"
)

// cardenas estimates the number of distinct pages touched by m random row
// fetches into a relation of p pages (Cardenas' approximation).
func cardenas(m, p float64) float64 {
	if p <= 0 {
		return 0
	}
	return p * (1 - math.Exp(-m/p))
}

// selOf returns the estimated selectivity of one predicate on the table.
func (s *search) selOf(info *plan.TableInfo, p sql.SelPred) float64 {
	sel := info.Stats.Selectivity(p.Col.Col, p.Op, p.Value)
	if sel <= 0 {
		sel = 0.5 / math.Max(1, float64(info.Stats.Rows))
	}
	return sel
}

// rowWidthOf returns the modeled byte width of the needed columns of the
// tables in the mask (what a real engine would carry after projection).
func (s *search) rowWidthOf(mask uint32) int {
	w := 20
	for t := range s.q.Tables {
		if mask&(1<<uint(t)) != 0 {
			w += 24 * len(s.needed[t])
		}
	}
	return w
}

// indexMatchRows estimates the rows matched by binding the first k key
// columns of an index, applying the what-if penalty for hypothetical
// indexes.
func (s *search) indexMatchRows(info *plan.TableInfo, ix *plan.IndexInfo, k int, probes float64) float64 {
	rows := float64(info.Stats.Rows)
	if k <= 0 || rows == 0 {
		return rows * probes
	}
	ndv := float64(ix.KeyNDV[k-1])
	if ndv < 1 {
		ndv = 1
	}
	m := rows / ndv * probes
	if ix.Hypothetical && !s.opts.HypoIdeal {
		m *= s.opts.hypoPenalty()
	}
	if m > rows {
		m = rows
	}
	return m
}

// indexAccessMeter bills the index traversal, leaf scan and (unless the
// index covers the query) the heap fetches for an index access producing
// totalMatch rows over the given number of probes. scaledProbes says
// whether the probe count grows with data volume (probes driven by outer
// rows or IN-set values) or is a per-query constant (a lookup bound by
// literal predicates).
//
// For non-covering access the cheaper of two fetch strategies is chosen
// (the returned bool reports the choice): per-row random fetches, or
// rid-sort / list-prefetch — sort the matching rids and read the touched
// heap pages in storage order. Rid-sort is what makes single-column
// indexes effective at percent-level selectivities on 2005 disks, and is
// only available when allowRidSort is set (pipelined index joins fetch
// row by row).
func (s *search) indexAccessMeter(info *plan.TableInfo, ix *plan.IndexInfo, probes, totalMatch float64, covering, scaledProbes, allowRidSort bool) (cost.Meter, bool) {
	var m cost.Meter
	m.FixedRand = int64(ix.Height)
	if scaledProbes {
		m.RandPages = ceilI(probes)
	} else {
		m.FixedRand += ceilI(probes)
	}
	epl := float64(ix.EntriesPerLeaf)
	if epl < 1 {
		epl = 1
	}
	m.SeqPages = ceilI(totalMatch / epl)
	m.Rows = ceilI(totalMatch)
	if covering {
		return m, false
	}
	pages := float64(info.Heap.Pages())
	if pages == 0 {
		pages = float64(info.Stats.Pages)
	}
	fetch := cardenas(totalMatch, pages)
	touched := fetch
	if ix.Hypothetical && !s.opts.HypoIdeal {
		// Derived what-if statistics cannot credit page locality: assume
		// every fetched row costs its own page.
		fetch = totalMatch
		touched = math.Min(totalMatch, pages)
	}
	sortOps := totalMatch * math.Log2(math.Max(totalMatch, 2))
	randSec := fetch * s.phys.Model.RandPageSec
	ridSec := touched*s.phys.Model.SeqPageSec + sortOps*s.phys.Model.CPUOpSec
	if allowRidSort && ridSec < randSec {
		m.SeqPages += ceilI(touched)
		m.CPUOps += ceilI(sortOps)
		return m, true
	}
	m.RandPages += ceilI(fetch)
	return m, false
}

// covers reports whether the index key columns contain every column of
// the table the query needs.
func (s *search) covers(t int, ix *plan.IndexInfo) bool {
	if s.opts.NoIndexOnly {
		return false
	}
	keySet := make(map[int]bool, len(ix.Cols))
	for _, c := range ix.Cols {
		keySet[c] = true
	}
	for c := range s.needed[t] {
		if !keySet[c] {
			return false
		}
	}
	return true
}

// bestAccessPath returns the cheapest single-table access for table
// ordinal t: sequential scan, index scan on a constant prefix/range, a
// covering full-index scan, or an IN-set-driven index probe.
func (s *search) bestAccessPath(t int) (cand, error) {
	name := s.q.Tables[t].Table.Name
	info := s.phys.TableAt(t, name)
	if info == nil {
		return cand{}, errNoTable(name)
	}
	rows := float64(info.Stats.Rows)
	sels := s.sels[t]
	ins := s.ins[t]

	filterSel := 1.0
	for _, p := range sels {
		filterSel *= s.selOf(info, p)
	}
	inSelAll := 1.0
	for _, ii := range ins {
		inSelAll *= s.inSel[ii]
	}

	// Sequential scan baseline.
	seq := &plan.SeqScan{Tab: t, Info: info}
	for _, p := range sels {
		seq.Filters = append(seq.Filters, plan.Filter{Offset: s.layout.Base[t] + p.Col.Col, Op: p.Op, Value: p.Value})
	}
	for _, ii := range ins {
		seq.Ins = append(seq.Ins, plan.InFilter{Offset: s.layout.Offset(s.q.Ins[ii].Col), SetID: ii})
	}
	seq.Est = plan.Est{Rows: rows * filterSel * inSelAll}
	seq.Est.Meter.SeqPages = info.Heap.Pages()
	seq.Est.Meter.Rows = info.Stats.Rows
	seq.Est.Meter.CPUOps = info.Stats.Rows * int64(len(sels)+len(ins))
	seq.Est.Seconds = s.phys.Model.Seconds(&seq.Est.Meter)
	best := cand{node: seq, est: seq.Est}

	for _, ix := range sortedIndexes(s.phys.IndexesAt(t, name)) {
		if c, ok := s.indexScanCand(t, info, ix, sels, ins); ok && c.est.Seconds < best.est.Seconds {
			best = c
		}
		for _, c := range s.inDrivenCands(t, info, ix, sels, ins) {
			if c.est.Seconds < best.est.Seconds {
				best = c
			}
		}
	}
	return best, nil
}

type noTableError string

func errNoTable(name string) error { return noTableError(name) }
func (e noTableError) Error() string {
	return "optimizer: table " + string(e) + " has no physical storage"
}

// indexScanCand builds the candidate for scanning the table through an
// index bound by constant predicates.
func (s *search) indexScanCand(t int, info *plan.TableInfo, ix *plan.IndexInfo, sels []sql.SelPred, ins []int) (cand, bool) {
	rows := float64(info.Stats.Rows)
	consumed := make(map[int]bool)
	eqVals := make([]val.Value, 0, len(ix.Cols))
	k := 0
	for _, col := range ix.Cols {
		found := -1
		for i, p := range sels {
			if !consumed[i] && p.Col.Col == col && p.Op == "=" {
				found = i
				break
			}
		}
		if found < 0 {
			break
		}
		consumed[found] = true
		eqVals = append(eqVals, sels[found].Value)
		k++
	}
	var rng *plan.RangeBound
	rangeSel := 1.0
	if k < len(ix.Cols) {
		for i, p := range sels {
			if consumed[i] || p.Col.Col != ix.Cols[k] {
				continue
			}
			if p.Op == "<" || p.Op == "<=" || p.Op == ">" || p.Op == ">=" {
				consumed[i] = true
				rng = &plan.RangeBound{Op: p.Op, Value: p.Value}
				rangeSel = info.Stats.RangeSelectivity(p.Col.Col, p.Op, p.Value)
				break
			}
		}
	}
	covering := s.covers(t, ix)
	if k == 0 && rng == nil && !covering {
		return cand{}, false
	}
	// Hypothetical indexes cannot be executed; they may only appear in
	// what-if estimation calls, which never execute the plan, so the
	// candidate is still valid. Actual execution requires Tree != nil
	// (guaranteed because engines never run plans from what-if calls).
	match := s.indexMatchRows(info, ix, k, 1) * rangeSel
	if k == 0 && rng == nil {
		match = rows // full covering leaf scan
	}

	node := &plan.IndexScan{
		Tab: t, Info: info, Index: ix,
		EqVals: eqVals, Range: rng, DriveInSet: -1, Covering: covering,
	}
	// Residual predicate columns are always evaluable: they are "needed"
	// columns, and covering indexes contain every needed column by
	// definition of covers().
	resSel := 1.0
	for i, p := range sels {
		if consumed[i] {
			continue
		}
		node.Filters = append(node.Filters, plan.Filter{Offset: s.layout.Base[t] + p.Col.Col, Op: p.Op, Value: p.Value})
		resSel *= s.selOf(info, p)
	}
	inSelAll := 1.0
	for _, ii := range ins {
		node.Ins = append(node.Ins, plan.InFilter{Offset: s.layout.Offset(s.q.Ins[ii].Col), SetID: ii})
		inSelAll *= s.inSel[ii]
	}
	node.Est = plan.Est{Rows: match * resSel * inSelAll}
	node.Est.Meter, node.RidSort = s.indexAccessMeter(info, ix, 1, match, covering, false, true)
	node.Est.Meter.CPUOps += ceilI(match) * int64(len(node.Filters)+len(node.Ins))
	node.Est.Seconds = s.phys.Model.Seconds(&node.Est.Meter)
	return cand{node: node, est: node.Est}, true
}

// inDrivenCands builds candidates that drive the index with the values of
// an IN-subquery set: one index probe per set value.
func (s *search) inDrivenCands(t int, info *plan.TableInfo, ix *plan.IndexInfo, sels []sql.SelPred, ins []int) []cand {
	out := make([]cand, 0, len(ins))
	for _, ii := range ins {
		p := s.q.Ins[ii]
		if p.Col.Col != ix.Cols[0] {
			continue
		}
		setSize := s.insets[ii].Est.Rows
		match := s.indexMatchRows(info, ix, 1, setSize)
		covering := s.covers(t, ix)
		node := &plan.IndexScan{
			Tab: t, Info: info, Index: ix,
			DriveInSet: ii, Covering: covering,
		}
		resSel := 1.0
		for _, pp := range sels {
			node.Filters = append(node.Filters, plan.Filter{Offset: s.layout.Base[t] + pp.Col.Col, Op: pp.Op, Value: pp.Value})
			resSel *= s.selOf(info, pp)
		}
		inSelAll := 1.0
		for _, jj := range ins {
			if jj == ii {
				continue
			}
			node.Ins = append(node.Ins, plan.InFilter{Offset: s.layout.Offset(s.q.Ins[jj].Col), SetID: jj})
			inSelAll *= s.inSel[jj]
		}
		node.Est = plan.Est{Rows: match * resSel * inSelAll}
		node.Est.Meter, node.RidSort = s.indexAccessMeter(info, ix, setSize, match, covering, true, true)
		node.Est.Meter.CPUOps += ceilI(match) * int64(len(node.Filters)+len(node.Ins)+1)
		node.Est.Seconds = s.phys.Model.Seconds(&node.Est.Meter)
		out = append(out, cand{node: node, est: node.Est})
	}
	return out
}

// combine tries every split of mask into two disjoint covered subsets and
// keeps the cheapest join.
func (s *search) combine(best map[uint32]cand, mask uint32) {
	for s1 := (mask - 1) & mask; s1 > 0; s1 = (s1 - 1) & mask {
		s2 := mask ^ s1
		c1, ok1 := best[s1]
		c2, ok2 := best[s2]
		if !ok1 || !ok2 {
			continue
		}
		lcols, rcols := s.joinPredsBetween(s1, s2)
		if s1 > s2 { // each unordered split once for hash joins
			if c, ok := s.hashJoinCand(c1, c2, s1, s2, lcols, rcols); ok {
				s.consider(best, mask, c)
			}
			if popcount(s1) == 1 && popcount(s2) == 1 && len(lcols) == 1 {
				for _, c := range s.mergeJoinCands(trailingTable(s1), trailingTable(s2), lcols[0], rcols[0]) {
					s.consider(best, mask, c)
				}
			}
		}
		if popcount(s2) == 1 && len(lcols) > 0 {
			t2 := trailingTable(s2)
			for _, c := range s.indexJoinCands(c1, s1, t2, lcols, rcols) {
				s.consider(best, mask, c)
			}
		}
	}
}

func trailingTable(mask uint32) int {
	for t := 0; t < 32; t++ {
		if mask&(1<<uint(t)) != 0 {
			return t
		}
	}
	return -1
}

// joinKeyNDV estimates the distinct count of the join key columns using
// base-table column statistics (ignoring upstream filtering — a standard,
// and standardly imperfect, assumption).
func (s *search) joinKeyNDV(cols []sql.QCol) float64 {
	ndv := 1.0
	for i, c := range cols {
		info := s.phys.TableAt(c.Tab, s.q.Tables[c.Tab].Table.Name)
		n := 10.0
		if info != nil && info.Stats != nil {
			n = float64(info.Stats.Cols[c.Col].NDV)
		}
		if n < 1 {
			n = 1
		}
		if i == 0 {
			ndv = n
		} else {
			ndv *= math.Sqrt(n)
		}
	}
	return ndv
}

func (s *search) hashJoinCand(c1, c2 cand, m1, m2 uint32, lcols, rcols []sql.QCol) (cand, bool) {
	r1, r2 := c1.est.Rows, c2.est.Rows
	var rowsOut float64
	if len(lcols) == 0 {
		rowsOut = r1 * r2 // cross join
	} else {
		ndv := math.Max(s.joinKeyNDV(lcols), s.joinKeyNDV(rcols))
		maxSide := math.Max(math.Max(r1, r2), 1)
		if ndv > maxSide {
			ndv = maxSide
		}
		rowsOut = r1 * r2 / math.Max(ndv, 1)
	}

	// Build on the smaller side.
	build, probe := c1, c2
	bMask, pMask := m1, m2
	bKeys, pKeys := lcols, rcols
	if r2 < r1 {
		build, probe = c2, c1
		bMask, pMask = m2, m1
		bKeys, pKeys = rcols, lcols
	}
	buildOffsets := make([]int, len(bKeys))
	probeOffsets := make([]int, len(pKeys))
	for i := range bKeys {
		buildOffsets[i] = s.layout.Offset(bKeys[i])
		probeOffsets[i] = s.layout.Offset(pKeys[i])
	}
	width := s.rowWidthOf(bMask)

	est := plan.Est{Rows: rowsOut}
	est.Meter.Add(build.est.Meter)
	est.Meter.Add(probe.est.Meter)
	est.Meter.CPUOps += ceilI(build.est.Rows) + ceilI(probe.est.Rows)
	if len(bKeys) == 0 {
		est.Meter.CPUOps += ceilI(rowsOut) // nested cross product work
	}
	// GRACE-style spill: both sides partitioned to disk and re-read.
	s.phys.Model.Spill(&est.Meter, s.phys.Mem,
		int64(build.est.Rows)*int64(width), int64(probe.est.Rows)*int64(s.rowWidthOf(pMask)))
	est.Seconds = s.phys.Model.Seconds(&est.Meter)

	node := &plan.HashJoin{
		Build: build.node, Probe: probe.node,
		BuildKeys: buildOffsets, ProbeKeys: probeOffsets,
		BuildWidth: width, Est: est,
	}
	return cand{node: node, est: est}, true
}

// indexJoinCands builds index-nested-loop candidates joining the outer
// subplan to inner table t2 through each usable index.
func (s *search) indexJoinCands(outer cand, outerMask uint32, t2 int, lcols, rcols []sql.QCol) []cand {
	info := s.phys.TableAt(t2, s.q.Tables[t2].Table.Name)
	if info == nil {
		return nil
	}
	ixs := sortedIndexes(s.phys.IndexesAt(t2, info.Table.Name))
	out := make([]cand, 0, len(ixs))
	sels := s.sels[t2]
	ins := s.ins[t2]
	for _, ix := range ixs {
		consumedSel := make(map[int]bool)
		consumedJoin := make(map[int]bool)
		binds := make([]plan.KeyBind, 0, len(ix.Cols))
		joinBinds := 0
		for _, col := range ix.Cols {
			bound := false
			for i, p := range sels {
				if !consumedSel[i] && p.Col.Col == col && p.Op == "=" {
					v := p.Value
					binds = append(binds, plan.KeyBind{Const: &v})
					consumedSel[i] = true
					bound = true
					break
				}
			}
			if !bound {
				for i := range lcols {
					if !consumedJoin[i] && rcols[i].Tab == t2 && rcols[i].Col == col {
						binds = append(binds, plan.KeyBind{OuterOffset: s.layout.Offset(lcols[i])})
						consumedJoin[i] = true
						joinBinds++
						bound = true
						break
					}
				}
			}
			if !bound {
				break
			}
		}
		if joinBinds == 0 {
			continue
		}
		k := len(binds)
		covering := s.covers(t2, ix)

		perProbe := s.indexMatchRows(info, ix, k, 1)
		probes := outer.est.Rows
		totalMatch := probes * perProbe

		node := &plan.IndexJoin{
			Outer: outer.node, Tab: t2, Info: info, Index: ix,
			Binds: binds, Covering: covering,
		}
		// Residual join predicates (columns are needed, hence present even
		// under a covering index).
		postSel := 1.0
		for i := range lcols {
			if consumedJoin[i] {
				continue
			}
			node.PostEq = append(node.PostEq, plan.EqPair{
				A: s.layout.Offset(lcols[i]), B: s.layout.Offset(rcols[i]),
			})
			nd := math.Max(s.joinKeyNDV(lcols[i:i+1]), s.joinKeyNDV(rcols[i:i+1]))
			postSel /= math.Max(nd, 1)
		}
		// Residual selections.
		resSel := 1.0
		for i, p := range sels {
			if consumedSel[i] {
				continue
			}
			node.Filters = append(node.Filters, plan.Filter{Offset: s.layout.Base[t2] + p.Col.Col, Op: p.Op, Value: p.Value})
			resSel *= s.selOf(info, p)
		}
		inSelAll := 1.0
		for _, ii := range ins {
			node.Ins = append(node.Ins, plan.InFilter{Offset: s.layout.Offset(s.q.Ins[ii].Col), SetID: ii})
			inSelAll *= s.inSel[ii]
		}

		est := plan.Est{Rows: totalMatch * postSel * resSel * inSelAll}
		est.Meter.Add(outer.est.Meter)
		am, _ := s.indexAccessMeter(info, ix, probes, totalMatch, covering, true, false)
		est.Meter.Add(am)
		est.Meter.CPUOps += ceilI(probes) * 2
		est.Meter.CPUOps += ceilI(totalMatch) * int64(len(node.Filters)+len(node.Ins)+len(node.PostEq))
		est.Seconds = s.phys.Model.Seconds(&est.Meter)
		node.Est = est
		out = append(out, cand{node: node, est: est})
	}
	return out
}
