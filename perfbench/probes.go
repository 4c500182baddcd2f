package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/btree"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/val"
)

// The probes time one layer's public calls in isolation, on the
// workload's own engine and queries. They run only in traced runs.

// probeBudget is how long each probe repeats its calls.
const probeBudget = 300 * time.Millisecond

// scanProbe times full scans of a heap and returns ns per row.
func scanProbe(e *engine.Engine, table string) float64 {
	h := e.Heap(table)
	var rows int64
	t := time.Now()
	for time.Since(t) < probeBudget {
		var m cost.Meter
		h.Scan(&m, func(storage.RowID, val.Row) bool { return true })
		rows += m.Rows
	}
	return float64(time.Since(t).Nanoseconds()) / float64(rows)
}

// largestIndex returns the engine's built single-column (1C, not primary
// key) index with the most entries on the table.
func largestIndex(e *engine.Engine, table string) (*plan.IndexInfo, error) {
	var best *plan.IndexInfo
	for _, ix := range e.Indexes(table) {
		if ix.Tree != nil && !ix.Def.Auto && (best == nil || ix.Tree.Len() > best.Tree.Len()) {
			best = ix
		}
	}
	if best == nil {
		return nil, fmt.Errorf("no built index on %s", table)
	}
	return best, nil
}

// btreeProbe times SeekPrefix plus the first Next over the index's keys in
// seeded order, then New plus Insert of the same keys, and returns ns per
// seek and per insert.
func btreeProbe(ix *plan.IndexInfo, seed int64) (seekNS, insertNS float64, err error) {
	type entry struct {
		key val.Row
		rid int64
	}
	var keys []entry
	it := ix.Tree.Scan()
	for k, rid, ok := it.Next(); ok; k, rid, ok = it.Next() {
		keys = append(keys, entry{k.Clone(), rid})
	}
	if len(keys) == 0 {
		return 0, 0, fmt.Errorf("index %s is empty", ix.Def.Name())
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	var seeks int
	t := time.Now()
	for time.Since(t) < probeBudget {
		for _, k := range keys {
			if _, _, ok := ix.Tree.SeekPrefix(k.key).Next(); !ok {
				return 0, 0, fmt.Errorf("index %s: seek found no entry for a stored key", ix.Def.Name())
			}
		}
		seeks += len(keys)
	}
	seekNS = float64(time.Since(t).Nanoseconds()) / float64(seeks)

	var inserts int
	t = time.Now()
	for time.Since(t) < probeBudget {
		tr := btree.New(ix.Def.Unique)
		for _, k := range keys {
			if err := tr.Insert(k.key, k.rid); err != nil {
				return 0, 0, fmt.Errorf("index %s: rebuilding: %w", ix.Def.Name(), err)
			}
		}
		inserts += len(keys)
	}
	insertNS = float64(time.Since(t).Nanoseconds()) / float64(inserts)
	return seekNS, insertNS, nil
}

// frontEndProbe times ParseSelect plus Analyze, and optimizer.Optimize on
// the engine's current physical design, over the queries, and returns the
// median of each in microseconds.
func frontEndProbe(e *engine.Engine, queries []string) (parseUS, optimizeUS float64, err error) {
	var parse, opt []float64
	t := time.Now()
	for len(parse) == 0 || time.Since(t) < probeBudget {
		phys := e.Physical()
		for _, text := range queries {
			t0 := time.Now()
			stmt, err := sql.ParseSelect(text)
			if err != nil {
				return 0, 0, err
			}
			q, err := sql.Analyze(e.Schema, stmt)
			if err != nil {
				return 0, 0, err
			}
			t1 := time.Now()
			if _, err := optimizer.Optimize(phys, q, e.Profile.Opts); err != nil {
				return 0, 0, err
			}
			parse = append(parse, float64(t1.Sub(t0).Nanoseconds())/1e3)
			opt = append(opt, float64(time.Since(t1).Nanoseconds())/1e3)
		}
	}
	return median(parse), median(opt), nil
}

// storageAndBtree runs the scan and B+-tree probes on an NREF engine in
// 1C (for its single-column indexes) and records them.
func storageAndBtree(layer map[string]float64, e1C *engine.Engine, seed int64) error {
	layer["storage.scan_ns_per_row"] = scanProbe(e1C, "neighboring_seq")
	ix, err := largestIndex(e1C, "neighboring_seq")
	if err != nil {
		return err
	}
	seek, insert, err := btreeProbe(ix, seed)
	if err != nil {
		return err
	}
	layer["btree.seek_ns"], layer["btree.insert_ns"] = seek, insert
	return nil
}
