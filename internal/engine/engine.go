// Package engine assembles the benchmark RDBMS: catalog, heap storage,
// B+-tree indexes, materialized views, statistics, the cost-based
// optimizer and the executor, behind a SQL front end.
//
// An Engine owns one database at one data scale factor and executes one
// configuration at a time (paper §2.1: the recommender changes the system
// from configuration Ci to Cj). It exposes the three cost measures of the
// paper's framework:
//
//	A(q, C)      Run        — actual simulated elapsed time
//	E(q, C)      Estimate   — optimizer estimate in the current config
//	H(q, Ch, Ca) WhatIf     — optimizer estimate for a hypothetical config
//	                          using statistics derived in the current one
package engine

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/conf"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/val"
)

// Profile parameterizes a simulated commercial system (paper Systems A, B
// and C differ in optimizer behavior and recommender strategy).
type Profile struct {
	Name string
	// Opts is the optimizer profile, including the what-if conservatism.
	Opts optimizer.Options
	// MemBytes is the full-scale memory budget for hash operations
	// (2005 desktops: ~256 MB of working memory).
	MemBytes int64
}

// Engine is one database instance under one configuration.
//
// The read path — Run, Estimate, Prepare, Physical and what-if estimation
// — is safe for concurrent use: readers share mu.RLock while
// configuration changes (ApplyConfig, Transition, Load, InsertRows,
// CollectStats) take the writer side and therefore observe no in-flight
// queries. Model is an exported field and is not guarded: callers that
// mutate it (the disk ablation) must hold exclusive use of the engine.
type Engine struct {
	Schema  *catalog.Schema
	Profile Profile

	// ScaleFactor is the fraction of the paper's full-scale row counts
	// actually stored; simulated time bills work as if at full scale.
	ScaleFactor float64
	Model       cost.Model

	// DisableWhatIfCache turns off the what-if relevance-keyed estimate
	// cache for sessions opened after it is set (the -whatif-cache=off
	// escape hatch). Like Model, it is not lock-guarded: set it right
	// after construction, before the engine is shared.
	DisableWhatIfCache bool

	heaps      map[string]*storage.Heap
	tableOrder []string

	// mu serializes configuration changes (writers) against query
	// execution and estimation (readers).
	mu sync.RWMutex

	// statsMu guards tstats on its own: the lazy collection in physical()
	// runs under mu.RLock, so map access needs a separate lock. It is
	// always innermost — nothing acquires mu while holding it.
	statsMu sync.Mutex
	tstats  map[string]*stats.TableStats // conflint:guardedby statsMu

	current conf.Configuration           // conflint:guardedby mu conflint:epoch
	indexes map[string][]*plan.IndexInfo // conflint:guardedby mu conflint:epoch (keyed by lower-case relation name)
	views   []*plan.ViewInfo             // conflint:guardedby mu conflint:epoch

	// configEpoch counts every change that can move an estimate:
	// configuration switches, data loads and statistics collection. Open
	// what-if sessions compare it against the epoch their caches were
	// derived in and flush on mismatch (invalidation on RUNSTATS and
	// Transition).
	configEpoch int64 // conflint:guardedby mu conflint:epochcounter
}

// New creates an empty engine for the schema at the given data scale
// factor (1.0 = the paper's full-size databases).
func New(schema *catalog.Schema, scaleFactor float64, profile Profile) *Engine {
	if scaleFactor <= 0 {
		scaleFactor = 1
	}
	e := &Engine{
		Schema:      schema,
		Profile:     profile,
		ScaleFactor: scaleFactor,
		Model:       cost.Desktop2005().WithScale(1 / scaleFactor),
		heaps:       make(map[string]*storage.Heap),
		tstats:      make(map[string]*stats.TableStats),
		indexes:     make(map[string][]*plan.IndexInfo),
	}
	for _, t := range schema.Tables() {
		e.heaps[strings.ToLower(t.Name)] = storage.NewHeap(t)
		e.tableOrder = append(e.tableOrder, t.Name)
	}
	return e
}

// Heap returns the heap of a base table.
func (e *Engine) Heap(table string) *storage.Heap {
	return e.heaps[strings.ToLower(table)]
}

// Load bulk-inserts rows into a base table without cost accounting
// (loading is not part of any measured experiment).
func (e *Engine) Load(table string, rows []val.Row) error {
	h := e.Heap(table)
	if h == nil {
		return fmt.Errorf("engine: unknown table %s", table)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.configEpoch++
	for _, r := range rows {
		if _, err := h.Insert(nil, r); err != nil {
			return err
		}
	}
	return nil
}

// CollectStats runs statistics collection on every base table (the
// paper directs systems to collect statistics before recommending and
// before running queries, §3.2.3).
func (e *Engine) CollectStats() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.configEpoch++
	for name, h := range e.heaps {
		ts := stats.Collect(h)
		e.statsMu.Lock()
		e.tstats[name] = ts
		e.statsMu.Unlock()
	}
}

// NoteTopologyChange records an estimate-moving change that happened
// outside this engine — resharding moves rows between partitions, so any
// H estimate cached against the old topology is stale. Open what-if
// sessions flush on the next estimate.
func (e *Engine) NoteTopologyChange() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.configEpoch++
}

// TableStats returns the collected statistics for a base table.
func (e *Engine) TableStats(table string) *stats.TableStats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.tstats[strings.ToLower(table)]
}

// statsFor returns the memoized statistics for a heap, collecting them
// lazily if the caller forgot. Safe under mu.RLock: duplicate collection
// is deterministic and the first stored result wins.
func (e *Engine) statsFor(name string, h *storage.Heap) *stats.TableStats {
	e.statsMu.Lock()
	ts := e.tstats[name]
	e.statsMu.Unlock()
	if ts != nil {
		return ts
	}
	ts = stats.Collect(h)
	e.statsMu.Lock()
	if cur := e.tstats[name]; cur != nil {
		ts = cur
	} else {
		e.tstats[name] = ts
	}
	e.statsMu.Unlock()
	return ts
}

// Current returns the active configuration.
func (e *Engine) Current() conf.Configuration {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.current
}

// Views returns the materialized views of the active configuration.
func (e *Engine) Views() []*plan.ViewInfo {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.views
}

// Indexes returns the built indexes on a relation.
func (e *Engine) Indexes(rel string) []*plan.IndexInfo {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.indexes[strings.ToLower(rel)]
}

// BuildReport summarizes applying a configuration (paper Table 1).
type BuildReport struct {
	Config conf.Configuration
	// Bytes is the total size of the database in the configuration:
	// base data plus indexes plus materialized views (full-scale bytes).
	Bytes int64
	// IndexBytes is the size of indexes and views beyond the base data.
	IndexBytes int64
	// BuildSeconds is the simulated time to build all indexes and views.
	BuildSeconds float64
	// ViewSeconds is the portion of BuildSeconds spent materializing
	// views. The sharded cluster needs the split: views stay global
	// (coordinator-serial) while index builds scale out with partitions.
	ViewSeconds float64
	// Built, Kept and Dropped count structures (indexes plus views)
	// constructed, carried over unchanged, and removed by the change —
	// the "index churn" an online tuner pays per transition. ApplyConfig
	// always rebuilds, so Kept is zero there; Transition reuses overlap.
	Built, Kept, Dropped int
}

// ApplyConfig drops the previous configuration's structures and builds the
// new configuration's indexes and materialized views, returning size and
// build-time figures.
func (e *Engine) ApplyConfig(c conf.Configuration) (BuildReport, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.configEpoch++
	dropped := len(e.views)
	for _, list := range e.indexes {
		dropped += len(list)
	}
	e.indexes = make(map[string][]*plan.IndexInfo)
	e.views = nil
	e.current = c.Clone()

	var meter, viewMeter cost.Meter
	var extraBytes int64

	// Views first: view indexes may reference them.
	for _, vd := range c.Views {
		vi, m, err := e.buildView(vd)
		if err != nil {
			return BuildReport{}, fmt.Errorf("engine: building %s: %w", vd.Name, err)
		}
		meter.Add(m)
		viewMeter.Add(m)
		e.views = append(e.views, vi)
		extraBytes += int64(float64(vi.Heap.Bytes()) / e.ScaleFactor)
	}

	for _, d := range c.Indexes {
		ix, m, err := e.buildIndex(d)
		if err != nil {
			return BuildReport{}, fmt.Errorf("engine: building %s: %w", d.Name(), err)
		}
		meter.Add(m)
		key := strings.ToLower(d.Table)
		e.indexes[key] = append(e.indexes[key], ix)
		extraBytes += ix.Bytes
	}
	for _, list := range e.indexes {
		plan.SortIndexes(list)
	}

	rep := BuildReport{
		Config:       e.current,
		IndexBytes:   extraBytes,
		Bytes:        e.baseBytes() + extraBytes,
		BuildSeconds: e.Model.Seconds(&meter),
		ViewSeconds:  e.Model.Seconds(&viewMeter),
		Built:        len(c.Views) + len(c.Indexes),
		Dropped:      dropped,
	}
	return rep, nil
}

func (e *Engine) baseBytes() int64 {
	var b int64
	for _, h := range e.heaps {
		b += int64(float64(h.Bytes()) / e.ScaleFactor)
	}
	return b
}

// relationSchema resolves a relation name to its schema (base table or
// materialized view) plus the heap and a view pointer when applicable.
func (e *Engine) relationSchema(name string) (*catalog.Table, *storage.Heap, *plan.ViewInfo, error) {
	if t := e.Schema.Table(name); t != nil {
		return t, e.Heap(name), nil, nil
	}
	for _, v := range e.views {
		if strings.EqualFold(v.Def.Name, name) {
			return v.Table, v.Heap, v, nil
		}
	}
	return nil, nil, nil, fmt.Errorf("engine: unknown relation %s", name)
}

// buildIndex constructs a B+-tree for the definition and measures its
// (sort-based) build cost: one scan of the relation, a sort of the
// entries, and a sequential write of the leaves.
func (e *Engine) buildIndex(d conf.IndexDef) (*plan.IndexInfo, cost.Meter, error) {
	tab, heap, _, err := e.relationSchema(d.Table)
	if err != nil {
		return nil, cost.Meter{}, err
	}
	cols := make([]int, len(d.Columns))
	for i, cn := range d.Columns {
		ci := tab.ColumnIndex(cn)
		if ci < 0 {
			return nil, cost.Meter{}, fmt.Errorf("no column %s in %s", cn, d.Table)
		}
		cols[i] = ci
	}

	tree := btree.New(false) // PK uniqueness is enforced by generators
	var insertErr error
	heap.Scan(nil, func(id storage.RowID, r val.Row) bool {
		key := r.Project(cols)
		if err := tree.Insert(key, int64(id)); err != nil {
			insertErr = err
			return false
		}
		return true
	})
	if insertErr != nil {
		return nil, cost.Meter{}, insertErr
	}

	ix := &plan.IndexInfo{
		Def:            d,
		Cols:           cols,
		Tree:           tree,
		Height:         tree.Height(),
		LeafPages:      tree.LeafPages(),
		EntriesPerLeaf: tree.EntriesPerLeafPage(),
		Bytes:          int64(float64(tree.Bytes()) / e.ScaleFactor),
		KeyNDV:         measureKeyNDV(tree, len(cols)),
	}

	n := float64(tree.Len())
	var m cost.Meter
	m.SeqPages = heap.Pages()
	m.WritePage = tree.LeafPages()
	if n > 1 {
		m.CPUOps = int64(n * math.Log2(n))
	}
	return ix, m, nil
}

// measureKeyNDV walks the tree in key order counting distinct prefixes of
// every length — the exact statistics a built index provides and a
// hypothetical one can only approximate.
func measureKeyNDV(tree *btree.Tree, width int) []int64 {
	ndv := make([]int64, width)
	prev := make(val.Row, 0, width)
	it := tree.Scan()
	for {
		k, _, ok := it.Next()
		if !ok {
			break
		}
		changed := len(prev) == 0
		for i := 0; i < width; i++ {
			if !changed && val.Compare(prev[i], k[i]) != 0 {
				changed = true
			}
			if changed {
				ndv[i]++
			}
		}
		prev = append(prev[:0], k...)
	}
	return ndv
}

// buildView materializes the view by executing its defining query and
// collecting statistics over the result.
func (e *Engine) buildView(vd conf.ViewDef) (*plan.ViewInfo, cost.Meter, error) {
	stmt, err := sql.ParseSelect(vd.SQL)
	if err != nil {
		return nil, cost.Meter{}, err
	}
	q, err := sql.Analyze(e.Schema, stmt)
	if err != nil {
		return nil, cost.Meter{}, err
	}
	if len(q.GroupBy) > 0 || len(q.Aggs) > 0 {
		return nil, cost.Meter{}, fmt.Errorf("view %s: only projection views are supported", vd.Name)
	}

	// Plan against the base configuration (no secondary structures are
	// assumed during the build).
	phys := e.physical(optimizer.Options{NoViews: true})
	p, err := optimizer.Optimize(phys, q, optimizer.Options{NoViews: true})
	if err != nil {
		return nil, cost.Meter{}, err
	}
	ctx := &exec.Ctx{Model: e.Model}
	res, err := exec.Run(p, ctx)
	if err != nil {
		return nil, cost.Meter{}, err
	}

	// Synthesize the view's schema from its output columns.
	cols := make([]catalog.Column, len(q.Out))
	outSrc := make([]sql.QCol, len(q.Out))
	for i, o := range q.Out {
		src := q.Tables[o.Col.Tab].Table.Columns[o.Col.Col]
		cols[i] = catalog.Column{
			Name:      "c" + strconv.Itoa(i),
			Type:      src.Type,
			Domain:    src.Domain,
			Indexable: src.Indexable,
			AvgWidth:  src.AvgWidth,
		}
		outSrc[i] = o.Col
	}
	vt, err := catalog.NewTable(vd.Name, cols, nil)
	if err != nil {
		return nil, cost.Meter{}, err
	}
	heap := storage.NewHeap(vt)
	for _, r := range res.Rows {
		if _, err := heap.Insert(nil, r); err != nil {
			return nil, cost.Meter{}, err
		}
	}
	// Build cost: the defining query's execution plus writing the result.
	m := ctx.Meter
	m.WritePage += heap.Pages()

	vi := &plan.ViewInfo{
		Def:    vd,
		Query:  q,
		Table:  vt,
		Heap:   heap,
		Stats:  stats.Collect(heap),
		OutSrc: outSrc,
	}
	return vi, m, nil
}

// physical assembles the Physical description of the current state.
func (e *Engine) physical(_ optimizer.Options) *plan.Physical {
	phys := &plan.Physical{
		Schema:  e.Schema,
		Tables:  make(map[string]*plan.TableInfo),
		Views:   e.views,
		Indexes: e.indexes,
		Mem:     e.Profile.MemBytes,
		Model:   e.Model,
	}
	for name, h := range e.heaps {
		phys.Tables[name] = &plan.TableInfo{Table: h.Table, Heap: h, Stats: e.statsFor(name, h)}
	}
	return phys
}

// Physical exposes the current physical design (for the recommenders).
func (e *Engine) Physical() *plan.Physical {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.physical(e.Profile.Opts)
}

// Measure is one observed or estimated query cost.
type Measure struct {
	SQL      string
	Seconds  float64
	TimedOut bool
	Meter    cost.Meter
}

// Prepare parses, analyzes and optimizes a query under the current
// configuration.
func (e *Engine) Prepare(sqlText string) (*plan.Plan, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.prepare(sqlText)
}

// prepare is Prepare without locking; the caller holds mu.
func (e *Engine) prepare(sqlText string) (*plan.Plan, error) {
	stmt, err := sql.ParseSelect(sqlText)
	if err != nil {
		return nil, err
	}
	q, err := sql.Analyze(e.Schema, stmt)
	if err != nil {
		return nil, err
	}
	return optimizer.Optimize(e.physical(e.Profile.Opts), q, e.Profile.Opts)
}

// Run executes the query under the current configuration with the given
// simulated-time limit (0 = no limit), returning the result rows (nil on
// timeout) and the measured cost A(q, C).
func (e *Engine) Run(sqlText string, limitSeconds float64) (*exec.Result, Measure, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	p, err := e.prepare(sqlText)
	if err != nil {
		return nil, Measure{}, err
	}
	return e.execPlan(p, sqlText, limitSeconds)
}

// RunAnalyzed executes an already-analyzed query under the current
// configuration. This is the gateway's serving path: the request pipeline
// parses and analyzes once for authorization and must not pay the SQL
// front end a second time per request. The query must have been analyzed
// against this engine's schema.
func (e *Engine) RunAnalyzed(q *sql.Query, limitSeconds float64) (*exec.Result, Measure, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	p, err := optimizer.Optimize(e.physical(e.Profile.Opts), q, e.Profile.Opts)
	if err != nil {
		return nil, Measure{}, err
	}
	return e.execPlan(p, q.SQL(), limitSeconds)
}

// execPlan runs an optimized plan and folds the execution into a Measure.
// The caller holds mu.RLock.
func (e *Engine) execPlan(p *plan.Plan, sqlText string, limitSeconds float64) (*exec.Result, Measure, error) {
	ctx := &exec.Ctx{Model: e.Model, LimitSeconds: limitSeconds}
	res, runErr := exec.Run(p, ctx)
	m := Measure{SQL: sqlText, Seconds: ctx.Seconds(), Meter: ctx.Meter}
	if runErr != nil {
		if runErr == exec.ErrTimeout {
			m.TimedOut = true
			m.Seconds = limitSeconds
			return nil, m, nil
		}
		return nil, Measure{}, runErr
	}
	if limitSeconds > 0 && m.Seconds > limitSeconds {
		// Work billed at operator boundaries may overshoot the limit.
		m.TimedOut = true
		m.Seconds = limitSeconds
	}
	return res, m, nil
}

// Estimate returns the optimizer's estimated cost E(q, C) of the query in
// the current configuration.
func (e *Engine) Estimate(sqlText string) (Measure, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	p, err := e.prepare(sqlText)
	if err != nil {
		return Measure{}, err
	}
	return Measure{SQL: sqlText, Seconds: p.Est.Seconds, Meter: p.Est.Meter}, nil
}
