// Package cost provides the deterministic simulated clock used throughout
// the benchmark.
//
// The paper (SIGMOD 2005) measured wall-clock elapsed times of queries on
// 2005-era desktop machines against multi-gigabyte databases, with a
// 30-minute timeout per query. This reproduction executes queries for real,
// but over databases scaled down by a configurable factor; the executor
// counts the logical work it performs (sequential and random page reads,
// page writes for spills, per-row CPU operations) in a Meter, and a Model
// converts those counts into simulated seconds as if the database were at
// full scale on the paper's hardware.
//
// Because the conversion is a pure function of deterministic counters, every
// experiment in this repository is exactly reproducible, host-independent,
// and preserves the paper's time axis (sub-second to 30-minute-timeout).
package cost

import "fmt"

// Meter accumulates the logical work performed by an executor.
// The zero Meter is ready to use.
// The per-row/per-page counters (SeqPages..CPUOps) describe work that is
// proportional to data volume: when the database is scaled down by a
// factor, this work shrinks by the same factor, so the Model multiplies it
// back up. FixedRand and FixedSeq describe per-query constant work — an
// index descent for a constant-bound lookup costs the same few pages at
// any scale — and are billed unscaled.
type Meter struct {
	SeqPages  int64 // pages read sequentially (table or index leaf scans)
	RandPages int64 // pages read at random (per-row index probes, fetches)
	WritePage int64 // pages written (hash join / aggregation spills)
	Rows      int64 // rows processed by operators
	CPUOps    int64 // extra per-row CPU operations (hashing, comparisons)

	FixedRand int64 // random pages independent of data volume
	FixedSeq  int64 // sequential pages independent of data volume
}

// Add accumulates o into m.
func (m *Meter) Add(o Meter) {
	m.SeqPages += o.SeqPages
	m.RandPages += o.RandPages
	m.WritePage += o.WritePage
	m.Rows += o.Rows
	m.CPUOps += o.CPUOps
	m.FixedRand += o.FixedRand
	m.FixedSeq += o.FixedSeq
}

// Reset zeroes all counters.
func (m *Meter) Reset() { *m = Meter{} }

func (m *Meter) String() string {
	return fmt.Sprintf("seq=%d rand=%d write=%d rows=%d cpu=%d fixedRand=%d fixedSeq=%d",
		m.SeqPages, m.RandPages, m.WritePage, m.Rows, m.CPUOps, m.FixedRand, m.FixedSeq)
}

// Model converts Meter counts into simulated seconds.
//
// The default constants model a 2005 desktop with a single commodity disk:
// ~40 MB/s sequential bandwidth (a 4 KB page every 0.1 ms), ~5 ms average
// positioning time for a random page, and a CPU that spends on the order of
// a microsecond of work per row flowing through a query operator.
type Model struct {
	SeqPageSec   float64 // seconds per sequentially-read page
	RandPageSec  float64 // seconds per randomly-read page
	WritePageSec float64 // seconds per page written
	RowSec       float64 // seconds of CPU per row processed
	CPUOpSec     float64 // seconds per extra CPU operation

	// Scale is the inverse of the data scale factor: counters are
	// multiplied by Scale so that work on a 1/1000-scale database is
	// billed as if performed at full scale. Scale 0 is treated as 1.
	Scale float64
}

// Desktop2005 returns the calibrated default model (scale 1): ~40 MB/s
// sequential bandwidth, 5 ms random positioning, and a ~2 GHz CPU pushing
// roughly five million rows per second through a scan operator.
func Desktop2005() Model {
	return Model{
		SeqPageSec:   1.0e-4,
		RandPageSec:  5.0e-3,
		WritePageSec: 2.0e-4,
		RowSec:       2.0e-7,
		CPUOpSec:     5.0e-8,
		Scale:        1,
	}
}

// WithScale returns a copy of the model billing work at the given scale
// multiplier (the inverse of the data scale factor).
func (c Model) WithScale(scale float64) Model {
	c.Scale = scale
	return c
}

// Seconds returns the simulated elapsed seconds for the metered work.
//
// conflint:pure — pricing a meter must not touch the meter: every
// estimate path (what-if sessions included) prices concurrently.
func (c Model) Seconds(m *Meter) float64 {
	return c.scale()*(float64(m.SeqPages)*c.SeqPageSec+
		float64(m.RandPages)*c.RandPageSec+
		float64(m.WritePage)*c.WritePageSec+
		float64(m.Rows)*c.RowSec+
		float64(m.CPUOps)*c.CPUOpSec) +
		float64(m.FixedRand)*c.RandPageSec +
		float64(m.FixedSeq)*c.SeqPageSec
}

// scale is the counter multiplier, with Scale 0 read as 1.
//
// conflint:pure — arithmetic on the model.
func (c Model) scale() float64 {
	if c.Scale == 0 {
		return 1
	}
	return c.Scale
}

// Spill is the one spill rule, shared by the optimizer's estimates and
// the executor's actuals so that E(q,C) and A(q,C) differ only by
// cardinality. A hash table of buildBytes (counted at the data's scale)
// spills when its full-scale size, buildBytes times the model's scale,
// exceeds mem, the full-scale memory budget. A spill writes the table
// and the rows streamed against it (streamBytes; 0 when nothing streams)
// to disk once and reads them back once, billed to m as written and
// sequentially read pages.
func (c Model) Spill(m *Meter, mem, buildBytes, streamBytes int64) {
	if float64(buildBytes)*c.scale() <= float64(mem) {
		return
	}
	pg := PagesForBytes(buildBytes) + PagesForBytes(streamBytes)
	m.WritePage += pg
	m.SeqPages += pg
}

// PageSize is the logical page size, in bytes, used by the storage layer,
// index size model and the spill heuristics.
const PageSize = 4096

// PagesForBytes returns the number of PageSize pages needed for n bytes.
//
// conflint:pure — arithmetic shared by the size estimators.
func PagesForBytes(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return (n + PageSize - 1) / PageSize
}
