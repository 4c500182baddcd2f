package gateway

import (
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/sql"
)

// job is one admitted query riding a tenant queue: parsed and authorized
// by the handler, executed by a pump, answered over reply.
type job struct {
	seq     int64
	tenant  *tenantState
	family  string
	sqlText string
	q       *sql.Query

	// reply carries the execution outcome back to the waiting handler.
	// Buffered: the pump never blocks on a slow (or gone) client.
	reply chan jobResult
}

type jobResult struct {
	res *exec.Result
	m   engine.Measure
	err error
}

// pump drains one tenant's admission queue. Each tenant runs
// MaxConcurrency pumps, so the queue's fan-out is the tenant's
// concurrency cap; the global gate bounds engine load across tenants.
// Pumps exit when Shutdown closes the queue after the drain completes.
//
// conflint:hotpath — every admitted query flows through this loop.
func (g *Gateway) pump(t *tenantState) {
	defer g.pumpWG.Done()
	for j := range t.queue {
		g.gate <- struct{}{} // conflint:ignore bounded semaphore acquire: gate capacity is the global concurrency cap and every slot is released below
		g.inflight.Add(1)
		res, m, err := g.run(j.q, g.cfg.TimeoutSeconds)
		g.inflight.Add(-1)
		<-g.gate // conflint:ignore paired release of the slot acquired above; receives from a non-empty buffered channel
		g.finish(j, res, m, err)
	}
}

// finish closes out one admitted query: audit record first, then the
// tenant's accounting, then the control loop's nudge and autoscale
// window, then the reply, and the drain ticket last — so by the time
// Shutdown's drain wait returns, every accepted query has its completion
// on the audit log (the zero-dropped-after-accept contract).
func (g *Gateway) finish(j *job, res *exec.Result, m engine.Measure, err error) {
	rec := AuditRecord{
		Seq:      j.seq,
		Tenant:   j.tenant.cfg.Name,
		Family:   j.family,
		Decision: DecisionAccept,
		Status:   200,
		SQLHash:  hashSQL(j.sqlText),
	}
	if err != nil {
		rec.Status = 500
		rec.Reason = "execution-error"
	} else {
		rec.SimSeconds = m.Seconds
		rec.TimedOut = m.TimedOut
		if res != nil {
			rec.Rows = len(res.Rows)
		}
	}
	g.audit.add(rec)
	violated := j.tenant.noteFinished(j.family, j.sqlText, m.Seconds, m.TimedOut, err != nil)
	if c := g.ctrlP.Load(); c != nil {
		if violated && c.tuner != nil {
			c.nudgeTuner()
		}
		if c.scale != nil {
			c.observe(m.Seconds, m.TimedOut, err != nil)
		}
	}
	j.reply <- jobResult{res: res, m: m, err: err} // conflint:ignore reply is buffered (cap 1) with exactly one send per job, so this never blocks
	g.drainWG.Done()
}

// admit places a parsed, authorized query on its tenant's queue. It
// returns the job to wait on, or a rejection reason. The drain ticket is
// taken under the accept lock — Shutdown flips draining under the write
// lock, so every ticket is either counted by the drain wait or never
// issued; there is no window where an accepted query can be dropped.
func (g *Gateway) admit(t *tenantState, seq int64, family, sqlText string, q *sql.Query) (*job, string) {
	j := &job{
		seq:     seq,
		tenant:  t,
		family:  family,
		sqlText: sqlText,
		q:       q,
		reply:   make(chan jobResult, 1),
	}
	g.acceptMu.RLock()
	defer g.acceptMu.RUnlock()
	if g.draining {
		return nil, ReasonDraining
	}
	g.drainWG.Add(1)
	select {
	case t.queue <- j:
		t.noteAdmitted(family)
		return j, ""
	default:
		g.drainWG.Done()
		return nil, ReasonQueueFull
	}
}
