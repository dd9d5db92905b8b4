package idl

import (
	"context"
	"time"

	"idl/internal/ast"
	"idl/internal/insights"
	"idl/internal/qlog"
	"idl/internal/wal"
)

// stmt is one facade statement's record — a query, an update request
// or a program call — from begin to end. It carries the trace ID
// (minted once), one start clock, and the outcome the statement's
// sinks report: the flight-recorder op (event ring, log, journal) and
// the insights observation. A statement opens exactly one record and
// ends it exactly once.
type stmt struct {
	db    *DB
	q     *ast.Query // nil for a program call
	text  string     // canonical rendering, once rendered
	op    *qlog.Op
	ins   *insights.Store
	start time.Time
	o     insights.Observation
}

// begin opens a statement record of the given kind. It mints the trace
// ID when anything will consume one: the ID joins the statement's
// event, journal record, span tree, member fetches, WAL commits and
// slow-query exemplars. A ctx already carrying an ID (the wire server's
// X-Trace-Id adoption) keeps it. The returned ctx carries the IDs
// downstream. q is nil for a program call, whose text is set by
// setCall.
func (db *DB) begin(ctx context.Context, kind string, q *ast.Query) (context.Context, stmt) {
	r := stmt{db: db, q: q, op: db.rec.Begin(kind), ins: db.insights.Load()}
	tracer := db.engine.Tracer()
	if r.op != nil || tracer != nil || (r.ins != nil && r.ins.CaptureEnabled()) {
		r.o.TraceID = db.traceIDFor(ctx)
		r.op.SetTraceID(r.o.TraceID)
		if r.op == nil {
			ctx = qlog.WithTraceID(ctx, r.o.TraceID)
		} else if tracer != nil {
			// Tag the context with the op ID only when a tracer will
			// consume it: the tag upgrades a Background context into a
			// value-carrying one, which the evaluator then polls.
			ctx = r.op.Context(ctx)
		}
	}
	if r.ins != nil {
		if r.start = r.op.Start(); r.start.IsZero() {
			r.start = time.Now()
		}
		r.o.Kind = kind
		if q != nil {
			r.o.Fingerprint = ast.Fingerprint(q)
			r.o.Text = q.String
		}
	}
	if r.op != nil && q != nil {
		r.op.SetText(r.statementText())
		r.op.SetWorkers(db.engine.Workers())
	}
	return ctx, r
}

// setCall names a program call's record: calls have no query AST, so
// the digest key and the canonical text come from the call site.
func (r *stmt) setCall(namespace, name, text string) {
	r.text = text
	r.op.SetText(text)
	if r.ins != nil {
		r.o.Fingerprint = callFingerprint(namespace, name)
		r.o.Text = func() string { return text }
	}
}

// statementText renders the canonical statement once; the journal and
// the WAL payload share it.
func (r *stmt) statementText() string {
	if r.text == "" && r.q != nil {
		r.text = r.q.String()
	}
	return r.text
}

// answer collects a query's outcome. rep is the member sync's report
// (nil with nothing mounted); ans is nil when evaluation failed.
func (r *stmt) answer(ans *Result, rep *DegradedReport) {
	if ans != nil {
		r.o.Resources = insightsResources(ans.Resources)
	}
	if rep != nil {
		r.o.Resources.FedFetches = uint64(len(rep.Sources))
	}
	if ans == nil {
		return
	}
	if ans.Plan != nil {
		r.o.PlanCache = ans.Plan.Cache
		r.op.SetPlanCache(ans.Plan.Cache)
	}
	if d := ans.Degraded; d != nil {
		r.o.Degraded = true
		r.op.SetDegraded(d.String(), d.Skipped)
	}
	if r.op == nil {
		return
	}
	if r.op.Journaling() {
		// The journal carries the full canonical answer so replay can
		// byte-compare; the ring and log carry only the cardinality.
		r.op.SetAnswer(ans.String(), ans.Len())
	} else {
		r.op.SetRows(ans.Len())
	}
	if r.op.Logging() {
		if plan, err := r.db.engine.ExplainQuery(r.q); err == nil {
			r.op.SetPlanDigest(plan.String())
		}
	}
}

// exec collects an update request's or program call's outcome: its
// counters (info is nil when the request failed) and the payload bytes
// appended to the WAL (0 without a WAL or when the append failed).
func (r *stmt) exec(info *ExecInfo, walBytes int) {
	if info != nil {
		sum, changes := execSummary(info)
		r.op.SetExec(sum, changes)
		r.o.Resources = insightsResources(info.Resources)
	}
	r.o.Resources.WALBytes = uint64(walBytes)
}

// end closes the record: the flight-recorder op first, then the
// insights observation, so the journal record exists and the root span
// is filed before any slow-query exemplar goes looking for them.
func (r *stmt) end(err error) {
	r.op.End(err)
	if r.ins == nil {
		return
	}
	r.o.Duration = time.Since(r.start)
	r.o.Err = err != nil
	r.ins.Observe(r.o)
}

// commit is the shared mutation path of update requests and program
// calls. Updates are all-or-nothing, so the member sync is always
// fail-fast regardless of Options.BestEffort: an unreachable member
// aborts the request before any mutation. With a WAL, apply and append
// run under one lock so the log's record order is the apply order. A
// failed append poisons the log and surfaces here — the mutation is in
// memory but not durable, and no later mutation will be acknowledged
// either.
func (db *DB) commit(ctx context.Context, r *stmt, apply func(context.Context) (*ExecInfo, error)) (*ExecInfo, error) {
	if _, err := db.syncSources(ctx, false); err != nil {
		r.end(err)
		return nil, err
	}
	var info *ExecInfo
	var err error
	var walBytes int
	if db.wal != nil {
		db.walCommit.Lock()
		info, err = apply(ctx)
		if err == nil {
			// The record's canonical text is the redo payload.
			payload := r.statementText()
			if err = db.walAppendTraced(ctx, wal.TypeExec, []byte(payload)); err == nil {
				walBytes = len(payload)
			}
		}
		db.walCommit.Unlock()
	} else {
		info, err = apply(ctx)
	}
	r.exec(info, walBytes)
	r.end(err)
	return info, err
}
