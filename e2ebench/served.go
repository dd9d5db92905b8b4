package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"idl"
	"idl/internal/ast"
	"idl/internal/object"
	"idl/internal/parser"
	"idl/internal/server"
	"idl/internal/stocks"
)

// served-reads: the paper's query classes over all three schemas, served
// over loopback by internal/server with cmd/idld's defaults, open loop.

const (
	servedConns = 2 // connections and tenants; one each per CPU of a 2-CPU host
	// servedRate is the nominal open-loop rate, reads per second.
	servedRate = 300
	// servedP99Limit is the read_p99_ms a capacity-ladder step must meet.
	servedP99Limit = 20 * time.Millisecond
	// ladderStep is how long each capacity-ladder rate is offered.
	ladderStep = 400 * time.Millisecond
)

// servedEnv is one set-up of served-reads.
type servedEnv struct {
	ds     *stocks.Dataset
	pool   []pooledQuery
	expect []string // canonical embedded answer per pooled query
	// checks and wrong count the relational-algebra baseline checks.
	checks, wrong int
	db            *idl.DB
	srv           *served
	conns         []*server.Client
	prepared      [][]string // per connection: pooled query → prepared ID
}

func (e *servedEnv) close() {
	for _, c := range e.conns {
		c.HTTP.CloseIdleConnections()
	}
	if e.srv != nil {
		e.srv.close()
	}
}

// loadUniverse installs a generated dataset as the DB's base universe.
func loadUniverse(db *idl.DB, ds *stocks.Dataset) {
	ds.Populate(db.Engine().Base())
	db.Engine().Invalidate()
}

// openServed builds everything served-reads needs before its first timed
// read: data, the embedded reference answers (checked against the
// relational-algebra baselines), the served DB with idld's defaults, the
// listener, connections, prepared statements, and one warm-up pass.
func openServed(seed uint64) (*servedEnv, error) {
	ctx := context.Background()
	e := &servedEnv{ds: servedData(seed)}
	e.pool = servedPool(seed, e.ds)
	ref := idl.Open()
	loadUniverse(ref, e.ds)
	for _, q := range e.pool {
		ans, err := ref.QueryCtx(ctx, q.text)
		if err != nil {
			return nil, fmt.Errorf("reference %q: %w", q.text, err)
		}
		if q.baseline != "" {
			e.checks++
			if err := checkBaseline(ref.Engine().Base(), e.ds, q, ans); err != nil {
				fmt.Println("#", err)
				e.wrong++
			}
		}
		e.expect = append(e.expect, ans.String())
	}

	e.db = idl.Open()
	loadUniverse(e.db, e.ds)
	e.db.EnableInsights(idl.InsightsConfig{SlowFactor: 4}) // as cmd/idld
	var err error
	if e.srv, err = serve(server.New(e.db, server.Config{})); err != nil {
		return nil, err
	}
	e.prepared = make([][]string, servedConns)
	for c := 0; c < servedConns; c++ {
		e.conns = append(e.conns, newConn(e.srv.base, fmt.Sprintf("tenant%d", c+1)))
	}
	// The connections warm up side by side: set-up time is mostly wire
	// round trips, and one chain of them twice as long doubles what a
	// stall of the host costs set-up.
	errs := make([]error, servedConns)
	var wg sync.WaitGroup
	for c := range e.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			e.prepared[c], errs[c] = e.warm(ctx, c)
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// warm prepares every pooled statement on connection c and runs it once
// prepared; the ad hoc path, whose plans all sessions share, runs each
// statement once on one connection. Every answer is checked. It returns
// the connection's prepared IDs.
func (e *servedEnv) warm(ctx context.Context, c int) ([]string, error) {
	conn := e.conns[c]
	ids := make([]string, len(e.pool))
	for i, q := range e.pool {
		p, err := conn.Prepare(ctx, q.text)
		if err != nil {
			return nil, err
		}
		ids[i] = p.ID
		runs := []string{ids[i]}
		if i%servedConns == c {
			runs = append(runs, "")
		}
		for _, id := range runs {
			got, err := query(ctx, conn, q.text, id)
			if err != nil || got != e.expect[i] {
				return nil, fmt.Errorf("warm-up %q: wrong answer or %v", q.text, err)
			}
		}
	}
	return ids, nil
}

// runPhase offers reqs open loop at rate from start. A wrong answer is an
// error. tr, when set, records a root span per request.
func (e *servedEnv) runPhase(reqs []servedRequest, rate float64, tr *tracer, reqBase int64) []opResult {
	ctx := context.Background()
	return openLoop(time.Now(), rate, len(reqs), servedConns, func(c, i int, due time.Time) error {
		rq := reqs[i]
		id := ""
		if rq.prepared {
			id = e.prepared[c][rq.query]
		}
		var req, spanID int64
		if tr != nil {
			req, spanID = reqBase+int64(i), tr.newID()
		}
		got, err := query(withTraceIDs(ctx, req, spanID), e.conns[c], e.pool[rq.query].text, id)
		tr.record(spanID, 0, req, "bench/op", due, time.Now())
		if err == nil && got != e.expect[rq.query] {
			err = fmt.Errorf("wrong answer for %q", e.pool[rq.query].text)
		}
		return err
	})
}

func runServed(cfg config) (*report, error) {
	env, setup, err := setupMedian(func() (*servedEnv, error) { return openServed(cfg.seed) }, (*servedEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	rep := &report{e2e: metrics{}, layer: metrics{}, info: metrics{}, attempted: env.checks, failed: env.wrong}
	measured := time.Duration(cfg.seconds * float64(time.Second))
	stream := servedStream(cfg.seed, len(env.pool), int(servedRate*measured.Seconds()))
	count := func(res []opResult) loopStats {
		st := summarize(res)
		rep.attempted += len(res)
		rep.failed += st.failed
		return st
	}

	if !cfg.trace {
		// Two thirds of the time at the nominal rate, a third on the
		// capacity ladder.
		n := int(servedRate * measured.Seconds() * 2 / 3)
		res := env.runPhase(stream[:n], servedRate, nil, 0)
		st := count(res)
		// op_p50_ms is the prepared-statement path alone: its own sample,
		// a subset of read_p50_ms's.
		var prepared []opResult
		for i, r := range res {
			if stream[i].prepared {
				prepared = append(prepared, r)
			}
		}
		// The heap is taken before the ladder: the server's windowed
		// telemetry holds more samples the higher the ladder climbs.
		heap := heapInuseMB()
		capacity, steps := env.ladder(stream[n:], measured/3, count)
		rep.e2e.set("setup_s", setup, "s", setupRounds)
		rep.e2e.setLatency("read_p50_ms", st.lat, 0.5)
		rep.e2e.setLatency("op_p50_ms", summarize(prepared).lat, 0.5)
		rep.info.setTails("read", st.lat)
		rep.info.set("read_capacity_qps", capacity, "1/s", steps)
		rep.e2e.set("heap_inuse_mb", heap, "MB", 1)
		return rep, nil
	}

	// Traced run: an untraced third, a traced third with the handler
	// middleware on, then the traced third's requests replayed through
	// the facade, the parser and the engine on the same DB.
	n := int(servedRate * measured.Seconds() / 3)
	plain := count(env.runPhase(stream[:n], servedRate, nil, 0))
	tr := newTracer()
	rep.spans = tr
	env.srv.tr.Store(tr)
	pc0, st0, ep0, rt0 := env.db.PlanCacheStats(), env.db.Stats(), env.db.CatalogEpoch(), markRuntime()
	tracedRes := env.runPhase(stream[n:2*n], servedRate, tr, 1)
	rt1, pc1, st1, ep1 := markRuntime(), env.db.PlanCacheStats(), env.db.Stats(), env.db.CatalogEpoch()
	env.srv.tr.Store(nil)
	traced := count(tracedRes)
	m := rep.layer
	m.setLoop(traced, tracedRes, tr)
	m.set("server.shed_frac", ratio(float64(traced.shed), float64(len(tracedRes))), "ratio", len(tracedRes))
	m.set("server.inflight_max", float64(env.srv.maxInfl.Load()), "count", len(tracedRes))
	m.setPlanCache(pc0, pc1)
	m.set("catalog.epoch_bumps_per_op", ratio(float64(ep1-ep0), float64(n)), "count", n)
	m.set("core.eval.index_builds", float64(st1.IndexBuilds-st0.IndexBuilds), "count", n)
	m.setRuntime(rt0, rt1, n)
	texts := make([]string, n)
	for i, rq := range stream[n : 2*n] {
		texts[i] = env.pool[rq.query].text
	}
	// An empty plan cache makes the replay compile each distinct text
	// once, so core.plan.compile_us has samples; hits dominate the rest.
	env.db.ClearPlanCache()
	rp, err := replayReads(env.db, texts, tr, 1)
	if err != nil {
		return nil, err
	}
	m.setReplay(rp)
	m.set("bench.trace_overhead_frac", ratio(traced.lat.p(0.5), plain.lat.p(0.5))-1, "ratio", len(traced.lat))
	m.setSelfTimes(tr, n)
	return rep, nil
}

// ladder offers rising rates, ladderStep each, until a step misses the
// p99 limit or falls behind (achieved < 0.97 × offered), or the budget
// runs out. Steps grow by 25% until the first miss, then by 5% from the
// last rate met. It returns the highest rate met and the steps offered.
func (e *servedEnv) ladder(stream []servedRequest, budget time.Duration, count func([]opResult) loopStats) (float64, int) {
	deadline := time.Now().Add(budget)
	met, rate, growth := 0.0, float64(servedRate), 1.25
	steps, ops := 0, 0
	for time.Now().Add(ladderStep).Before(deadline) {
		reqs := make([]servedRequest, int(rate*ladderStep.Seconds()))
		for i := range reqs {
			reqs[i] = stream[(ops+i)%len(stream)] // the ladder cycles over the stream
		}
		st := count(e.runPhase(reqs, rate, nil, 0))
		ops += len(reqs)
		steps++
		ok := st.failed == 0 && st.achieved >= 0.97*rate && time.Duration(st.lat.p(0.99)*float64(time.Millisecond)) <= servedP99Limit
		switch {
		case ok:
			met = rate
			rate *= growth
		case growth > 1.05:
			growth = 1.05
			rate = met * growth
		default:
			return met, steps
		}
		if met == 0 {
			return 0, steps
		}
	}
	return met, steps
}

// setLoop records the driver's and the wire's split of one traced phase.
func (m metrics) setLoop(st loopStats, res []opResult, tr *tracer) {
	m.setLatency("bench.sched_lag_p99_ms", st.lag, 0.99)
	m.setLatency("bench.conn_wait_p50_ms", st.wait, 0.5)
	m.setWire(res, tr.byName("server/handler", nil))
}

// setWire records the handler's median time and the wire's: the median
// client round trip of res minus the median of handler, the handler spans
// of the same requests.
func (m metrics) setWire(res []opResult, handler latencies) {
	m.setLatency("server.handler_p50_ms", handler, 0.5)
	var rtt latencies
	for _, r := range res {
		rtt = append(rtt, r.done.Sub(r.picked))
	}
	m.set("server.wire_p50_ms", rtt.p(0.5)-handler.p(0.5), "ms", len(rtt))
}

// setPlanCache records the plan cache's hit fraction and evictions over
// a phase.
func (m metrics) setPlanCache(from, to idl.PlanCacheStats) {
	hits, misses := float64(to.Hits-from.Hits), float64(to.Misses-from.Misses)
	m.set("core.plan.hit_frac", ratio(hits, hits+misses), "ratio", int(hits+misses))
	m.set("core.plan.evictions", float64(to.Evictions-from.Evictions), "count", int(hits+misses))
}

// replay is the facade/parser/engine split of a stream of reads.
type replay struct {
	query, eval            latencies
	parse, render, compile []float64 // microseconds
	scanned, emitted       uint64
	probes, enums          uint64
	reads                  int
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// observe adds one facade read: its latency, resource record and plan
// compile time.
func (rp *replay) observe(d time.Duration, ans *idl.Result) {
	rp.query = append(rp.query, d)
	if ans.Plan != nil && ans.Plan.CompileNS > 0 {
		rp.compile = append(rp.compile, float64(ans.Plan.CompileNS)/1e3)
	}
	r := ans.Resources
	rp.scanned += r.RowsScanned
	rp.emitted += r.TuplesEmitted
	rp.probes += r.IndexProbes
	rp.enums += r.AttrEnums
	rp.reads++
}

// split parses text alone (parser/parse), evaluates the parsed AST on
// the engine directly (core.eval/query), and renders the answer
// (idl/render), each as a span under parent.
func (rp *replay) split(ctx context.Context, db *idl.DB, text string, tr *tracer, parent, req int64) error {
	var q *ast.Query
	var ans *idl.Result
	var err error
	rp.parse = append(rp.parse, us(tr.timed(parent, req, "parser/parse", func() { q, err = parser.ParseQuery(text) })))
	if err != nil {
		return err
	}
	rp.eval = append(rp.eval, tr.timed(parent, req, "core.eval/query", func() { ans, err = db.Engine().QueryCtx(ctx, q) }))
	if err != nil {
		return err
	}
	rp.render = append(rp.render, us(tr.timed(parent, req, "idl/render", func() { _ = ans.String() })))
	return nil
}

// replayReads runs each text through the facade (idl/query) and then
// splits it. Request IDs continue from reqBase so a replay joins its
// wire request.
func replayReads(db *idl.DB, texts []string, tr *tracer, reqBase int64) (*replay, error) {
	ctx := context.Background()
	rp := &replay{}
	for i, text := range texts {
		req := reqBase + int64(i)
		var ans *idl.Result
		var err error
		d := tr.timed(0, req, "idl/query", func() { ans, err = db.QueryCtx(ctx, text) })
		if err != nil {
			return nil, fmt.Errorf("replay %q: %w", text, err)
		}
		rp.observe(d, ans)
		if err := rp.split(ctx, db, text, tr, 0, req); err != nil {
			return nil, fmt.Errorf("replay %q: %w", text, err)
		}
	}
	return rp, nil
}

// setReplay records the facade/parser/engine split of a read replay.
func (m metrics) setReplay(rp *replay) {
	n := rp.reads
	m.setLatency("idl.query_p50_ms", rp.query, 0.5)
	m.set("idl.render_p50_us", quantile(rp.render, 0.5), "us", len(rp.render))
	m.set("parser.parse_p50_us", quantile(rp.parse, 0.5), "us", len(rp.parse))
	m.set("parser.parse_share", ratio(quantile(rp.parse, 0.5)/1e3, rp.query.p(0.5)), "ratio", len(rp.parse))
	m.set("core.plan.compile_us", quantile(rp.compile, 0.5), "us", len(rp.compile))
	m.setLatency("core.eval.p50_ms", rp.eval, 0.5)
	m.set("core.eval.rows_scanned_per_row", ratio(float64(rp.scanned), float64(rp.emitted)), "ratio", n)
	m.set("core.eval.index_probes_per_read", ratio(float64(rp.probes), float64(n)), "count", n)
	m.set("core.eval.attr_enums_per_read", ratio(float64(rp.enums), float64(n)), "count", n)
}

// checkBaseline compares an embedded answer with the relational-algebra
// plan for the same intention, where one exists. The chwab and ource
// highest-per-day plans keep one stock per day on a tie where IDL keeps
// every tied stock, so those compare the (date, price) pairs, and check
// that each plan winner is among the answer's rows.
func checkBaseline(u *object.Tuple, ds *stocks.Dataset, q pooledQuery, ans *idl.Result) error {
	var want []string
	var err error
	got := map[string]bool{}
	for _, r := range ans.Rows {
		if strings.HasPrefix(q.baseline, "any-") {
			got[r["S"].String()] = true
		} else {
			got[fmt.Sprintf("%s %s %s", r["D"], r["S"], r["P"])] = true
		}
	}
	switch q.baseline {
	case baseAnyEuter:
		want, err = stocks.AnyAboveEuter(u, q.threshold)
	case baseAnyChwab:
		want, err = stocks.AnyAboveChwab(u, ds.Stocks, q.threshold)
	case baseAnyOurce:
		want, err = stocks.AnyAboveOurce(u, ds.Stocks, q.threshold)
	case baseHighEuter, baseHighChwab, baseHighOurce:
		var ws []stocks.DayWinner
		switch q.baseline {
		case baseHighEuter:
			ws, err = stocks.HighestPerDayEuter(u)
		case baseHighChwab:
			ws, err = stocks.HighestPerDayChwab(u, ds.Stocks)
		default:
			ws, err = stocks.HighestPerDayOurce(u, ds.Stocks)
		}
		days := map[string]bool{}
		for _, w := range ws {
			if !got[fmt.Sprintf("%s %s %d", w.Date, w.Stock, w.Price)] {
				return fmt.Errorf("baseline %s: winner %s %s missing from %q", q.baseline, w.Date, w.Stock, q.text)
			}
			days[fmt.Sprintf("%s %d", w.Date, w.Price)] = true
		}
		for _, r := range ans.Rows {
			if !days[fmt.Sprintf("%s %s", r["D"], r["P"])] {
				return fmt.Errorf("baseline %s: %q row %s %s %s is not a day's highest", q.baseline, q.text, r["D"], r["S"], r["P"])
			}
		}
		return err
	case baseJoin:
		var ms []stocks.CrossMatch
		ms, err = stocks.CrossJoinChwabOurce(u, ds.Stocks)
		for _, c := range ms {
			want = append(want, fmt.Sprintf("%s %s %d", c.Date, c.Stock, c.Price))
		}
	}
	if err != nil {
		return fmt.Errorf("baseline %s: %w", q.baseline, err)
	}
	if len(want) != len(got) {
		return fmt.Errorf("baseline %s disagrees with %q: %d vs %d rows", q.baseline, q.text, len(got), len(want))
	}
	for _, k := range want {
		if !got[k] {
			return fmt.Errorf("baseline %s: %s missing from %q", q.baseline, k, q.text)
		}
	}
	return nil
}
