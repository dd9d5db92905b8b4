package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"idl"
	"idl/internal/core"
	"idl/internal/federation"
	"idl/internal/object"
	"idl/internal/stocks"
)

// view-refresh: Figure 1's two-level mapping D_i → U → D_i' over three
// live federated members. One closed-loop integration job slides every
// member one day forward, syncs, and reads through the unified, the
// reconciled and the three customized views.

// checkEvery is how often (in cycles) the view answers are checked
// against the member windows.
const checkEvery = 8

// windowSource is a member database whose contents the benchmark
// replaces wholesale each cycle.
type windowSource struct {
	name string
	cur  atomic.Pointer[federation.MemorySource]
}

func newWindowSource(name string) *windowSource { return &windowSource{name: name} }

func (w *windowSource) set(db *object.Tuple) {
	w.cur.Store(federation.NewMemorySource(w.name, db))
}

func (w *windowSource) Name() string { return w.name }

func (w *windowSource) Relations(ctx context.Context) ([]string, error) {
	return w.cur.Load().Relations(ctx)
}

func (w *windowSource) Scan(ctx context.Context, rel string, yield func(object.Object) bool) error {
	return w.cur.Load().Scan(ctx, rel, yield)
}

func (w *windowSource) Attributes(ctx context.Context, rel string) ([]string, error) {
	return w.cur.Load().Attributes(ctx, rel)
}

// refreshEnv is one set-up of view-refresh.
type refreshEnv struct {
	ds      *stocks.Dataset
	db      *idl.DB
	members [3]*windowSource // euter, chwab, ource
	first   int              // first day of the current window
	r       *rng
}

func openRefresh(seed uint64) (*refreshEnv, error) {
	e := &refreshEnv{ds: refreshData(seed), db: idl.Open(), r: newRNG(seed, streamReads)}
	e.db.EnableInsights(idl.InsightsConfig{SlowFactor: 4}) // as cmd/idld
	for i, name := range []string{"euter", "chwab", "ource"} {
		e.members[i] = newWindowSource(name)
	}
	e.slide(0)
	for _, m := range e.members {
		if err := e.db.Mount(m.name, m); err != nil {
			return nil, err
		}
	}
	rules := append(append(append([]string(nil), stocks.RulesUnified...), stocks.RulePnew), stocks.RulesCustomized...)
	if err := e.db.DefineViews(rules...); err != nil {
		return nil, err
	}
	// Warm-up: one full cycle's reads over the first window.
	if _, err := e.db.Sync(context.Background()); err != nil {
		return nil, err
	}
	for _, q := range refreshReads(e.r, e.ds, e.last()) {
		if _, err := e.db.QueryCtx(context.Background(), q); err != nil {
			return nil, fmt.Errorf("warm-up %q: %w", q, err)
		}
	}
	return e, nil
}

// slide installs window [first, first+windowDays) in every member.
func (e *refreshEnv) slide(first int) {
	e.first = first
	eu, ch, ou := window(e.ds, first)
	e.members[0].set(eu)
	e.members[1].set(ch)
	e.members[2].set(ou)
}

func (e *refreshEnv) last() object.Date { return e.ds.Dates[e.first+windowDays-1] }

// cycleResult is what one refresh cycle measured.
type cycleResult struct {
	refresh time.Duration
	reads   latencies
	failed  int
	ops     int
}

// cycle slides the members one day, syncs, and runs the cycle's reads.
// The refresh latency runs from the start of Sync to the first view
// answer. With tr set, spans cover the sync, the view materialization
// (forced before the first read), each facade read, and a parse/engine/
// render split of each read.
func (e *refreshEnv) cycle(n int, check bool, tr *tracer, rp *replay) (cycleResult, error) {
	ctx := context.Background()
	var res cycleResult
	e.slide(e.first + 1)
	reads := refreshReads(e.r, e.ds, e.last())
	req := int64(n)
	root := tr.newID()
	start := time.Now()
	if tr == nil {
		if _, err := e.db.Sync(ctx); err != nil {
			return res, err
		}
	} else {
		var err error
		tr.timed(root, req, "federation/sync", func() { _, err = e.db.Sync(ctx) })
		if err != nil {
			return res, err
		}
		tr.timed(root, req, "core.views/materialize", func() { _, err = e.db.Engine().EffectiveUniverse() })
		if err != nil {
			return res, err
		}
	}
	answers := make([]*idl.Result, len(reads))
	for i, q := range reads {
		t0 := time.Now()
		ans, err := e.db.QueryCtx(ctx, q)
		t1 := time.Now()
		tr.record(0, root, req, "idl/query", t0, t1)
		res.ops++
		if err != nil {
			res.failed++
			continue
		}
		answers[i] = ans
		if rp != nil {
			rp.observe(t1.Sub(t0), ans)
		}
		if i == 0 {
			res.refresh = t1.Sub(start)
		} else {
			res.reads = append(res.reads, t1.Sub(t0))
		}
	}
	if tr != nil {
		for _, q := range reads {
			if err := rp.split(ctx, e.db, q, tr, root, req); err != nil {
				return res, err
			}
		}
		tr.record(root, 0, req, "bench/cycle", start, time.Now())
	}
	if check && res.failed == 0 {
		if err := e.checkViews(answers); err != nil {
			fmt.Printf("# check failed at cycle %d: %v\n", n, err)
			res.failed++
		}
	}
	return res, nil
}

// checkViews checks the round trip D_i → U → D_i' on the cycle's full
// view scans (reads 0, 2, 3 and 4): dbE, dbC and dbO each hold exactly
// the quotes of the three member windows, and pnew holds one row per
// (date, stock) carrying the highest quote.
func (e *refreshEnv) checkViews(ans []*idl.Result) error {
	quotes := map[string]bool{}
	best := map[string]int{}
	for d := e.first; d < e.first+windowDays; d++ {
		date := e.ds.Dates[d]
		for s, code := range e.ds.Stocks {
			for _, p := range []int{e.ds.Price[s][d], e.ds.ChwabPrice[s][d]} {
				quotes[fmt.Sprintf("%s %s %d", date, code, p)] = true
				k := fmt.Sprintf("%s %s", date, code)
				best[k] = max(best[k], p)
			}
		}
	}
	for _, i := range []int{2, 3, 4} {
		got := rowSet(ans[i])
		if len(got) != len(quotes) {
			return fmt.Errorf("view read %d: %d quotes, members hold %d", i, len(got), len(quotes))
		}
		for k := range quotes {
			if !got[k] {
				return fmt.Errorf("view read %d: missing %s", i, k)
			}
		}
	}
	pnew := rowSet(ans[0])
	if len(pnew) != len(best) || ans[0].Len() != len(best) {
		return fmt.Errorf("pnew: %d rows for %d (date, stock) pairs", ans[0].Len(), len(best))
	}
	for k, p := range best {
		if !pnew[fmt.Sprintf("%s %d", k, p)] {
			return fmt.Errorf("pnew: %s does not carry the highest quote %d", k, p)
		}
	}
	return nil
}

// rowSet renders each (D, S, P) row as "date stock price".
func rowSet(a *idl.Result) map[string]bool {
	out := make(map[string]bool, a.Len())
	for _, r := range a.Rows {
		out[fmt.Sprintf("%s %s %s", r["D"], r["S"], r["P"])] = true
	}
	return out
}

func runRefresh(cfg config) (*report, error) {
	env, setup, err := setupMedian(func() (*refreshEnv, error) { return openRefresh(cfg.seed) }, func(*refreshEnv) {})
	if err != nil {
		return nil, err
	}
	rep := &report{e2e: metrics{}, layer: metrics{}, info: metrics{}}
	measured := time.Duration(cfg.seconds * float64(time.Second))
	var refresh, reads latencies
	n := 0
	// run cycles until the deadline; tr traces them.
	run := func(until time.Time, tr *tracer, rp *replay, each func()) (latencies, error) {
		var rd latencies
		for time.Now().Before(until) && env.first+1+windowDays <= len(env.ds.Dates) {
			n++
			c, err := env.cycle(n, n%checkEvery == 0, tr, rp)
			if err != nil {
				return nil, err
			}
			rep.attempted += c.ops
			rep.failed += c.failed
			refresh = append(refresh, c.refresh)
			rd = append(rd, c.reads...)
			if each != nil {
				each()
			}
		}
		return rd, nil
	}
	start := time.Now()
	if !cfg.trace {
		if reads, err = run(start.Add(measured), nil, nil, nil); err != nil {
			return nil, err
		}
		rep.e2e.set("setup_s", setup, "s", setupRounds)
		rep.e2e.setLatency("read_p50_ms", reads, 0.5)
		rep.e2e.setLatency("op_p50_ms", refresh, 0.5)
		rep.info.setTails("read", reads)
		rep.info.setLatency("refresh_p50_ms", refresh, 0.5)
		rep.info.setLatency("refresh_p90_ms", refresh, 0.9)
		rep.e2e.set("heap_inuse_mb", heapInuseMB(), "MB", 1)
		runtime.KeepAlive(env) // the heap figure is taken with the DB live
		return rep, nil
	}

	// Traced run: an untraced half, then a traced half.
	plain, err := run(start.Add(measured/2), nil, nil, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	rep.spans = tr
	cycles0, ops0 := n, rep.attempted
	var views []core.RecomputeStats
	rp := &replay{}
	pc0, ep0, rt0 := env.db.PlanCacheStats(), env.db.CatalogEpoch(), markRuntime()
	st0 := env.db.Stats()
	traced, err := run(start.Add(measured), tr, rp, func() { views = append(views, env.db.Engine().LastRecompute()) })
	if err != nil {
		return nil, err
	}
	rt1, pc1, ep1, st1 := markRuntime(), env.db.PlanCacheStats(), env.db.CatalogEpoch(), env.db.Stats()
	cycles, ops := n-cycles0, rep.attempted-ops0
	m := rep.layer
	m.setReplay(rp)
	m.setLatency("federation.sync_p50_ms", tr.byName("federation/sync", nil), 0.5)
	m.setLatency("core.views.materialize_p50_ms", tr.byName("core.views/materialize", nil), 0.5)
	m.setViews(views)
	// Every facade read syncs the members too; bumps count installs.
	m.set("catalog.epoch_bumps_per_op", ratio(float64(ep1-ep0), float64(ops+cycles)), "count", ops+cycles)
	m.setPlanCache(pc0, pc1)
	m.set("core.eval.index_builds", float64(st1.IndexBuilds-st0.IndexBuilds), "count", ops)
	m.setRuntime(rt0, rt1, ops)
	m.set("bench.trace_overhead_frac", ratio(traced.p(0.5), plain.p(0.5))-1, "ratio", len(traced))
	m.setSelfTimes(tr, cycles)
	return rep, nil
}

// setViews records the per-cycle view-materialization counters.
func (m metrics) setViews(views []core.RecomputeStats) {
	var it, runs, facts, incr float64
	for _, v := range views {
		it += float64(v.Iterations)
		runs += float64(v.RuleRuns)
		facts += float64(v.FactsDerived)
		if v.Incremental {
			incr++
		}
	}
	n := float64(len(views))
	m.set("core.views.iterations", ratio(it, n), "count", len(views))
	m.set("core.views.rule_runs", ratio(runs, n), "count", len(views))
	m.set("core.views.facts_derived", ratio(facts, n), "count", len(views))
	m.set("core.views.incremental_frac", ratio(incr, n), "ratio", len(views))
}
