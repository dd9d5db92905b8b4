package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"idl/internal/ast"
	"idl/internal/object"
)

// Compiled query plans (DESIGN.md §11). A plan is the reusable half of a
// query evaluation: the per-conjunct safety analysis (consumed-variable
// lists), the cost-based conjunct ranks derived from catalog statistics,
// the answer-variable signature, and the set of universe objects the
// ranking touched (the plan's dependencies). Plans carry no data — the
// evaluator always reads the live effective universe — so a cached plan
// can never produce a wrong answer; dependencies exist to keep the ranks
// (and therefore the enumeration order) byte-identical to what a fresh
// compilation would produce.

// costHuge ranks a conjunct whose enumeration is data-dependent in a way
// statistics cannot bound (a higher-order database or relation variable):
// it runs after every estimable conjunct that is runnable alongside it.
const costHuge = 1e18

// bodyAnalysis is the execution-relevant analysis of one tuple-expression
// body: consumed-variable lists for every nested tuple expression
// (safety), and cost ranks for the tuple expressions that schedule
// cost-based — the top-level body only; nested conjunct lists keep source
// order. Both maps are complete for the analyzed body, so evaluators
// (including parallel workers) share them read-only.
type bodyAnalysis struct {
	consumed map[*ast.TupleExpr][][]string
	ranks    map[*ast.TupleExpr][]float64
}

// collectConsumed precomputes the consumed-variable lists of every tuple
// expression nested anywhere in e (the analysis is environment
// independent, so it is computed once per compilation instead of once per
// evaluation).
func collectConsumed(e ast.Expr, out map[*ast.TupleExpr][][]string) {
	switch x := e.(type) {
	case *ast.Not:
		collectConsumed(x.X, out)
	case *ast.AttrExpr:
		collectConsumed(x.Expr, out)
	case *ast.SetExpr:
		collectConsumed(x.X, out)
	case *ast.TupleExpr:
		lists := make([][]string, len(x.Conjuncts))
		for i, c := range x.Conjuncts {
			lists[i] = consumedVars(c)
			collectConsumed(c, out)
		}
		out[x] = lists
	}
}

// consumedMap returns the complete consumed-variable analysis of a body.
func consumedMap(body *ast.TupleExpr) map[*ast.TupleExpr][][]string {
	out := make(map[*ast.TupleExpr][][]string)
	collectConsumed(body, out)
	return out
}

// analyzeBody computes the full execution analysis of a body against the
// given effective universe: consumed lists plus cost ranks for the
// top-level conjuncts. consumed may be nil (computed here) or a
// precomputed map shared with the caller (rule bodies reuse theirs across
// materializations). Safe without e.mu when eff is an immutable snapshot
// (statistics live in a concurrent memo).
func (e *Engine) analyzeBody(body *ast.TupleExpr, eff *object.Tuple, consumed map[*ast.TupleExpr][][]string) *bodyAnalysis {
	if consumed == nil {
		consumed = consumedMap(body)
	}
	ranks := make([]float64, len(body.Conjuncts))
	for i, c := range body.Conjuncts {
		ranks[i] = e.estimateConjunct(c, eff, nil)
	}
	return &bodyAnalysis{
		consumed: consumed,
		ranks:    map[*ast.TupleExpr][]float64{body: ranks},
	}
}

// planDep records one universe object the rank computation resolved: the
// navigation path (database, optional relation) and the object it reached
// — nil when the path resolved to nothing. A plan stays valid while every
// dep re-resolves to the same object (same set version); then a fresh
// compilation would reproduce the same ranks, so the cached plan's
// enumeration order is byte-identical to cold compilation.
type planDep struct {
	db, rel string
	obj     object.Object // resolved object; nil = absent
	version uint64        // set version when obj is a *object.Set
}

// queryPlan is a compiled query: its own AST (cache hits execute the
// plan's AST, so every evaluation of one plan walks identical pointers),
// the answer-variable signature, the body analysis, per-conjunct row
// estimates, and the dependency set with the engine epoch at which it was
// last validated.
type queryPlan struct {
	key       planKey
	q         *ast.Query
	vars      []string
	an        *bodyAnalysis
	deps      []planDep
	epoch     uint64
	compileNS int64
}

// PlanInfo reports how an answer's plan was obtained; attached to Answer
// by QueryCtx so the facade and query log can surface cache behavior.
type PlanInfo struct {
	// Cache is "hit" (epoch unchanged), "stale" (deps revalidated after
	// an epoch bump), "miss" (compiled and cached), or "cold" (compiled,
	// caching disabled). Empty for interpreted/unscheduled evaluation.
	Cache string
	// CompileNS is the compile time in nanoseconds when this call
	// compiled a plan; 0 on cache hits.
	CompileNS int64
}

// compilePlan builds a plan for q against the given effective universe,
// stamped at the given epoch. Safe without e.mu when eff is an immutable
// snapshot.
func (e *Engine) compilePlan(q *ast.Query, eff *object.Tuple, key planKey, epoch uint64, em *engineMetrics) *queryPlan {
	start := time.Now()
	consumed := consumedMap(q.Body)
	var deps []planDep
	ranks := make([]float64, len(q.Body.Conjuncts))
	for i, c := range q.Body.Conjuncts {
		ranks[i] = e.estimateConjunct(c, eff, &deps)
	}
	pl := &queryPlan{
		key:  key,
		q:    q,
		vars: ast.PositiveVars(q.Body),
		an: &bodyAnalysis{
			consumed: consumed,
			ranks:    map[*ast.TupleExpr][]float64{q.Body: ranks},
		},
		deps:  deps,
		epoch: epoch,
	}
	pl.compileNS = time.Since(start).Nanoseconds()
	if em != nil {
		em.planCompile.Observe(time.Duration(pl.compileNS))
	}
	return pl
}

// validatePlan re-resolves every dependency against the current effective
// universe: pointer-identical objects (and unchanged set versions) mean a
// fresh compilation would produce the same ranks, so the plan may be
// reused across the epoch bump.
func (e *Engine) validatePlan(pl *queryPlan, eff *object.Tuple) bool {
	for _, d := range pl.deps {
		var cur object.Object
		obj, has := eff.Get(d.db)
		if has && d.rel == "" {
			cur = obj
		} else if has {
			if dbt, ok := obj.(*object.Tuple); ok {
				cur, _ = dbt.Get(d.rel)
			}
		}
		if cur != d.obj {
			return false
		}
		if set, ok := cur.(*object.Set); ok && set.Version() != d.version {
			return false
		}
	}
	return true
}

// planFor returns a plan for q, consulting the fingerprint-keyed cache
// unless caching is disabled, plus how it was obtained (cache outcome
// "hit", "stale", "miss" or "cold", and the compile time when this call
// compiled). eff must be immutable for the duration of the call — a
// pinned MVCC snapshot. The cache itself is guarded by e.planMu, not
// e.mu, so concurrent readers share one cache without contending on the
// engine mutex.
func (e *Engine) planFor(q *ast.Query, eff *object.Tuple, epoch uint64, opts Options, em *engineMetrics) (*queryPlan, *PlanInfo) {
	key := planKey{fp: ast.Fingerprint(q), useIndex: opts.UseIndex}
	compiled := func(state string) (*queryPlan, *PlanInfo) {
		pl := e.compilePlan(q, eff, key, epoch, em)
		return pl, &PlanInfo{Cache: state, CompileNS: pl.compileNS}
	}
	if opts.NoPlanCache {
		return compiled("cold")
	}
	e.planMu.Lock()
	defer e.planMu.Unlock()
	if pl := e.plans.get(key); pl != nil {
		if pl.epoch == epoch {
			e.planHits++
			if em != nil {
				em.planCacheHit.Inc()
			}
			return pl, &PlanInfo{Cache: "hit"}
		}
		if e.validatePlan(pl, eff) {
			// Epoch moved but every dependency is unchanged: the change
			// was elsewhere in the universe. Re-stamp — upward only, so a
			// reader pinned to an older snapshot never drags a fresher
			// plan's stamp backwards — and reuse.
			if epoch > pl.epoch {
				pl.epoch = epoch
			}
			e.planHits++
			if em != nil {
				em.planCacheHit.Inc()
			}
			return pl, &PlanInfo{Cache: "stale"}
		}
		if epoch < pl.epoch {
			// The cached plan is stamped for a newer universe than this
			// pinned snapshot; compile a private plan for the snapshot
			// without evicting the fresher one.
			e.planMisses++
			if em != nil {
				em.planCacheMiss.Inc()
			}
			return compiled("miss")
		}
	}
	e.planMisses++
	if em != nil {
		em.planCacheMiss.Inc()
	}
	pl, info := compiled("miss")
	if e.plans.put(key, pl) {
		e.planEvictions++
		if em != nil {
			em.planCacheEvict.Inc()
		}
	}
	return pl, info
}

// firstRunnable mirrors the scheduler's first pick under the empty
// substitution: the minimum-rank conjunct among those with no consumed
// variables (source order breaking ties), or -1 when none is runnable.
// scanTarget (parallel.go) and the plan simulation must agree with
// scheduleConjuncts on this pick.
func firstRunnable(consumed [][]string, ranks []float64) int {
	pick := -1
	for i := range consumed {
		if len(consumed[i]) != 0 {
			continue
		}
		if ranks == nil {
			return i
		}
		if pick < 0 || ranks[i] < ranks[pick] {
			pick = i
		}
	}
	return pick
}

// estimateConjunct estimates the rows one top-level conjunct enumerates,
// from catalog statistics. Filters (constraints, negations, atomics) cost
// nothing — once runnable they only prune. deps, when non-nil, records
// every universe object the estimate resolved. Callers hold e.mu.
func (e *Engine) estimateConjunct(c ast.Expr, eff *object.Tuple, deps *[]planDep) float64 {
	switch x := c.(type) {
	case *ast.AttrExpr:
		return e.estimateAttr(x, eff, deps)
	case *ast.TupleExpr:
		return 1
	case *ast.Constraint:
		if x.Op == ast.OpEQ {
			_, lVar := x.L.(ast.Var)
			_, rVar := x.R.(ast.Var)
			if lVar && rVar {
				// `X = Y` consumes neither side (the runtime binds
				// whichever is free once one is bound), so the safety
				// analysis always calls it runnable. Source order placed it
				// after its producers; cost order must too, or it runs with
				// both sides unbound and raises UnsafeError.
				return costHuge
			}
		}
		return 0
	default:
		// Epsilon, *Not, *Atomic, *VarExpr: pure tests or single bindings
		// against the universe object itself.
		return 0
	}
}

// estimateAttr estimates a `.db(...)` conjunct by resolving its constant
// path against the effective universe and consulting relation statistics.
func (e *Engine) estimateAttr(a *ast.AttrExpr, eff *object.Tuple, deps *[]planDep) float64 {
	db, ok := constTermName(a.Name)
	if !ok {
		// Higher-order database enumeration: unbounded by statistics.
		return costHuge
	}
	obj, has := eff.Get(db)
	te, isTE := a.Expr.(*ast.TupleExpr)
	if deps != nil && (!has || !isTE) {
		// Leaf dep on the database object itself (existence / identity).
		var rec object.Object
		if has {
			rec = obj
		}
		*deps = append(*deps, planDep{db: db, obj: rec})
	}
	if !has {
		return 0 // absent database: the conjunct enumerates nothing
	}
	dbt, isTup := obj.(*object.Tuple)
	if !isTup || !isTE {
		return 1 // navigation into a non-tuple or a non-conjunct body
	}
	cost := 0.0
	for _, rc := range te.Conjuncts {
		ra, ok := rc.(*ast.AttrExpr)
		if !ok {
			continue // relation-level filters cost nothing extra
		}
		rel, ok := constTermName(ra.Name)
		if !ok {
			return costHuge // higher-order relation enumeration
		}
		robj, rhas := dbt.Get(rel)
		if deps != nil {
			d := planDep{db: db, rel: rel}
			if rhas {
				d.obj = robj
				if set, ok := robj.(*object.Set); ok {
					d.version = set.Version()
				}
			}
			*deps = append(*deps, d)
		}
		if !rhas {
			continue // absent relation enumerates nothing
		}
		set, ok := robj.(*object.Set)
		if !ok {
			cost++
			continue
		}
		cost += e.estimateSet(ra.Expr, set)
	}
	return cost
}

// estimateSet estimates the rows a relation-level expression yields from
// a set: full cardinality for a scan, cardinality over the attribute's
// distinct count for an equality-pinned scan or index probe.
func (e *Engine) estimateSet(inner ast.Expr, set *object.Set) float64 {
	card := float64(set.Len())
	se, ok := inner.(*ast.SetExpr)
	if !ok {
		return 1 // atomic/navigate on the set value itself
	}
	te, ok := se.X.(*ast.TupleExpr)
	if !ok {
		return card
	}
	for _, c := range te.Conjuncts {
		attr, ok := staticGroundEq(c)
		if !ok {
			continue
		}
		st := e.statFor(set)
		if d := st.distinct[attr]; d > 0 {
			return card / float64(d)
		}
		return 1 // equality on an unseen attribute: assume selective
	}
	return card
}

// staticGroundEq recognizes `.attr = const` conjuncts — the statically
// decidable subset of groundEqConjunct (no environment, so bound-variable
// terms do not qualify).
func staticGroundEq(c ast.Expr) (string, bool) {
	a, ok := c.(*ast.AttrExpr)
	if !ok || a.Sign != ast.SignNone {
		return "", false
	}
	attr, ok := constTermName(a.Name)
	if !ok {
		return "", false
	}
	at, ok := a.Expr.(*ast.Atomic)
	if !ok || at.Op != ast.OpEQ || at.Sign != ast.SignNone {
		return "", false
	}
	ct, ok := at.Term.(ast.Const)
	if !ok {
		return "", false
	}
	if !ct.Value.Kind().IsAtomic() {
		return "", false
	}
	return attr, true
}

// ---------------------------------------------------------------------------
// Prepared queries

// PreparedQuery is a query compiled once and executable many times. Each
// execution revalidates the plan against the catalog epoch (recompiling
// when dependencies moved), so a prepared query never returns stale
// answers — preparation only amortizes parsing-free analysis, never
// correctness. Executions are safe for concurrent use: like ad-hoc
// queries they pin the MVCC head snapshot and evaluate lock-free; the
// prepared plan itself is guarded by a small private mutex (held only
// around revalidation, never during evaluation).
type PreparedQuery struct {
	e  *Engine
	q  *ast.Query // the prepared AST; every plan of p executes it
	mu sync.Mutex // guards pl: revalidation may restamp or replace it
	pl *queryPlan
}

// Prepare compiles a query into a reusable plan. The plan is private to
// the returned PreparedQuery (it does not populate the shared cache).
func (e *Engine) Prepare(q *ast.Query) (*PreparedQuery, error) {
	if ast.HasUpdate(q.Body) {
		return nil, fmt.Errorf("core: cannot prepare an update request; use Execute")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	eff, err := e.refreshEffective(nil)
	if err != nil {
		return nil, err
	}
	key := planKey{fp: ast.Fingerprint(q), useIndex: e.opts.UseIndex}
	return &PreparedQuery{e: e, q: q, pl: e.compilePlan(q, eff, key, e.epoch, e.em)}, nil
}

// Query executes the prepared plan against the current universe.
func (p *PreparedQuery) Query() (*Answer, error) {
	return p.QueryCtx(context.Background())
}

// revalidate brings the prepared plan up to date against eff at epoch and
// returns the plan to execute plus its cache outcome. A plan stamped for
// a newer universe than an older pinned snapshot is left untouched and a
// throwaway plan is compiled for that snapshot.
func (p *PreparedQuery) revalidate(eff *object.Tuple, epoch uint64, em *engineMetrics) (*queryPlan, *PlanInfo) {
	e := p.e
	p.mu.Lock()
	defer p.mu.Unlock()
	pl := p.pl
	info := &PlanInfo{Cache: "hit"}
	if pl.epoch == epoch {
		return pl, info
	}
	if e.validatePlan(pl, eff) {
		if epoch > pl.epoch {
			pl.epoch = epoch
		}
		info.Cache = "stale"
		return pl, info
	}
	fresh := e.compilePlan(pl.q, eff, pl.key, epoch, em)
	if epoch > pl.epoch {
		p.pl = fresh
	}
	info.Cache = "miss"
	info.CompileNS = fresh.compileNS
	return fresh, info
}

// QueryCtx executes the prepared plan under a context. A stale plan
// (catalog epoch moved and a dependency changed) is recompiled first.
// Like Engine.QueryCtx, it pins a snapshot version and evaluates without
// the engine mutex.
func (p *PreparedQuery) QueryCtx(ctx context.Context) (*Answer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return p.e.read(ctx, p.q, p, nil)
}
