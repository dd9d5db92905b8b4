package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"idl/internal/ast"
	"idl/internal/object"
)

// errStop aborts an enumeration from inside a continuation; it never
// escapes the evaluator.
var errStop = errors.New("core: stop enumeration")

// cont is an enumeration continuation: called once per satisfying
// extension of the substitution. Returning errStop unwinds the whole
// enumeration.
type cont func() error

// Stats counts evaluator work, for the benchmark harness and the CLI's
// `\stats` command.
type Stats struct {
	ElementsScanned uint64 // set elements tested by full scans
	IndexProbes     uint64 // set expressions answered via an attribute index
	IndexBuilds     uint64 // attribute indexes (re)built
	AttrEnums       uint64 // higher-order enumerations over attribute names
}

// add accumulates o into s. Each engine operation evaluates against its
// own Stats and merges into the engine totals under the engine mutex, so
// per-operation deltas (EXPLAIN ANALYZE, metrics) come for free.
func (s *Stats) add(o Stats) {
	s.ElementsScanned += o.ElementsScanned
	s.IndexProbes += o.IndexProbes
	s.IndexBuilds += o.IndexBuilds
	s.AttrEnums += o.AttrEnums
}

// statsDelta returns after − before, field-wise.
func statsDelta(before, after Stats) Stats {
	return Stats{
		ElementsScanned: after.ElementsScanned - before.ElementsScanned,
		IndexProbes:     after.IndexProbes - before.IndexProbes,
		IndexBuilds:     after.IndexBuilds - before.IndexBuilds,
		AttrEnums:       after.AttrEnums - before.AttrEnums,
	}
}

// conjunctProbe accumulates the runtime behaviour of one top-level query
// conjunct during an ANALYZE (or traced) run: rows produced, evaluator
// work, and self wall time (time inside the conjunct's enumeration minus
// time spent in the downstream continuation).
type conjunctProbe struct {
	rows        uint64
	selfTime    time.Duration
	scanned     uint64
	indexProbes uint64
}

// add accumulates another probe's measurements (a partitioned run's
// per-worker probes sum into the run's probe).
func (p *conjunctProbe) add(o *conjunctProbe) {
	p.rows += o.rows
	p.selfTime += o.selfTime
	p.scanned += o.scanned
	p.indexProbes += o.indexProbes
}

// analyzeState maps the top-level conjuncts under measurement to their
// probes, keyed by expression identity. Only the conjuncts of the query
// body are registered; nested tuple expressions miss the map and run
// unprobed.
type analyzeState struct {
	probes map[ast.Expr]*conjunctProbe
}

// evaluator carries one query evaluation: the substitution under
// construction, the index cache shared with the engine, and feature
// switches.
type evaluator struct {
	env        *Env
	indexes    *indexCache
	useIndex   bool
	noSchedule bool
	stats      *Stats
	// consumedCache memoizes per-conjunct consumed-variable lists; the
	// analysis is environment independent, and set expressions re-enter
	// satisfyTuple once per element, so this is hot. Compiled plans and
	// rule analyses seed it with a complete precomputed map (shared
	// read-only, including across parallel workers); unseeded evaluators
	// fill it lazily.
	consumedCache map[*ast.TupleExpr][][]string
	// ranks, when non-nil, carries cost ranks for the tuple expressions
	// that schedule cost-based (the top-level query or rule body): among
	// runnable conjuncts the scheduler picks the lowest rank, source
	// order breaking ties. Tuple expressions absent from the map (all
	// nested conjunct lists) schedule in source order, as does a nil map.
	ranks map[*ast.TupleExpr][]float64
	// ctx, when non-nil, is polled during enumeration so long-running
	// queries observe cancellation. nil (the context-free entry points)
	// reduces checkCtx to a pointer test plus a counter increment.
	ctx context.Context
	ops uint64 // operations since the last ctx poll (amortizes ctx.Err)
	// analyze, when non-nil, measures per-conjunct rows/work/self-time
	// for EXPLAIN ANALYZE and traced queries. nil (the default) costs one
	// pointer test per scheduled conjunct.
	analyze *analyzeState
	// part, when non-nil, restricts this evaluator's first enumeration
	// of one specific set to a chunk of its elements — the partitioned-
	// scan parallel path (parallel.go). nil costs one pointer test per
	// set enumeration.
	part *partition
}

// checkCtx polls the evaluation context once every 1024 operations.
// Called from the enumeration hot paths; the amortization keeps the
// overhead of context support below the benchmark noise floor.
func (ev *evaluator) checkCtx() error {
	if ev.ctx == nil {
		return nil
	}
	ev.ops++
	if ev.ops&1023 != 0 {
		return nil
	}
	return ev.ctx.Err()
}

// UnsafeError reports a query that cannot be evaluated safely: an
// inequality or arithmetic over a variable that no other conjunct binds.
type UnsafeError struct {
	Var  string
	Expr ast.Expr
}

func (e *UnsafeError) Error() string {
	return fmt.Sprintf("unsafe expression %q: variable %s is not bound by any other conjunct", e.Expr.String(), e.Var)
}

// satisfy enumerates the extensions of ev.env under which o satisfies e,
// invoking k once per extension. Bindings are undone as enumeration
// backtracks; after satisfy returns, the env is as it was (unless k
// retained a snapshot).
func (ev *evaluator) satisfy(e ast.Expr, o object.Object, k cont) error {
	switch x := e.(type) {
	case ast.Epsilon:
		return k()

	case *ast.Not:
		sat, err := ev.exists(x.X, o)
		if err != nil {
			return err
		}
		if !sat {
			return k()
		}
		return nil

	case *ast.VarExpr:
		return ev.satisfy(&ast.Atomic{Op: ast.OpEQ, Term: ast.Var{Name: x.Name}}, o, k)

	case *ast.Atomic:
		if x.Sign != ast.SignNone {
			return fmt.Errorf("core: update expression %q in query context", x.String())
		}
		return ev.satisfyAtomic(x, o, k)

	case *ast.Constraint:
		return ev.satisfyConstraint(x, k)

	case *ast.AttrExpr:
		if x.Sign != ast.SignNone {
			return fmt.Errorf("core: update expression %q in query context", x.String())
		}
		return ev.satisfyAttr(x, o, k)

	case *ast.TupleExpr:
		return ev.satisfyTuple(x, o, k)

	case *ast.SetExpr:
		if x.Sign != ast.SignNone {
			return fmt.Errorf("core: update expression %q in query context", x.String())
		}
		return ev.satisfySet(x, o, k)

	default:
		return fmt.Errorf("core: unknown expression type %T", e)
	}
}

// exists reports whether any extension of the current substitution
// satisfies e on o; all extensions are undone (negation as failure).
func (ev *evaluator) exists(e ast.Expr, o object.Object) (bool, error) {
	mark := ev.env.Mark()
	err := ev.satisfy(e, o, func() error { return errStop })
	ev.env.Undo(mark)
	switch {
	case err == nil:
		return false, nil
	case errors.Is(err, errStop):
		return true, nil
	default:
		return false, err
	}
}

// satisfyAtomic implements §4.2: a ground comparison tests directly; `=X`
// with X unbound binds X to the object — including aggregate objects
// (§4.1's extension). Null satisfies no atomic expression.
func (ev *evaluator) satisfyAtomic(x *ast.Atomic, o object.Object, k cont) error {
	if name, ok := singleUnboundVar(x.Term, ev.env); ok {
		if x.Op != ast.OpEQ {
			return &UnsafeError{Var: name, Expr: x}
		}
		if _, isNull := o.(object.Null); isNull {
			return nil // null satisfies nothing, not even =X
		}
		mark := ev.env.Mark()
		ev.env.Bind(name, o)
		err := k()
		ev.env.Undo(mark)
		return err
	}
	val, err := evalTerm(x.Term, ev.env)
	if err != nil {
		var ub *unboundError
		if errors.As(err, &ub) {
			return &UnsafeError{Var: ub.Var, Expr: x}
		}
		return err
	}
	if compare(x.Op, o, val) {
		return k()
	}
	return nil
}

// satisfyConstraint implements the Datalog-style side condition
// (footnote 7). `=` with one unbound side binds it; everything else
// requires ground terms.
func (ev *evaluator) satisfyConstraint(x *ast.Constraint, k cont) error {
	lv, lerr := evalTerm(x.L, ev.env)
	rv, rerr := evalTerm(x.R, ev.env)
	// A hard evaluation error (e.g. arithmetic on a non-number) outranks
	// unbound-variable reporting on the other side.
	if lerr != nil && !isUnbound(lerr) {
		return lerr
	}
	if rerr != nil && !isUnbound(rerr) {
		return rerr
	}
	switch {
	case lerr == nil && rerr == nil:
		if compare(x.Op, lv, rv) {
			return k()
		}
		return nil
	case x.Op == ast.OpEQ && lerr != nil && rerr == nil:
		if name, ok := singleUnboundVar(x.L, ev.env); ok {
			mark := ev.env.Mark()
			ev.env.Bind(name, rv)
			err := k()
			ev.env.Undo(mark)
			return err
		}
		return unsafeFrom(lerr, x)
	case x.Op == ast.OpEQ && rerr != nil && lerr == nil:
		if name, ok := singleUnboundVar(x.R, ev.env); ok {
			mark := ev.env.Mark()
			ev.env.Bind(name, lv)
			err := k()
			ev.env.Undo(mark)
			return err
		}
		return unsafeFrom(rerr, x)
	default:
		if lerr != nil {
			return unsafeFrom(lerr, x)
		}
		return unsafeFrom(rerr, x)
	}
}

func unsafeFrom(err error, e ast.Expr) error {
	var ub *unboundError
	if errors.As(err, &ub) {
		return &UnsafeError{Var: ub.Var, Expr: e}
	}
	return err
}

// isUnbound reports whether err is (only) an unbound-variable condition.
func isUnbound(err error) bool {
	var ub *unboundError
	return errors.As(err, &ub)
}

// satisfyAttr implements tuple-expression conjuncts, including
// higher-order quantification (§4.3): an unbound variable in attribute
// position enumerates the tuple's attribute names.
func (ev *evaluator) satisfyAttr(x *ast.AttrExpr, o object.Object, k cont) error {
	tup, ok := o.(*object.Tuple)
	if !ok {
		return nil // attribute expressions are satisfied only by tuples
	}
	switch name := x.Name.(type) {
	case ast.Const:
		s, ok := name.Value.(object.Str)
		if !ok {
			return nil
		}
		val, ok := tup.Get(string(s))
		if !ok {
			return nil
		}
		return ev.satisfy(x.Expr, val, k)
	case ast.Var:
		if bound, ok := ev.env.Lookup(name.Name); ok {
			s, ok := bound.(object.Str)
			if !ok {
				return nil // attribute names are strings
			}
			val, ok := tup.Get(string(s))
			if !ok {
				return nil
			}
			return ev.satisfy(x.Expr, val, k)
		}
		// Higher-order enumeration over the attribute names.
		ev.stats.AttrEnums++
		for _, attr := range tup.Attrs() {
			val, ok := tup.Get(attr)
			if !ok {
				continue
			}
			mark := ev.env.Mark()
			ev.env.Bind(name.Name, object.Str(attr))
			err := ev.satisfy(x.Expr, val, k)
			ev.env.Undo(mark)
			if err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("core: attribute name must be a constant or variable, got %T", x.Name)
	}
}

// satisfyTuple evaluates a conjunct list under one shared substitution.
// Conjuncts are scheduled for safety: a conjunct whose "consumed"
// variables (those it can only test, not bind — inequality operands,
// arithmetic inputs, everything under negation) are not yet all bound is
// deferred until some producing conjunct binds them. If nothing is
// runnable the first deferred conjunct runs anyway — correct for
// negation (its bindings are local) and a checked error for inequalities.
func (ev *evaluator) satisfyTuple(x *ast.TupleExpr, o object.Object, k cont) error {
	if len(x.Conjuncts) == 0 {
		return k()
	}
	consumed, ok := ev.consumedCache[x]
	if !ok {
		consumed = make([][]string, len(x.Conjuncts))
		for i, c := range x.Conjuncts {
			consumed[i] = consumedVars(c)
		}
		if ev.consumedCache == nil {
			ev.consumedCache = make(map[*ast.TupleExpr][][]string)
		}
		ev.consumedCache[x] = consumed
	}
	used := make([]bool, len(x.Conjuncts))
	var ranks []float64
	if ev.ranks != nil {
		ranks = ev.ranks[x]
	}
	return ev.scheduleConjuncts(x.Conjuncts, consumed, ranks, used, len(x.Conjuncts), o, k)
}

// scheduleConjuncts picks the next runnable conjunct (depth-first, with
// the shared `used` mask undone on backtrack — the choice can differ per
// binding because boundness differs). With cost ranks, the cheapest
// runnable conjunct runs first (source order breaking ties) — ordering
// within the safety constraints, never instead of them; without ranks
// the first runnable conjunct in source order runs, as before.
func (ev *evaluator) scheduleConjuncts(conjuncts []ast.Expr, consumed [][]string, ranks []float64, used []bool, left int, o object.Object, k cont) error {
	if left == 0 {
		return k()
	}
	if err := ev.checkCtx(); err != nil {
		return err
	}
	pick := -1
	for idx := range conjuncts {
		if used[idx] {
			continue
		}
		if ev.noSchedule {
			pick = idx
			break
		}
		runnable := true
		for _, v := range consumed[idx] {
			if !ev.env.Bound(v) {
				runnable = false
				break
			}
		}
		if runnable {
			if ranks == nil {
				pick = idx
				break
			}
			if pick < 0 || ranks[idx] < ranks[pick] {
				pick = idx
			}
		}
	}
	if pick < 0 {
		// No conjunct is safe; run the first unscheduled one anyway.
		// Negation evaluates with local bindings (the paper's literal ∃σ
		// reading); inequalities raise UnsafeError downstream.
		for idx := range conjuncts {
			if !used[idx] {
				pick = idx
				break
			}
		}
	}
	used[pick] = true
	next := func() error {
		return ev.scheduleConjuncts(conjuncts, consumed, ranks, used, left-1, o, k)
	}
	var err error
	if p := ev.probeFor(conjuncts[pick]); p != nil {
		err = ev.satisfyProbed(p, conjuncts[pick], o, next)
	} else {
		err = ev.satisfy(conjuncts[pick], o, next)
	}
	used[pick] = false
	return err
}

// probeFor returns the analyze probe registered for a conjunct, or nil —
// the common case, and the only cost of ANALYZE support on unmeasured
// evaluations.
func (ev *evaluator) probeFor(c ast.Expr) *conjunctProbe {
	if ev.analyze == nil {
		return nil
	}
	return ev.analyze.probes[c]
}

// satisfyProbed runs one measured conjunct: rows are counted at each
// continuation entry, and both wall time and stats deltas attribute to
// the conjunct only what its own enumeration consumed — time and work
// inside the downstream continuation (which evaluates the remaining
// conjuncts, themselves possibly probed) are subtracted out.
func (ev *evaluator) satisfyProbed(p *conjunctProbe, c ast.Expr, o object.Object, next cont) error {
	before := *ev.stats
	var childStats Stats
	var childTime time.Duration
	start := time.Now()
	err := ev.satisfy(c, o, func() error {
		p.rows++
		cb := *ev.stats
		cs := time.Now()
		err := next()
		childTime += time.Since(cs)
		childStats.add(statsDelta(cb, *ev.stats))
		return err
	})
	p.selfTime += time.Since(start) - childTime
	d := statsDelta(before, *ev.stats)
	p.scanned += d.ElementsScanned - childStats.ElementsScanned
	p.indexProbes += d.IndexProbes - childStats.IndexProbes
	return err
}

// consumedVars returns the variables a conjunct can only test, not
// produce: operands of non-equality comparisons, arithmetic inputs, and
// every variable under a negation.
func consumedVars(e ast.Expr) []string {
	var out []string
	seen := map[string]bool{}
	add := func(names []string) {
		for _, n := range names {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	var rec func(e ast.Expr, underNot bool)
	rec = func(e ast.Expr, underNot bool) {
		switch x := e.(type) {
		case *ast.Not:
			rec(x.X, true)
		case *ast.Atomic:
			if underNot || x.Op != ast.OpEQ {
				add(termVarNames(x.Term))
			} else if _, isArith := x.Term.(ast.Arith); isArith {
				add(termVarNames(x.Term))
			}
		case *ast.Constraint:
			lv, lIsVar := x.L.(ast.Var)
			rv, rIsVar := x.R.(ast.Var)
			if underNot || x.Op != ast.OpEQ {
				add(termVarNames(x.L))
				add(termVarNames(x.R))
				return
			}
			// `X = term`: the bare-var side is a producer when the other
			// side is ground-able; both-bare `X = Y` consumes neither
			// (runtime binds whichever is free once one is bound).
			if !lIsVar {
				add(termVarNames(x.L))
			}
			if !rIsVar {
				add(termVarNames(x.R))
			}
			_ = lv
			_ = rv
		case *ast.AttrExpr:
			if underNot {
				add(termVarNames(x.Name))
			}
			rec(x.Expr, underNot)
		case *ast.TupleExpr:
			for _, c := range x.Conjuncts {
				rec(c, underNot)
			}
		case *ast.SetExpr:
			rec(x.X, underNot)
		}
	}
	rec(e, false)
	return out
}

// satisfySet implements set expressions: ∃ element satisfying the inner
// expression. When the inner expression pins an attribute to a ground
// value (`.attr = const`), a lazily built per-set attribute index narrows
// the candidate elements; otherwise the set is scanned.
func (ev *evaluator) satisfySet(x *ast.SetExpr, o object.Object, k cont) error {
	set, ok := o.(*object.Set)
	if !ok {
		return nil
	}
	if p := ev.part; p != nil && !p.used && p.set == set {
		// Partitioned scan: this worker's first encounter of the target
		// set enumerates only its chunk. scanTarget guaranteed the
		// sequential evaluator would have full-scanned here, and the
		// first set this evaluation reaches is the target by
		// construction, so marking the partition consumed keeps every
		// later enumeration of the same set (self-joins, negations)
		// identical to the sequential one.
		p.used = true
		for _, elem := range p.elems {
			ev.stats.ElementsScanned++
			if err := ev.checkCtx(); err != nil {
				return err
			}
			if err := ev.satisfy(x.X, elem, k); err != nil {
				return err
			}
		}
		return nil
	}
	if ev.useIndex {
		if cands, ok := ev.indexCandidates(x, set); ok {
			ev.stats.IndexProbes++
			for _, elem := range cands {
				if err := ev.checkCtx(); err != nil {
					return err
				}
				if err := ev.satisfy(x.X, elem, k); err != nil {
					return err
				}
			}
			return nil
		}
	}
	var failure error
	set.Each(func(elem object.Object) bool {
		ev.stats.ElementsScanned++
		if err := ev.checkCtx(); err != nil {
			failure = err
			return false
		}
		if err := ev.satisfy(x.X, elem, k); err != nil {
			failure = err
			return false
		}
		return true
	})
	return failure
}

// indexCandidates finds an equality-pinned attribute in the inner tuple
// expression and returns the matching elements from the set's attribute
// index. Inner expressions that aren't conjunct lists, or with no ground
// equality conjunct, fall back to scanning.
func (ev *evaluator) indexCandidates(x *ast.SetExpr, set *object.Set) ([]object.Object, bool) {
	te, ok := x.X.(*ast.TupleExpr)
	if !ok {
		return nil, false
	}
	// Indexing only pays off beyond trivial sizes.
	if set.Len() < 16 {
		return nil, false
	}
	for _, c := range te.Conjuncts {
		attr, val, ok := ev.groundEqConjunct(c)
		if !ok {
			continue
		}
		return ev.indexes.lookup(set, attr, val, ev.stats), true
	}
	return nil, false
}

// groundEqConjunct recognizes `.attr = groundterm` conjuncts.
func (ev *evaluator) groundEqConjunct(c ast.Expr) (string, object.Object, bool) {
	a, ok := c.(*ast.AttrExpr)
	if !ok || a.Sign != ast.SignNone {
		return "", nil, false
	}
	nameConst, ok := a.Name.(ast.Const)
	if !ok {
		return "", nil, false
	}
	nameStr, ok := nameConst.Value.(object.Str)
	if !ok {
		return "", nil, false
	}
	at, ok := a.Expr.(*ast.Atomic)
	if !ok || at.Op != ast.OpEQ || at.Sign != ast.SignNone {
		return "", nil, false
	}
	val, err := evalTerm(at.Term, ev.env)
	if err != nil {
		return "", nil, false
	}
	if !val.Kind().IsAtomic() {
		return "", nil, false
	}
	return string(nameStr), val, true
}
