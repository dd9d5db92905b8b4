package core

import (
	"context"
	"fmt"

	"idl/internal/ast"
	"idl/internal/object"
	"idl/internal/obs"
)

// A compiledRule is a validated view rule with the metadata stratification
// needs: its head pattern (db, relation term) and the (db, rel) patterns
// its body references, each flagged if it occurs under negation.
type compiledRule struct {
	src     *ast.Rule
	headDB  string   // constant database name (head level 1)
	headRel ast.Term // constant or variable (head level 2); nil for db-level heads
	headHO  bool     // head contains a higher-order variable (§6)
	refs    []patternRef
	stratum int
	// consumed is the body's precomputed safety analysis (pure AST
	// function, computed once at registration); each materialization
	// pairs it with fresh cost ranks into a bodyAnalysis.
	consumed map[*ast.TupleExpr][][]string
}

// patternRef is a (database, relation) reference pattern from a rule
// body. Variable components match anything.
type patternRef struct {
	db      ast.Term
	rel     ast.Term // nil when the reference stops at the database level
	negated bool
}

// NotStratifiedError reports a rule set with negation in a dependency
// cycle; the paper requires view definitions to be stratified (§6).
type NotStratifiedError struct {
	Rules []string
}

func (e *NotStratifiedError) Error() string {
	return fmt.Sprintf("rule set is not stratified: negation inside a recursive component involving %d rule(s): %v", len(e.Rules), e.Rules)
}

// compileRule validates a rule per §6: the head is a simple tuple
// expression on the universe whose variables all occur in the body, with
// a constant database name.
func compileRule(r *ast.Rule) (*compiledRule, error) {
	if r.Head == nil || len(r.Head.Conjuncts) != 1 {
		return nil, fmt.Errorf("core: rule head must be a single path expression")
	}
	if !headSimpleEnough(r.Head) {
		return nil, fmt.Errorf("core: rule head %q must be a simple expression (only '=', no negation, no signs beyond the insertion '+')", r.Head.String())
	}
	headAttr, ok := r.Head.Conjuncts[0].(*ast.AttrExpr)
	if !ok {
		return nil, fmt.Errorf("core: rule head must start with a database attribute")
	}
	dbConst, ok := headAttr.Name.(ast.Const)
	if !ok {
		return nil, fmt.Errorf("core: rule head database name must be a constant")
	}
	dbStr, ok := dbConst.Value.(object.Str)
	if !ok {
		return nil, fmt.Errorf("core: rule head database name must be a string")
	}
	bodyVars := map[string]bool{}
	for _, v := range ast.Vars(r.Body) {
		bodyVars[v] = true
	}
	for _, v := range ast.Vars(r.Head) {
		if !bodyVars[v] {
			return nil, fmt.Errorf("core: head variable %s does not occur in the body", v)
		}
	}
	cr := &compiledRule{
		src:      r,
		headDB:   string(dbStr),
		headHO:   len(ast.HigherOrderVars(r.Head)) > 0,
		refs:     collectRefs(r.Body),
		consumed: consumedMap(r.Body),
	}
	if te, ok := headAttr.Expr.(*ast.TupleExpr); ok && len(te.Conjuncts) == 1 {
		if rel, ok := te.Conjuncts[0].(*ast.AttrExpr); ok {
			cr.headRel = rel.Name
		}
	}
	return cr, nil
}

// headSimpleEnough relaxation: the conventional head form `.db.rel+(...)`
// carries a single plus sign on the insertion set expression. IsSimple
// rejects signs, so validate specially: strip one level of set-expression
// plus when checking.
func headSimpleEnough(te *ast.TupleExpr) bool {
	ok := true
	var rec func(e ast.Expr, allowPlus bool)
	rec = func(e ast.Expr, allowPlus bool) {
		switch x := e.(type) {
		case *ast.Not:
			ok = false
		case *ast.Constraint:
			ok = false
		case *ast.Atomic:
			if x.Op != ast.OpEQ || x.Sign != ast.SignNone {
				ok = false
			}
		case *ast.AttrExpr:
			if x.Sign != ast.SignNone {
				ok = false
			}
			rec(x.Expr, allowPlus)
		case *ast.TupleExpr:
			for _, c := range x.Conjuncts {
				rec(c, allowPlus)
			}
		case *ast.SetExpr:
			if x.Sign == ast.SignMinus {
				ok = false
			}
			rec(x.X, allowPlus)
		}
	}
	rec(te, true)
	return ok
}

// collectRefs extracts the (db, rel) patterns a body references, flagging
// references under negation.
func collectRefs(body *ast.TupleExpr) []patternRef {
	var refs []patternRef
	var walkConjunct func(e ast.Expr, negated bool)
	walkConjunct = func(e ast.Expr, negated bool) {
		switch x := e.(type) {
		case *ast.Not:
			walkConjunct(x.X, true)
		case *ast.AttrExpr:
			ref := patternRef{db: x.Name, negated: negated}
			// Second level: the relation name, when the path goes deeper.
			if te, ok := x.Expr.(*ast.TupleExpr); ok {
				for _, c := range te.Conjuncts {
					if rel, ok := c.(*ast.AttrExpr); ok {
						refs = append(refs, patternRef{db: x.Name, rel: rel.Name, negated: negated || relNegated(c)})
					}
				}
				return
			}
			refs = append(refs, ref)
		case *ast.TupleExpr:
			for _, c := range x.Conjuncts {
				walkConjunct(c, negated)
			}
		}
	}
	for _, c := range body.Conjuncts {
		walkConjunct(c, false)
	}
	return refs
}

// relNegated reports whether the relation-level expression itself is
// negated (`.euter.r~(...)`).
func relNegated(c ast.Expr) bool {
	a, ok := c.(*ast.AttrExpr)
	if !ok {
		return false
	}
	_, isNot := a.Expr.(*ast.Not)
	return isNot
}

// termsUnify reports whether two name terms can refer to the same name:
// variables match anything; constants must be equal strings.
func termsUnify(a, b ast.Term) bool {
	if a == nil || b == nil {
		return true // absent level matches anything (conservative)
	}
	ca, aIsConst := a.(ast.Const)
	cb, bIsConst := b.(ast.Const)
	if aIsConst && bIsConst {
		return ca.Value.Equal(cb.Value)
	}
	return true // at least one variable
}

// refMatchesHead reports whether a body reference may read a rule's head
// relation.
func refMatchesHead(ref patternRef, head *compiledRule) bool {
	if !termsUnify(ref.db, ast.Const{Value: object.Str(head.headDB)}) {
		return false
	}
	return termsUnify(ref.rel, head.headRel)
}

// stratify assigns strata using the condensation of the rule dependency
// graph: an edge i→j when rule j's body reads rule i's head. A negative
// edge inside a strongly connected component is an error.
func stratify(rules []*compiledRule) error {
	n := len(rules)
	succ := make([][]int, n) // i -> rules that read i's head
	negEdge := make(map[[2]int]bool)
	for i, producer := range rules {
		for j, consumer := range rules {
			for _, ref := range consumer.refs {
				if refMatchesHead(ref, producer) {
					succ[i] = append(succ[i], j)
					if ref.negated {
						negEdge[[2]int{i, j}] = true
					}
					break
				}
			}
		}
	}
	// Tarjan's SCC algorithm (iterative would be safer for huge rule
	// sets; rule sets are small, so recursion is fine).
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var sccs [][]int
	var counter int
	var strong func(v int)
	strong = func(v int) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ[v] {
			if index[w] == -1 {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, comp)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == -1 {
			strong(v)
		}
	}
	// Check for negative edges within a component.
	compOf := make([]int, n)
	for ci, comp := range sccs {
		for _, v := range comp {
			compOf[v] = ci
		}
	}
	for e := range negEdge {
		if compOf[e[0]] == compOf[e[1]] {
			comp := sccs[compOf[e[0]]]
			var names []string
			for _, v := range comp {
				names = append(names, rules[v].src.String())
			}
			return &NotStratifiedError{Rules: names}
		}
	}
	// Tarjan emits components in reverse topological order of the
	// condensation (every component after all components it reaches), so
	// strata count down from len(sccs)-1.
	for ci, comp := range sccs {
		stratum := len(sccs) - 1 - ci
		for _, v := range comp {
			rules[v].stratum = stratum
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Materialization

// RecomputeStats reports work done by one derived-view materialization.
type RecomputeStats struct {
	Iterations   int  // total fixpoint iterations across strata
	RuleRuns     int  // rule body evaluations
	FactsDerived int  // make-true operations that changed the overlay
	Decrees      int  // facts made true in a set (changed or not)
	HostProbes   int  // set elements make-true examined as merge hosts
	Incremental  bool // overlay was grown in place instead of rebuilt
}

// materialize evaluates all rules bottom-up by stratum into a fresh
// derived overlay, reading base ∪ overlay. With semiNaive, within a
// stratum a rule re-runs only when the previous iteration changed a head
// its body may read (rule-level semi-naive evaluation).
func (e *Engine) materialize(ctx context.Context, span *obs.Span) (*object.Tuple, RecomputeStats, error) {
	derived := object.NewTuple()
	stats, err := e.materializeInto(ctx, derived, span)
	return derived, stats, err
}

// materializeInto runs the stratified fixpoint on top of an existing
// overlay. With a fresh overlay this is a full materialization; with the
// previous overlay it is the incremental path (sound only for additive
// base changes and negation-free rules — the engine checks both). A
// non-nil span gets one child per fixpoint round. Its decree index
// (decree.go) serves every make-true of this run and no other.
func (e *Engine) materializeInto(ctx context.Context, derived *object.Tuple, span *obs.Span) (stats RecomputeStats, err error) {
	var evalStats Stats
	ix := newDecreeIndex()
	defer func() {
		stats.Decrees, stats.HostProbes = ix.decrees, ix.hostProbes
		e.addStats(evalStats)
		if e.em != nil {
			e.em.evalWork(evalStats)
		}
	}()
	maxStratum := 0
	for _, r := range e.rules {
		if r.stratum > maxStratum {
			maxStratum = r.stratum
		}
	}
	// Each rule body is compiled once per materialization: the
	// registration-time safety analysis pairs with cost ranks computed at
	// the rule's first run this materialization, then reused across every
	// iteration (and shared read-only by parallel rule waves). The first
	// run happens at the same iteration for every worker count, so the
	// ranks — and the enumeration order they induce — are identical
	// sequentially and in parallel.
	ruleAns := make(map[*compiledRule]*bodyAnalysis)
	anFor := func(rule *compiledRule, effective *object.Tuple) *bodyAnalysis {
		an := ruleAns[rule]
		if an == nil {
			an = e.analyzeBody(rule.src.Body, effective, rule.consumed)
			ruleAns[rule] = an
		}
		return an
	}
	for s := 0; s <= maxStratum; s++ {
		var stratum []*compiledRule
		for _, r := range e.rules {
			if r.stratum == s {
				stratum = append(stratum, r)
			}
		}
		if len(stratum) == 0 {
			continue
		}
		changedLast := map[int]bool{} // indexes into stratum changed last iter
		first := true
		for iter := 0; ; iter++ {
			if iter >= e.opts.MaxIterations {
				return stats, fmt.Errorf("core: view materialization exceeded %d iterations (non-terminating rule set?)", e.opts.MaxIterations)
			}
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return stats, err
				}
			}
			stats.Iterations++
			var round *obs.Span
			if span != nil {
				round = span.Child(fmt.Sprintf("stratum%d.round%d", s, iter))
			}
			runsBefore, factsBefore := stats.RuleRuns, stats.FactsDerived
			effective := mergeUniverse(e.base, derived)
			changedNow := map[int]bool{}
			anyChange := false
			if e.opts.Workers > 1 {
				// Parallel path: evaluate waves of independent rules
				// concurrently, apply derived facts strictly in rule order
				// (see parallel.go for the equivalence argument).
				var affected []int
				for ri, rule := range stratum {
					if e.opts.SemiNaive && !first && !e.ruleAffected(rule, stratum, changedLast) {
						continue
					}
					affected = append(affected, ri)
				}
				for len(affected) > 0 {
					waveLen := ruleWave(stratum, affected)
					wave := make([]*compiledRule, waveLen)
					waveAns := make([]*bodyAnalysis, waveLen)
					for i, ri := range affected[:waveLen] {
						wave[i] = stratum[ri]
						waveAns[i] = anFor(stratum[ri], effective)
					}
					snaps, errs := e.evalRuleBodies(ctx, wave, effective, &evalStats, waveAns)
					for wi, rule := range wave {
						stats.RuleRuns++
						if errs[wi] != nil {
							round.End()
							return stats, fmt.Errorf("core: rule %q: %w", rule.src.String(), errs[wi])
						}
						n, err := applyRuleSnaps(rule, derived, snaps[wi], e.cowSet, ix)
						if err != nil {
							round.End()
							return stats, fmt.Errorf("core: rule %q: %w", rule.src.String(), err)
						}
						if n > 0 {
							stats.FactsDerived += n
							changedNow[affected[wi]] = true
							anyChange = true
						}
					}
					affected = affected[waveLen:]
				}
			} else {
				for ri, rule := range stratum {
					if e.opts.SemiNaive && !first && !e.ruleAffected(rule, stratum, changedLast) {
						continue
					}
					stats.RuleRuns++
					n, err := e.runRule(ctx, rule, effective, derived, &evalStats, anFor(rule, effective), ix)
					if err != nil {
						round.End()
						return stats, fmt.Errorf("core: rule %q: %w", rule.src.String(), err)
					}
					if n > 0 {
						stats.FactsDerived += n
						changedNow[ri] = true
						anyChange = true
					}
				}
			}
			if round != nil {
				round.SetInt("rule_runs", int64(stats.RuleRuns-runsBefore))
				round.SetInt("facts", int64(stats.FactsDerived-factsBefore))
				round.End()
			}
			if !anyChange {
				break
			}
			changedLast = changedNow
			first = false
		}
	}
	return stats, nil
}

// ruleAffected reports whether rule's body may read the head of any
// stratum-mate that changed in the previous iteration.
func (e *Engine) ruleAffected(rule *compiledRule, stratum []*compiledRule, changed map[int]bool) bool {
	for ri, other := range stratum {
		if !changed[ri] {
			continue
		}
		for _, ref := range rule.refs {
			if refMatchesHead(ref, other) {
				return true
			}
		}
	}
	return false
}

// runRule enumerates body substitutions against the effective universe
// and makes the head true in the derived overlay for each; it returns how
// many make-true operations changed the overlay.
func (e *Engine) runRule(ctx context.Context, rule *compiledRule, effective, derived *object.Tuple, stats *Stats, an *bodyAnalysis, ix *decreeIndex) (int, error) {
	envSnaps, err := e.evalRuleBody(ctx, rule, effective, stats, an)
	if err != nil {
		return 0, err
	}
	return applyRuleSnaps(rule, derived, envSnaps, e.cowSet, ix)
}

// evalRuleBody is the read-only half of a rule run: it collects the
// deduped head-variable snapshots of every body substitution. Head
// instantiations are collected before any make-true applies because the
// body may be reading the overlay through the merged universe — which is
// also what makes this phase safe to run concurrently for independent
// rules (parallel.go).
func (e *Engine) evalRuleBody(ctx context.Context, rule *compiledRule, effective *object.Tuple, stats *Stats, an *bodyAnalysis) ([]Row, error) {
	ev := &evaluator{env: NewEnv(), indexes: e.indexes, useIndex: e.opts.UseIndex, noSchedule: e.opts.NoSchedule, stats: stats, ctx: ctx}
	if an != nil {
		ev.consumedCache = an.consumed
		ev.ranks = an.ranks
	}
	var envSnaps []Row
	headVars := ast.Vars(rule.src.Head)
	dedupe := newAnswer(nil)
	err := ev.satisfy(rule.src.Body, effective, func() error {
		snap := ev.env.Snapshot(headVars)
		if dedupe.add(snap) {
			envSnaps = append(envSnaps, snap)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return envSnaps, nil
}

// cowBarrier is the engine's copy-on-write hook (version.go): given a
// set reached under parent.attr, it returns the set safe to mutate —
// the set itself when no live MVCC snapshot shares it, a re-parented
// shallow clone otherwise. A nil barrier means mutate in place.
type cowBarrier func(parent *object.Tuple, attr string, s *object.Set) *object.Set

// applyRuleSnaps is the mutating half of a rule run: it makes the head
// true once per collected snapshot, in enumeration order (the order
// make-true merges into host tuples is observable, so it must match the
// sequential order exactly). cow guards the incremental path, where the
// derived overlay being extended may share sets with live snapshots; on
// a fresh overlay every set is private and the barrier no-ops.
func applyRuleSnaps(rule *compiledRule, derived *object.Tuple, envSnaps []Row, cow cowBarrier, ix *decreeIndex) (int, error) {
	changed := 0
	for _, snap := range envSnaps {
		env := envFrom(snap)
		n, err := makeTrue(rule.src.Head, derived, env, cow, ix)
		if err != nil {
			return changed, err
		}
		changed += n
	}
	return changed, nil
}

// makeTrue implements §6's derivation semantics: navigate-or-create down
// the head expression and insert the decreed fact. It returns the number
// of overlay changes (0 when the fact already held, which is what lets
// the fixpoint terminate).
func makeTrue(e ast.Expr, obj object.Object, env *Env, cow cowBarrier, ix *decreeIndex) (int, error) {
	switch x := e.(type) {
	case *ast.TupleExpr:
		tup, ok := obj.(*object.Tuple)
		if !ok {
			return 0, fmt.Errorf("core: make-true of tuple expression on %s object", obj.Kind())
		}
		total := 0
		for _, c := range x.Conjuncts {
			n, err := makeTrue(c, tup, env, cow, ix)
			if err != nil {
				return total, err
			}
			total += n
		}
		return total, nil

	case *ast.AttrExpr:
		tup, ok := obj.(*object.Tuple)
		if !ok {
			return 0, fmt.Errorf("core: make-true of attribute expression on %s object", obj.Kind())
		}
		name, err := groundName(x.Name, env)
		if err != nil {
			return 0, err
		}
		val, ok := tup.Get(name)
		if !ok {
			val = emptyFor(x.Expr)
			if val == nil {
				return 0, fmt.Errorf("core: cannot infer object kind for head expression %q", x.Expr.String())
			}
			tup.Put(name, val)
		} else if s, isSet := val.(*object.Set); isSet && cow != nil {
			// Descending into a set the decree will extend: copy-on-write
			// if an MVCC snapshot shares it.
			val = cow(tup, name, s)
		}
		return makeTrue(x.Expr, val, env, cow, ix)

	case *ast.SetExpr:
		set, ok := obj.(*object.Set)
		if !ok {
			return 0, fmt.Errorf("core: make-true of set expression on %s object", obj.Kind())
		}
		elem, err := buildPlus(x.X, env)
		if err != nil {
			return 0, err
		}
		return ix.makeTrueInSet(set, elem), nil

	case *ast.Atomic:
		return 0, fmt.Errorf("core: head atomic expression %q has no enclosing location; heads must decree facts inside tuples or sets", x.String())

	default:
		return 0, fmt.Errorf("core: expression %q cannot appear in a rule head", e.String())
	}
}

// makeTrueInSet realizes the decree "some element of this set satisfies
// the (ground, simple) expression that built target" with minimal change:
//
//  1. If an element already subsumes the decree (has every decreed
//     attribute with the decreed value), nothing changes.
//  2. Otherwise, if an element is *compatible* — every decreed attribute
//     is either absent from it or already equal — the decree merges into
//     that element (first such element in insertion order).
//  3. Otherwise a fresh element is inserted.
//
// The merge step is what makes the paper's §6 claims come out: the dbC
// rule `.dbC.r+(.date=D, .S=P) ← .dbI.p(…)` folds every stock of one day
// into a single chwab-style row, while a conflicting value (a price
// discrepancy) is incompatible and lands in its own tuple — "both prices
// are in the user's view". The paper's own recursive definition of
// make-true is in the unavailable technical memo [KLK90]; this reading is
// the one under which §6's integration-transparency examples hold.
//
// The host search examines only the index bucket of one decreed attribute
// every tuple element carries (decree.go); it scans the whole set only
// when no such attribute exists.
//
// It returns 1 if the overlay changed, 0 otherwise.
func (ix *decreeIndex) makeTrueInSet(set *object.Set, target object.Object) int {
	ix.decrees++
	h := ix.hosts(set)
	tgt, isTuple := target.(*object.Tuple)
	if !isTuple {
		// Non-tuple elements are not indexed; only the version moves.
		if set.Add(target) {
			h.version = set.Version()
			return 1
		}
		return 0
	}
	var host *object.Tuple
	found := false
	examine := func(e *object.Tuple) bool {
		ix.hostProbes++
		compatible := true
		subsumes := true
		tgt.Each(func(attr string, want object.Object) bool {
			have, has := e.Get(attr)
			switch {
			case !has:
				subsumes = false
			case !have.Equal(want):
				subsumes = false
				compatible = false
				return false
			}
			return true
		})
		if subsumes {
			found = true
			return false
		}
		if compatible && host == nil {
			host = e
		}
		return true
	}
	if bucket, ok := h.candidates(tgt); ok {
		for _, e := range bucket {
			if !examine(e) {
				break
			}
		}
	} else {
		set.Each(func(elem object.Object) bool {
			e, ok := elem.(*object.Tuple)
			return !ok || examine(e)
		})
	}
	if found {
		return 0
	}
	if host != nil {
		// Merge into a clone and re-add under the new hash: the original
		// element is never mutated — an older MVCC snapshot may still
		// reach it through a pre-COW copy of this set.
		// An element holding NaN equals nothing, itself included, so the
		// set cannot remove it; the index then keeps it too.
		if set.Remove(host) {
			h.remove(host)
		}
		h2, _ := host.Clone().(*object.Tuple)
		tgt.Each(func(attr string, want object.Object) bool {
			if !h2.Has(attr) {
				h2.Put(attr, want)
			}
			return true
		})
		tgt = h2
	}
	if set.Add(tgt) {
		h.add(tgt)
	}
	h.version = set.Version()
	return 1
}

// groundName resolves an attribute-name term under env.
func groundName(t ast.Term, env *Env) (string, error) {
	switch n := t.(type) {
	case ast.Const:
		s, ok := n.Value.(object.Str)
		if !ok {
			return "", fmt.Errorf("core: attribute name %s is not a string", n.Value)
		}
		return string(s), nil
	case ast.Var:
		v, ok := env.Lookup(n.Name)
		if !ok {
			return "", fmt.Errorf("core: head attribute variable %s is unbound", n.Name)
		}
		s, ok := v.(object.Str)
		if !ok {
			return "", fmt.Errorf("core: head attribute variable %s bound to non-string %s", n.Name, v)
		}
		return string(s), nil
	default:
		return "", fmt.Errorf("core: attribute name must be constant or variable")
	}
}

// emptyFor returns the empty object matching an expression's shape.
func emptyFor(e ast.Expr) object.Object {
	switch e.(type) {
	case *ast.SetExpr:
		return object.NewSet()
	case *ast.TupleExpr, *ast.AttrExpr:
		return object.NewTuple()
	case ast.Epsilon:
		return object.NewTuple()
	default:
		return nil
	}
}

// mergeUniverse builds the effective universe: base databases overlaid
// with derived ones. Databases and relations present on only one side are
// shared by reference (queries never mutate); name collisions union the
// two relation sets into a fresh set.
func mergeUniverse(base, derived *object.Tuple) *object.Tuple {
	if derived == nil || derived.Len() == 0 {
		return base
	}
	out := object.NewTuple()
	base.Each(func(dbName string, dbObj object.Object) bool {
		dv, ok := derived.Get(dbName)
		if !ok {
			out.Put(dbName, dbObj)
			return true
		}
		bt, bOK := dbObj.(*object.Tuple)
		dt, dOK := dv.(*object.Tuple)
		if !bOK || !dOK {
			out.Put(dbName, dv) // derived shadows malformed bases
			return true
		}
		out.Put(dbName, mergeDB(bt, dt))
		return true
	})
	derived.Each(func(dbName string, dbObj object.Object) bool {
		if !base.Has(dbName) {
			out.Put(dbName, dbObj)
		}
		return true
	})
	return out
}

func mergeDB(base, derived *object.Tuple) *object.Tuple {
	out := object.NewTuple()
	base.Each(func(rel string, relObj object.Object) bool {
		dv, ok := derived.Get(rel)
		if !ok {
			out.Put(rel, relObj)
			return true
		}
		bs, bOK := relObj.(*object.Set)
		ds, dOK := dv.(*object.Set)
		if !bOK || !dOK {
			out.Put(rel, dv)
			return true
		}
		union := object.NewSet()
		bs.Each(func(e object.Object) bool { union.Add(e); return true })
		ds.Each(func(e object.Object) bool { union.Add(e); return true })
		out.Put(rel, union)
		return true
	})
	derived.Each(func(rel string, relObj object.Object) bool {
		if !base.Has(rel) {
			out.Put(rel, relObj)
		}
		return true
	})
	return out
}
