package federation

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"idl/internal/object"
)

// Fetch pulls a complete snapshot of a member database: every relation
// scanned into a set, assembled as a database tuple the engine can
// evaluate. On failure it returns a *SourceError naming the member and
// the operation that failed.
//
// prev is the member's last installed snapshot (nil on the first sync).
// While a relation's scan yields prev's elements, identical object for
// object and in prev's insertion order, nothing is built or hashed; a
// relation whose scan ends exactly at prev's length is prev's own set,
// and when every relation matches Fetch returns prev itself. At the
// first mismatch the set is built from the matched prefix plus the rest
// of the scan — exactly the set a fetch without prev builds — so the
// result never depends on prev beyond object identity.
func Fetch(ctx context.Context, src Source, prev *object.Tuple) (*object.Tuple, error) {
	rels, err := src.Relations(ctx)
	if err != nil {
		return nil, &SourceError{Source: src.Name(), Op: "relations", Err: err}
	}
	sort.Strings(rels)
	// db stays nil while the snapshot so far is prev, relation for
	// relation and in prev's attribute order.
	var db *object.Tuple
	if prev == nil || !slices.Equal(prev.Attrs(), rels) {
		db = object.NewTuple()
	}
	for i, rel := range rels {
		var old *object.Set
		if prev != nil {
			if v, ok := prev.Get(rel); ok {
				old, _ = v.(*object.Set)
			}
		}
		set, err := scanRelation(ctx, src, rel, old)
		if err != nil {
			return nil, &SourceError{Source: src.Name(), Op: fmt.Sprintf("scan %q", rel), Err: err}
		}
		if db == nil && set != old {
			db = object.NewTuple()
			for _, r := range rels[:i] {
				v, _ := prev.Get(r)
				db.Put(r, v)
			}
		}
		if db != nil {
			db.Put(rel, set)
		}
	}
	if db == nil {
		return prev, nil
	}
	return db, nil
}

// scanRelation scans one relation into a set. It returns prev itself
// when the scan yields exactly prev's elements in order (see Fetch).
func scanRelation(ctx context.Context, src Source, rel string, prev *object.Set) (*object.Set, error) {
	var (
		set     *object.Set // nil while the scan still matches prev
		cur     = prev.Cursor()
		matched int
	)
	err := src.Scan(ctx, rel, func(e object.Object) bool {
		if set == nil {
			if p, ok := cur.Next(); ok && identical(p, e) {
				matched++
				return true
			}
			set = prefix(prev, matched)
		}
		set.Add(e)
		return true
	})
	if err != nil {
		return nil, err
	}
	if set == nil {
		if prev != nil && matched == prev.Len() {
			return prev, nil
		}
		set = prefix(prev, matched)
	}
	return set, nil
}

// prefix returns a new set holding prev's first n elements.
func prefix(prev *object.Set, n int) *object.Set {
	set := object.NewSet()
	cur := prev.Cursor()
	for ; n > 0; n-- {
		e, _ := cur.Next()
		set.Add(e)
	}
	return set
}

// identical reports whether two elements are indistinguishable, so one
// may stand in for the other in a snapshot: the same tuple or set
// object, or atoms of one kind with the same payload. Floats compare by
// bit pattern (0 and -0 render differently), and an Equal object of
// another kind (Int(1) for Float(1)) is not identical: it renders
// differently. Unknown Object implementations never match, so a type
// that is not comparable with == cannot panic here.
func identical(a, b object.Object) bool {
	switch x := a.(type) {
	case object.Float:
		y, ok := b.(object.Float)
		return ok && math.Float64bits(float64(x)) == math.Float64bits(float64(y))
	case *object.Tuple, *object.Set, object.Int, object.Str, object.Bool, object.Date, object.Null:
		return a == b
	}
	return false
}

// Probe reports a source's observable resilience state, for sync
// reports: the breaker state name ("" when the source has no breaker)
// and the attempt count of the last operation (0 when unknown).
func Probe(src Source) (breaker string, attempts int) {
	return probeBreaker(src), probeAttempts(src)
}

// SourceHealth describes one member database after a sync pass.
type SourceHealth struct {
	Name     string
	Err      string // "" when the member was reachable
	Attempts int    // fetch attempts of the failing/last operation (0 = unknown)
	Breaker  string // breaker state name, "" when the source has none
}

// Report describes how degraded a best-effort answer is: the health of
// every member database at evaluation time and the query conjuncts that
// could not be grounded because their member was unreachable. Its
// rendering carries no wall-clock values, so a scripted chaos run is
// byte-reproducible.
type Report struct {
	Sources []SourceHealth // every mounted member, sorted by name
	Skipped []string       // conjuncts whose member database was dropped
}

// Degraded reports whether any member was unreachable.
func (r *Report) Degraded() bool {
	for _, s := range r.Sources {
		if s.Err != "" {
			return true
		}
	}
	return false
}

// Unavailable lists the unreachable members, sorted.
func (r *Report) Unavailable() []string {
	var out []string
	for _, s := range r.Sources {
		if s.Err != "" {
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Health returns one member's status by name.
func (r *Report) Health(name string) (SourceHealth, bool) {
	for _, s := range r.Sources {
		if s.Name == name {
			return s, true
		}
	}
	return SourceHealth{}, false
}

// String renders the report deterministically, one line per unreachable
// member plus the skipped conjuncts.
func (r *Report) String() string {
	down := r.Unavailable()
	if len(down) == 0 {
		return fmt.Sprintf("all %d member databases reachable", len(r.Sources))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "degraded: %d/%d member databases unreachable", len(down), len(r.Sources))
	for _, s := range r.Sources {
		if s.Err == "" {
			continue
		}
		fmt.Fprintf(&b, "\n  %s: %s", s.Name, s.Err)
		var notes []string
		if s.Attempts > 0 {
			notes = append(notes, fmt.Sprintf("attempts=%d", s.Attempts))
		}
		if s.Breaker != "" {
			notes = append(notes, "breaker="+s.Breaker)
		}
		if len(notes) > 0 {
			fmt.Fprintf(&b, " (%s)", strings.Join(notes, ", "))
		}
	}
	for _, c := range r.Skipped {
		fmt.Fprintf(&b, "\n  skipped: %s", c)
	}
	return b.String()
}
