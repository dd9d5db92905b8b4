// Package federation puts every member database of an IDL universe
// behind an explicit source boundary with failure semantics.
//
// The paper's setting is a federation of autonomously administered
// databases (Pegasus-style remote sources), yet a naive reproduction
// evaluates every member as an always-available in-memory tuple. This
// package restores the missing distance: a member database is a Source
// (Scan/Relations/Attributes, all context-aware), and composable
// wrappers add the failure modes and the defenses a real multidatabase
// system needs — a deterministic fault injector for chaos testing, a
// per-operation timeout, a retry policy with capped exponential backoff
// and jitter, and a per-source circuit breaker.
//
// The catalog mounts Sources next to local databases and snapshots them
// through the wrapper stack before evaluation; an unreachable member
// either fails the request (fail-fast, the default) or is dropped from
// the effective universe and reported in a Degraded report (best-effort).
package federation

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"idl/internal/object"
)

// Source is one member database of the federation: a named collection
// of relations that must be assumed remote, slow, or down. All methods
// honor context cancellation. Implementations must be safe for
// concurrent use.
type Source interface {
	// Name identifies the member database (diagnostics only; the mount
	// name decides where its relations appear in the universe).
	Name() string
	// Relations lists the member's relation names.
	Relations(ctx context.Context) ([]string, error)
	// Scan enumerates the elements of one relation, calling yield once
	// per element until it returns false. A non-nil error means the scan
	// did not complete; elements already yielded may be a prefix.
	// Snapshots share the yielded elements, so an element must not be
	// mutated once yielded; a changed element is a new object.
	Scan(ctx context.Context, rel string, yield func(object.Object) bool) error
	// Attributes lists the union of attribute names across a relation's
	// tuples.
	Attributes(ctx context.Context, rel string) ([]string, error)
}

// SourceError is the typed error every federation failure surfaces as:
// which member failed, during which operation, and why.
type SourceError struct {
	Source string // member database name
	Op     string // "relations", "scan", "attributes", "sync"
	Err    error
}

func (e *SourceError) Error() string {
	return fmt.Sprintf("federation: source %s: %s: %v", e.Source, e.Op, e.Err)
}

func (e *SourceError) Unwrap() error { return e.Err }

// ErrInjected is the root cause of every fault the Injector raises.
var ErrInjected = errors.New("injected fault")

// ErrOpen is returned by a Breaker that is rejecting calls without
// consulting its source.
var ErrOpen = errors.New("circuit open")

// MemorySource adapts an in-memory database (a tuple of relation sets,
// the shape the engine evaluates) to the Source interface. It checks
// cancellation between elements, so wrapped latency and timeouts behave
// as they would against a remote member.
type MemorySource struct {
	name string
	db   *object.Tuple
}

// NewMemorySource wraps a database tuple. The tuple is read, never
// mutated.
func NewMemorySource(name string, db *object.Tuple) *MemorySource {
	if db == nil {
		db = object.NewTuple()
	}
	return &MemorySource{name: name, db: db}
}

// Name implements Source.
func (m *MemorySource) Name() string { return m.name }

// Relations implements Source.
func (m *MemorySource) Relations(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return append([]string(nil), m.db.SortedAttrs()...), nil
}

// Scan implements Source.
func (m *MemorySource) Scan(ctx context.Context, rel string, yield func(object.Object) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	v, ok := m.db.Get(rel)
	if !ok {
		return fmt.Errorf("no relation %q in source %s", rel, m.name)
	}
	set, ok := v.(*object.Set)
	if !ok {
		return fmt.Errorf("relation %q in source %s is not a set", rel, m.name)
	}
	var failure error
	set.Each(func(e object.Object) bool {
		if err := ctx.Err(); err != nil {
			failure = err
			return false
		}
		return yield(e)
	})
	return failure
}

// Attributes implements Source.
func (m *MemorySource) Attributes(ctx context.Context, rel string) ([]string, error) {
	seen := map[string]bool{}
	err := m.Scan(ctx, rel, func(e object.Object) bool {
		if t, ok := e.(*object.Tuple); ok {
			for _, a := range t.Attrs() {
				seen[a] = true
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out, nil
}

// rng is the same deterministic xorshift* generator the stocks workload
// uses: fault schedules and retry jitter must not depend on math/rand's
// version-dependent stream.
type rng struct{ s uint64 }

func newRNG(seed uint64) rng {
	return rng{s: seed*2862933555777941757 + 3037000493}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 2685821657736338717
}

// chance reports an event with probability p, consuming one draw.
func (r *rng) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(r.next()%1e9)/1e9 < p
}
