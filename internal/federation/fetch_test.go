package federation

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"idl/internal/object"
)

// rebuild is the reference fetch: every relation scanned into a fresh
// set, no previous snapshot consulted. Fetch with a prev must match it
// element for element.
func rebuild(ctx context.Context, src Source) (*object.Tuple, error) {
	rels, err := src.Relations(ctx)
	if err != nil {
		return nil, err
	}
	slices.Sort(rels)
	db := object.NewTuple()
	for _, rel := range rels {
		set := object.NewSet()
		if err := src.Scan(ctx, rel, func(e object.Object) bool { set.Add(e); return true }); err != nil {
			return nil, err
		}
		db.Put(rel, set)
	}
	return db, nil
}

// sameSnapshot reports whether two snapshots are indistinguishable: the
// same relations in the same order, each holding elements of the same
// kinds and renderings in the same insertion order. It deliberately
// does not use identical, the predicate under test.
func sameSnapshot(a, b *object.Tuple) bool {
	if !slices.Equal(a.Attrs(), b.Attrs()) {
		return false
	}
	for _, rel := range a.Attrs() {
		va, _ := a.Get(rel)
		vb, _ := b.Get(rel)
		ea, eb := va.(*object.Set).Elems(), vb.(*object.Set).Elems()
		if len(ea) != len(eb) {
			return false
		}
		for i := range ea {
			if ea[i].Kind() != eb[i].Kind() || ea[i].String() != eb[i].String() {
				return false
			}
		}
	}
	return true
}

// reuseScript mutates a MemorySource member between fetches. pick(n)
// returns a choice in [0, n): a seeded rand in the test, the fuzzer's
// bytes in FuzzFetchReuse. Every mutation replaces the relation set it
// changes, as a member rewriting its own data would; elements are never
// mutated in place (the Source contract).
type reuseScript struct {
	pick func(n int) int
	db   *object.Tuple
	next int // fresh tuple key
}

var reuseRels = []string{"r", "s", "t"}

// element draws a tuple now and then shared with earlier draws, or a
// numeric atom whose Equal-but-distinct twins the script swaps in.
func (s *reuseScript) element() object.Object {
	switch s.pick(6) {
	case 0:
		return object.Int(s.pick(3))
	case 1:
		return object.Float(float64(s.pick(3)))
	default:
		s.next++
		return object.TupleOf("k", s.next%7, "v", s.pick(4))
	}
}

// twin returns an object Equal to e but not identical to it.
func twin(e object.Object) object.Object {
	switch x := e.(type) {
	case object.Int:
		return object.Float(float64(x))
	case object.Float:
		if x == 0 && !math.Signbit(float64(x)) {
			return object.Float(math.Copysign(0, -1))
		}
		return object.Int(int64(x))
	}
	return e.Clone()
}

// step applies one random mutation and reports whether the member's
// content may have changed (false: the next fetch must reuse).
func (s *reuseScript) step() bool {
	rel := reuseRels[s.pick(len(reuseRels))]
	v, ok := s.db.Get(rel)
	var elems []object.Object
	if ok {
		elems = v.(*object.Set).Elems()
	}
	put := func(es []object.Object) {
		set := object.NewSet()
		for _, e := range es {
			set.Add(e)
		}
		s.db.Put(rel, set)
	}
	switch s.pick(9) {
	case 0: // unchanged
		return false
	case 1: // the same elements in a fresh set
		if !ok {
			return false
		}
		put(elems)
		return false
	case 2: // reordered
		slices.Reverse(elems)
		put(elems)
	case 3: // one element replaced by an Equal twin
		if len(elems) > 0 {
			i := s.pick(len(elems))
			elems[i] = twin(elems[i])
		}
		put(elems)
	case 4: // an element added
		put(append(elems, s.element()))
	case 5: // an element removed
		if len(elems) > 0 {
			i := s.pick(len(elems))
			elems = append(elems[:i], elems[i+1:]...)
		}
		put(elems)
	case 6: // emptied (or added empty)
		put(nil)
	case 7: // removed
		s.db.Delete(rel)
	default: // truncated to a prefix
		put(elems[:len(elems)/2])
	}
	return true
}

// runFetchReuse fetches a scripted member after each of steps mutations
// with the previous snapshot as prev, and fails unless every fetch
// matches the rebuild reference, leaves prev untouched, and returns prev
// itself whenever the member did not change.
func runFetchReuse(t *testing.T, pick func(int) int, steps int) {
	t.Helper()
	ctx := context.Background()
	sc := &reuseScript{pick: pick, db: object.NewTuple()}
	for i := 0; i < 4; i++ {
		sc.step()
	}
	src := NewMemorySource("m", sc.db)
	var prev *object.Tuple
	changed := true
	for i := 0; i < steps; i++ {
		var before string
		if prev != nil {
			before = prev.String()
		}
		got, err := Fetch(ctx, src, prev)
		if err != nil {
			t.Fatal(err)
		}
		want, err := rebuild(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSnapshot(got, want) {
			t.Fatalf("step %d: fetch with prev differs from a rebuild\n got %s\nwant %s", i, got, want)
		}
		if prev != nil && prev.String() != before {
			t.Fatalf("step %d: fetch modified prev: %s became %s", i, before, prev)
		}
		if !changed && got != prev {
			t.Fatalf("step %d: unchanged member was rebuilt", i)
		}
		prev = got
		changed = sc.step()
	}
}

func TestFetchReuseMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		runFetchReuse(t, r.Intn, 200)
	}
}

// TestFetchReuseSharesUnchangedRelations pins the reuse granularity: a
// change to one relation rebuilds that relation only.
func TestFetchReuseSharesUnchangedRelations(t *testing.T) {
	ctx := context.Background()
	db := memberDB()
	src := NewMemorySource("euter", db)
	first, err := Fetch(ctx, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := Fetch(ctx, src, first); again != first {
		t.Fatal("unchanged member: Fetch did not return prev")
	}
	db.Put("map", object.SetOf(object.TupleOf("from", "c002", "to", "ibm")))
	second, err := Fetch(ctx, src, first)
	if err != nil {
		t.Fatal(err)
	}
	if second == first {
		t.Fatal("changed member: Fetch returned prev")
	}
	r1, _ := first.Get("r")
	r2, _ := second.Get("r")
	if r1 != r2 {
		t.Error("unchanged relation r was rebuilt")
	}
	m1, _ := first.Get("map")
	m2, _ := second.Get("map")
	if m1 == m2 || m2.(*object.Set).Len() != 1 {
		t.Errorf("changed relation map: got %s", m2)
	}
}

// FuzzFetchReuse searches mutation sequences over a MemorySource member
// for a fetch whose reuse of the previous snapshot diverges from a full
// rebuild. The input bytes drive every choice; an exhausted input reads
// as zeros (the "unchanged" mutation).
func FuzzFetchReuse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x04\x02\x03\x00\x05\x01\x06\x02\x07\x00\x08\x01\x02"))
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 256)
		r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		pick := func(n int) int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1]) % n
		}
		runFetchReuse(t, pick, min(len(data)/3+1, 128))
	})
}
