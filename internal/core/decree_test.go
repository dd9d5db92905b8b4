package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"idl/internal/object"
	"idl/internal/stocks"
)

// linearMakeTrueInSet is make-true's host search as a scan of the whole
// set, element by element in insertion order. It is the reference the
// indexed search (decreeIndex.makeTrueInSet) must match exactly: same
// return value, same elements in the same order.
func linearMakeTrueInSet(set *object.Set, target object.Object) int {
	tgt, isTuple := target.(*object.Tuple)
	if !isTuple {
		if set.Add(target) {
			return 1
		}
		return 0
	}
	var host *object.Tuple
	found := false
	set.Each(func(elem object.Object) bool {
		e, ok := elem.(*object.Tuple)
		if !ok {
			return true
		}
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
	})
	if found {
		return 0
	}
	if host != nil {
		set.Remove(host)
		h2, _ := host.Clone().(*object.Tuple)
		tgt.Each(func(attr string, want object.Object) bool {
			if !h2.Has(attr) {
				h2.Put(attr, want)
			}
			return true
		})
		set.Add(h2)
		return 1
	}
	set.Add(tgt)
	return 1
}

// decreeGen draws decrees and set contents from small pools, so hosts,
// conflicts, missing attributes and hash collisions are all frequent.
// pick(n) returns a choice in [0, n): a seeded rand in the differential
// test, the fuzzer's bytes in FuzzMakeTrueInSet.
type decreeGen struct {
	pick func(n int) int
}

var decreeAttrs = []string{"a", "b", "c", "d"}

func (g decreeGen) value() object.Object {
	switch g.pick(12) {
	case 0:
		// Every NaN hashes alike and equals nothing: a hash collision
		// between unequal values.
		return object.Float(math.NaN())
	case 1:
		// Integral floats equal, and hash like, the matching Int.
		return object.Float(float64(g.pick(3)))
	case 2:
		return object.Str(fmt.Sprintf("s%d", g.pick(2)))
	case 3:
		return object.SetOf(g.pick(2), g.pick(2))
	case 4:
		// Past 2^53 float64 conflates neighbouring integers: Int(2^53+1)
		// neither equals nor hashes like Float(2^53).
		return object.Int(1<<53 + int64(g.pick(3)))
	case 5:
		return object.Float(1<<53 + 2*float64(g.pick(2)))
	default:
		return object.Int(g.pick(3))
	}
}

// tuple builds a tuple over a random subset of the attribute pool (empty
// now and then), in a random attribute order.
func (g decreeGen) tuple() *object.Tuple {
	t := object.NewTuple()
	start := g.pick(len(decreeAttrs))
	for i := range decreeAttrs {
		if g.pick(3) > 0 {
			t.Put(decreeAttrs[(start+i)%len(decreeAttrs)], g.value())
		}
	}
	return t
}

// element is a decree target or a foreign set element: mostly tuples,
// sometimes an atom or a set.
func (g decreeGen) element() object.Object {
	switch g.pick(12) {
	case 0:
		return object.Int(g.pick(3))
	case 1:
		return object.SetOf(g.pick(2))
	default:
		return g.tuple()
	}
}

// runDecreeDiff applies steps random operations to an indexed set and a
// reference set and fails at the first divergence. Besides decrees, the
// operations mutate both sets outside make-true (an insert or a removal,
// so the indexed set's version moves under its index) and swap both sets
// for shallow clones, as the MVCC copy-on-write barrier does.
func runDecreeDiff(t testing.TB, g decreeGen, steps int) {
	t.Helper()
	ix := newDecreeIndex()
	got, want := object.NewSet(), object.NewSet()
	for i := 0; i < steps; i++ {
		switch op := g.pick(20); {
		case op == 0:
			e := g.element()
			got.Add(e)
			want.Add(e.Clone())
		case op == 1 && want.Len() > 0:
			k := g.pick(want.Len())
			got.Remove(got.Elems()[k])
			want.Remove(want.Elems()[k])
		case op == 2:
			got, want = got.ShallowClone(), want.ShallowClone()
		default:
			d := g.element()
			gn := ix.makeTrueInSet(got, d)
			wn := linearMakeTrueInSet(want, d.Clone())
			if gn != wn {
				t.Fatalf("step %d: decree %s returned %d, reference %d", i, d, gn, wn)
			}
		}
		if gs, ws := got.String(), want.String(); gs != ws {
			t.Fatalf("step %d: indexed set diverged from the linear scan:\n got %s\nwant %s", i, gs, ws)
		}
	}
}

func TestMakeTrueInSetMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		runDecreeDiff(t, decreeGen{pick: r.Intn}, 200)
	}
}

// TestMakeTrueInSetFallsBackWithoutCommonAttribute pins the fallback: no
// decreed attribute is carried by every element, so the whole set is
// scanned and the first compatible element in insertion order absorbs
// the decree.
func TestMakeTrueInSetFallsBackWithoutCommonAttribute(t *testing.T) {
	ix := newDecreeIndex()
	set := object.NewSet()
	set.Add(object.TupleOf("a", 1))
	set.Add(object.TupleOf("b", 2))
	set.Add(object.TupleOf("a", 1, "c", 3))
	if n := ix.makeTrueInSet(set, object.TupleOf("a", 1, "b", 2)); n != 1 {
		t.Fatalf("decree returned %d, want 1", n)
	}
	if got, want := set.String(), "{(b:2), (a:1, c:3), (a:1, b:2)}"; got != want {
		t.Fatalf("set = %s, want %s", got, want)
	}
	if ix.hostProbes != 3 {
		t.Fatalf("host probes = %d, want a full scan of 3", ix.hostProbes)
	}
}

// TestMakeTrueInSetProbesOneBucket: with an attribute every element
// carries, only the decree's bucket is examined.
func TestMakeTrueInSetProbesOneBucket(t *testing.T) {
	ix := newDecreeIndex()
	set := object.NewSet()
	for d := 0; d < 50; d++ {
		ix.makeTrueInSet(set, object.TupleOf("date", d, "hp", d))
	}
	ix.hostProbes = 0
	if n := ix.makeTrueInSet(set, object.TupleOf("date", 7, "ibm", 70)); n != 1 {
		t.Fatalf("merge returned %d, want 1", n)
	}
	if ix.hostProbes != 1 {
		t.Fatalf("host probes = %d, want 1", ix.hostProbes)
	}
	if !set.Contains(object.TupleOf("date", 7, "hp", 7, "ibm", 70)) || set.Len() != 50 {
		t.Fatalf("decree did not merge into the date=7 row: %s", set)
	}
}

// FuzzMakeTrueInSet searches decree sequences for a divergence between
// the indexed host search and the linear reference. The input bytes drive
// every choice runDecreeDiff makes; an exhausted input reads as zeros.
// Runs are capped at 256 steps so each input stays cheap.
func FuzzMakeTrueInSet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x05\x03\x01\x02\x00\x07\x04\x09\x03\x01\x00\x02\x08\x06"))
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
		runDecreeDiff(t, decreeGen{pick: pick}, min(len(data)/4+1, 256))
	})
}

// TestMakeTrueHostProbesBounded is the timer-free regression guard for
// the host search: materializing Figure 1's views (the unified view, the
// pnew reconciliation and the three customized views) over 64 stocks
// must examine at most 8 host candidates per decree. A scan of the whole
// target set examines hundreds.
func TestMakeTrueHostProbesBounded(t *testing.T) {
	u, _ := stocks.Universe(stocks.Config{Stocks: 64, Days: 20, Seed: 17, Discrepancies: 128})
	rules := append(append(append([]string{}, stocks.RulesUnified...), stocks.RulePnew), stocks.RulesCustomized...)
	var first RecomputeStats
	for run := 0; run < 2; run++ {
		e := NewEngine()
		u.Each(func(db string, v object.Object) bool {
			e.Base().Put(db, v)
			return true
		})
		e.Invalidate()
		addRules(t, e, rules)
		if _, err := e.EffectiveUniverse(); err != nil {
			t.Fatal(err)
		}
		st := e.LastRecompute()
		if st.Decrees == 0 {
			t.Fatal("materialization made no decrees")
		}
		if st.HostProbes > 8*st.Decrees {
			t.Fatalf("host probes = %d for %d decrees (%.1f per decree), bound 8", st.HostProbes, st.Decrees, float64(st.HostProbes)/float64(st.Decrees))
		}
		if run == 0 {
			first = st
			t.Logf("%d decrees, %d host probes (%.2f per decree)", st.Decrees, st.HostProbes, float64(st.HostProbes)/float64(st.Decrees))
		} else if st != first {
			t.Fatalf("counts not deterministic: %+v then %+v", first, st)
		}
	}
}

// TestIncrementalDecreesUnderPinnedSnapshot drives the incremental path
// into sets a pinned MVCC snapshot shares, so the copy-on-write barrier
// swaps each set make-true descends into for a clone the decree index has
// never seen. The grown overlay must be byte-identical to the same
// incremental refresh on an engine that never published a snapshot (no
// swap), its answers must match a full recomputation, and the pinned
// snapshot must not move.
func TestIncrementalDecreesUnderPinnedSnapshot(t *testing.T) {
	rules := append(append([]string{}, monotoneRules...), ".dbC.r+(.date=D, .S=P) <- .dbI.p(.date=D, .stk=S, .price=P)")
	views := []string{
		"?.dbI.p(.date=D, .stk=S, .price=P)",
		"?.dbC.r(.date=D, .S=P)",
		"?.dbO.S(.date=D, .clsPrice=P)",
	}
	updates := []string{
		"?.euter.r+(.date=3/1/85,.stkCode=dec,.clsPrice=80)",
		"?.ource.dec+(.date=3/5/85,.clsPrice=81)",
		"?.euter.r+(.date=3/2/85,.stkCode=hp,.clsPrice=99)",
	}
	pinned := incrementalEngine(t)
	private := incrementalEngine(t)
	full := newStockEngine(t)
	for _, e := range []*Engine{pinned, private, full} {
		addRules(t, e, rules)
	}
	q(t, pinned, views[0]) // materialize and publish a head
	v := pinned.pinHead()
	if v == nil {
		t.Fatal("no head published after a query")
	}
	defer v.unpin()
	before := make([]string, len(views))
	for i, src := range views {
		before[i] = pinnedAnswer(t, pinned, v, src)
	}
	if _, err := private.EffectiveUniverse(); err != nil {
		t.Fatal(err)
	}
	clones := pinned.MVCCStats().COWClones
	for _, u := range updates {
		for _, e := range []*Engine{pinned, private, full} {
			exec(t, e, u)
		}
		q(t, pinned, views[0])
		if !pinned.LastRecompute().Incremental {
			t.Fatalf("after %s: the pinned engine did not take the incremental path", u)
		}
		po, err := pinned.DerivedOverlay()
		if err != nil {
			t.Fatal(err)
		}
		pr, err := private.DerivedOverlay()
		if err != nil {
			t.Fatal(err)
		}
		if po.String() != pr.String() {
			t.Fatalf("after %s: overlay under copy-on-write diverged:\n got %s\nwant %s", u, po, pr)
		}
		for _, src := range views {
			a, b := q(t, pinned, src), q(t, full, src)
			a.Sort()
			b.Sort()
			if a.String() != b.String() {
				t.Fatalf("after %s: %s incremental\n%s\nfull\n%s", u, src, a, b)
			}
		}
	}
	if pinned.MVCCStats().COWClones == clones {
		t.Fatal("the refreshes never copy-on-wrote a shared set")
	}
	if private.MVCCStats().COWClones != 0 {
		t.Fatal("the unpublished engine copy-on-wrote")
	}
	for i, src := range views {
		if got := pinnedAnswer(t, pinned, v, src); got != before[i] {
			t.Fatalf("pinned answer for %s moved:\n got %s\nwant %s", src, got, before[i])
		}
	}
}
