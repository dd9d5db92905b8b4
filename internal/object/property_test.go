package object

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomObject generates an arbitrary object of bounded depth for
// property-based testing.
func randomObject(r *rand.Rand, depth int) Object {
	max := 9
	if depth <= 0 {
		max = 7 // atoms only
	}
	switch r.Intn(max) {
	case 0:
		return Null{}
	case 1:
		return Bool(r.Intn(2) == 0)
	case 2:
		return Int(r.Intn(200) - 100)
	case 3:
		return Float(float64(r.Intn(400))/4 - 50)
	case 4:
		letters := []string{"hp", "ibm", "sun", "dec", "date", "x", "y", ""}
		return Str(letters[r.Intn(len(letters))])
	case 5:
		return NewDate(85+r.Intn(3), 1+r.Intn(12), 1+r.Intn(28))
	case 6:
		return bigNumber(r)
	case 7:
		t := NewTuple()
		attrs := []string{"a", "b", "c", "d"}
		for i := 0; i < r.Intn(4); i++ {
			t.Put(attrs[r.Intn(len(attrs))], randomObject(r, depth-1))
		}
		return t
	default:
		s := NewSet()
		for i := 0; i < r.Intn(5); i++ {
			s.Add(randomObject(r, depth-1))
		}
		return s
	}
}

// bigNumber draws an Int or Float next to a point where float64 loses
// integer precision (2^53) or int64 runs out (±2^63), where a comparison
// rounded through float64 would conflate distinct numbers.
func bigNumber(r *rand.Rand) Object {
	bases := []float64{1 << 53, -(1 << 53), 1 << 63, -(1 << 63)}
	base := bases[r.Intn(len(bases))]
	if r.Intn(2) == 0 {
		return Float(base + float64(2*(r.Intn(3)-1))) // exact at 2^53; ±2^63 absorbs it
	}
	switch base {
	case 1 << 63:
		return Int(math.MaxInt64 - int64(r.Intn(3)))
	case -(1 << 63):
		return Int(math.MinInt64 + int64(r.Intn(3)))
	}
	return Int(int64(base) + int64(r.Intn(3)-1))
}

// objValue wraps an Object to satisfy quick.Generator.
type objValue struct{ O Object }

func (objValue) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(objValue{randomObject(r, 3)})
}

var quickCfg = &quick.Config{MaxCount: 300}

func TestPropEqualReflexive(t *testing.T) {
	f := func(v objValue) bool { return v.O.Equal(v.O) }
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestPropEqualImpliesHashEqual(t *testing.T) {
	f := func(a, b objValue) bool {
		if a.O.Equal(b.O) {
			return a.O.Hash() == b.O.Hash()
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestPropEqualSymmetric(t *testing.T) {
	f := func(a, b objValue) bool { return a.O.Equal(b.O) == b.O.Equal(a.O) }
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestPropCompareAntisymmetric(t *testing.T) {
	f := func(a, b objValue) bool { return a.O.Compare(b.O) == -b.O.Compare(a.O) }
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestPropCompareConsistentWithEqualForAtoms(t *testing.T) {
	// For comparable atoms, Compare == 0 iff Equal. (Aggregates use
	// canonical order where 0 also implies structural equality, but
	// cross-kind rank ties never occur.)
	f := func(a, b objValue) bool {
		if !a.O.Kind().IsAtomic() || !b.O.Kind().IsAtomic() {
			return true
		}
		if a.O.Equal(b.O) {
			return a.O.Compare(b.O) == 0
		}
		if kindRank(a.O.Kind()) == kindRank(b.O.Kind()) && a.O.Kind() != KindNull {
			return a.O.Compare(b.O) != 0
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestPropCloneEqual(t *testing.T) {
	f := func(v objValue) bool {
		c := v.O.Clone()
		return v.O.Equal(c) && c.Equal(v.O) && v.O.Hash() == c.Hash()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestPropSetAddIdempotent(t *testing.T) {
	f := func(vs []objValue) bool {
		s := NewSet()
		for _, v := range vs {
			s.Add(v.O)
		}
		n := s.Len()
		for _, v := range vs {
			if s.Add(v.O) {
				return false // re-adding must not change the set
			}
		}
		return s.Len() == n
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestPropSetAddRemoveInverse(t *testing.T) {
	f := func(vs []objValue, extra objValue) bool {
		s := NewSet()
		for _, v := range vs {
			s.Add(v.O)
		}
		had := s.Contains(extra.O)
		s.Add(extra.O)
		if !s.Contains(extra.O) {
			return false
		}
		s.Remove(extra.O)
		if s.Contains(extra.O) {
			return false
		}
		_ = had
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestPropJSONRoundTrip(t *testing.T) {
	f := func(v objValue) bool {
		data, err := MarshalJSON(v.O)
		if err != nil {
			return false
		}
		back, err := UnmarshalJSON(data)
		if err != nil {
			return false
		}
		return v.O.Equal(back)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestPropTupleDeleteRemovesOnlyTarget(t *testing.T) {
	f := func(v objValue) bool {
		tup, ok := v.O.(*Tuple)
		if !ok || tup.Len() == 0 {
			return true
		}
		attrs := append([]string(nil), tup.Attrs()...)
		victim := attrs[len(attrs)/2]
		before := map[string]Object{}
		tup.Each(func(a string, o Object) bool { before[a] = o; return true })
		tup.Delete(victim)
		if tup.Has(victim) {
			return false
		}
		for a, o := range before {
			if a == victim {
				continue
			}
			got, ok := tup.Get(a)
			if !ok || !got.Equal(o) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestJSONRoundTripExplicit(t *testing.T) {
	objs := []Object{
		Null{},
		Bool(true),
		Int(-42),
		Int(1 << 60), // beyond float53: the string encoding must preserve it
		Float(2.5),
		Str("hello world"),
		NewDate(85, 3, 3),
		TupleOf("date", NewDate(85, 3, 3), "stkCode", "hp", "clsPrice", 50),
		SetOf(TupleOf("a", 1), TupleOf("a", 1, "b", 2), "str", 7),
		NewSet(),
		NewTuple(),
	}
	for _, o := range objs {
		data, err := MarshalJSON(o)
		if err != nil {
			t.Fatalf("marshal %v: %v", o, err)
		}
		back, err := UnmarshalJSON(data)
		if err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if !o.Equal(back) {
			t.Errorf("round-trip changed %v into %v", o, back)
		}
	}
}

func TestJSONUnmarshalErrors(t *testing.T) {
	bad := []string{
		``,
		`{"k":"mystery"}`,
		`{"k":"int","v":"notanumber"}`,
		`{"k":"tup","a":["x"],"t":[]}`,
		`{"k":"bool","v":"nope"}`,
	}
	for _, s := range bad {
		if _, err := UnmarshalJSON([]byte(s)); err == nil {
			t.Errorf("UnmarshalJSON(%q) should fail", s)
		}
	}
}

// TestIntFloatExactBeyond2p53 pins the cross-kind numeric comparison on
// pairs a float64 round trip conflates: Equal must agree with Hash, and
// Compare must order the exact values.
func TestIntFloatExactBeyond2p53(t *testing.T) {
	const p53 = 1 << 53
	cases := []struct {
		a, b  Object
		order int // a.Compare(b)
	}{
		{Int(p53 + 1), Float(p53), 1},
		{Int(p53), Float(p53), 0},
		{Int(p53 - 1), Float(p53), -1},
		{Int(p53 + 1), Float(p53 + 2), -1},
		{Int(-p53 - 1), Float(-p53), -1},
		{Int(p53 + 1), Int(p53), 1}, // float64(both) is 2^53
		{Int(math.MaxInt64), Int(math.MaxInt64 - 1), 1},
		{Int(math.MaxInt64), Float(1 << 63), -1},
		{Int(math.MinInt64), Float(-(1 << 63)), 0},
		{Int(math.MinInt64), Float(math.Inf(-1)), 1},
		{Int(3), Float(2.5), 1},
		{Int(-3), Float(-2.5), -1},
		{Int(-2), Float(-2.5), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.order {
			t.Errorf("%v.Compare(%v) = %d, want %d", c.a, c.b, got, c.order)
		}
		if got := c.b.Compare(c.a); got != -c.order {
			t.Errorf("%v.Compare(%v) = %d, want %d", c.b, c.a, got, -c.order)
		}
		eq := c.order == 0
		if c.a.Equal(c.b) != eq || c.b.Equal(c.a) != eq {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, c.a.Equal(c.b), eq)
		}
		if eq && c.a.Hash() != c.b.Hash() {
			t.Errorf("%v and %v are Equal but hash differently", c.a, c.b)
		}
		s := SetOf(c.a)
		if s.Contains(c.b) != eq {
			t.Errorf("SetOf(%v).Contains(%v) = %v, want %v", c.a, c.b, s.Contains(c.b), eq)
		}
	}
}
