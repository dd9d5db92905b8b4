package core

import "idl/internal/object"

// decreeIndex narrows make-true's host search (makeTrueInSet) from a scan
// of the whole target set to one hash bucket. It lives for one
// materialization: materializeInto creates it, every decree of every rule
// run goes through it, and it is dropped with the fixpoint.
//
// Per set it keeps, for every attribute of the set's tuple elements, how
// many tuple elements carry the attribute and, per value hash, those
// elements in the set's insertion order. Take a decreed attribute that
// every tuple element carries: an element outside the bucket of the
// decreed value's hash holds an unequal value there (Hash is consistent
// with Equal), so it can neither subsume the decree nor absorb it. That
// bucket holds every candidate host, and scanning it in insertion order
// picks the same host as a scan of the whole set.
//
// Entries are keyed by set pointer and stamped with Set.Version: a set
// changed outside makeTrueInSet is re-indexed on its next decree, and a
// set the MVCC copy-on-write barrier swapped for a clone is a new key.
type decreeIndex struct {
	sets map[*object.Set]*setHosts

	decrees    int // makeTrueInSet calls
	hostProbes int // tuple elements tested as host candidates
}

func newDecreeIndex() *decreeIndex {
	return &decreeIndex{sets: make(map[*object.Set]*setHosts)}
}

// setHosts indexes the tuple elements of one set as of version.
type setHosts struct {
	version  uint64
	tuples   int                         // tuple elements in the set
	carriers map[string]int              // attribute -> tuple elements carrying it
	buckets  map[hostKey][]*object.Tuple // (attribute, value hash) -> elements, insertion order
}

type hostKey struct {
	attr string
	hash uint64
}

// hosts returns set's index, rebuilding it when the set moved since it was
// last indexed.
func (ix *decreeIndex) hosts(set *object.Set) *setHosts {
	h := ix.sets[set]
	if h != nil && h.version == set.Version() {
		return h
	}
	h = &setHosts{
		version:  set.Version(),
		carriers: make(map[string]int),
		buckets:  make(map[hostKey][]*object.Tuple),
	}
	set.Each(func(elem object.Object) bool {
		if t, ok := elem.(*object.Tuple); ok {
			h.add(t)
		}
		return true
	})
	ix.sets[set] = h
	return h
}

func (h *setHosts) add(t *object.Tuple) {
	h.tuples++
	t.Each(func(attr string, v object.Object) bool {
		h.carriers[attr]++
		k := hostKey{attr, v.Hash()}
		h.buckets[k] = append(h.buckets[k], t)
		return true
	})
}

func (h *setHosts) remove(t *object.Tuple) {
	h.tuples--
	t.Each(func(attr string, v object.Object) bool {
		if h.carriers[attr]--; h.carriers[attr] == 0 {
			delete(h.carriers, attr)
		}
		k := hostKey{attr, v.Hash()}
		b := h.buckets[k]
		for i, e := range b {
			if e == t {
				b = append(b[:i], b[i+1:]...)
				break
			}
		}
		if len(b) == 0 {
			delete(h.buckets, k)
		} else {
			h.buckets[k] = b
		}
		return true
	})
}

// candidates returns the smallest bucket among the decree's attributes
// that every tuple element carries, and false when no decreed attribute
// is carried by all of them (the caller then scans the whole set).
func (h *setHosts) candidates(tgt *object.Tuple) ([]*object.Tuple, bool) {
	var best []*object.Tuple
	found := false
	tgt.Each(func(attr string, want object.Object) bool {
		if h.carriers[attr] != h.tuples {
			return true
		}
		b := h.buckets[hostKey{attr, want.Hash()}]
		if !found || len(b) < len(best) {
			best, found = b, true
		}
		return len(best) > 0
	})
	return best, found
}
