package catalog

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"idl/internal/federation"
	"idl/internal/object"
	"idl/internal/obs"
)

// rebuildFetch is the reference fetch: every relation scanned into a
// fresh set, prev ignored. A catalog using it never sees its installed
// snapshot come back, so value equality alone decides every install.
func rebuildFetch(ctx context.Context, src federation.Source, _ *object.Tuple) (*object.Tuple, error) {
	rels, err := src.Relations(ctx)
	if err != nil {
		return nil, &federation.SourceError{Source: src.Name(), Op: "relations", Err: err}
	}
	sort.Strings(rels)
	db := object.NewTuple()
	for _, rel := range rels {
		set := object.NewSet()
		if err := src.Scan(ctx, rel, func(e object.Object) bool { set.Add(e); return true }); err != nil {
			return nil, &federation.SourceError{Source: src.Name(), Op: fmt.Sprintf("scan %q", rel), Err: err}
		}
		db.Put(rel, set)
	}
	return db, nil
}

// scriptedSource is a member database a test script rewrites between
// syncs. With dup set, every scan yields each element twice; with down
// set, every fetch fails.
type scriptedSource struct {
	name string
	db   *object.Tuple
	dup  bool
	down bool
}

func (s *scriptedSource) Name() string { return s.name }

func (s *scriptedSource) Relations(ctx context.Context) ([]string, error) {
	if s.down {
		return nil, federation.ErrInjected
	}
	return slices.Clone(s.db.Attrs()), nil
}

func (s *scriptedSource) Scan(ctx context.Context, rel string, yield func(object.Object) bool) error {
	v, ok := s.db.Get(rel)
	if !ok {
		return fmt.Errorf("no relation %q", rel)
	}
	v.(*object.Set).Each(func(e object.Object) bool {
		if !yield(e) {
			return false
		}
		return !s.dup || yield(e)
	})
	return nil
}

func (s *scriptedSource) Attributes(ctx context.Context, rel string) ([]string, error) {
	return nil, nil
}

// mutate applies one seeded change to the member: none, a reorder,
// duplicate yields, an element replaced by an Equal but distinct object,
// a relation added, removed or emptied, or an element added or removed.
// Relation sets are replaced, never changed in place.
func (s *scriptedSource) mutate(r *rand.Rand, fresh func() object.Object) {
	rels := []string{"r", "s", "t"}
	rel := rels[r.Intn(len(rels))]
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
	switch r.Intn(10) {
	case 0:
		slices.Reverse(elems)
		put(elems)
	case 1:
		s.dup = !s.dup
	case 2:
		if len(elems) > 0 {
			i := r.Intn(len(elems))
			elems[i] = elems[i].Clone() // a fresh equal tuple (atoms clone to themselves)
		}
		put(elems)
	case 3:
		for i, e := range elems {
			if x, ok := e.(object.Int); ok {
				elems[i] = object.Float(float64(x)) // Int(1) → Float(1)
				break
			}
		}
		put(elems)
	case 4:
		put(append(elems, fresh()))
	case 5:
		if len(elems) > 0 {
			i := r.Intn(len(elems))
			put(append(elems[:i], elems[i+1:]...))
		}
	case 6:
		put(nil)
	case 7:
		s.db.Delete(rel)
	}
}

// syncSide is one catalog of the differential pair, with everything the
// comparison reads: the epoch (bumped on every universe change) and the
// snapshot-log calls, rendered.
type syncSide struct {
	cat   *Catalog
	epoch uint64
	log   []string
	reg   *obs.Registry
}

func newSyncSide(t *testing.T, members []*scriptedSource, seed uint64, conc int, now func() time.Time) *syncSide {
	t.Helper()
	s := &syncSide{reg: obs.NewRegistry()}
	s.cat = New(nil, func() { s.epoch++ })
	s.cat.SetEpochSource(func() uint64 { return s.epoch })
	s.cat.SetSnapshotLogger(func(name string, snap *object.Tuple) error {
		rendered := "<dropped>"
		if snap != nil {
			rendered = snap.String()
		}
		s.log = append(s.log, name+" "+rendered)
		return nil
	})
	s.cat.SetMetrics(s.reg)
	s.cat.SetFetchConcurrency(conc)
	cfg := federation.Config{
		Retries:          2,
		RetryBase:        time.Microsecond,
		RetryCap:         time.Microsecond,
		BreakerThreshold: 2,
		BreakerCooldown:  3 * time.Second,
		Seed:             seed,
	}
	for i, m := range members {
		inj := federation.Inject(m, federation.InjectorConfig{
			Seed:          seed*31 + uint64(i),
			ErrorRate:     0.1,
			TruncateRate:  0.1,
			TruncateAfter: 1,
		})
		st := federation.Resilient(inj, cfg)
		st.Breaker().SetClock(now)
		if err := s.cat.Mount(m.name, st); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func (s *syncSide) sync(bestEffort bool) string {
	rep, err := s.cat.SyncSources(context.Background(), bestEffort)
	if err != nil {
		return "error: " + err.Error()
	}
	return rep.String()
}

// TestSyncReuseMatchesRebuild is the differential test of member-snapshot
// reuse: a catalog fetching with its last snapshots as prev and one
// rebuilding every member from scratch sync the same scripted members,
// behind identical seeded fault schedules (errors, truncated scans,
// retries, breakers), and must agree after every sync on the report,
// the installed universe, the catalog epoch and the snapshot-log calls.
func TestSyncReuseMatchesRebuild(t *testing.T) {
	for _, conc := range []int{1, 4} {
		for _, bestEffort := range []bool{false, true} {
			for seed := uint64(1); seed <= 4; seed++ {
				name := fmt.Sprintf("conc%d/besteffort=%v/seed%d", conc, bestEffort, seed)
				t.Run(name, func(t *testing.T) {
					runSyncDiff(t, seed, conc, bestEffort)
				})
			}
		}
	}
}

func runSyncDiff(t *testing.T, seed uint64, conc int, bestEffort bool) {
	r := rand.New(rand.NewSource(int64(seed)))
	key := 0
	fresh := func() object.Object {
		key++
		if key%3 == 0 {
			return object.Int(key)
		}
		return object.TupleOf("k", key, "v", r.Intn(4))
	}
	var members []*scriptedSource
	for _, name := range []string{"alpha", "beta", "gamma"} {
		m := &scriptedSource{name: name, db: object.NewTuple()}
		for _, rel := range []string{"r", "s"} {
			set := object.NewSet()
			for i := 0; i < 4; i++ {
				set.Add(fresh())
			}
			m.db.Put(rel, set)
		}
		members = append(members, m)
	}
	clock := time.Unix(0, 0)
	now := func() time.Time { return clock }
	got := newSyncSide(t, members, seed, conc, now)
	want := newSyncSide(t, members, seed, conc, now)
	want.cat.fetch = rebuildFetch
	for step := 0; step < 80; step++ {
		gotRep, wantRep := got.sync(bestEffort), want.sync(bestEffort)
		if gotRep != wantRep {
			t.Fatalf("step %d: report\n got %s\nwant %s", step, gotRep, wantRep)
		}
		if g, w := got.cat.Universe().String(), want.cat.Universe().String(); g != w {
			t.Fatalf("step %d: universe\n got %s\nwant %s", step, g, w)
		}
		if g, w := got.cat.Universe().CanonicalString(), want.cat.Universe().CanonicalString(); g != w {
			t.Fatalf("step %d: canonical universe\n got %s\nwant %s", step, g, w)
		}
		if got.epoch != want.epoch {
			t.Fatalf("step %d: epoch %d, want %d", step, got.epoch, want.epoch)
		}
		if !slices.Equal(got.log, want.log) {
			t.Fatalf("step %d: snapshot log\n got %q\nwant %q", step, got.log, want.log)
		}
		for _, m := range members {
			m.mutate(r, fresh)
		}
		clock = clock.Add(time.Second)
	}
	if got.reg.CounterValue("federation.sync.reused") == 0 {
		t.Error("no member sync reused its snapshot: the reuse path went untested")
	}
	if want.reg.CounterValue("federation.sync.reused") != 0 {
		t.Error("the rebuild reference reported a reuse")
	}
}

// TestSyncReuseForgetsDroppedMembers checks the remembered snapshots'
// lifetime: a member dropped in best-effort mode or unmounted is fetched
// from scratch when it returns, and an unchanged member is reinstalled
// by identity without moving the epoch.
func TestSyncReuseForgetsDroppedMembers(t *testing.T) {
	member := &scriptedSource{name: "m", db: object.TupleOf("r", object.SetOf(object.TupleOf("a", 1)))}
	epoch := 0
	c := New(nil, func() { epoch++ })
	if err := c.Mount("m", member); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.SetMetrics(reg)
	sync := func() {
		t.Helper()
		if _, err := c.SyncSources(context.Background(), true); err != nil {
			t.Fatal(err)
		}
	}
	sync()
	first, _ := c.Universe().Get("m")
	sync()
	if again, _ := c.Universe().Get("m"); again != first || epoch != 1 {
		t.Fatalf("unchanged member: snapshot replaced or epoch moved (epoch %d)", epoch)
	}
	if n := reg.CounterValue("federation.sync.reused"); n != 1 {
		t.Fatalf("federation.sync.reused = %d, want 1", n)
	}
	member.down = true
	sync()
	if c.Universe().Has("m") || c.synced["m"] != nil {
		t.Fatal("a dropped member keeps its snapshot")
	}
	member.down = false
	sync()
	back, _ := c.Universe().Get("m")
	if back == first || !back.Equal(first) {
		t.Fatalf("returning member: got %v (same object: %v)", back, back == first)
	}
	if err := c.Unmount("m"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.synced["m"]; ok {
		t.Fatal("an unmounted member keeps its remembered snapshot")
	}
}
