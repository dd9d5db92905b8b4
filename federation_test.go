package idl

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"idl/internal/federation"
	"idl/internal/stocks"
)

// The chaos suite: federated members behind deterministic fault
// schedules over the paper's stock workload. The invariants under test:
// with zero faults a federation-wrapped engine answers exactly like the
// seed engine; in best-effort mode the answer equals the full answer
// restricted to live members; breakers open and recover on schedule;
// updates never reach member snapshots.

// paperQuerySuite is the full §2/§4.3 example suite over the three
// stock schemas.
func paperQuerySuite() []string {
	var out []string
	above := stocks.QueryAnyAbove(100)
	highest := stocks.QueryHighestPerDay()
	for _, schema := range []string{"euter", "chwab", "ource"} {
		out = append(out, above[schema], highest[schema])
	}
	return append(out, stocks.QueryCrossJoin)
}

// memberTuples extracts the three member databases from a seeded DB so
// the identical data can be mounted as sources elsewhere.
func memberTuples(t *testing.T, db *DB) map[string]*Tuple {
	t.Helper()
	out := map[string]*Tuple{}
	for _, name := range []string{"euter", "chwab", "ource"} {
		v, ok := db.Engine().Base().Get(name)
		if !ok {
			t.Fatalf("seed db missing %s", name)
		}
		out[name] = v.(*Tuple)
	}
	return out
}

func sortedAnswer(t *testing.T, db *DB, q string) string {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	res.Sort()
	return res.String()
}

// TestFederationZeroFaultEquivalence is the acceptance gate: with no
// faults injected, mounting the members behind the full resilience
// stack changes no answer on the paper example suite, views included.
func TestFederationZeroFaultEquivalence(t *testing.T) {
	seed := Open()
	seedStocks(t, seed)
	if err := seed.DefineViews(stocks.RulesUnified...); err != nil {
		t.Fatal(err)
	}

	fed := Open()
	cfg := DefaultFederationConfig()
	cfg.RetryBase = time.Millisecond
	cfg.RetryCap = time.Millisecond
	for name, member := range memberTuples(t, seed) {
		if err := fed.Mount(name, Resilient(NewMemorySource(name, member), cfg)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fed.DefineViews(stocks.RulesUnified...); err != nil {
		t.Fatal(err)
	}

	suite := append(paperQuerySuite(), "?.dbI.p(.date=D, .stk=S, .price=P)")
	for _, q := range suite {
		want := sortedAnswer(t, seed, q)
		got := sortedAnswer(t, fed, q)
		if got != want {
			t.Errorf("federated answer drifts for %q:\n--- federated ---\n%s\n--- seed ---\n%s", q, got, want)
		}
	}
	res, err := fed.Query("?.euter.r(.stkCode=S)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != nil {
		t.Errorf("healthy federation should not report degradation: %v", res.Degraded)
	}
}

// TestFederationBestEffortPartialAnswers checks the degradation
// semantics: with chwab dead, every best-effort answer equals the full
// answer restricted to the live members, and the report names the dead
// member and the skipped conjuncts.
func TestFederationBestEffortPartialAnswers(t *testing.T) {
	seed := Open()
	seedStocks(t, seed)
	members := memberTuples(t, seed)

	// Reference: the same universe with chwab absent entirely.
	live := Open()
	live.Engine().Base().Put("euter", members["euter"])
	live.Engine().Base().Put("ource", members["ource"])
	live.Engine().Invalidate()
	if err := live.DefineViews(stocks.RulesUnified...); err != nil {
		t.Fatal(err)
	}

	opts := DefaultOptions()
	opts.BestEffort = true
	fed := OpenWithOptions(opts)
	mustMount(t, fed, "euter", NewMemorySource("euter", members["euter"]))
	mustMount(t, fed, "ource", NewMemorySource("ource", members["ource"]))
	dead := federation.Inject(NewMemorySource("chwab", members["chwab"]), federation.InjectorConfig{ErrorRate: 1})
	mustMount(t, fed, "chwab", dead)
	if err := fed.DefineViews(stocks.RulesUnified...); err != nil {
		t.Fatal(err)
	}

	// The unified view degrades to the live members' contribution.
	q := "?.dbI.p(.date=D, .stk=S, .price=P)"
	want := sortedAnswer(t, live, q)
	res, err := fed.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	res.Sort()
	if res.String() != want {
		t.Errorf("best-effort view answer:\n--- got ---\n%s\n--- want (live members only) ---\n%s", res.String(), want)
	}
	if res.Degraded == nil || !res.Degraded.Degraded() {
		t.Fatal("answer should carry a degradation report")
	}
	if down := res.Degraded.Unavailable(); len(down) != 1 || down[0] != "chwab" {
		t.Errorf("unavailable = %v, want [chwab]", down)
	}

	// A direct query over the dead member: empty, with the conjunct
	// reported skipped.
	res, err = fed.Query("?.chwab.r(.date=D, .hp=P)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("dead member returned %d rows", res.Len())
	}
	if res.Degraded == nil || len(res.Degraded.Skipped) != 1 {
		t.Fatalf("skipped conjuncts = %+v", res.Degraded)
	}

	// Explain marks the conjunct too.
	plan, err := fed.Explain("?.chwab.r(.date=D), .euter.r(.stkCode=S)")
	if err != nil {
		t.Fatal(err)
	}
	if !containsStr(plan, "skipped: member unavailable") {
		t.Errorf("explain does not mark the dead member:\n%s", plan)
	}
}

// TestFederationFailFast: the default mode preserves single-site
// semantics — an unreachable member is a typed error, not a partial
// answer.
func TestFederationFailFast(t *testing.T) {
	seed := Open()
	seedStocks(t, seed)
	members := memberTuples(t, seed)

	fed := Open() // BestEffort off
	mustMount(t, fed, "euter", NewMemorySource("euter", members["euter"]))
	dead := federation.Inject(NewMemorySource("chwab", members["chwab"]), federation.InjectorConfig{ErrorRate: 1})
	mustMount(t, fed, "chwab", dead)

	_, err := fed.Query("?.euter.r(.stkCode=S)")
	var serr *SourceError
	if !errors.As(err, &serr) {
		t.Fatalf("err = %v, want *SourceError", err)
	}
	if serr.Source != "chwab" {
		t.Errorf("failing source = %s", serr.Source)
	}
}

// TestFederationBreakerSchedule drives a scripted outage through the
// breaker with a fake clock: three failures open the circuit, the open
// circuit rejects the next sync without touching the member, and after
// the cooldown a successful probe closes it and the data comes back.
func TestFederationBreakerSchedule(t *testing.T) {
	seed := Open()
	seedStocks(t, seed)
	members := memberTuples(t, seed)

	flaky := federation.Inject(NewMemorySource("chwab", members["chwab"]), federation.InjectorConfig{
		Script: []federation.Fault{{Kind: federation.FaultError}, {Kind: federation.FaultError}, {Kind: federation.FaultError}},
	})
	clock := time.Unix(1000, 0)
	breaker := federation.NewBreaker(flaky, 3, time.Second)
	breaker.SetClock(func() time.Time { return clock })

	opts := DefaultOptions()
	opts.BestEffort = true
	fed := OpenWithOptions(opts)
	mustMount(t, fed, "chwab", breaker)

	q := "?.chwab.r(.date=D, .hp=P)"
	// Syncs 1–3 consume the scripted failures; the third opens the circuit.
	for i := 1; i <= 3; i++ {
		res, err := fed.Query(q)
		if err != nil || res.Len() != 0 {
			t.Fatalf("sync %d: rows=%v err=%v", i, res, err)
		}
	}
	if breaker.State() != federation.BreakerOpen {
		t.Fatalf("breaker after 3 failures = %v", breaker.State())
	}
	// Sync 4: rejected at the breaker (the script is spent, so a
	// pass-through would have succeeded), report names the open circuit.
	res, err := fed.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	health, ok := res.Degraded.Health("chwab")
	if !ok || health.Breaker != "open" {
		t.Fatalf("sync 4 health = %+v", health)
	}
	if flaky.Calls() != 3 {
		t.Errorf("open circuit still reached the member: calls=%d", flaky.Calls())
	}
	// Cooldown elapses: the half-open probe succeeds and data returns.
	clock = clock.Add(2 * time.Second)
	res, err = fed.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 || res.Degraded != nil {
		t.Fatalf("recovered member: rows=%d degraded=%v", res.Len(), res.Degraded)
	}
	if breaker.State() != federation.BreakerClosed {
		t.Errorf("breaker after recovery = %v", breaker.State())
	}
}

// TestFederationUpdatesRejected: member snapshots are read-only, and
// updates stay fail-fast even in best-effort mode.
func TestFederationUpdatesRejected(t *testing.T) {
	seed := Open()
	seedStocks(t, seed)
	members := memberTuples(t, seed)

	opts := DefaultOptions()
	opts.BestEffort = true
	fed := OpenWithOptions(opts)
	mustMount(t, fed, "euter", NewMemorySource("euter", members["euter"]))

	// Writing into a member snapshot is rejected outright.
	if _, err := fed.Query("?.euter.r(.stkCode=S)"); err != nil {
		t.Fatal(err)
	}
	_, err := fed.Exec("?.euter.r+(.date=4/1/85, .stkCode=new, .clsPrice=1)")
	if err == nil || !containsStr(err.Error(), "federated source snapshot") {
		t.Fatalf("update on member snapshot: %v", err)
	}
	// Local databases stay writable alongside members.
	fed.Catalog().Insert("local", "r", Tup("x", 1))
	if _, err := fed.Exec("?.local.r+(.x=2)"); err != nil {
		t.Fatal(err)
	}

	// Updates fail fast when any member is unreachable, BestEffort
	// notwithstanding: requests are all-or-nothing.
	dead := federation.Inject(NewMemorySource("chwab", members["chwab"]), federation.InjectorConfig{ErrorRate: 1})
	mustMount(t, fed, "chwab", dead)
	_, err = fed.Exec("?.local.r+(.x=3)")
	var serr *SourceError
	if !errors.As(err, &serr) {
		t.Fatalf("best-effort update with dead member: %v, want *SourceError", err)
	}
}

// TestFederationSeededChaosDeterminism: the same seed over the same
// statement sequence reproduces byte-identical results, degraded
// reports included.
func TestFederationSeededChaosDeterminism(t *testing.T) {
	seed := Open()
	seedStocks(t, seed)
	members := memberTuples(t, seed)

	run := func() string {
		opts := DefaultOptions()
		opts.BestEffort = true
		fed := OpenWithOptions(opts)
		for _, name := range []string{"chwab", "euter", "ource"} {
			injected := federation.Inject(NewMemorySource(name, members[name]), federation.InjectorConfig{
				Seed:          91,
				ErrorRate:     0.4,
				TruncateRate:  0.2,
				TruncateAfter: 1,
			})
			mustMount(t, fed, name, injected)
		}
		var out string
		for _, q := range paperQuerySuite() {
			res, err := fed.Query(q)
			if err != nil {
				t.Fatalf("query %q: %v", q, err)
			}
			res.Sort()
			out += ">> " + q + "\n" + res.String() + "\n"
			if res.Degraded != nil {
				out += res.Degraded.String() + "\n"
			}
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("chaos schedule not reproducible:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	if !containsStr(a, "degraded:") {
		t.Errorf("seed 91 at 40%% error rate should degrade something:\n%s", a)
	}
}

// TestFederationMountLifecycle covers mount/unmount edges: name
// collisions, sources listing, and snapshot removal on unmount.
func TestFederationMountLifecycle(t *testing.T) {
	db := Open()
	member := Tup("r", SetOf(Tup("x", 1)))
	mustMount(t, db, "", NewMemorySource("m", member))
	if got := db.Sources(); len(got) != 1 || got[0] != "m" {
		t.Fatalf("sources = %v", got)
	}
	if err := db.Mount("m", NewMemorySource("m", member)); err == nil {
		t.Error("duplicate mount should fail")
	}
	db.Catalog().Insert("localdb", "r", Tup("x", 1))
	if err := db.Mount("localdb", NewMemorySource("localdb", member)); err == nil {
		t.Error("mount over a local database should fail")
	}
	res, err := db.Query("?.m.r(.x=X)")
	if err != nil || res.Len() != 1 {
		t.Fatalf("member query: %v %v", res, err)
	}
	if err := db.Unmount("m"); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query("?.m.r(.x=X)")
	if err != nil || res.Len() != 0 {
		t.Fatalf("after unmount: %v %v", res, err)
	}
	if err := db.Unmount("m"); err == nil {
		t.Error("double unmount should fail")
	}
}

// mountStocks mounts the three stock schemas of a seeded universe as
// in-memory members. The member count and relation names depend only on
// the stock count, so days scales every relation without adding any.
func mountStocks(t *testing.T, db *DB, stocksN, days int) {
	t.Helper()
	u, _ := stocks.Universe(stocks.Config{Stocks: stocksN, Days: days, Seed: 3})
	for _, name := range []string{"euter", "chwab", "ource"} {
		v, _ := u.Get(name)
		if err := db.Mount(name, NewMemorySource(name, v.(*Tuple))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSyncUnchangedMemberReusesSnapshot is the deterministic gate on
// syncing unchanged members: the sync keeps the installed member tuples
// (so the epoch, and with it every plan and view cache, stays put) and
// allocates the same whatever the members' size — nothing per element.
func TestSyncUnchangedMemberReusesSnapshot(t *testing.T) {
	ctx := context.Background()
	allocs := map[int]float64{}
	for _, days := range []int{10, 80} {
		db := Open()
		mountStocks(t, db, 4, days)
		if _, err := db.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		before, epoch := memberTuples(t, db), db.CatalogEpoch()
		if _, err := db.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		for name, m := range memberTuples(t, db) {
			if m != before[name] {
				t.Errorf("days=%d: sync of unchanged member %s installed a new snapshot", days, name)
			}
		}
		if got := db.CatalogEpoch(); got != epoch {
			t.Errorf("days=%d: sync of unchanged members moved the epoch %d → %d", days, epoch, got)
		}
		if n := db.Metrics().CounterValue("federation.sync.reused"); n != 3 {
			t.Errorf("days=%d: federation.sync.reused = %d, want 3", days, n)
		}
		allocs[days] = testing.AllocsPerRun(50, func() {
			if _, err := db.Sync(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[10] != allocs[80] {
		t.Errorf("unchanged sync allocates per element: %.0f allocs at 1x size, %.0f at 8x", allocs[10], allocs[80])
	}
}

func mustMount(t *testing.T, db *DB, name string, src Source) {
	t.Helper()
	if err := db.Mount(name, src); err != nil {
		t.Fatal(err)
	}
}

func containsStr(s, sub string) bool { return strings.Contains(s, sub) }
