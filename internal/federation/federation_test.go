package federation

import (
	"context"
	"errors"
	"testing"
	"time"

	"idl/internal/object"
)

// memberDB builds a small two-relation member database.
func memberDB() *object.Tuple {
	r := object.NewSet()
	r.Add(object.TupleOf("date", object.Date{Year: 1985, Month: 3, Day: 3}, "stkCode", "hp", "clsPrice", 50))
	r.Add(object.TupleOf("date", object.Date{Year: 1985, Month: 3, Day: 4}, "stkCode", "ibm", "clsPrice", 140))
	s := object.NewSet()
	s.Add(object.TupleOf("from", "c001", "to", "hp"))
	db := object.NewTuple()
	db.Put("r", r)
	db.Put("map", s)
	return db
}

func TestMemorySourceFetch(t *testing.T) {
	db := memberDB()
	src := NewMemorySource("euter", db)
	snap, err := Fetch(context.Background(), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Equal(db) {
		t.Errorf("snapshot differs from source:\n%s\n%s", snap, db)
	}
	attrs, err := src.Attributes(context.Background(), "r")
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != 3 || attrs[0] != "clsPrice" {
		t.Errorf("attributes = %v", attrs)
	}
	if _, err := src.Attributes(context.Background(), "nope"); err == nil {
		t.Error("missing relation should error")
	}
}

func TestMemorySourceHonorsCancellation(t *testing.T) {
	src := NewMemorySource("euter", memberDB())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := src.Relations(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Relations err = %v", err)
	}
	if err := src.Scan(ctx, "r", func(object.Object) bool { return true }); !errors.Is(err, context.Canceled) {
		t.Errorf("Scan err = %v", err)
	}
}

func TestInjectorScriptedFaults(t *testing.T) {
	src := Inject(NewMemorySource("euter", memberDB()), InjectorConfig{
		Script: []Fault{{Kind: FaultError}, {Kind: FaultNone}, {Kind: FaultTruncate, After: 1}},
	})
	ctx := context.Background()
	if _, err := src.Relations(ctx); !errors.Is(err, ErrInjected) {
		t.Fatalf("op 1 should fail injected, got %v", err)
	}
	if _, err := src.Relations(ctx); err != nil {
		t.Fatalf("op 2 should pass, got %v", err)
	}
	n := 0
	err := src.Scan(ctx, "r", func(object.Object) bool { n++; return true })
	if !errors.Is(err, ErrInjected) || n != 1 {
		t.Fatalf("op 3 should truncate after 1 (yielded %d, err %v)", n, err)
	}
	// Past the script: clean.
	if _, err := src.Relations(ctx); err != nil {
		t.Fatalf("op 4 should pass, got %v", err)
	}
	if src.Calls() != 4 || src.Injected() != 2 {
		t.Errorf("calls=%d injected=%d", src.Calls(), src.Injected())
	}
}

func TestInjectorSeededDeterminism(t *testing.T) {
	cfg := InjectorConfig{Seed: 17, ErrorRate: 0.3, SlowRate: 0.2, TruncateRate: 0.1, TruncateAfter: 1}
	run := func() []bool {
		in := Inject(NewMemorySource("euter", memberDB()), cfg)
		var outcomes []bool
		for i := 0; i < 50; i++ {
			_, err := in.Relations(context.Background())
			outcomes = append(outcomes, err == nil)
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault schedule diverged at op %d", i)
		}
	}
}

func TestTimeoutConvertsLatencyToDeadline(t *testing.T) {
	slow := Inject(NewMemorySource("euter", memberDB()), InjectorConfig{
		Script: []Fault{{Kind: FaultLatency, Latency: 2 * time.Second}},
	})
	src := WithTimeout(slow, 5*time.Millisecond)
	start := time.Now()
	_, err := src.Relations(context.Background())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("timeout did not cut the stall short")
	}
}

func TestRetrierRecoversAndReportsAttempts(t *testing.T) {
	flaky := Inject(NewMemorySource("euter", memberDB()), InjectorConfig{
		Script: []Fault{{Kind: FaultError}, {Kind: FaultError}},
	})
	rt := NewRetrier(flaky, 2, time.Millisecond, 4*time.Millisecond, 7)
	slept := 0
	rt.sleep = func(context.Context, time.Duration) error { slept++; return nil }
	rels, err := rt.Relations(context.Background())
	if err != nil || len(rels) != 2 {
		t.Fatalf("rels=%v err=%v", rels, err)
	}
	if rt.LastAttempts() != 3 || slept != 2 {
		t.Errorf("attempts=%d slept=%d", rt.LastAttempts(), slept)
	}
}

func TestRetrierScanBuffersPartialResults(t *testing.T) {
	// First scan truncates after 1 element; the retry succeeds. The
	// consumer must see exactly the full relation, no duplicates.
	flaky := Inject(NewMemorySource("euter", memberDB()), InjectorConfig{
		Script: []Fault{{Kind: FaultTruncate, After: 1}},
	})
	rt := NewRetrier(flaky, 1, time.Millisecond, time.Millisecond, 7)
	rt.sleep = func(context.Context, time.Duration) error { return nil }
	got := object.NewSet()
	n := 0
	if err := rt.Scan(context.Background(), "r", func(e object.Object) bool { n++; got.Add(e); return true }); err != nil {
		t.Fatal(err)
	}
	if n != 2 || got.Len() != 2 {
		t.Errorf("yielded %d elements (%d distinct), want 2", n, got.Len())
	}
}

func TestRetrierGivesUpAndStopsOnCancel(t *testing.T) {
	dead := Inject(NewMemorySource("euter", memberDB()), InjectorConfig{ErrorRate: 1})
	rt := NewRetrier(dead, 2, time.Millisecond, time.Millisecond, 7)
	rt.sleep = func(context.Context, time.Duration) error { return nil }
	if _, err := rt.Relations(context.Background()); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	if rt.LastAttempts() != 3 {
		t.Errorf("attempts = %d, want 3", rt.LastAttempts())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rt.Relations(ctx); rt.LastAttempts() != 1 || err == nil {
		t.Errorf("cancelled caller retried: attempts=%d err=%v", rt.LastAttempts(), err)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	dead := Inject(NewMemorySource("euter", memberDB()), InjectorConfig{
		Script: []Fault{{Kind: FaultError}, {Kind: FaultError}},
	})
	clock := time.Unix(1000, 0)
	b := NewBreaker(dead, 2, time.Second)
	b.SetClock(func() time.Time { return clock })
	ctx := context.Background()

	// Two consecutive failures trip the circuit.
	if _, err := b.Relations(ctx); !errors.Is(err, ErrInjected) {
		t.Fatalf("first failure: %v", err)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state after 1 failure = %v", b.State())
	}
	if _, err := b.Relations(ctx); !errors.Is(err, ErrInjected) {
		t.Fatalf("second failure: %v", err)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state after 2 failures = %v", b.State())
	}
	// Open: rejected without consulting the member (script is spent, so
	// a pass-through would succeed).
	if _, err := b.Relations(ctx); !errors.Is(err, ErrOpen) {
		t.Fatalf("open circuit let a call through: %v", err)
	}
	// Cooldown elapses → half-open; the probe succeeds → closed.
	clock = clock.Add(2 * time.Second)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v", b.State())
	}
	if _, err := b.Relations(ctx); err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state after probe = %v", b.State())
	}
}

func TestBreakerReopensOnFailedProbe(t *testing.T) {
	dead := Inject(NewMemorySource("euter", memberDB()), InjectorConfig{ErrorRate: 1})
	clock := time.Unix(1000, 0)
	b := NewBreaker(dead, 1, time.Second)
	b.SetClock(func() time.Time { return clock })
	ctx := context.Background()
	b.Relations(ctx) // trips immediately (threshold 1)
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v", b.State())
	}
	clock = clock.Add(time.Second)
	if _, err := b.Relations(ctx); !errors.Is(err, ErrInjected) {
		t.Fatalf("probe err = %v", err)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("failed probe must reopen, state = %v", b.State())
	}
}

func TestStackComposition(t *testing.T) {
	flaky := Inject(NewMemorySource("euter", memberDB()), InjectorConfig{
		Script: []Fault{{Kind: FaultError}},
	})
	cfg := DefaultConfig()
	cfg.RetryBase = time.Microsecond
	cfg.RetryCap = time.Microsecond
	st := Resilient(flaky, cfg)
	snap, err := Fetch(context.Background(), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len() != 2 {
		t.Errorf("snapshot relations = %d", snap.Len())
	}
	breaker, attempts := Probe(st)
	if breaker != "closed" || attempts < 1 {
		t.Errorf("probe = %q/%d", breaker, attempts)
	}
}

func TestReportRendering(t *testing.T) {
	rep := &Report{
		Sources: []SourceHealth{
			{Name: "chwab", Err: `relations: injected fault`, Attempts: 3, Breaker: "open"},
			{Name: "euter"},
			{Name: "ource"},
		},
		Skipped: []string{".chwab.r(.date=D, .S=P)"},
	}
	want := "degraded: 1/3 member databases unreachable\n" +
		"  chwab: relations: injected fault (attempts=3, breaker=open)\n" +
		"  skipped: .chwab.r(.date=D, .S=P)"
	if got := rep.String(); got != want {
		t.Errorf("report rendering:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if !rep.Degraded() || len(rep.Unavailable()) != 1 {
		t.Error("degraded accessors inconsistent")
	}
	healthy := &Report{Sources: []SourceHealth{{Name: "euter"}}}
	if healthy.Degraded() || healthy.String() != "all 1 member databases reachable" {
		t.Errorf("healthy report: %q", healthy.String())
	}
}

func TestBreakerHook(t *testing.T) {
	dead := Inject(NewMemorySource("euter", memberDB()), InjectorConfig{
		Script: []Fault{{Kind: FaultError}, {Kind: FaultError}},
	})
	clock := time.Unix(1000, 0)
	b := NewBreaker(dead, 2, time.Second)
	b.SetClock(func() time.Time { return clock })
	type transition struct {
		member   string
		from, to BreakerState
	}
	var got []transition
	b.SetHook(func(member string, from, to BreakerState) {
		got = append(got, transition{member, from, to})
	})
	ctx := context.Background()

	b.Relations(ctx) // failure 1: still closed, no transition
	b.Relations(ctx) // failure 2: closed -> open
	clock = clock.Add(2 * time.Second)
	b.State()        // open -> half-open
	b.Relations(ctx) // script spent, probe succeeds: half-open -> closed

	want := []transition{
		{"euter", BreakerClosed, BreakerOpen},
		{"euter", BreakerOpen, BreakerHalfOpen},
		{"euter", BreakerHalfOpen, BreakerClosed},
	}
	if len(got) != len(want) {
		t.Fatalf("transitions = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("transition %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestStackForwardsBreakerHook(t *testing.T) {
	dead := Inject(NewMemorySource("euter", memberDB()), InjectorConfig{ErrorRate: 1})
	cfg := DefaultConfig()
	cfg.Retries = 0
	cfg.BreakerThreshold = 1
	st := Resilient(dead, cfg)
	var fired int
	var hooker BreakerHooker = st
	hooker.SetBreakerHook(func(member string, from, to BreakerState) { fired++ })
	st.Relations(context.Background())
	if fired != 1 {
		t.Fatalf("hook fired %d times, want 1 (closed -> open)", fired)
	}

	// Disabled breaker: forwarding is a no-op, not a panic.
	cfg.BreakerThreshold = -1
	none := Resilient(dead, cfg)
	if none.Breaker() != nil {
		t.Fatal("breaker should be disabled")
	}
	none.SetBreakerHook(func(string, BreakerState, BreakerState) {})
}
