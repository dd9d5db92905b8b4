package idl

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"idl/internal/stocks"
)

// The DB (and the underlying Engine) serialize all operations behind one
// mutex; these tests exercise mixed workloads under the race detector
// and check the end state is coherent.

func TestConcurrentQueries(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	if err := db.DefineViews(
		".dbI.p+(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)",
	); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, err := db.Query("?.dbI.p(.stk=S, .price>200)")
				if err != nil {
					t.Error(err)
					return
				}
				if res.Len() != 1 {
					t.Errorf("rows = %d", res.Len())
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	var wg sync.WaitGroup
	const writers, perWriter = 4, 25
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				src := fmt.Sprintf("?.euter.r+(.date=4/1/85, .stkCode=w%dn%d, .clsPrice=%d)", w, i, i)
				if _, err := db.Exec(src); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := db.Query("?.euter.r(.stkCode=S, .clsPrice>100)"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	res, err := db.Query("?.euter.r(.date=4/1/85, .stkCode=S)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != writers*perWriter {
		t.Errorf("inserted rows = %d, want %d", res.Len(), writers*perWriter)
	}
}

func TestConcurrentProgramCalls(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	if err := db.DefinePrograms(
		".dbU.ins(.stk=S, .date=D, .price=P) -> .euter.r+(.stkCode=S, .date=D, .clsPrice=P)",
	); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, err := db.Call("dbU", "ins", map[string]any{
					"S": fmt.Sprintf("g%dn%d", g, i),
					"D": Date(85, 5, 1),
					"P": i,
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	res, _ := db.Query("?.euter.r(.date=5/1/85, .stkCode=S)")
	if res.Len() != 120 {
		t.Errorf("rows = %d, want 120", res.Len())
	}
}

// TestCtxPreCancelled: a context cancelled before the call starts is
// honored at the entry point, before the engine does any work.
func TestCtxPreCancelled(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryCtx(ctx, "?.euter.r(.stkCode=S)"); !errors.Is(err, context.Canceled) {
		t.Errorf("QueryCtx on cancelled ctx: %v", err)
	}
	if _, err := db.ExecCtx(ctx, "?.euter.r+(.date=4/1/85, .stkCode=zz, .clsPrice=1)"); !errors.Is(err, context.Canceled) {
		t.Errorf("ExecCtx on cancelled ctx: %v", err)
	}
	if _, err := db.LoadCtx(ctx, "?.euter.r(.stkCode=S)"); !errors.Is(err, context.Canceled) {
		t.Errorf("LoadCtx on cancelled ctx: %v", err)
	}
	// The cancelled update must not have mutated the universe.
	res, err := db.Query("?.euter.r(.stkCode=zz)")
	if err != nil || res.Len() != 0 {
		t.Errorf("cancelled exec leaked a write: %v %v", res, err)
	}
}

// TestCtxCancelMidEnumeration aborts a deliberately explosive join
// (500³ candidate combinations, no satisfying rows) shortly after it
// starts; the evaluator's amortized cancellation checks must surface
// context.Canceled long before the enumeration could finish.
func TestCtxCancelMidEnumeration(t *testing.T) {
	db := Open()
	u, _ := stocks.Universe(stocks.Config{Stocks: 25, Days: 20, Seed: 7})
	u.Each(func(name string, v Value) bool {
		db.Engine().Base().Put(name, v)
		return true
	})
	db.Engine().Invalidate()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// Cross product of euter.r with itself twice, with a constraint
		// no row can meet — the engine would enumerate all 1.25e8
		// combinations if left alone. The constraint consumes P3 (bound
		// only by the last scan) so the cost-based scheduler cannot pull
		// it forward to prune the enumeration early.
		_, err := db.QueryCtx(ctx,
			"?.euter.r(.clsPrice=P1), .euter.r(.clsPrice=P2), .euter.r(.clsPrice=P3), P3 > 100000")
		done <- err
	}()
	time.AfterFunc(10*time.Millisecond, cancel)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("mid-enumeration cancel: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("query did not honor cancellation within 10s")
	}
}

// TestCtxCancelDuringConcurrentLoad mixes cancelled and uncancelled
// queries under the race detector: cancellation of one caller must not
// disturb the answers of others.
func TestCtxCancelDuringConcurrentLoad(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				res, err := db.Query("?.euter.r(.stkCode=S, .clsPrice>100)")
				if err != nil {
					t.Error(err)
					return
				}
				if res.Len() == 0 {
					t.Error("steady query lost rows")
					return
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if _, err := db.QueryCtx(ctx, "?.euter.r(.stkCode=S)"); !errors.Is(err, context.Canceled) {
					t.Errorf("cancelled query: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentParallelMountUnmount runs the mixed federation workload
// with parallel evaluation on: member databases mount and unmount while
// other goroutines query, sync, read stats and metrics, and retune the
// worker count. Everything must stay race-clean and the steady queries
// must keep their answers.
func TestConcurrentParallelMountUnmount(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	db.SetWorkers(4)
	reg := db.Metrics()
	var wg sync.WaitGroup
	// Mount/unmount churn: each goroutine owns a distinct member name, so
	// mounts never collide, and queries its own member while mounted.
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("m%d", g)
			member := Tup("r", SetOf(
				Tup("date", Date(85, 3, 3), "stkCode", "hp", "clsPrice", 50+g),
				Tup("date", Date(85, 3, 4), "stkCode", "sun", "clsPrice", 210),
			))
			for i := 0; i < 20; i++ {
				if err := db.Mount(name, NewMemorySource(name, member)); err != nil {
					t.Error(err)
					return
				}
				res, err := db.Query(fmt.Sprintf("?.%s.r(.stkCode=S, .clsPrice>100)", name))
				if err != nil {
					t.Error(err)
					return
				}
				if res.Len() != 1 {
					t.Errorf("member %s rows = %d, want 1", name, res.Len())
					return
				}
				if err := db.Unmount(name); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Steady queries over the in-process databases, partitioned big scans
	// included via the self-join shape.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				res, err := db.Query("?.euter.r(.date=D,.stkCode=S,.clsPrice=P), .euter.r~(.stkCode=S, .clsPrice>P)")
				if err != nil {
					t.Error(err)
					return
				}
				if res.Len() != 3 {
					t.Errorf("all-time highs = %d, want 3", res.Len())
					return
				}
			}
		}()
	}
	// Observability readers and worker-count churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			_ = db.Stats()
			_ = reg.Snapshot()
			_ = db.Workers()
			if _, err := db.Sync(context.Background()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			db.SetWorkers(i % 8)
		}
	}()
	wg.Wait()
	db.SetWorkers(4)
	res, err := db.Query("?.euter.r(.stkCode=S, .clsPrice>200)")
	if err != nil || res.Len() != 1 {
		t.Fatalf("final parallel query: %v %v", res, err)
	}
	if len(db.Sources()) != 0 {
		t.Errorf("members still mounted: %v", db.Sources())
	}
}

// TestConcurrentStatsAndMetrics hammers Stats/ResetStats and the
// metrics registry while traced queries and ExplainAnalyze run from
// other goroutines at four workers, so per-worker conjunct probes run
// concurrently too. Every operation evaluates into a local Stats merged
// under a stats lock, so the counters must stay coherent under the race
// detector.
func TestConcurrentStatsAndMetrics(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	// Enough euter rows that its scans split across the workers.
	for i := 0; i < 24; i++ {
		if _, err := db.Catalog().Insert("euter", "r", Tup("date", Date(85, 4, 1+i), "stkCode", "dec", "clsPrice", 10+i)); err != nil {
			t.Fatal(err)
		}
	}
	db.SetWorkers(4)
	reg := db.Metrics()
	db.EnableTracing(8)
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch (g + i) % 5 {
				case 0:
					if _, err := db.Query("?.euter.r(.stkCode=S, .clsPrice>100)"); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, _, err := db.ExplainAnalyzeCtx(context.Background(), "?.ource.S(.clsPrice=P)"); err != nil {
						t.Error(err)
						return
					}
				case 2:
					_ = db.Stats()
					_ = reg.Snapshot()
					_ = reg.CounterValue("engine.query.count")
				case 3:
					db.Engine().ResetStats()
					db.ResetMetrics()
				case 4:
					if _, _, err := db.ExplainAnalyzeCtx(context.Background(), "?.euter.r(.stkCode=S, .clsPrice=P)"); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	// After the dust settles, one more query must record coherently.
	db.Engine().ResetStats()
	db.ResetMetrics()
	if _, err := db.Query("?.euter.r(.stkCode=S)"); err != nil {
		t.Fatal(err)
	}
	if db.Stats().ElementsScanned == 0 {
		t.Error("stats should record the final query")
	}
	if reg.CounterValue("engine.query.count") != 1 {
		t.Errorf("query count = %d, want 1", reg.CounterValue("engine.query.count"))
	}
	if tr := db.Tracer(); len(tr.Recent()) == 0 {
		t.Error("tracer should retain the final query span")
	}
}

// TestQueryDuringBlockedCommit: a facade read must not wait for a
// commit in progress. While an UpdateBase functor holds the engine's
// commit path, DB.Query (recorder on, metrics and tracing attached)
// answers from the published snapshot.
func TestQueryDuringBlockedCommit(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	db.Metrics()
	db.EnableTracing(8)
	const src = "?.euter.r(.stkCode=S, .clsPrice>200)"
	want, err := db.Query(src) // publishes the snapshot head
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	committed := make(chan struct{})
	go func() {
		defer close(committed)
		db.Engine().UpdateBase(func(*Tuple) bool {
			close(entered)
			<-release
			return false
		})
	}()
	<-entered
	type result struct {
		res *Result
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := db.Query(src)
		done <- result{res, err}
	}()
	select {
	case r := <-done:
		close(release)
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.res.String() != want.String() {
			t.Errorf("read during commit = %s, want %s", r.res, want)
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("DB.Query blocked behind a commit in progress")
	}
	<-committed
}

// blockingSource is a member whose relation listing blocks until
// release closes — a member fetch stuck on a slow network. entered
// closes when the first listing starts.
type blockingSource struct {
	entered, release chan struct{}
	once             sync.Once
}

func (s *blockingSource) Name() string { return "slow" }

func (s *blockingSource) Relations(ctx context.Context) ([]string, error) {
	s.once.Do(func() { close(s.entered) })
	select {
	case <-s.release:
		return nil, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (s *blockingSource) Scan(context.Context, string, func(Value) bool) error { return nil }

func (s *blockingSource) Attributes(context.Context, string) ([]string, error) { return nil, nil }

// TestHealthDuringBlockedSync: health, metrics and digest readers —
// DB.Health (with its WAL section), DB.Metrics, DB.Statements,
// DB.TopStatements and DB.StatementsDropped, which back /v1/health,
// /debug/metrics and /debug/statements — answer while a member sync is
// stuck mid-fetch.
func TestHealthDuringBlockedSync(t *testing.T) {
	db, _, err := OpenWAL(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.EnableInsights(InsightsConfig{})
	src := &blockingSource{entered: make(chan struct{}), release: make(chan struct{})}
	if err := db.Mount("slow", src); err != nil {
		t.Fatal(err)
	}
	synced := make(chan error, 1)
	go func() {
		_, err := db.Sync(context.Background())
		synced <- err
	}()
	<-src.entered
	done := make(chan error, 1)
	go func() {
		h, err := db.Health()
		if err == nil && h.WAL == nil {
			err = errors.New("health report has no WAL section")
		}
		if err == nil {
			_, err = db.Statements()
		}
		if err == nil {
			_, err = db.TopStatements(3, "calls")
		}
		db.StatementsDropped()
		db.Metrics().Snapshot()
		done <- err
	}()
	var blocked bool
	select {
	case err = <-done:
	case <-time.After(2 * time.Second):
		blocked = true
	}
	close(src.release)
	if serr := <-synced; serr != nil {
		t.Fatal(serr)
	}
	if blocked {
		t.Fatal("health and digest readers blocked behind a member sync")
	}
	if err != nil {
		t.Fatal(err)
	}
}
