package idl

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"idl/internal/obs"
)

// Trace export tests: every operation mints one trace ID at the facade,
// and the ID joins the operation's span tree, its federation member
// fetches, its WAL commit, and its flight-recorder event.

func attrStr(s *obs.Span, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Str
		}
	}
	return ""
}

func attrInt(s *obs.Span, key string) int64 {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Int
		}
	}
	return 0
}

func TestTracesRequireTracing(t *testing.T) {
	db := Open()
	if _, err := db.Traces(); err == nil || !strings.Contains(err.Error(), "tracing is not enabled") {
		t.Fatalf("Traces without a tracer = %v", err)
	}
	if err := db.ExportTraces(io.Discard); err == nil {
		t.Fatal("ExportTraces without a tracer should fail")
	}
}

func TestTraceIDFormatAndUniqueness(t *testing.T) {
	db := Open()
	if _, err := db.Catalog().Insert("d", "r", Tup("x", 1)); err != nil {
		t.Fatal(err)
	}
	db.EnableTracing(8)
	for i := 0; i < 3; i++ {
		if _, err := db.Query("?.d.r(.x=X)"); err != nil {
			t.Fatal(err)
		}
	}
	traces, err := db.Traces()
	if err != nil {
		t.Fatal(err)
	}
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := map[string]bool{}
	queries := 0
	for _, tr := range traces {
		if tr.Root.Name != "query" {
			continue
		}
		queries++
		if !hex16.MatchString(tr.TraceID) {
			t.Errorf("trace id %q is not 16 hex digits", tr.TraceID)
		}
		if seen[tr.TraceID] {
			t.Errorf("duplicate trace id %q", tr.TraceID)
		}
		seen[tr.TraceID] = true
		if tr.QID == 0 {
			t.Errorf("query trace %s lost its flight-recorder op id", tr.TraceID)
		}
	}
	if queries != 3 {
		t.Errorf("expected 3 query traces, got %d", queries)
	}
}

// TestTraceExportCorrelation is the acceptance path: a durable federated
// update's exported trace contains the member fetch and the WAL commit
// as root spans sharing the operation's trace ID, and the
// flight-recorder event carries the same ID.
func TestTraceExportCorrelation(t *testing.T) {
	db, _, err := OpenWAL(t.TempDir(), WALOptions{Durability: DurabilitySync})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Catalog().Insert("euter", "r",
		Tup("date", Date(85, 3, 1), "stkCode", "hp", "clsPrice", 50)); err != nil {
		t.Fatal(err)
	}
	member := NewMemorySource("mem1", Tup("quotes", SetOf(
		Tup("date", Date(85, 3, 1), "clsPrice", 11))))
	if err := db.Mount("mem1", member); err != nil {
		t.Fatal(err)
	}
	db.EnableTracing(32)
	if _, err := db.Exec("?.euter.r+(.date=3/4/85,.stkCode=dec,.clsPrice=80)"); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := db.ExportTraces(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Traces []TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not JSON: %v\n%s", err, buf.String())
	}
	byName := map[string][]TraceRecord{}
	for _, tr := range doc.Traces {
		byName[tr.Root.Name] = append(byName[tr.Root.Name], tr)
	}
	execs := byName["exec"]
	if len(execs) != 1 {
		t.Fatalf("expected one exec trace, got %d:\n%s", len(execs), buf.String())
	}
	tid := execs[0].TraceID
	if tid == "" {
		t.Fatalf("exec trace has no trace id:\n%s", buf.String())
	}
	for _, name := range []string{"federation.fetch", "wal.commit"} {
		found := false
		for _, tr := range byName[name] {
			if tr.TraceID == tid {
				found = true
			}
		}
		if !found {
			t.Errorf("no %s span shares the exec trace id %s:\n%s", name, tid, buf.String())
		}
	}
	// The WAL commit span names the LSN it committed, for joining
	// against the log offline.
	for _, tr := range byName["wal.commit"] {
		if attrInt(tr.Root, "lsn") <= 0 {
			t.Errorf("wal.commit span missing lsn: %+v", tr.Root.Attrs)
		}
		if attrStr(tr.Root, "type") != "exec" {
			t.Errorf("wal.commit span type = %q, want exec", attrStr(tr.Root, "type"))
		}
	}
	for _, ev := range db.Events() {
		if ev.Kind == EventExec && ev.TraceID != tid {
			t.Errorf("exec event trace id %q != span trace id %q", ev.TraceID, tid)
		}
	}
}

// TestFetchSpanMarksReuse: a member's federation.fetch span says whether
// the fetch kept the installed snapshot (reused=1) or built a new one.
func TestFetchSpanMarksReuse(t *testing.T) {
	db := Open()
	member := Tup("quotes", SetOf(Tup("date", Date(85, 3, 1), "clsPrice", 11)))
	if err := db.Mount("mem1", NewMemorySource("mem1", member)); err != nil {
		t.Fatal(err)
	}
	db.EnableTracing(32)
	for i := 0; i < 2; i++ {
		if _, err := db.Query("?.mem1.quotes(.clsPrice=P)"); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := db.ExportTraces(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Traces []TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not JSON: %v\n%s", err, buf.String())
	}
	var reused []int64
	for _, tr := range doc.Traces {
		if tr.Root.Name == "federation.fetch" {
			reused = append(reused, attrInt(tr.Root, "reused"))
		}
	}
	if len(reused) != 2 || reused[0] != 0 || reused[1] != 1 {
		t.Errorf("federation.fetch reused attributes = %v, want [0 1] (first sync builds, second keeps)", reused)
	}
}

// TestTraceJournalCorrelation: with a workload journal attached, the
// journal record for an operation carries the same trace ID as its
// exported span tree.
func TestTraceJournalCorrelation(t *testing.T) {
	db := Open()
	if _, err := db.Catalog().Insert("d", "r", Tup("x", 1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.idlog")
	if err := db.StartJournal(path, nil); err != nil {
		t.Fatal(err)
	}
	db.EnableTracing(8)
	if _, err := db.Query("?.d.r(.x=X)"); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	traces, err := db.Traces()
	if err != nil {
		t.Fatal(err)
	}
	var tid string
	for _, tr := range traces {
		if tr.Root.Name == "query" {
			tid = tr.TraceID
		}
	}
	if tid == "" {
		t.Fatal("no query trace recorded")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"trace_id":"`+tid+`"`) {
		t.Errorf("journal record missing trace id %s:\n%s", tid, raw)
	}
}

// TestTracedQueryRunsLikeUntraced: observing a query must not change
// how it runs. At four workers, an untraced and a traced run of one
// statement report the same plan-cache outcome and dispatch the same
// number of scan partitions, and the traced run's per-conjunct span —
// summed over the workers' probes — counts every answer row.
func TestTracedQueryRunsLikeUntraced(t *testing.T) {
	db := Open()
	for i := 0; i < 64; i++ {
		if _, err := db.Catalog().Insert("d", "r", Tup("k", i, "v", i%7)); err != nil {
			t.Fatal(err)
		}
	}
	db.SetWorkers(4)
	reg := db.Metrics()
	const src = "?.d.r(.k=K, .v>2)"
	if _, err := db.Query(src); err != nil { // compile and cache the plan
		t.Fatal(err)
	}
	run := func() (*Result, string, uint64) {
		t.Helper()
		before := reg.CounterValue("engine.eval.partitions")
		res, err := db.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		cache := "<nil>"
		if res.Plan != nil {
			cache = res.Plan.Cache
		}
		return res, cache, reg.CounterValue("engine.eval.partitions") - before
	}
	_, cache, parts := run()
	if cache != "hit" || parts != 4 {
		t.Fatalf("untraced run: cache=%s partitions=%d, want hit/4", cache, parts)
	}
	db.EnableTracing(8)
	res, tcache, tparts := run()
	if tcache != cache || tparts != parts {
		t.Fatalf("traced run: cache=%s partitions=%d, untraced cache=%s partitions=%d", tcache, tparts, cache, parts)
	}
	traces, err := db.Traces()
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || traces[0].Root.Name != "query" || len(traces[0].Root.Children) != 1 {
		t.Fatalf("want one query trace with one conjunct span, got %+v", traces)
	}
	if got := attrInt(traces[0].Root.Children[0], "rows"); got != int64(res.Len()) {
		t.Errorf("conjunct span rows=%d, answer rows=%d", got, res.Len())
	}
}
