package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"idl"
)

// TestMetaTopAndStatement drives the \top and \statement meta-commands:
// orderings, k, the per-digest detail view with captured exemplars, the
// insights-off error path, and \reset-stats clearing the digest store.
func TestMetaTopAndStatement(t *testing.T) {
	db, err := openDB(config{demo: true})
	if err != nil {
		t.Fatal(err)
	}
	db.EnableInsights(idl.InsightsConfig{SlowThreshold: time.Nanosecond})
	// Two untraced runs tally plan-cache outcomes (a miss, then a hit)...
	for i := 0; i < 2; i++ {
		if _, err := db.Query("?.euter.r(.stkCode=S, .clsPrice>100)"); err != nil {
			t.Fatal(err)
		}
	}
	// ...then a traced run — served from the same plan cache — captures
	// an exemplar with its span tree.
	db.EnableTracing(8)
	if _, err := db.Query("?.euter.r(.stkCode=S, .clsPrice>100)"); err != nil {
		t.Fatal(err)
	}

	out := captureStdout(t, func() { meta(db, config{}, `\top`) })
	if !strings.Contains(out, "top 1 statements by time:") || !strings.Contains(out, "calls=3") {
		t.Errorf("\\top output:\n%s", out)
	}
	out = captureStdout(t, func() { meta(db, config{}, `\top calls 5`) })
	if !strings.Contains(out, "top 1 statements by calls:") {
		t.Errorf("\\top calls 5 output:\n%s", out)
	}
	out = captureStdout(t, func() { meta(db, config{}, `\top bogus`) })
	if !strings.Contains(out, "usage:") {
		t.Errorf("\\top bogus should print usage:\n%s", out)
	}

	digests, err := db.Statements()
	if err != nil || len(digests) != 1 {
		t.Fatalf("digests: %v %+v", err, digests)
	}
	fp := digests[0].Fingerprint
	out = captureStdout(t, func() { meta(db, config{}, `\statement `+fp) })
	for _, want := range []string{
		"statement " + fp + " kind=query calls=3",
		"plan-cache: hit=2",
		"resources: rows=",
		"captures: 3",
		"exemplar 3: trace=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("\\statement output missing %q:\n%s", want, out)
		}
	}
	// Tracing was on, so the exemplar embeds the rendered span tree
	// (root carries the trace attr; children the per-conjunct scans).
	if !strings.Contains(out, "elements_scanned=") {
		t.Errorf("\\statement should render the captured span tree:\n%s", out)
	}
	out = captureStdout(t, func() { meta(db, config{}, `\statement ffffffffffffffff`) })
	if !strings.Contains(out, "error:") {
		t.Errorf("unknown fingerprint should error:\n%s", out)
	}
	out = captureStdout(t, func() { meta(db, config{}, `\statement`) })
	if !strings.Contains(out, "usage:") {
		t.Errorf("bare \\statement should print usage:\n%s", out)
	}

	// \reset-stats clears the digest store along with the metrics.
	captureStdout(t, func() { meta(db, config{}, `\reset-stats`) })
	out = captureStdout(t, func() { meta(db, config{}, `\top`) })
	if !strings.Contains(out, "no statements digested yet") {
		t.Errorf("\\top after \\reset-stats:\n%s", out)
	}

	// Without a store the commands degrade with the facade's error.
	plain, err := openDB(config{demo: true})
	if err != nil {
		t.Fatal(err)
	}
	out = captureStdout(t, func() { meta(plain, config{}, `\top`) })
	if !strings.Contains(out, "insights are not enabled") {
		t.Errorf("\\top without insights:\n%s", out)
	}
}

// TestDebugStatementsEndpoints: /debug/statements answers 503 JSON while
// insights are off, 200 with the digest table once enabled; the
// per-fingerprint endpoint serves one digest with exemplars and 404s on
// unknown fingerprints.
func TestDebugStatementsEndpoints(t *testing.T) {
	db, err := openDB(config{demo: true})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := startDebugServer("127.0.0.1:0", db)
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, string, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(b)
	}

	for _, path := range []string{"/debug/statements", "/debug/statements/0000000000000001"} {
		code, ct, body := get(path)
		if code != http.StatusServiceUnavailable || ct != "application/json" {
			t.Errorf("GET %s while disabled: status %d content type %q", path, code, ct)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &e); err != nil || !strings.Contains(e.Error, "insights are not enabled") {
			t.Errorf("GET %s while disabled: body %q", path, body)
		}
	}

	db.EnableInsights(idl.InsightsConfig{SlowThreshold: time.Nanosecond})
	if _, err := db.Query("?.euter.r(.stkCode=S, .clsPrice>100)"); err != nil {
		t.Fatal(err)
	}

	code, ct, body := get("/debug/statements?by=calls&k=5")
	if code != http.StatusOK || ct != "application/json" {
		t.Fatalf("GET /debug/statements: status %d content type %q", code, ct)
	}
	var doc struct {
		Statements []idl.StatementDigest `json:"statements"`
		Dropped    uint64                `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/debug/statements is not JSON: %v\n%s", err, body)
	}
	if len(doc.Statements) != 1 || doc.Statements[0].Calls != 1 {
		t.Fatalf("/debug/statements: %s", body)
	}

	code, _, body = get("/debug/statements/" + doc.Statements[0].Fingerprint)
	if code != http.StatusOK {
		t.Fatalf("GET /debug/statements/<fp>: status %d", code)
	}
	var one struct {
		Digest    idl.StatementDigest     `json:"digest"`
		Exemplars []idl.StatementExemplar `json:"exemplars"`
	}
	if err := json.Unmarshal([]byte(body), &one); err != nil {
		t.Fatalf("per-digest body is not JSON: %v\n%s", err, body)
	}
	if one.Digest.Calls != 1 || len(one.Exemplars) != 1 || one.Exemplars[0].TraceID == "" {
		t.Fatalf("per-digest body: %s", body)
	}

	if code, _, _ := get("/debug/statements/ffffffffffffffff"); code != http.StatusNotFound {
		t.Errorf("unknown fingerprint: status %d, want 404", code)
	}
	if code, _, _ := get("/debug/statements/not-hex"); code != http.StatusNotFound {
		t.Errorf("malformed fingerprint: status %d, want 404", code)
	}
}

// TestGoldenTopSession pins the \top surface over a session touching all
// three stock schemas. Ordering is by calls (deterministic: counts and
// the fingerprint tiebreak), fingerprints are version-salted structural
// hashes (stable across runs), and resource counters are byte-identical
// at every worker count — only latencies normalize away.
func TestGoldenTopSession(t *testing.T) {
	cfg := defaultConfig()
	cfg.demo = true
	out := captureStdout(t, func() {
		db, err := openDB(cfg)
		if err != nil {
			t.Error(err)
			return
		}
		db.EnableInsights(idl.InsightsConfig{}) // as run() does via setupObservability
		script := `?.euter.r(.stkCode=S, .clsPrice>100);
?.euter.r(.stkCode=S, .clsPrice>100);
?.euter.r(.stkCode=S, .clsPrice>100);
?.chwab.r(.date=D, .sun=P);
?.chwab.r(.date=D, .sun=P);
?.ource.hp(.date=D, .clsPrice=P);
?.euter.r+(.date=1/7/85,.stkCode=stk001,.clsPrice=70)`
		if err := execute(db, script); err != nil {
			t.Error(err)
		}
		meta(db, cfg, `\top calls`)
	})
	got := normalizeHealth(out)

	goldenPath := filepath.Join("testdata", "top_session.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("top session output drift:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
