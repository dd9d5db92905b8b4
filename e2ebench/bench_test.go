package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"idl"
)

// result is the JSON line a run prints last.
type result struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]json.RawMessage `json:"metrics"`
}

func runOnce(t *testing.T, workload, trace string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--workdir", t.TempDir()}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%s trace=%s: exit %d: %s", workload, trace, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	return r
}

func specNames(specs []string) []string {
	var out []string
	for _, s := range specs {
		name, _, _ := strings.Cut(s, ":")
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadSmoke runs every workload briefly, untraced and traced:
// each passes its correctness checks and prints exactly the declared
// metrics.
func TestWorkloadSmoke(t *testing.T) {
	for name := range workloads {
		for trace, specs := range map[string][]string{"0": endToEnd, "1": perLayer} {
			r := runOnce(t, name, trace)
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", name, trace, r.Correct, r.Attempted, r.Failed)
			}
			if got, want := keys(r.Metrics), specNames(specs); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%s: metrics %v, declared %v", name, trace, got, want)
			}
		}
	}
}

// TestSeedDeterminism generates every workload's data and statement
// streams twice from one seed, and once from another.
func TestSeedDeterminism(t *testing.T) {
	gen := func(seed uint64) []any {
		sd, rd, dd := servedData(seed), refreshData(seed), durableData(seed)
		pool := servedPool(seed, sd)
		eu, ch, ou := window(rd, 5)
		return []any{
			sd, pool, servedStream(seed, len(pool), 500),
			rd, eu.String(), ch.String(), ou.String(), refreshReads(newRNG(seed, streamReads), rd, rd.Dates[40]),
			dd, writeStream(seed, dd, 300), durableReads(seed, dd), readStream(seed, durableReadPool, 500),
		}
	}
	a, b, c := gen(7), gen(7), gen(8)
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("input %d differs between two generations from seed 7", i)
		}
	}
	if reflect.DeepEqual(a[1], c[1]) || reflect.DeepEqual(a[9], c[9]) {
		t.Error("seeds 7 and 8 generate the same statements")
	}
}

// TestWrongAnswerCounted corrupts one expected answer of served-reads
// and one view answer of view-refresh: both must count as failed.
func TestWrongAnswerCounted(t *testing.T) {
	env, err := openServed(4)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	env.expect[0] += "\ncorrupted"
	reqs := []servedRequest{{query: 0}, {query: 0, prepared: true}, {query: 1}}
	st := summarize(env.runPhase(reqs, 100, nil, 0))
	if st.failed != 2 {
		t.Errorf("served-reads: %d of 2 corrupted answers counted as failed", st.failed)
	}

	re, err := openRefresh(4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := re.cycle(1, true, nil, nil)
	if err != nil || c.failed != 0 {
		t.Fatalf("clean cycle: failed=%d err=%v", c.failed, err)
	}
	var ans []*idl.Result
	for _, q := range refreshReads(newRNG(4, 0), re.ds, re.last())[:5] {
		a, err := re.db.QueryCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		ans = append(ans, a)
	}
	if err := re.checkViews(ans); err != nil {
		t.Fatalf("clean answers rejected: %v", err)
	}
	ans[2].Rows = ans[2].Rows[1:] // dbE loses one quote
	if re.checkViews(ans) == nil {
		t.Error("view-refresh: a dbE answer missing a quote passed the check")
	}
}

// TestDroppedWriteCounted checks verify's detection on its own: against
// a state that holds exactly the acknowledged writes it counts nothing,
// and against an acknowledged sequence with one extra insert the state
// never saw it counts both the missing insert and the state mismatch.
func TestDroppedWriteCounted(t *testing.T) {
	ds := durableData(5)
	writes := writeStream(5, ds, 40)
	state := idl.Open()
	if err := bootstrap(ds)(state); err != nil {
		t.Fatal(err)
	}
	acked := writes[:30]
	for _, w := range acked {
		if _, err := state.ExecCtx(context.Background(), w.text); err != nil {
			t.Fatal(err)
		}
	}
	if failed, _, err := verify(state, ds, acked, 0, nil); err != nil || failed != 0 {
		t.Fatalf("true sequence: failed=%d err=%v", failed, err)
	}
	var dropped writeOp
	for _, w := range writes[30:] {
		if w.undo < 0 {
			dropped = w
			break
		}
	}
	failed, _, err := verify(state, ds, append(acked[:30:30], dropped), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 2 {
		t.Errorf("dropped acknowledged write: %d checks failed, want the presence check and the state check", failed)
	}
}

// TestWritesSurviveSetupCheckpoint runs the durable-writes set-up, which
// checkpoints the freshly bootstrapped log, acknowledges a few writes,
// closes cleanly and reopens: every acknowledged write must be back.
// Longer runs checkpoint again after 200 writes, which hides a loss here.
func TestWritesSurviveSetupCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	env, err := openDurable(5, dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.runPhase(200*time.Millisecond, readStream(5, len(env.reads), 100), nil); err != nil {
		t.Fatal(err)
	}
	if err := env.close(); err != nil {
		t.Fatal(err)
	}
	db, _, err := idl.OpenWAL(dir, walOptions(env.ds))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if failed, _, err := verify(db, env.ds, env.acked, 0, nil); err != nil || failed != 0 {
		t.Errorf("%d acknowledged writes checked: failed=%d err=%v", len(env.acked), failed, err)
	}
}

// TestSelfTime checks the per-layer self-time split on a small tree.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.newID()
	tr.record(0, root, 1, "server/handler", at(2), at(6))
	tr.record(0, root, 1, "server/handler", at(5), at(8)) // overlaps the first
	tr.record(root, 0, 1, "bench/op", at(0), at(10))
	self := tr.selfTimes()
	if self["bench"] != 4*time.Millisecond || self["server"] != 7*time.Millisecond {
		t.Errorf("self times %v, want bench 4ms, server 7ms", self)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program runs and reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is declared but not run", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("declared workloads %v, run %d", names, len(workloads))
	}
	flat := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+":"+m.Unit)
		}
		return out
	}
	if got := flat(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end %v, reported %v", got, endToEnd)
	}
	if got := flat(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer %v, reported %v", got, perLayer)
	}
}
