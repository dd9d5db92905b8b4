// Command e2ebench is the repository's end-to-end benchmark. It runs one
// seeded workload against the IDL engine for a fixed time, checks every
// answer, and prints the end-to-end metrics (untraced run) or the
// per-layer split (traced run). The last line of standard output is one
// JSON object; the lines before it repeat every metric with its unit and
// sample count for a human reader. See README.md for the workloads.
//
//	e2ebench --workload served-reads --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRounds is how many times each workload is set up per run; setup_s
// is their median, and the last set-up is the one measured.
const setupRounds = 15

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string // scratch space for WAL directories and span files
}

// report is what a workload measured.
type report struct {
	attempted int
	failed    int
	e2e       metrics // untraced-run metrics
	layer     metrics // traced-run metrics
	info      metrics // workload-specific end-to-end figures, printed only
	spans     *tracer
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"served-reads":   runServed,
	"view-refresh":   runRefresh,
	"durable-writes": runDurable,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traced int
	fs.StringVar(&cfg.workload, "workload", "", "served-reads, view-refresh or durable-writes")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 12, "measured time per run")
	fs.IntVar(&traced, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", filepath.Join(".bench_build", "e2ebench"), "scratch directory (WAL dirs, span files)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traced == 1
	runner, ok := workloads[cfg.workload]
	if !ok || fs.NArg() != 0 || cfg.seconds <= 0 || (traced != 0 && traced != 1) {
		fmt.Fprintln(stderr, "usage: e2ebench --workload served-reads|view-refresh|durable-writes --seed N --seconds S --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	rep, err := runner(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if cfg.trace && rep.spans != nil {
		path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := rep.spans.writeFile(path); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans: %s (%d)\n", path, rep.spans.len())
	}
	if err := printReport(stdout, cfg, rep); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

// endToEnd and perLayer name every metric BENCHMARK.json declares, with
// its unit. An untraced run reports every endToEnd metric, a traced run
// every perLayer one; a layer a workload does not exercise reads 0 with
// no samples.
var endToEnd = []string{
	"setup_s:s", "read_p50_ms:ms", "op_p50_ms:ms", "heap_inuse_mb:MB",
}

var perLayer = []string{
	"bench.sched_lag_p99_ms:ms", "bench.conn_wait_p50_ms:ms", "bench.trace_overhead_frac:ratio",
	"server.handler_p50_ms:ms", "server.wire_p50_ms:ms", "server.shed_frac:ratio", "server.inflight_max:count",
	"idl.query_p50_ms:ms", "idl.exec_p50_ms:ms", "idl.render_p50_us:us",
	"parser.parse_p50_us:us", "parser.parse_share:ratio",
	"core.plan.hit_frac:ratio", "core.plan.evictions:count", "core.plan.compile_us:us",
	"core.eval.p50_ms:ms", "core.eval.rows_scanned_per_row:ratio", "core.eval.index_probes_per_read:count",
	"core.eval.index_builds:count", "core.eval.attr_enums_per_read:count",
	"core.views.materialize_p50_ms:ms", "core.views.iterations:count", "core.views.rule_runs:count",
	"core.views.facts_derived:count", "core.views.incremental_frac:ratio",
	"core.mvcc.freezes_per_write:count", "core.mvcc.cow_clones_per_write:count",
	"core.mvcc.live_versions_max:count", "core.mvcc.retained_mb_max:MB",
	"federation.sync_p50_ms:ms", "catalog.epoch_bumps_per_op:count",
	"wal.bytes_per_write:B", "wal.fsyncs_per_write:count", "wal.fsync_ms_total:ms",
	"wal.checkpoint_p50_ms:ms", "wal.checkpoint_wrote_frac:ratio", "wal.recovery_ms:ms",
	"runtime.allocs_per_op:count", "runtime.gc_cpu_frac:ratio",
	"bench.self_ms_per_op:ms", "server.self_ms_per_op:ms", "idl.self_ms_per_op:ms",
	"parser.self_ms_per_op:ms", "core.eval.self_ms_per_op:ms", "core.views.self_ms_per_op:ms",
	"core.update.self_ms_per_op:ms", "federation.self_ms_per_op:ms", "wal.self_ms_per_op:ms",
}

// declared returns a run's declared metrics, filling a declared metric
// the workload did not measure with 0. It fails on a
// metric the declaration lacks or a unit that disagrees with it.
func declared(specs []string, got metrics) (metrics, error) {
	out := metrics{}
	for _, spec := range specs {
		name, unit, _ := strings.Cut(spec, ":")
		m, ok := got[name]
		switch {
		case !ok:
			m = metric{Unit: unit}
		case m.Unit != unit:
			return nil, fmt.Errorf("metric %s: unit %s, declared %s", name, m.Unit, unit)
		}
		out[name] = m
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

// printReport prints the human-readable lines, then the JSON result line.
func printReport(w io.Writer, cfg config, rep *report) error {
	out, err := declared(endToEnd, rep.e2e)
	if cfg.trace {
		out, err = declared(perLayer, rep.layer)
	}
	if err != nil {
		return err
	}
	failedFrac := float64(rep.failed) / float64(max(rep.attempted, 1))
	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%g trace=%v go=%s gomaxprocs=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.Version(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-34s %14.6f %-6s n=%d\n", "failed_frac", failedFrac, "ratio", rep.attempted)
	for _, set := range []metrics{out, rep.info} {
		for _, name := range set.names() {
			m := set[name]
			fmt.Fprintf(w, "%-34s %14.6f %-6s n=%d\n", name, m.Value, m.Unit, m.N)
		}
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, map[string]jsonMetric{}}
	for name, m := range out {
		res.Metrics[name] = jsonMetric{m.Value, m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err // a NaN or Inf value
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// metric is one reported figure with its unit and sample count.
type metric struct {
	Value float64
	Unit  string
	N     int
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string, n int) {
	m[name] = metric{value, unit, n}
}

func (m metrics) names() []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// setupMedian runs build setupRounds times, closing every result but the
// last, and returns the last result with the median set-up time. Each
// round starts on a collected heap, so no round pays for collecting the
// previous round's garbage.
func setupMedian[T any](build func() (T, error), close func(T)) (T, float64, error) {
	var times []float64
	var last T
	for i := 0; i < setupRounds; i++ {
		if i > 0 {
			close(last)
			last = *new(T) // drop the reference, so the collection frees it
		}
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, quantile(times, 0.5), nil
}
