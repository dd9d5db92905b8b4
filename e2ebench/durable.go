package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"idl"
	"idl/internal/parser"
	"idl/internal/server"
	"idl/internal/stocks"
)

// durable-writes: §7 update programs beside reads on a WAL-backed server
// with group commit. One writer and one reader connection, each open
// loop at a fixed rate; the benchmark checkpoints every checkpointEvery
// acknowledged writes. After a clean close the WAL directory is reopened
// and checked against an embedded replay of the acknowledged writes.

const (
	writeRate = 100 // writes per second
	readRate  = 200 // reads per second
	// checkpointEvery counts acknowledged writes between checkpoints.
	checkpointEvery = 200
	// warmWrites are acknowledged at set-up, before timing starts.
	warmWrites = 2 * pendingInserts
	// reqReads offsets read request IDs from write request IDs.
	reqReads = 1 << 40
)

// durableEnv is one set-up of durable-writes.
type durableEnv struct {
	dir    string
	ds     *stocks.Dataset
	reads  []string
	expect []string
	writes []writeOp
	db     *idl.DB
	srv    *served
	writer *server.Client
	reader *server.Client
	acked  []writeOp // acknowledged writes, in order
	// Checkpoints taken while measuring, with the bytes each wrote.
	ckpt       latencies
	ckptWrote  int64
	ckptTotal  int64
	ckptFailed int
	ckptAt     int // acknowledged writes at the last checkpoint
}

// bootstrap installs the set-up universe and the §7 programs; it runs
// on an empty WAL directory and on every embedded replay.
func bootstrap(ds *stocks.Dataset) func(*idl.DB) error {
	return func(db *idl.DB) error {
		loadUniverse(db, ds)
		for _, p := range [][]string{stocks.ProgramInsStk, stocks.ProgramDelStk, stocks.ProgramRmStk} {
			if err := db.DefinePrograms(p...); err != nil {
				return err
			}
		}
		return nil
	}
}

func walOptions(ds *stocks.Dataset) idl.WALOptions {
	return idl.WALOptions{Durability: idl.DurabilityGroup, Bootstrap: bootstrap(ds)}
}

func openDurable(seed uint64, dir string, writes int) (*durableEnv, error) {
	ctx := context.Background()
	e := &durableEnv{dir: dir, ds: durableData(seed)}
	e.reads = durableReads(seed, e.ds)
	e.writes = writeStream(seed, e.ds, writes)
	ref := idl.Open()
	loadUniverse(ref, e.ds)
	for _, q := range e.reads {
		ans, err := ref.QueryCtx(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("reference %q: %w", q, err)
		}
		e.expect = append(e.expect, ans.String())
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	var err error
	if e.db, _, err = idl.OpenWAL(dir, walOptions(e.ds)); err != nil {
		return nil, err
	}
	e.db.EnableInsights(idl.InsightsConfig{SlowFactor: 4}) // as cmd/idld
	if _, err := e.db.Checkpoint(); err != nil {
		e.db.Close()
		return nil, err
	}
	if e.srv, err = serve(server.New(e.db, server.Config{})); err != nil {
		e.db.Close()
		return nil, err
	}
	e.writer = newConn(e.srv.base, "writer")
	e.reader = newConn(e.srv.base, "reader")
	// Both connections read half the pool side by side, as in
	// served-reads: set-up time is mostly wire round trips.
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for c, conn := range []*server.Client{e.reader, e.writer} {
		wg.Add(1)
		go func(c int, conn *server.Client) {
			defer wg.Done()
			for i := c; i < len(e.reads); i += 2 {
				if got, err := query(ctx, conn, e.reads[i], ""); err != nil || got != e.expect[i] {
					errs[c] = fmt.Errorf("warm-up %q: wrong answer or %v", e.reads[i], err)
					return
				}
			}
		}(c, conn)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		e.close()
		return nil, err
	}
	for _, w := range e.writes[:warmWrites] {
		if _, err := e.writer.Exec(ctx, w.text); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up %q: %w", w.text, err)
		}
		e.acked = append(e.acked, w)
	}
	return e, nil
}

// close stops the server and closes the WAL cleanly.
func (e *durableEnv) close() error {
	e.writer.HTTP.CloseIdleConnections()
	e.reader.HTTP.CloseIdleConnections()
	e.srv.close()
	return e.db.Close()
}

// checkpoint takes a checkpoint and records what it wrote.
func (e *durableEnv) checkpoint(tr *tracer) {
	var err error
	d := tr.timed(0, 0, "wal/checkpoint", func() { _, err = e.db.Checkpoint() })
	st, _ := e.db.WALStatus()
	if err != nil {
		e.ckptFailed++
		return
	}
	e.ckpt = append(e.ckpt, d)
	e.ckptWrote += st.CheckpointWroteBytes
	e.ckptTotal += st.CheckpointTotalBytes
}

// phase is what one measured phase of durable-writes saw.
type phase struct {
	writes, reads     loopStats
	writeRes, readRes []opResult
	mvcc              []idl.MVCCStats // after each write, traced phases only
}

// runPhase runs the writer and the reader open loop for d, continuing
// the write stream from the acknowledged count and reading readStream
// from its start. A checkpoint runs before the write that follows every
// checkpointEvery-th acknowledgement, so its stall delays that write.
func (e *durableEnv) runPhase(d time.Duration, readStream []int, tr *tracer) (*phase, error) {
	ctx := context.Background()
	nw := int(writeRate * d.Seconds())
	if len(e.acked)+nw > len(e.writes) {
		return nil, errors.New("write stream too short")
	}
	writes := e.writes[len(e.acked) : len(e.acked)+nw]
	reads := readStream[:int(readRate*d.Seconds())]
	ph := &phase{}
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ph.writeRes = openLoop(start, writeRate, len(writes), 1, func(_, i int, due time.Time) error {
			if len(e.acked)-e.ckptAt >= checkpointEvery {
				e.ckptAt = len(e.acked)
				e.checkpoint(tr)
			}
			req, root := int64(len(e.acked)+1), tr.newID()
			_, err := e.writer.Exec(withTraceIDs(ctx, req, root), writes[i].text)
			tr.record(root, 0, req, "bench/op", due, time.Now())
			if err == nil {
				e.acked = append(e.acked, writes[i])
				if tr != nil {
					ph.mvcc = append(ph.mvcc, e.db.MVCCStats())
				}
			}
			return err
		})
	}()
	ph.readRes = openLoop(start, readRate, len(reads), 1, func(_, i int, due time.Time) error {
		q := reads[i]
		req, root := int64(reqReads+i), tr.newID()
		got, err := query(withTraceIDs(ctx, req, root), e.reader, e.reads[q], "")
		tr.record(root, 0, req, "bench/op", due, time.Now())
		if err == nil && got != e.expect[q] {
			err = fmt.Errorf("wrong answer for %q", e.reads[q])
		}
		return err
	})
	wg.Wait()
	ph.writes, ph.reads = summarize(ph.writeRes), summarize(ph.readRes)
	return ph, nil
}

// reopen times OpenWAL on the closed directory setupRounds times and
// returns the last DB opened with the median time. Recovery is not an
// operation of the measured phase, so it records no span; the traced run
// reports it as wal.recovery_ms.
func reopen(dir string, ds *stocks.Dataset) (*idl.DB, float64, error) {
	return setupMedian(func() (*idl.DB, error) {
		db, _, err := idl.OpenWAL(dir, walOptions(ds))
		return db, err
	}, func(db *idl.DB) { db.Close() })
}

// verify checks a reopened WAL against the acknowledged writes: each
// insert not yet undone must be present, and the whole universe must
// equal an embedded replay of the acknowledged sequence on the set-up
// state. It returns the number of failed checks, and the replay's
// per-write latency through the facade for acked[from:], the measured
// writes, which alone record spans.
func verify(reopened *idl.DB, ds *stocks.Dataset, acked []writeOp, from int, tr *tracer) (int, latencies, error) {
	ctx := context.Background()
	oracle := idl.Open()
	if err := bootstrap(ds)(oracle); err != nil {
		return 0, nil, err
	}
	var lat latencies
	for i, w := range acked {
		var err error
		exec := func() { _, err = oracle.ExecCtx(ctx, w.text) }
		if i < from {
			exec()
		} else {
			lat = append(lat, tr.timed(0, int64(i+1), "idl/exec", exec))
		}
		if err != nil {
			return 0, nil, fmt.Errorf("replay %q: %w", w.text, err)
		}
	}
	failed := 0
	undone := map[int]bool{}
	for _, w := range acked {
		if w.undo >= 0 {
			undone[w.undo] = true
		}
	}
	for _, w := range acked {
		if w.undo >= 0 || undone[w.seq] {
			continue
		}
		ans, err := reopened.QueryCtx(ctx, w.check)
		if err != nil || ans.Len() == 0 {
			fmt.Printf("# acknowledged write %d missing after reopen: %s\n", w.seq, w.text)
			failed++
		}
	}
	if !reopened.Engine().Base().Equal(oracle.Engine().Base()) {
		fmt.Println("# reopened state differs from the replay of the acknowledged writes")
		failed++
	}
	return failed, lat, nil
}

// replayUpdates executes the acknowledged writes on a fresh embedded DB
// through the engine directly, pre-parsed, recording a core.update/exec
// span for each of acked[from:].
func replayUpdates(ds *stocks.Dataset, acked []writeOp, from int, tr *tracer) error {
	ctx := context.Background()
	db := idl.Open()
	if err := bootstrap(ds)(db); err != nil {
		return err
	}
	for i, w := range acked {
		q, err := parser.ParseQuery(w.text)
		if err != nil {
			return err
		}
		t := tr
		if i < from {
			t = nil // a nil tracer records nothing
		}
		t.timed(0, int64(i+1), "core.update/exec", func() { _, err = db.Engine().ExecuteCtx(ctx, q) })
		if err != nil {
			return fmt.Errorf("replay %q: %w", w.text, err)
		}
	}
	return nil
}

func runDurable(cfg config) (*report, error) {
	measured := time.Duration(cfg.seconds * float64(time.Second))
	nWrites := warmWrites + int(writeRate*measured.Seconds()) + 1
	round := 0
	env, setup, err := setupMedian(func() (*durableEnv, error) {
		round++
		return openDurable(cfg.seed, filepath.Join(cfg.workdir, fmt.Sprintf("wal-%d-%d", os.Getpid(), round)), nWrites)
	}, func(e *durableEnv) {
		e.close()
		os.RemoveAll(e.dir)
	})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(env.dir)
	rep := &report{e2e: metrics{}, layer: metrics{}, info: metrics{}}
	readStream := readStream(cfg.seed, len(env.reads), int(readRate*measured.Seconds())+1)
	count := func(st loopStats, n int) {
		rep.attempted += n
		rep.failed += st.failed
	}
	wal0, _ := env.db.WALStatus()
	ackedBytes := 0
	var tr *tracer
	var plainReads latencies
	var ph *phase
	var mv0 idl.MVCCStats
	if cfg.trace {
		// Traced run: an untraced half, then a traced half.
		half := measured / 2
		p, err := env.runPhase(half, readStream, nil)
		if err != nil {
			env.close()
			return nil, err
		}
		count(p.writes, len(p.writeRes))
		count(p.reads, len(p.reads.lag))
		plainReads = p.reads.lat
		tr = newTracer()
		rep.spans = tr
		env.srv.tr.Store(tr)
		readStream = readStream[len(p.reads.lag):]
		measured -= half
		wal0, _ = env.db.WALStatus()
		mv0 = env.db.MVCCStats()
	}
	acked0, rt0, pc0, st0, ep0 := len(env.acked), markRuntime(), env.db.PlanCacheStats(), env.db.Stats(), env.db.CatalogEpoch()
	if ph, err = env.runPhase(measured, readStream, tr); err != nil {
		env.close()
		return nil, err
	}
	rt1, pc1, st1, ep1 := markRuntime(), env.db.PlanCacheStats(), env.db.Stats(), env.db.CatalogEpoch()
	env.srv.tr.Store(nil)
	count(ph.writes, len(ph.writeRes))
	count(ph.reads, len(ph.reads.lag))
	for _, w := range env.acked[acked0:] {
		ackedBytes += len(w.text)
	}
	wal1, _ := env.db.WALStatus()
	heap := heapInuseMB()
	acked := env.acked
	if err := env.close(); err != nil {
		return nil, fmt.Errorf("close wal: %w", err)
	}
	db, recovery, err := reopen(env.dir, env.ds)
	if err != nil {
		return nil, fmt.Errorf("reopen wal: %w", err)
	}
	defer db.Close()
	failed, execLat, err := verify(db, env.ds, acked, acked0, tr)
	if err != nil {
		return nil, err
	}
	// The durability check and every checkpoint count as operations.
	rep.attempted += 1 + len(env.ckpt) + env.ckptFailed
	rep.failed += failed + env.ckptFailed
	writes := len(env.acked) - acked0

	if !cfg.trace {
		rep.e2e.set("setup_s", setup, "s", setupRounds)
		rep.e2e.setLatency("read_p50_ms", ph.reads.lat, 0.5)
		rep.e2e.setLatency("op_p50_ms", ph.writes.lat, 0.5)
		rep.e2e.set("heap_inuse_mb", heap, "MB", 1)
		rep.info.setTails("read", ph.reads.lat)
		rep.info.setLatency("write_p50_ms", ph.writes.lat, 0.5)
		rep.info.setTails("write", ph.writes.lat)
		amp := float64(wal1.BytesAppended-wal0.BytesAppended+env.ckptWrote) / float64(ackedBytes)
		rep.info.set("write_amplification", amp, "ratio", writes)
		rep.info.set("recovery_s", recovery, "s", setupRounds)
		return rep, nil
	}

	m := rep.layer
	if err := replayUpdates(env.ds, acked, acked0, tr); err != nil {
		return nil, err
	}
	texts := make([]string, len(ph.reads.lag))
	for i := range texts {
		texts[i] = env.reads[readStream[i]]
	}
	rp, err := replayReads(db, texts, tr, reqReads)
	if err != nil {
		return nil, err
	}
	m.setReplay(rp)
	m.setPlanCache(pc0, pc1)
	ops := writes + len(ph.reads.lag)
	m.set("catalog.epoch_bumps_per_op", ratio(float64(ep1-ep0), float64(ops)), "count", ops)
	m.set("core.eval.index_builds", float64(st1.IndexBuilds-st0.IndexBuilds), "count", len(rp.query))
	m.setLatency("idl.exec_p50_ms", execLat, 0.5)
	// The handler/wire split is of the reads, which read_p50_ms gates.
	m.setWire(ph.readRes, tr.byName("server/handler", func(req int64) bool { return req >= reqReads }))
	m.setLatency("bench.sched_lag_p99_ms", append(ph.writes.lag, ph.reads.lag...), 0.99)
	m.setLatency("bench.conn_wait_p50_ms", append(ph.writes.wait, ph.reads.wait...), 0.5)
	m.set("server.inflight_max", float64(env.srv.maxInfl.Load()), "count", writes)
	var liveMax int
	var retainedMax int64
	mv1 := mv0
	for _, s := range ph.mvcc {
		liveMax = max(liveMax, s.LiveVersions)
		retainedMax = max(retainedMax, s.RetainedBytes)
		mv1 = s
	}
	m.set("core.mvcc.freezes_per_write", ratio(float64(mv1.Freezes-mv0.Freezes), float64(writes)), "count", writes)
	m.set("core.mvcc.cow_clones_per_write", ratio(float64(mv1.COWClones-mv0.COWClones), float64(writes)), "count", writes)
	m.set("core.mvcc.live_versions_max", float64(liveMax), "count", len(ph.mvcc))
	m.set("core.mvcc.retained_mb_max", float64(retainedMax)/(1<<20), "MB", len(ph.mvcc))
	m.set("wal.bytes_per_write", ratio(float64(wal1.BytesAppended-wal0.BytesAppended), float64(writes)), "B", writes)
	m.set("wal.fsyncs_per_write", ratio(float64(wal1.Fsyncs-wal0.Fsyncs), float64(writes)), "count", writes)
	m.set("wal.fsync_ms_total", float64(wal1.FsyncTotal-wal0.FsyncTotal)/float64(time.Millisecond), "ms", int(wal1.Fsyncs-wal0.Fsyncs))
	m.setLatency("wal.checkpoint_p50_ms", env.ckpt, 0.5)
	m.set("wal.checkpoint_wrote_frac", ratio(float64(env.ckptWrote), float64(env.ckptTotal)), "ratio", len(env.ckpt))
	st, _ := db.WALStatus()
	m.set("wal.recovery_ms", float64(st.Recovery)/float64(time.Millisecond), "ms", 1)
	m.setRuntime(rt0, rt1, ops)
	m.set("bench.trace_overhead_frac", ratio(ph.reads.lat.p(0.5), plainReads.p(0.5))-1, "ratio", len(ph.reads.lat))
	m.setSelfTimes(tr, ops)
	return rep, nil
}
