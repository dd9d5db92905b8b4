package wal

import (
	"bytes"

	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"idl/internal/object"
)

func testUniverse(n int) *object.Tuple {
	u := object.NewTuple()
	db := object.NewTuple()
	rel := object.NewSet()
	for i := 0; i < n; i++ {
		t := object.NewTuple()
		t.Put("i", object.Int(int64(i)))
		rel.Add(t)
	}
	db.Put("r", rel)
	u.Put("d", db)
	return u
}

func universeJSON(t *testing.T, u *object.Tuple) string {
	t.Helper()
	if u == nil {
		return "<nil>"
	}
	raw, err := object.MarshalJSON(u)
	if err != nil {
		t.Fatalf("marshal universe: %v", err)
	}
	return string(raw)
}

func TestRecordRoundtrip(t *testing.T) {
	var buf []byte
	payloads := []string{"", "x", "insert into r", strings.Repeat("z", 5000)}
	for i, p := range payloads {
		buf = appendRecord(buf, uint64(i+1), TypeExec, []byte(p))
	}
	off := 0
	for i, p := range payloads {
		r, n, err := decodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if r.LSN != uint64(i+1) || r.Type != TypeExec || string(r.Payload) != p {
			t.Fatalf("record %d: got lsn=%d type=%d payload=%q", i, r.LSN, r.Type, r.Payload)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestRecordTornVariants(t *testing.T) {
	full := appendRecord(nil, 7, TypeRule, []byte("view v from r"))
	cases := map[string][]byte{
		"empty":          {},
		"partial header": full[:5],
		"partial body":   full[:len(full)-3],
		"flipped byte": func() []byte {
			b := append([]byte(nil), full...)
			b[len(b)-1] ^= 0xff
			return b
		}(),
		"huge length": func() []byte {
			b := append([]byte(nil), full...)
			b[0], b[1], b[2], b[3] = 0xff, 0xff, 0xff, 0x7f
			return b
		}(),
	}
	for name, data := range cases {
		if _, _, err := decodeRecord(data); !errors.Is(err, errTornTail) {
			t.Errorf("%s: err = %v, want errTornTail", name, err)
		}
	}
}

func TestAppendReopen(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tail) != 0 || rec.CheckpointLSN != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	stmts := []string{"a", "b", "c"}
	for i, s := range stmts {
		lsn, err := l.Append(TypeExec, []byte(s))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Truncated {
		t.Fatal("clean log reported truncation")
	}
	if len(rec.Tail) != len(stmts) {
		t.Fatalf("recovered %d records, want %d", len(rec.Tail), len(stmts))
	}
	for i, r := range rec.Tail {
		if r.LSN != uint64(i+1) || string(r.Payload) != stmts[i] {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
}

func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"one", "two", "three"} {
		if _, err := l.Append(TypeExec, []byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: append half of a record to the segment.
	names, _ := listDir(dir)
	var seg string
	for _, n := range names {
		if strings.HasSuffix(n, ".seg") {
			seg = n
		}
	}
	torn := appendRecord(nil, 4, TypeExec, []byte("four"))
	f, err := os.OpenFile(filepath.Join(dir, seg), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(torn[:len(torn)/2])
	f.Close()

	l2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Truncated || rec.TruncatedSegment != seg {
		t.Fatalf("rec = %+v, want truncation of %s", rec, seg)
	}
	if len(rec.Tail) != 3 {
		t.Fatalf("recovered %d records, want 3", len(rec.Tail))
	}
	// The repair is physical: a third open sees a clean log.
	if lsn, err := l2.Append(TypeExec, []byte("four')")); err != nil || lsn != 4 {
		t.Fatalf("append after repair: lsn=%d err=%v", lsn, err)
	}
	l2.Close()
	_, rec, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Truncated || len(rec.Tail) != 4 {
		t.Fatalf("after repair: %+v", rec)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := l.Append(TypeExec, bytes.Repeat([]byte{'p'}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Status()
	if st.Segments < 2 {
		t.Fatalf("expected rotation, status %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tail) != n || rec.Truncated {
		t.Fatalf("recovered %d records (truncated=%v), want %d", len(rec.Tail), rec.Truncated, n)
	}
}

func TestCheckpointAndTail(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Append(TypeExec, []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	u := testUniverse(3)
	rules := []string{"view v as r"}
	clauses := []string{"on insert do x"}
	lsn, err := l.Checkpoint(u, rules, clauses)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 4 {
		t.Fatalf("checkpoint lsn = %d, want 4", lsn)
	}
	if _, err := l.Append(TypeExec, []byte("post")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.CheckpointLSN != 4 {
		t.Fatalf("recovered checkpoint lsn = %d", rec.CheckpointLSN)
	}
	if got, want := universeJSON(t, rec.Universe), universeJSON(t, u); got != want {
		t.Fatalf("universe mismatch:\n got %s\nwant %s", got, want)
	}
	if len(rec.Rules) != 1 || rec.Rules[0] != rules[0] || len(rec.Clauses) != 1 || rec.Clauses[0] != clauses[0] {
		t.Fatalf("sources mismatch: %+v", rec)
	}
	// Tail: the checkpoint marker (lsn 5) and the post-checkpoint exec.
	var execs []string
	for _, r := range rec.Tail {
		if r.LSN <= rec.CheckpointLSN {
			t.Fatalf("tail record %d at or before checkpoint", r.LSN)
		}
		if r.Type == TypeExec {
			execs = append(execs, string(r.Payload))
		}
	}
	if len(execs) != 1 || execs[0] != "post" {
		t.Fatalf("tail execs = %v", execs)
	}
}

// TestCheckpointOnFreshSegment takes a checkpoint when no record has
// been appended since the active segment was created — on a new log,
// and on a reopened log whose last segment holds only its header — and
// checks that records appended afterwards survive a reopen.
func TestCheckpointOnFreshSegment(t *testing.T) {
	for _, reopen := range []bool{false, true} {
		dir := t.TempDir()
		l, _, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if reopen {
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if l, _, err = Open(dir, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.Checkpoint(testUniverse(2), nil, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(TypeExec, []byte("after")); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var execs []string
		for _, r := range rec.Tail {
			if r.Type == TypeExec {
				execs = append(execs, string(r.Payload))
			}
		}
		if len(execs) != 1 || execs[0] != "after" {
			t.Fatalf("reopen=%v: recovered tail execs %q, want [after]", reopen, execs)
		}
	}
}

func TestCheckpointPrunesSegmentsAndOldCheckpoints(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 64, KeepCheckpoints: 1})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			if _, err := l.Append(TypeExec, bytes.Repeat([]byte{'q'}, 40)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.Checkpoint(testUniverse(round+1), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := listDir(dir)
	var ckpts, segs int
	for _, n := range names {
		switch {
		case strings.HasSuffix(n, ".ckpt"):
			ckpts++
		case strings.HasSuffix(n, ".seg"):
			segs++
		}
	}
	if ckpts != 1 {
		t.Fatalf("retained %d checkpoints, want 1 (files: %v)", ckpts, names)
	}
	// Only the post-checkpoint tail segment(s) should remain.
	if segs > 2 {
		t.Fatalf("retained %d segments, want <= 2 (files: %v)", segs, names)
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := universeJSON(t, rec.Universe), universeJSON(t, testUniverse(3)); got != want {
		t.Fatalf("universe mismatch after pruning:\n got %s\nwant %s", got, want)
	}
}

func TestCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{KeepCheckpoints: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Checkpoint(testUniverse(1), nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(TypeExec, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Checkpoint(testUniverse(2), nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest checkpoint.
	names, _ := listDir(dir)
	var newest string
	for _, n := range names {
		if strings.HasSuffix(n, ".ckpt") {
			newest = n
		}
	}
	path := filepath.Join(dir, newest)
	raw, _ := os.ReadFile(path)
	raw = bytes.Replace(raw, []byte(`"checksum":"`), []byte(`"checksum":"0`), 1)
	os.WriteFile(path, raw[:len(raw)-1], 0o644)

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SkippedCheckpoints != 1 {
		t.Fatalf("skipped %d checkpoints, want 1", rec.SkippedCheckpoints)
	}
	if got, want := universeJSON(t, rec.Universe), universeJSON(t, testUniverse(1)); got != want {
		t.Fatalf("fell back to wrong checkpoint:\n got %s\nwant %s", got, want)
	}
}

func TestStickyErrorAfterCrash(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS(), FaultPlan{CrashAtWrite: 3, ShortBytes: 5})
	l, _, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	var firstErr error
	var acked int
	for i := 0; i < 6; i++ {
		if _, err := l.Append(TypeExec, []byte{byte('a' + i)}); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if firstErr != nil {
			t.Fatal("append succeeded after a crash")
		}
		acked++
	}
	if !errors.Is(firstErr, ErrCrashed) {
		t.Fatalf("first error = %v, want ErrCrashed", firstErr)
	}
	if !errors.Is(l.Err(), ErrCrashed) {
		t.Fatalf("sticky err = %v", l.Err())
	}
	l.Close()

	// Recovery through the real FS sees the acked prefix (the torn write
	// is truncated away).
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tail) != acked {
		t.Fatalf("recovered %d records, want %d acked", len(rec.Tail), acked)
	}
}

func TestGroupCommitDefersSync(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS(), FaultPlan{})
	l, _, err := Open(dir, Options{FS: ffs, Mode: SyncGroup, GroupBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	base := ffs.Syncs()
	for i := 0; i < 50; i++ {
		if _, err := l.Append(TypeExec, []byte("tiny")); err != nil {
			t.Fatal(err)
		}
	}
	if got := ffs.Syncs(); got != base {
		t.Fatalf("group mode issued %d fsyncs during appends", got-base)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ffs.Syncs(); got <= base {
		t.Fatal("close did not sync the deferred batch")
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tail) != 50 {
		t.Fatalf("recovered %d records, want 50", len(rec.Tail))
	}
}

func TestFailSyncIsSticky(t *testing.T) {
	dir := t.TempDir()
	// The directory fsync in Open counts too; probe how many syncs setup
	// needs, then fail the one belonging to the second append.
	probe := NewFaultFS(OSFS(), FaultPlan{})
	l0, _, err := Open(t.TempDir(), Options{FS: probe})
	if err != nil {
		t.Fatal(err)
	}
	l0.Append(TypeExec, []byte("a"))
	setup := probe.Syncs()
	l0.Close()

	ffs := NewFaultFS(OSFS(), FaultPlan{FailSyncAt: setup + 1})
	l, _, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(TypeExec, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(TypeExec, []byte("b")); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("append err = %v, want ErrInjectedSync", err)
	}
	// A log that may have lost a record must not acknowledge new ones.
	if _, err := l.Append(TypeExec, []byte("c")); err == nil {
		t.Fatal("append succeeded after fsync failure")
	}
	l.Close()
}

func TestStatusString(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Append(TypeExec, []byte("s"))
	st := l.Status()
	if st.NextLSN != 2 || st.Appended != 1 {
		t.Fatalf("status %+v", st)
	}
	s := st.String()
	for _, want := range []string{"mode=always", "next-lsn=2", "appended=1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("status string %q missing %q", s, want)
		}
	}
}
