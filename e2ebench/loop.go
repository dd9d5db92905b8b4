package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"idl/internal/server"
)

// Bench-only request headers: the traced run tags each request with its
// request ID and the ID of the client-side span, so the middleware's
// handler span joins the request's tree. The server ignores them.
const (
	headerReq  = "X-Bench-Req"
	headerSpan = "X-Bench-Span"
)

// traceIDs are a traced request's request and client-side span IDs,
// carried to the transport in the request's context.
type traceIDs struct{ req, span int64 }

type traceIDsKey struct{}

// withTraceIDs tags ctx with a traced request's IDs (req 0 = untraced).
func withTraceIDs(ctx context.Context, req, span int64) context.Context {
	if req == 0 {
		return ctx
	}
	return context.WithValue(ctx, traceIDsKey{}, traceIDs{req, span})
}

// benchTransport allows a single connection, so a workload's connection
// count is exactly the number of clients it opens, and copies a traced
// request's IDs from its context into the bench headers.
type benchTransport struct{ base *http.Transport }

func (t benchTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ids, ok := r.Context().Value(traceIDsKey{}).(traceIDs); ok {
		r = r.Clone(r.Context())
		r.Header.Set(headerReq, strconv.FormatInt(ids.req, 10))
		r.Header.Set(headerSpan, strconv.FormatInt(ids.span, 10))
	}
	return t.base.RoundTrip(r)
}

func (t benchTransport) CloseIdleConnections() { t.base.CloseIdleConnections() }

// newConn returns a wire client for tenant over one HTTP connection.
func newConn(base, tenant string) *server.Client {
	c := server.NewClient(base)
	c.Tenant = tenant
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	c.HTTP = &http.Client{Transport: benchTransport{tr}}
	return c
}

// query runs a statement ad hoc (prepID == "") or as a prepared statement
// of c's session, and returns the canonical answer.
func query(ctx context.Context, c *server.Client, stmt, prepID string) (string, error) {
	var out *server.QueryResponse
	var err error
	if prepID == "" {
		out, err = c.Query(ctx, stmt)
	} else {
		out, err = c.ExecPrepared(ctx, prepID)
	}
	if err != nil {
		return "", err
	}
	return out.Answer, nil
}

// isShed reports whether err is an admission-control 429.
func isShed(err error) bool {
	var se *server.StatusError
	return errors.As(err, &se) && se.IsShed()
}

// served is an in-process server on a loopback listener. In a traced run
// a middleware around Server.Handler records one span per request and
// the in-flight high-water mark.
type served struct {
	srv      *server.Server
	hs       *http.Server
	base     string
	done     chan struct{}
	tr       atomic.Pointer[tracer] // nil = pass-through
	inflight atomic.Int64
	maxInfl  atomic.Int64
}

func serve(srv *server.Server) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: srv, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	s.hs = &http.Server{Handler: s.handler(srv.Handler())}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return s, nil
}

func (s *served) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		n := s.inflight.Add(1)
		for m := s.maxInfl.Load(); n > m && !s.maxInfl.CompareAndSwap(m, n); m = s.maxInfl.Load() {
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		s.inflight.Add(-1)
		req, _ := strconv.ParseInt(r.Header.Get(headerReq), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(headerSpan), 10, 64)
		tr.record(0, parent, req, "server/handler", start, end)
	})
}

// close stops the listener and every connection, and waits for Serve.
func (s *served) close() {
	s.hs.Close()
	<-s.done
}

// opResult is one open-loop operation: when it was due, when the
// dispatcher released it, when a connection picked it up, when it ended.
type opResult struct {
	due, sent, picked, done time.Time
	err                     error
}

func (r opResult) latency() time.Duration { return r.done.Sub(r.due) }

// openLoop issues n operations at rate per second from start: operation
// i is due at start + i/rate, whether or not earlier ones have finished.
// One worker per connection serves the queue; do performs operation i,
// due at due, on connection c. Latency runs from the due time, so a stall
// is charged to every operation it delays.
func openLoop(start time.Time, rate float64, n, conns int, do func(c, i int, due time.Time) error) []opResult {
	res := make([]opResult, n)
	queue := make(chan int, n) // one slot per operation: the dispatcher never blocks
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range queue {
				r := &res[i]
				r.picked = time.Now()
				r.err = do(c, i, r.due)
				r.done = time.Now()
			}
		}(c)
	}
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res[i].due, res[i].sent = due, time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return res
}

// loopStats summarizes open-loop results.
type loopStats struct {
	lat, lag, wait latencies
	failed, shed   int
	achieved       float64 // completed operations per second of the phase
}

func summarize(res []opResult) loopStats {
	var st loopStats
	if len(res) == 0 {
		return st
	}
	last := res[0].done
	for _, r := range res {
		st.lag = append(st.lag, r.sent.Sub(r.due))
		st.wait = append(st.wait, r.picked.Sub(r.sent))
		if r.done.After(last) {
			last = r.done
		}
		switch {
		case isShed(r.err):
			st.shed++
			st.failed++
		case r.err != nil:
			st.failed++
		default:
			st.lat = append(st.lat, r.latency())
		}
	}
	st.achieved = float64(len(res)-st.failed) / last.Sub(res[0].due).Seconds()
	return st
}
