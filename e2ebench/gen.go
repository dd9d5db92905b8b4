package main

import (
	"fmt"

	"idl/internal/object"
	"idl/internal/stocks"
)

// Every input the program receives is generated here from the run's
// seed: the stock universe (internal/stocks' deterministic generator)
// and the statement streams. The same seed always yields the same data
// and the same statements in the same order.

// rng is splitmix64: small, fast, and independent of math/rand's
// version-dependent streams.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 1}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Streams drawn from one seed.
const (
	streamData = iota + 1
	streamPool
	streamRequests
	streamWrites
	streamReads
)

// ---------------------------------------------------------------------
// served-reads

// Universe size for served-reads: large enough that evaluation is real
// work, small enough that a 2-CPU host serves hundreds of reads a second.
const (
	servedStocks = 20
	servedDays   = 60
)

// pooledQuery is one distinct statement of a read pool; baseline names
// the relational-algebra plan it is checked against ("" = none).
type pooledQuery struct {
	text      string
	baseline  string
	threshold int
}

// Baseline plan names (internal/stocks).
const (
	baseAnyEuter  = "any-euter"
	baseAnyChwab  = "any-chwab"
	baseAnyOurce  = "any-ource"
	baseHighEuter = "high-euter"
	baseHighChwab = "high-chwab"
	baseHighOurce = "high-ource"
	baseJoin      = "join"
)

// servedData generates the served-reads universe.
func servedData(seed uint64) *stocks.Dataset {
	return stocks.Generate(stocks.Config{Stocks: servedStocks, Days: servedDays, Seed: seed*7919 + streamData})
}

// servedPool builds the distinct statements of served-reads — every
// query class of the paper over all three schemas, fewer texts than the
// 256-plan cache holds.
func servedPool(seed uint64, ds *stocks.Dataset) []pooledQuery {
	r := newRNG(seed, streamPool)
	var pool []pooledQuery
	add := func(q pooledQuery) { pool = append(pool, q) }
	maxP := ds.MaxPrice()
	// §2 query 1 over data, attribute names and relation names.
	for i := 0; i < 8; i++ {
		t := maxP/2 + r.intn(maxP/2)
		qs := stocks.QueryAnyAbove(t)
		add(pooledQuery{qs["euter"], baseAnyEuter, t})
		add(pooledQuery{qs["chwab"], baseAnyChwab, t})
		add(pooledQuery{qs["ource"], baseAnyOurce, t})
	}
	// Point lookups, one schema each.
	for i := 0; i < 14; i++ {
		s, d := ds.Stocks[r.intn(len(ds.Stocks))], ds.Dates[r.intn(len(ds.Dates))]
		add(pooledQuery{text: fmt.Sprintf("?.euter.r(.stkCode=%s, .date=%s, .clsPrice=P)", s, d)})
		add(pooledQuery{text: fmt.Sprintf("?.chwab.r(.date=%s, .%s=P)", d, s)})
		add(pooledQuery{text: fmt.Sprintf("?.ource.%s(.date=%s, .clsPrice=P)", s, d)})
	}
	// One day's quotes, ranging over attribute and relation names.
	for i := 0; i < 5; i++ {
		d := ds.Dates[r.intn(len(ds.Dates))]
		add(pooledQuery{text: fmt.Sprintf("?.chwab.r(.date=%s, .S=P), S != date", d)})
		add(pooledQuery{text: fmt.Sprintf("?.ource.S(.date=%s, .clsPrice=P)", d)})
	}
	// Metadata queries: which relations carry an attribute.
	add(pooledQuery{text: "?.X.Y(.stkCode)"})
	add(pooledQuery{text: "?.X.Y(.clsPrice)"})
	add(pooledQuery{text: fmt.Sprintf("?.X.Y(.%s)", ds.Stocks[r.intn(len(ds.Stocks))])})
	// §2 query 2 (negation) and §4.3's cross-database join.
	hs := stocks.QueryHighestPerDay()
	add(pooledQuery{text: hs["euter"], baseline: baseHighEuter})
	add(pooledQuery{text: hs["chwab"], baseline: baseHighChwab})
	add(pooledQuery{text: hs["ource"], baseline: baseHighOurce})
	add(pooledQuery{text: stocks.QueryCrossJoin, baseline: baseJoin})
	return pool
}

// servedRequest is one request of the served-reads stream: which pooled
// statement, and whether it goes through /v1/exec-prepared.
type servedRequest struct {
	query    int
	prepared bool
}

// preparedShare is the fraction of requests sent as prepared statements.
const preparedShare = 4 // one in four

// servedStream draws n requests over a pool of size m.
func servedStream(seed uint64, m, n int) []servedRequest {
	r := newRNG(seed, streamRequests)
	out := make([]servedRequest, n)
	for i := range out {
		out[i] = servedRequest{query: r.intn(m), prepared: r.intn(preparedShare) == 0}
	}
	return out
}

// ---------------------------------------------------------------------
// view-refresh

// Member window for view-refresh: each cycle slides every member one
// trading day forward, so the federated universe keeps its size.
const (
	windowStocks = 20
	windowDays   = 36
	// windowHorizon bounds how many cycles one run can slide.
	windowHorizon = 2000
)

// refreshData generates the whole price history the window slides over,
// with seeded chwab value discrepancies (one quote in ten).
func refreshData(seed uint64) *stocks.Dataset {
	days := windowDays + windowHorizon
	return stocks.Generate(stocks.Config{
		Stocks: windowStocks, Days: days, Seed: seed*7919 + streamData,
		Discrepancies: windowStocks * days / 10,
	})
}

// window renders days [first, first+windowDays) of ds as the three member
// databases: stocks.Populate on a view of ds cut to those days.
func window(ds *stocks.Dataset, first int) (euter, chwab, ource *object.Tuple) {
	end := first + windowDays
	w := *ds
	w.Dates = ds.Dates[first:end]
	w.Price = make([][]int, len(ds.Stocks))
	w.ChwabPrice = make([][]int, len(ds.Stocks))
	for s := range ds.Stocks {
		w.Price[s] = ds.Price[s][first:end]
		w.ChwabPrice[s] = ds.ChwabPrice[s][first:end]
	}
	u := object.NewTuple()
	w.Populate(u)
	member := func(name string) *object.Tuple {
		db, _ := u.Get(name)
		return db.(*object.Tuple)
	}
	return member("euter"), member("chwab"), member("ource")
}

// refreshReads are the view reads of one cycle; the first is the one the
// refresh latency waits for. last is the newest date in the window and
// stk a stock drawn for the cycle.
func refreshReads(r *rng, ds *stocks.Dataset, last object.Date) []string {
	stk := func() string { return ds.Stocks[r.intn(len(ds.Stocks))] }
	return []string{
		"?.dbI.pnew(.date=D, .stk=S, .price=P)",
		"?.dbI.p(.date=D, .stk=S, .price=P)",
		"?.dbE.r(.date=D, .stkCode=S, .clsPrice=P)",
		"?.dbC.r(.date=D, .S=P), S != date",
		"?.dbO.S(.date=D, .clsPrice=P)",
		fmt.Sprintf("?.dbI.pnew(.date=%s, .stk=S, .price=P)", last),
		fmt.Sprintf("?.dbE.r(.date=%s, .stkCode=%s, .clsPrice=P)", last, stk()),
		fmt.Sprintf("?.dbC.r(.date=%s, .%s=P)", last, stk()),
		fmt.Sprintf("?.dbO.%s(.date=D, .clsPrice=P)", stk()),
		fmt.Sprintf("?.dbO.S(.date=%s, .clsPrice=P)", last),
		fmt.Sprintf("?.dbI.p(.stk=%s, .date=D, .price=P)", stk()),
		fmt.Sprintf("?.dbE.r(.stkCode=%s, .date=D, .clsPrice=P)", stk()),
		fmt.Sprintf("?.dbC.r(.date=D, .%s=P)", stk()),
		fmt.Sprintf("?.dbI.pnew(.stk=%s, .date=D, .price=P)", stk()),
		fmt.Sprintf("?.dbE.r(.date=%s, .stkCode=S, .clsPrice=P)", last),
		fmt.Sprintf("?.dbO.%s(.date=%s, .clsPrice=P)", stk(), last),
	}
}

// ---------------------------------------------------------------------
// durable-writes

// Universe size for durable-writes.
const (
	durableStocks = 20
	durableDays   = 60
	// readPool distinct read texts: more than the 256-plan cache holds.
	durableReadPool = 640
	// pendingInserts is how many inserts stay in flight before the
	// oldest is undone.
	pendingInserts = 4
)

func durableData(seed uint64) *stocks.Dataset {
	return stocks.Generate(stocks.Config{Stocks: durableStocks, Days: durableDays, Seed: seed*7919 + streamData})
}

// reservedDate is the one existing day the metadata writes touch; the
// read pool never reads it, so every read's answer is fixed.
func reservedDate(ds *stocks.Dataset) object.Date { return ds.Dates[len(ds.Dates)-1] }

// writeOp is one §7 update-program call of the durable-writes stream.
type writeOp struct {
	seq  int // position in the stream
	text string
	// undo is the seq of the insert this write reverses, -1 for an
	// insert.
	undo int
	// stk and date name an insert's quote; meta marks an insert of a new
	// stock (a new chwab attribute and ource relation).
	stk  string
	date object.Date
	meta bool
	// check is a query whose answer is non-empty exactly while the
	// insert is applied.
	check string
}

// writeStream draws n writes. Inserts alternate between a quote for an
// existing stock on a new day (insStk, undone by delStk) and, one in
// four, a new stock on the reserved day — a new chwab attribute and a new
// ource relation (insStk, undone by rmStk). After pendingInserts inserts,
// the stream alternates: undo the oldest pending insert, then insert.
func writeStream(seed uint64, ds *stocks.Dataset, n int) []writeOp {
	r := newRNG(seed, streamWrites)
	var out []writeOp
	var pending []int
	inserts := 0
	for len(out) < n {
		if len(pending) >= pendingInserts {
			i := pending[0]
			pending = pending[1:]
			out = append(out, undoOf(out[i], len(out)))
			continue
		}
		op := writeOp{seq: len(out), undo: -1, stk: ds.Stocks[r.intn(len(ds.Stocks))], date: insertDate(inserts)}
		price := 1 + r.intn(400)
		if inserts%4 == 3 {
			op.stk, op.date, op.meta = fmt.Sprintf("nw%05d", inserts), reservedDate(ds), true
			op.check = fmt.Sprintf("?.ource.%s(.date=%s, .clsPrice=%d), .chwab.r(.date=%s, .%s=%d)",
				op.stk, op.date, price, op.date, op.stk, price)
		} else {
			op.check = fmt.Sprintf("?.euter.r(.stkCode=%s, .date=%s, .clsPrice=%d), .ource.%s(.date=%s, .clsPrice=%d)",
				op.stk, op.date, price, op.stk, op.date, price)
		}
		op.text = fmt.Sprintf("?.dbU.insStk(.stk=%s, .date=%s, .price=%d)", op.stk, op.date, price)
		pending = append(pending, len(out))
		out = append(out, op)
		inserts++
	}
	return out
}

// insertDate is the k-th insert's day: after the generated history
// (1990 on, 28 days a month), and unique per insert.
func insertDate(k int) object.Date {
	return object.NewDate(1990+k/(12*28), 1+k/28%12, 1+k%28)
}

// undoOf is write seq of the stream, reversing ins: rmStk drops a new
// stock everywhere, delStk one quote.
func undoOf(ins writeOp, seq int) writeOp {
	if ins.meta {
		return writeOp{seq: seq, text: fmt.Sprintf("?.dbU.rmStk(.stk=%s)", ins.stk), undo: ins.seq}
	}
	return writeOp{seq: seq, text: fmt.Sprintf("?.dbU.delStk(.stk=%s, .date=%s)", ins.stk, ins.date), undo: ins.seq}
}

// durableReads draws the distinct read texts: point lookups per
// (stock, day) and one-day lookups over attribute and relation names,
// never touching the reserved day.
func durableReads(seed uint64, ds *stocks.Dataset) []string {
	r := newRNG(seed, streamReads)
	seen := map[string]bool{}
	var out []string
	days := ds.Dates[:len(ds.Dates)-1]
	for len(out) < durableReadPool {
		d := days[r.intn(len(days))]
		s := ds.Stocks[r.intn(len(ds.Stocks))]
		var q string
		switch r.intn(5) {
		case 0:
			q = fmt.Sprintf("?.chwab.r(.date=%s, .S=P), S != date", d)
		case 1:
			q = fmt.Sprintf("?.ource.S(.date=%s, .clsPrice=P)", d)
		case 2:
			q = fmt.Sprintf("?.ource.%s(.date=%s, .clsPrice=P)", s, d)
		default:
			q = fmt.Sprintf("?.euter.r(.stkCode=%s, .date=%s, .clsPrice=P)", s, d)
		}
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// readStream draws n read indexes over a pool of size m.
func readStream(seed uint64, m, n int) []int {
	r := newRNG(seed, streamReads+100)
	out := make([]int, n)
	for i := range out {
		out[i] = r.intn(m)
	}
	return out
}
