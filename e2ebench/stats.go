package main

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// latencies is a growing sample of durations.
type latencies []time.Duration

func (l latencies) p(q float64) float64 { return quantile(ms(l), q) }

// setLatency records the q-quantile of l in milliseconds under name.
func (m metrics) setLatency(name string, l latencies, q float64) {
	m.set(name, l.p(q), "ms", len(l))
}

// setTails records the p90 and p99 of l as <prefix>_p90_ms and
// <prefix>_p99_ms.
func (m metrics) setTails(prefix string, l latencies) {
	m.setLatency(prefix+"_p90_ms", l, 0.9)
	m.setLatency(prefix+"_p99_ms", l, 0.99)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeMark is a snapshot of the Go runtime's allocation and CPU
// counters; the difference of two marks covers one measured phase.
type runtimeMark struct {
	mallocs       uint64
	gcCPU, allCPU float64
}

var cpuSamples = []rtmetrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func markRuntime() runtimeMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := append([]rtmetrics.Sample(nil), cpuSamples...)
	rtmetrics.Read(s)
	return runtimeMark{ms.Mallocs, floatSample(s[0]), floatSample(s[1])}
}

func floatSample(s rtmetrics.Sample) float64 {
	if s.Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return s.Value.Float64()
}

// setRuntime records runtime.allocs_per_op and runtime.gc_cpu_frac for the
// phase between from and to, which ran ops operations.
func (m metrics) setRuntime(from, to runtimeMark, ops int) {
	m.set("runtime.allocs_per_op", ratio(float64(to.mallocs-from.mallocs), float64(ops)), "count", ops)
	m.set("runtime.gc_cpu_frac", ratio(to.gcCPU-from.gcCPU, to.allCPU-from.allCPU), "ratio", ops)
}

// heapInuseMB forces a collection and reports the bytes of live heap
// objects in MiB. (HeapAlloc, not HeapInuse: span fragmentation left by
// earlier garbage varies from run to run and is not the program's data.)
func heapInuseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
