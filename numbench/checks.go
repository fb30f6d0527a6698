package main

import (
	"encoding/binary"
	"hash"
	"math"
	"runtime/metrics"

	"numfabric/internal/stats"
)

// Checks and metric helpers shared by the leap and packet workloads.

// checkNormFCT fails every normalized FCT below 1: no flow can beat
// its line-rate FCT. It returns how many failed.
func checkNormFCT(name string, norm []float64, r *report) int {
	low := countBelow(norm, 1-1e-9)
	if low > 0 {
		r.fail(low, "%s: %d normalized FCTs below 1", name, low)
	}
	return low
}

// countBelow counts the values under x.
func countBelow(xs []float64, x float64) int {
	n := 0
	for _, v := range xs {
		if v < x {
			n++
		}
	}
	return n
}

// hashFloat feeds v's bits to h.
func hashFloat(h hash.Hash64, v float64) {
	h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
}

// setFCTMetrics reports the simulated end-to-end metrics shared by
// every workload. passed counts the flows that finished and passed
// every check.
func setFCTMetrics(norm, rateDev []float64, passed, flows int, r *report) {
	r.set("median_norm_fct", stats.Median(norm))
	r.set("p95_norm_fct", stats.Percentile(norm, 0.95))
	r.set("p99_norm_fct", stats.Percentile(norm, 0.99))
	r.set("rate_dev_median", stats.Median(rateDev))
	r.set("finished_frac", float64(passed)/float64(flows))
}

// gcSample is a reading of the runtime's cumulative GC counters.
// gcCPU leaves out idle-priority marking, which only soaks up CPU
// nothing else wanted.
type gcSample struct{ cycles, gcCPU, totalCPU, allocBytes float64 }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/mark/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	var v [5]float64
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			v[i] = x.Value.Float64()
		}
	}
	return gcSample{cycles: v[0], gcCPU: v[1] - v[2], totalCPU: v[3], allocBytes: v[4]}
}

// setGCMetrics reports the Go runtime's work between two readings, the
// second taken right after a forced collection, which is not counted.
func setGCMetrics(g0, g1 gcSample, r *report) {
	r.set("go.gc_cycles", g1.cycles-g0.cycles-1)
	r.set("go.gc_cpu_frac", (g1.gcCPU-g0.gcCPU)/math.Max(g1.totalCPU-g0.totalCPU, 1e-9))
	r.set("go.alloc_mb", (g1.allocBytes-g0.allocBytes)/(1<<20))
}
