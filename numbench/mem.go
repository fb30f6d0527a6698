package main

import (
	"runtime/metrics"
	"sort"
	"time"
)

// heapSampler reads, every millisecond, the live heap the last GC
// cycle marked. Its 90th percentile over a run is the memory the
// workload needs: steady where the process's peak RSS is not. On a
// workload with a small heap and a high allocation rate, peak RSS and
// the peak live heap are extremes over thousands of GC cycles, and
// they moved by a quarter between runs of one seed.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // bytes; owned by the sampling goroutine until done
}

// startHeapSampler starts the sampling goroutine.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(live)
			h.samples = append(h.samples, float64(live[0].Value.Uint64()))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// p90MB stops the sampling goroutine, waits for it to exit, and
// returns the 90th percentile of its samples in MB.
func (h *heapSampler) p90MB() float64 {
	close(h.stop)
	<-h.done
	sort.Float64s(h.samples)
	return h.samples[len(h.samples)*9/10] / (1 << 20)
}
