package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailOf returns the highest percentile of ds that has at least ten
// samples beyond it, and says which percentile it is and over how
// many samples. With ten samples or fewer no percentile has ten beyond
// it, and the maximum stands in.
func tailOf(ds []time.Duration) (time.Duration, string) {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n == 0 {
		return 0, "no samples"
	}
	if n <= 10 {
		return s[n-1], fmt.Sprintf("maximum of %d samples (ten or fewer, so no percentile has ten beyond it)", n)
	}
	k := n - 10 // the k-th smallest has exactly ten samples beyond it
	return s[k-1], fmt.Sprintf("p%.2f of %d samples", 100*float64(k)/float64(n), n)
}

// heapSampler polls the GC's heap goal every millisecond and keeps
// the peak since the last reset. The heap grows to about its goal
// before each collection, so the peak goal is the peak heap, without
// depending on whether a sample lands just before a collection.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const heapMetric = "/gc/heap/goal:bytes"

func readHeap() uint64 {
	var s [1]metrics.Sample
	s[0].Name = heapMetric
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.reset()
	go func() {
		defer close(h.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := readHeap()
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

func (h *heapSampler) reset() { h.peak.Store(readHeap()) }

func (h *heapSampler) max() uint64 {
	h.observe()
	return h.peak.Load()
}

// close stops the sampler and waits for it to exit; it is called once.
func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}
