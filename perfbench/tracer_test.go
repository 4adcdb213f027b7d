package main

import (
	"sync"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	children := []span{
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 40},  // overlaps the first
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 1, Start: 50, End: 50},  // empty
	}
	if got, want := selfTime(parent, children), time.Duration(100-30-10); got != want {
		t.Errorf("self time %v, want %v", got, want)
	}
	self := selfTimes(append([]span{parent}, children...))
	if self[1] != 60 || self[2] != 20 || self[4] != 30 {
		t.Errorf("selfTimes = %v", self)
	}
}

// TestTracerConcurrentSpans records spans from many goroutines at
// once, as the runner, cache and daemon wrappers do.
func TestTracerConcurrentSpans(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	root := tr.begin("op", 0, 1)
	tr.setScope(1, root, root)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				op, campaign, _ := tr.scope()
				id := tr.begin("store.get", campaign, op)
				tr.finish(id, "hit", int64(i))
				_ = tr.snapshot()
			}
		}()
	}
	wg.Wait()
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 801 {
		t.Fatalf("%d spans, want 801", len(spans))
	}
	for i, s := range spans {
		if s.ID != i+1 || s.End < s.Start || (s.Name == "store.get" && (s.Parent != root || s.Op != 1)) {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
	}
}
