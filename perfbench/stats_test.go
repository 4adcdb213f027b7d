package main

import (
	"strings"
	"testing"
	"time"
)

func TestTailOf(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i))
	}
	// The 90th smallest of 100 has exactly ten samples beyond it.
	if got, desc := tailOf(ds); got != 90 || !strings.HasPrefix(desc, "p90.00 of 100") {
		t.Errorf("tailOf(1..100) = %v, %q", got, desc)
	}
	if got, desc := tailOf(ds[:10]); got != 10 || !strings.HasPrefix(desc, "maximum of 10") {
		t.Errorf("tailOf(1..10) = %v, %q", got, desc)
	}
}

func TestTailSamplesAverageWindows(t *testing.T) {
	if got := tailSamples([]time.Duration{3, 1}); len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Errorf("short runs keep their operations: %v", got)
	}
	ds := make([]time.Duration, 4*maxTailSamples+2)
	for i := range ds {
		ds[i] = time.Duration(i)
	}
	got := tailSamples(ds)
	if len(got) != maxTailSamples {
		t.Fatalf("%d samples, want %d", len(got), maxTailSamples)
	}
	// Window 0 holds operations 0..3, the last one the final five.
	if got[0] != 1 || got[len(got)-1] != time.Duration(len(ds)-3) {
		t.Errorf("window means %v ... %v", got[0], got[len(got)-1])
	}
}
