package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"cloversim/internal/memsim.(*Hierarchy).accessRange":        "memsim",
		"cloversim/internal/core.(*StoreEngine).StoreRange":         "core",
		"cloversim/internal/sweep.(*Engine).runScenarios.func2":     "sweep",
		"cloversim/internal/sweepd.(*Server).handleExpand":          "sweepd",
		"cloversim/internal/machine.(*Spec).PressureAt":             "other",
		"cloversim.RunScenarioContext":                              "other",
		"main.(*benchRun).cliOp":                                    "other",
		"runtime.mallocgc":                                          "runtime",
		"runtime/pprof.(*profileBuilder).addCPUData":                "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":              "runtime",
		"encoding/json.(*encodeState).marshal":                      "stdlib",
		"slices.pdqsortCmpFunc[go.shape.struct { a/b.c int }]":      "stdlib",
		"vendor/golang.org/x/net/http2/hpack.(*Decoder).parseField": "stdlib",
		"github.com/x/y.F":                                          "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf writer for hand-built profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(num int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(num int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.b = binary.AppendUvarint(q.b, v)
	}
	p.bytes(num, q.b)
}

func TestCPUSharesReducesByLeafPackage(t *testing.T) {
	strs := []string{"", "cloversim/internal/memsim.(*Hierarchy).accessRange", "cloversim/internal/trace.(*Executor).runBody", "runtime.mallocgc", "encoding/json.Marshal", opLabel, "7"}
	var p pb
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	for id := uint64(1); id <= 4; id++ {
		var f pb
		f.varint(1, id)
		f.varint(2, id) // name: string index id
		p.bytes(5, f.b)
	}
	// Location 1: memsim inlined into trace (innermost line first).
	// Locations 2-4: trace, runtime, encoding/json.
	for id, fns := range map[uint64][]uint64{1: {1, 2}, 2: {2}, 3: {3}, 4: {4}} {
		var l pb
		l.varint(1, id)
		for _, fn := range fns {
			var line pb
			line.varint(1, fn)
			l.bytes(4, line.b)
		}
		p.bytes(4, l.b)
	}
	sample := func(labeled bool, count uint64, locs ...uint64) {
		var s pb
		if len(locs) > 1 {
			s.packed(1, locs...)
		} else {
			s.varint(1, locs[0]) // unpacked form
		}
		s.packed(2, count, count*10_000_000)
		if labeled {
			var l pb
			l.varint(1, 5) // key: opLabel
			l.varint(2, 6)
			s.bytes(3, l.b)
		}
		p.bytes(2, s.b)
	}
	sample(true, 6, 1, 2) // leaf memsim (inlined), caller trace
	sample(true, 2, 2)    // leaf trace
	sample(true, 1, 3, 1) // leaf runtime
	sample(true, 1, 4)    // leaf encoding/json
	sample(false, 5, 3)   // not working for an operation: ignored
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b)
	zw.Close()

	counts := map[string]int64{}
	if err := addLeafCounts(counts, gz.Bytes()); err != nil {
		t.Fatal(err)
	}
	shares, samples := sharesOf(counts)
	if samples != 10 {
		t.Errorf("samples = %d, want 10", samples)
	}
	want := map[string]float64{"memsim": 0.6, "trace": 0.2, "runtime": 0.1, "stdlib": 0.1}
	for _, b := range shareBuckets {
		if math.Abs(shares[b]-want[b]) > 1e-12 {
			t.Errorf("share %s = %g, want %g", b, shares[b], want[b])
		}
	}
}

func TestCPUSharesOfRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	pprof.Do(context.Background(), pprof.Labels(opLabel, "1"), func(context.Context) {
		for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
			for i := 0; i < 1000; i++ {
				x += math.Sqrt(float64(i))
			}
		}
	})
	pprof.StopCPUProfile()
	counts := map[string]int64{}
	if err := addLeafCounts(counts, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	shares, samples := sharesOf(counts)
	if samples == 0 {
		t.Skip("no CPU samples recorded")
	}
	total := 0.0
	for _, b := range shareBuckets {
		total += shares[b]
	}
	if math.Abs(total-1) > 1e-9 || shares["other"] == 0 {
		t.Errorf("shares %v over %d samples (x=%g): want them to sum to 1 with the test's own loop under other", shares, samples, x)
	}
}
