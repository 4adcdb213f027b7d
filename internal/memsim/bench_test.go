package memsim

import (
	"testing"

	"cloversim/internal/machine"
)

// Benchmarks for the cache-hierarchy hot operations that dominate
// every traffic study, in ns per simulated line access: access streams
// replayed through AccessRange in spans of rangeLen lines.
//
//	go test -bench 'Range$' ./internal/memsim

const benchLines = 1 << 14 // 1 MiB of cache lines: spills L1/L2, busy L3

func benchHierarchy() *Hierarchy { return New(machine.ICX8360Y()) }

const rangeLen = 256

func benchRange(b *testing.B, kind AccessKind) {
	h := benchHierarchy()
	b.ReportAllocs()
	for i := 0; i < b.N; i += rangeLen {
		h.AccessRange(int64(i%benchLines), rangeLen, kind)
	}
}

func BenchmarkHierarchyLoadRange(b *testing.B) {
	benchRange(b, AccessLoad)
}

func BenchmarkHierarchyRFORange(b *testing.B) {
	benchRange(b, AccessRFO)
}

func BenchmarkHierarchyClaimI2MRange(b *testing.B) {
	benchRange(b, AccessClaimI2M)
}

func BenchmarkHierarchyWriteNTRange(b *testing.B) {
	benchRange(b, AccessWriteNT)
}

// BenchmarkHierarchyStencilMixRange approximates a stencil loop's access
// pattern: two read streams and one written stream per span.
func BenchmarkHierarchyStencilMixRange(b *testing.B) {
	h := benchHierarchy()
	b.ReportAllocs()
	for i := 0; i < b.N; i += rangeLen {
		line := int64(i % benchLines)
		h.AccessRange(line, rangeLen, AccessLoad)
		h.AccessRange(line+benchLines, rangeLen, AccessLoad)
		h.AccessRange(line+2*benchLines, rangeLen, AccessRFO)
	}
}

// Streaming-run benchmarks: whole-array sequential sweeps (the shape
// stream/jacobi/cloverleaf rows produce), in ns per simulated line
// access:
//
//	go test -bench 'StreamRange' ./internal/memsim
const streamLen = 1 << 20 // 64 MiB of lines: ~23x the whole ICX hierarchy

func benchStream(b *testing.B, kind AccessKind) {
	h := benchHierarchy()
	h.SetPrefetch(false)
	b.ReportAllocs()
	start := int64(0)
	for i := 0; i < b.N; i += streamLen {
		// Fresh state per sweep: streaming kernels touch each array
		// once, and residue (dirty write-back state especially) would
		// turn the steady-state measurement into a residue measurement.
		h.Invalidate()
		h.AccessRange(start, streamLen, kind)
		start += streamLen
	}
}

func BenchmarkHierarchyLoadStreamRange(b *testing.B) {
	benchStream(b, AccessLoad)
}

func BenchmarkHierarchyRFOStreamRange(b *testing.B) {
	benchStream(b, AccessRFO)
}

func BenchmarkHierarchyClaimI2MStreamRange(b *testing.B) {
	benchStream(b, AccessClaimI2M)
}

func BenchmarkHierarchyFlush(b *testing.B) {
	h := benchHierarchy()
	h.AccessRange(0, benchLines, AccessRFO)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Flush()
	}
}
