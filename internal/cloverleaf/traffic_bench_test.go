package cloverleaf

import (
	"fmt"
	"testing"

	"cloversim/internal/machine"
)

// Benchmarks for the memsim-backed traffic hot path: the baseline
// trajectory future performance PRs are measured against.
//
//	go test -bench BenchmarkRunTraffic ./internal/cloverleaf

func benchTrafficOpts(ranks int) TrafficOptions {
	return TrafficOptions{
		Machine:     machine.ICX8360Y(),
		Ranks:       ranks,
		MaxRows:     16,
		AlignArrays: true,
		HotspotOnly: true,
	}
}

// BenchmarkRunTraffic's ranks71 case is the paper's prime-rank shape:
// the 1D decomposition cuts the 15360-wide mesh into 216-wide strips,
// the narrowest and most numerous rows any case simulates.
func BenchmarkRunTraffic(b *testing.B) {
	for _, ranks := range []int{1, 18, 71, 72} {
		b.Run(fmt.Sprintf("ranks%d", ranks), func(b *testing.B) {
			o := benchTrafficOpts(ranks)
			var bpc float64
			for i := 0; i < b.N; i++ {
				r, err := RunTraffic(o)
				if err != nil {
					b.Fatal(err)
				}
				bpc = r.BytesPerStep() / r.InnerCells
			}
			b.ReportMetric(bpc, "bytes/cell")
		})
	}
}

func BenchmarkRunTrafficFullKernels(b *testing.B) {
	o := benchTrafficOpts(18)
	o.HotspotOnly = false
	for i := 0; i < b.N; i++ {
		if _, err := RunTraffic(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelNode(b *testing.B) {
	o := benchTrafficOpts(72)
	var bw float64
	for i := 0; i < b.N; i++ {
		m, err := ModelNode(o)
		if err != nil {
			b.Fatal(err)
		}
		bw = m.BandwidthBytes / 1e9
	}
	b.ReportMetric(bw, "GB/s")
}

// TestRunTrafficBitIdentical locks in the deterministic accumulation
// order: repeated runs must agree to the last float bit, or campaign
// emitters cannot be byte-stable.
func TestRunTrafficBitIdentical(t *testing.T) {
	o := benchTrafficOpts(18) // 18 ranks -> several rank groups
	a, err := RunTraffic(o)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		c, err := RunTraffic(o)
		if err != nil {
			t.Fatal(err)
		}
		if a.BytesPerStep() != c.BytesPerStep() {
			t.Fatalf("BytesPerStep differs bitwise between runs: %x vs %x",
				a.BytesPerStep(), c.BytesPerStep())
		}
		for _, name := range a.LoopNames() {
			if a.Loops[name].ReadBytes != c.Loops[name].ReadBytes ||
				a.Loops[name].WriteBytes != c.Loops[name].WriteBytes {
				t.Fatalf("loop %s traffic differs bitwise between runs", name)
			}
		}
	}
}
