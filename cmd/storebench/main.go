// Command storebench runs the store-ratio microbenchmark (the
// likwid-bench store_avx512 / store_mem_avx512 analogue, Figs. 5/9/10):
// 1-3 store streams, normal or non-temporal, swept over core counts in
// parallel on the sweep engine.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"cloversim/internal/bench"
	"cloversim/internal/machine"
	"cloversim/internal/sweep"
)

func main() {
	var (
		mach    = flag.String("machine", "icx", fmt.Sprintf("machine preset %v", machine.Names()))
		streams = flag.Int("streams", 1, "number of store streams (1-3)")
		nt      = flag.Bool("nt", false, "non-temporal stores")
		cores   = flag.Int("cores", 0, "core count (0 = sweep all)")
		pfoff   = flag.Bool("pfoff", false, "disable hardware prefetchers")
		volume  = flag.Int64("bytes", 2<<20, "bytes stored per stream per core")
		workers = flag.Int("workers", 0, "max concurrent runs (0 = GOMAXPROCS)")
		csvPath = flag.String("csv", "", "also write the sweep as CSV to this path")
	)
	flag.Parse()

	spec, ok := machine.ByName(*mach)
	if !ok {
		fmt.Fprintf(os.Stderr, "storebench: unknown machine %q\n", *mach)
		os.Exit(1)
	}
	mode := sweep.Mode{Name: "cli", NTStores: *nt, PFOff: *pfoff}
	grid := sweep.Grid{Machines: []string{*mach}, Modes: []sweep.Mode{mode}}
	if *cores > 0 {
		grid.Threads = []int{*cores}
	} else {
		for n := 1; n <= spec.Cores(); n++ {
			grid.Threads = append(grid.Threads, n)
		}
	}

	c := sweep.NewEngine(*workers).RunScenariosContextProgress(context.Background(), grid.Expand(), func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		r, err := bench.RunStore(bench.StoreOptions{
			Machine: spec, Streams: *streams, NT: s.Mode.NTStores, Cores: s.Threads,
			BytesPerStream: *volume, PFOff: s.Mode.PFOff,
		})
		if err != nil {
			return nil, err
		}
		var m sweep.Metrics
		m.Add("stored_mb", r.Stored/1e6)
		m.Add("read_mb", r.V.Read/1e6)
		m.Add("write_mb", r.V.Write/1e6)
		m.Add("itom_mb", r.V.ItoM/1e6)
		m.Add("ratio", r.Ratio())
		return m, nil
	}, nil)
	if err := c.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "storebench:", err)
		os.Exit(1)
	}
	for _, r := range c.Results {
		stored, _ := r.Metrics.Get("stored_mb")
		read, _ := r.Metrics.Get("read_mb")
		write, _ := r.Metrics.Get("write_mb")
		itom, _ := r.Metrics.Get("itom_mb")
		ratio, _ := r.Metrics.Get("ratio")
		fmt.Printf("%3d cores: stored %.2f MB  read %.2f MB  write %.2f MB  ItoM %.2f MB  ratio %.3f\n",
			r.Scenario.Threads, stored, read, write, itom, ratio)
	}
	if *csvPath != "" {
		if err := c.Table().SaveCSV(*csvPath); err != nil {
			fmt.Fprintln(os.Stderr, "storebench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *csvPath)
	}
}
