// Command copybench runs the copy microbenchmark a(:) = b(:) — either
// contiguous (Fig. 6: per-iteration read/write/SpecI2M volumes vs thread
// count) or strip-mined with a halo gap (Figs. 8/11: read/write ratio vs
// halo size for inner dimensions 216/530/1920) — swept over core counts
// in parallel on the sweep engine.
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
		inner   = flag.Int("inner", 0, "batch length in elements (0 = contiguous)")
		halo    = flag.Int("halo", 0, "elements skipped between batches")
		cores   = flag.Int("cores", 0, "core count (0 = sweep all)")
		pfoff   = flag.Bool("pfoff", false, "disable hardware prefetchers")
		nt      = flag.Bool("nt", false, "non-temporal destination stores")
		elems   = flag.Int64("elems", 1<<19, "elements copied per core")
		workers = flag.Int("workers", 0, "max concurrent runs (0 = GOMAXPROCS)")
		csvPath = flag.String("csv", "", "also write the sweep as CSV to this path")
	)
	flag.Parse()

	spec, ok := machine.ByName(*mach)
	if !ok {
		fmt.Fprintf(os.Stderr, "copybench: unknown machine %q\n", *mach)
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
		r, err := bench.RunCopy(bench.CopyOptions{
			Machine: spec, Cores: s.Threads, Inner: *inner, Halo: *halo,
			Elems: *elems, NT: s.Mode.NTStores, PFOff: s.Mode.PFOff,
		})
		if err != nil {
			return nil, err
		}
		var m sweep.Metrics
		m.Add("read_bpi", r.ReadPerIt())
		m.Add("write_bpi", r.WritePerIt())
		m.Add("itom_bpi", r.ItoMPerIt())
		m.Add("rw_ratio", r.RWRatio())
		return m, nil
	}, nil)
	if err := c.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "copybench:", err)
		os.Exit(1)
	}
	for _, r := range c.Results {
		read, _ := r.Metrics.Get("read_bpi")
		write, _ := r.Metrics.Get("write_bpi")
		itom, _ := r.Metrics.Get("itom_bpi")
		ratio, _ := r.Metrics.Get("rw_ratio")
		fmt.Printf("%3d cores: read/it %.3f B  write/it %.3f B  ItoM/it %.3f B  R/W ratio %.3f\n",
			r.Scenario.Threads, read, write, itom, ratio)
	}
	if *csvPath != "" {
		if err := c.Table().SaveCSV(*csvPath); err != nil {
			fmt.Fprintln(os.Stderr, "copybench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *csvPath)
	}
}
