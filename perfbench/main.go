// Command perfbench is cloversim's benchmark. It runs real campaign
// shapes through the code path cmd/sweep uses and reports end-to-end
// metrics; with --trace 1 it composes the same campaign from the
// layers' public APIs under timing spans, replays CloverLeaf cells
// through the trace executor and profiles the CPU, and reports
// per-layer metrics instead.
//
// Run it from the repository root through the launcher, which builds
// it first:
//
//	bash perfbench/run.sh --workload campaign-cold --seed 0 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Workloads, metrics and the
// layer each metric belongs to are described in perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the grid seed cmd/sweep uses when -seed is not given;
// the committed output digests hold for it.
const defaultSeed = 0

// runDeadline bounds one benchmark run: campaigns still running when
// it expires are cancelled, which fails the run instead of hanging it.
const runDeadline = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wname := fs.String("workload", "campaign-cold", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "grid seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "measurement time of one run")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	w, ok := workloadByName(*wname)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *wname, *seconds, *traced)
		return 2
	}
	if _, err := os.Stat(filepath.Join("perfbench", "go.mod")); err != nil {
		fmt.Fprintln(stderr, "perfbench: run from the repository root:", err)
		return 2
	}
	scratch := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	b := &benchRun{
		w:      w,
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		trace:  *traced == 1,
		dir:    scratch,
	}
	res, err := b.run(ctx)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if b.trace {
		if err := writeSpans(filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.json", w.name, *seed)), b.tr.snapshot()); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	for _, line := range b.notes {
		fmt.Fprintln(stdout, line)
	}
	printMetrics(stdout, res)
	enc, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the benchmark's one-line JSON report.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printMetrics writes the human-readable table that precedes the JSON line.
func printMetrics(w io.Writer, r result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}
