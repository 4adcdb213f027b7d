package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"cloversim"
	"cloversim/internal/dispatch"
	"cloversim/internal/store"
	"cloversim/internal/sweep"
	"cloversim/internal/sweepcli"
	"cloversim/internal/workload"
)

// One run sets its workload up at least minSetupReps times, and
// repeats cheap set-ups until setupBudget is spent; setup_s is the
// median.
const (
	minSetupReps = 5
	maxSetupReps = 1000
	setupBudget  = 50 * time.Millisecond
)

// fillerSeeds is how many other grid seeds the daemons' stores hold
// records for, besides the run's own: 62 x 160 + 160 = 10080 records.
const fillerSeeds = 62

// benchRun is one benchmark run of one workload.
type benchRun struct {
	w      *workloadDef
	seed   uint64
	budget time.Duration
	trace  bool
	dir    string   // scratch directory inside the checkout
	notes  []string // printed before the metrics
	seq    int
	tr     *tracer
	heap   *heapSampler

	grid      sweep.Grid
	chk       *checker
	attempted int
	failed    int
}

// fixture is what set-up leaves for the operations.
type fixture struct {
	daemons []*daemon
	dirs    []string // removed by close
}

// close stops the daemons and removes the fixture's directories.
func (f *fixture) close() error {
	if f == nil {
		return nil
	}
	var errs []error
	for _, d := range f.daemons {
		errs = append(errs, d.stop())
	}
	f.daemons = nil
	for _, d := range f.dirs {
		errs = append(errs, os.RemoveAll(d))
	}
	f.dirs = nil
	return errors.Join(errs...)
}

// restartDaemons replaces each daemon with a fresh one on the same
// store, so the next operation's cells cross the daemons' stores
// instead of their engines' in-memory memoizers.
func (f *fixture) restartDaemons(ctx context.Context, tr *tracer) error {
	for i, d := range f.daemons {
		if err := d.stop(); err != nil {
			return err
		}
		nd, err := startDaemon(ctx, d.st.Dir(), i+1, tr)
		if err != nil {
			return err
		}
		f.daemons[i] = nd
	}
	return nil
}

func (f *fixture) workerURLs() []string {
	urls := make([]string, len(f.daemons))
	for i, d := range f.daemons {
		urls[i] = d.url
	}
	return urls
}

func (b *benchRun) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// fresh names a new scratch path.
func (b *benchRun) fresh(name string) string {
	b.seq++
	return filepath.Join(b.dir, fmt.Sprintf("%s-%d", name, b.seq))
}

func (b *benchRun) run(ctx context.Context) (result, error) {
	var err error
	if b.grid, err = b.w.gridFor(b.seed).Resolve(workload.ValidateAxes); err != nil {
		return result{}, err
	}
	b.chk = &checker{cells: b.grid.Size()}
	if b.seed == defaultSeed {
		if b.chk.digests, err = digestsFor(b.w.digests); err != nil {
			return result{}, err
		}
	}
	if b.trace {
		b.tr = newTracer()
	}

	fx, setupS, err := b.setUp(ctx)
	if err != nil {
		return result{}, err
	}
	defer fx.close()

	b.heap = startHeapSampler()
	defer b.heap.close()
	runtime.GC()

	metrics := map[string]metric{}
	if b.trace {
		err = b.traced(ctx, fx, metrics)
	} else {
		err = b.endToEnd(ctx, fx, setupS, metrics)
	}
	if err != nil {
		return result{}, err
	}
	if err := fx.close(); err != nil {
		return result{}, err
	}
	for _, p := range b.chk.problems {
		b.note("check: %s", p)
	}
	return result{
		Correct:   b.failed == 0 && len(b.chk.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}, nil
}

// setUp prepares the operations' inputs repeatedly and keeps the last
// fixture. The fleet workload first runs the campaign cold once,
// through the CLI path into a store, for the real records and the
// reference outputs; setup_s is that time plus the median set-up.
func (b *benchRun) setUp(ctx context.Context) (*fixture, time.Duration, error) {
	var seeding time.Duration
	var records []store.Record
	if b.w.kind == warmFleet {
		t0 := time.Now()
		out, storeDir := b.fresh("seed-out"), b.fresh("seed-store")
		args := append(b.w.cliArgs(b.seed), "-out", out, "-store", storeDir)
		var so, se bytes.Buffer
		code := sweepcli.MainWithRunnerContext(ctx, args, &so, &se, cloversim.RunScenarioContext)
		if code != sweepcli.ExitOK {
			return nil, 0, fmt.Errorf("seeding campaign exited %d: %s", code, strings.TrimSpace(se.String()))
		}
		ref, err := readOutputs(out)
		if err != nil {
			return nil, 0, err
		}
		st, err := store.Open(storeDir, cloversim.PhysicsVersion)
		if err != nil {
			return nil, 0, err
		}
		records = st.Records()
		if err := st.Close(); err != nil {
			return nil, 0, err
		}
		seeding = time.Since(t0)
		b.attempted += b.chk.cells
		b.failed += b.chk.setReference(ref)
		os.RemoveAll(out)
		os.RemoveAll(storeDir)
	}

	var reps []time.Duration
	var fx *fixture
	for start := time.Now(); len(reps) < minSetupReps || (time.Since(start) < setupBudget && len(reps) < maxSetupReps); {
		t0 := time.Now()
		f, err := b.setUpOnce(ctx, records)
		reps = append(reps, time.Since(t0))
		if fx != nil {
			err = errors.Join(err, fx.close())
		}
		if err != nil {
			return nil, 0, errors.Join(err, f.close())
		}
		fx = f
	}
	med := median(reps)
	b.note("setup: seeding campaign %.3f s + median set-up %.6f s over %d", seeding.Seconds(), med.Seconds(), len(reps))
	return fx, seeding + med, nil
}

// setUpOnce generates the operations' inputs from the seed: the grid,
// and for the fleet the filled stores and the daemons. On
// error, the fixture returned holds what must still be closed.
func (b *benchRun) setUpOnce(ctx context.Context, records []store.Record) (*fixture, error) {
	grid, err := b.w.gridFor(b.seed).Resolve(workload.ValidateAxes)
	if err != nil {
		return nil, err
	}
	if n := len(grid.Expand()); n != b.chk.cells {
		return nil, fmt.Errorf("grid expands to %d cells, want %d", n, b.chk.cells)
	}
	fx := &fixture{}
	if b.w.kind == warmFleet {
		for i := 0; i < 2; i++ {
			dir := b.fresh("daemon-store")
			fx.dirs = append(fx.dirs, dir)
			if err := fillStore(dir, b.seed, records); err != nil {
				return fx, err
			}
			d, err := startDaemon(ctx, dir, i+1, b.tr)
			if err != nil {
				return fx, err
			}
			fx.daemons = append(fx.daemons, d)
		}
	}
	return fx, nil
}

// fillStore writes the real records plus filler records for the same
// cells under fillerSeeds other grid seeds derived from seed, in a
// seeded shuffled order, into a fresh store.
func fillStore(dir string, seed uint64, records []store.Record) error {
	rng := rand.New(rand.NewPCG(seed, 0x70657266))
	seeds := map[uint64]bool{seed: true}
	all := append([]store.Record(nil), records...)
	for len(seeds) < fillerSeeds+1 {
		s := rng.Uint64()
		if seeds[s] {
			continue
		}
		seeds[s] = true
		for _, r := range records {
			sc := r.Scenario
			sc.Seed = s
			all = append(all, store.Record{Scenario: sc, Metrics: r.Metrics})
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	st, err := store.Open(dir, cloversim.PhysicsVersion)
	if err != nil {
		return err
	}
	for _, r := range all {
		if err := st.Put(r.Scenario, r.Metrics); err != nil {
			return errors.Join(err, st.Close())
		}
	}
	return st.Close()
}

// opRun is one operation's outcome.
type opRun struct {
	d    time.Duration
	peak uint64 // peak heap bytes during the operation
}

// prepareOp readies the next operation, outside its timing. A CLI
// invocation starts with an empty heap, so the previous operation's
// garbage is collected now. The fleet's daemons are restarted, so that
// the operation's cells cross their stores instead of their engines'
// in-memory memoizers.
func (b *benchRun) prepareOp(ctx context.Context, fx *fixture) error {
	if b.w.kind == warmFleet {
		if err := fx.restartDaemons(ctx, b.tr); err != nil {
			b.attempted += b.chk.cells
			b.failed += b.chk.cells
			b.chk.problem("restarting daemons: %v", err)
			return err
		}
	}
	runtime.GC()
	return nil
}

// cliOp runs one operation through the cmd/sweep code path, with a
// fresh -out directory and, in-process, a fresh engine.
func (b *benchRun) cliOp(ctx context.Context, fx *fixture) opRun {
	out := b.fresh("out")
	args := append(b.w.cliArgs(b.seed), "-out", out)
	scratch := []string{out}
	switch b.w.kind {
	case coldStore:
		st := b.fresh("store")
		scratch = append(scratch, st)
		args = append(args, "-store", st)
	case warmFleet:
		args = append(args, "-workers", strings.Join(fx.workerURLs(), ","))
	}
	var so, se bytes.Buffer
	b.heap.reset()
	t0 := time.Now()
	code := sweepcli.MainWithRunnerContext(ctx, args, &so, &se, cloversim.RunScenarioContext)
	r := opRun{d: time.Since(t0), peak: b.heap.max()}
	b.checkOp(out, code, se.String())
	for _, p := range scratch {
		os.RemoveAll(p)
	}
	return r
}

// checkOp counts one operation's cells and checks its outputs.
func (b *benchRun) checkOp(out string, code int, stderr string) {
	b.attempted += b.chk.cells
	o, err := readOutputs(out)
	switch {
	case code != sweepcli.ExitOK:
		b.chk.problem("campaign exited %d: %s", code, strings.TrimSpace(stderr))
		b.failed += b.chk.cells
	case err != nil:
		b.chk.problem("reading outputs: %v", err)
		b.failed += b.chk.cells
	default:
		b.failed += b.chk.check(o)
	}
}

// measure runs operations back to back until the budget is spent,
// readying each with prepareOp outside its timing. Another starts only
// if it should end within half an operation of the budget; at least
// one runs.
func (b *benchRun) measure(ctx context.Context, fx *fixture, budget time.Duration, op func() opRun) []opRun {
	var ops []opRun
	var ds []time.Duration
	start := time.Now()
	for ctx.Err() == nil {
		var r opRun
		if b.prepareOp(ctx, fx) == nil {
			r = op()
		}
		ops = append(ops, r)
		ds = append(ds, r.d)
		if time.Since(start)+median(ds)/2 >= budget {
			break
		}
	}
	return ops
}

// maxTailSamples caps the samples campaign_tail_s is taken over. A run
// of more operations is cut into that many windows of consecutive
// operations, and a sample is a window's mean operation time, so that
// a sample is not one garbage collection or scheduling hiccup.
const maxTailSamples = 40

func tailSamples(ds []time.Duration) []time.Duration {
	k := min(len(ds), maxTailSamples)
	out := make([]time.Duration, k)
	for j := range out {
		lo, hi := j*len(ds)/k, (j+1)*len(ds)/k
		var sum time.Duration
		for _, d := range ds[lo:hi] {
			sum += d
		}
		out[j] = sum / time.Duration(hi-lo)
	}
	return out
}

// endToEnd measures the workload's operations untraced.
func (b *benchRun) endToEnd(ctx context.Context, fx *fixture, setupS time.Duration, m map[string]metric) error {
	// Table I is computed before the first timed operation, so it is
	// part of the run's set-up.
	t0 := time.Now()
	tableErr, err := table1Err()
	if err != nil {
		return err
	}
	tableS := time.Since(t0)
	b.note("setup: Table I %.3f s", tableS.Seconds())
	setupS += tableS
	runs := b.measure(ctx, fx, b.budget, func() opRun { return b.cliOp(ctx, fx) })
	ds := make([]time.Duration, len(runs))
	peaks := make([]float64, len(runs))
	for i, r := range runs {
		ds[i] = r.d
		peaks[i] = float64(r.peak) / 1e6
	}
	samples := tailSamples(ds)
	tail, pct := tailOf(samples)
	opTail, opPct := tailOf(ds)
	b.note("campaign_s: median of %d operations; campaign_tail_s: %s, each the mean of %d or more consecutive operations; single operations: %.6f s at %s",
		len(ds), pct, len(ds)/len(samples), opTail.Seconds(), opPct)
	okFrac := 0.0
	if b.attempted > 0 {
		okFrac = 1 - float64(b.failed)/float64(b.attempted)
	}
	for k, v := range endToEndMetrics(setupS, median(ds), tail, medianF(peaks), okFrac, tableErr) {
		m[k] = v
	}
	return nil
}

// endToEndMetrics names the end-to-end metrics and their units.
func endToEndMetrics(setup, campaign, tail time.Duration, peakMB, okFrac, tableErr float64) map[string]metric {
	return map[string]metric{
		"setup_s":         {setup.Seconds(), "s"},
		"campaign_s":      {campaign.Seconds(), "s"},
		"campaign_tail_s": {tail.Seconds(), "s"},
		"peak_heap_mb":    {peakMB, "MB"},
		"cells_ok_frac":   {okFrac, "frac"},
		"table1_err_pct":  {tableErr, "%"},
	}
}

// table1Err is the largest relative error, in percent, of the
// simulated single-core code balance against the paper's measurement
// over the 22 loops of Table I.
func table1Err() (float64, error) {
	rows, _, err := cloversim.TableI(cloversim.Options{})
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for _, r := range rows {
		worst = math.Max(worst, math.Abs(r.Simulated-r.MeasuredSingleCore)/r.MeasuredSingleCore*100)
	}
	return worst, nil
}

// traced measures untraced operations for half the budget, then
// traced ones composed from the layers' public APIs for the other
// half under a CPU profile, then replays the workload's CloverLeaf
// cells, and reports the per-layer metrics.
func (b *benchRun) traced(ctx context.Context, fx *fixture, m map[string]metric) error {
	untraced := b.measure(ctx, fx, b.budget/2, func() opRun { return b.cliOp(ctx, fx) })

	// One CPU profile covers the traced half. Only samples of
	// goroutines labeled as working for an operation count, which
	// leaves out the benchmark's own work between operations and the
	// collection forced before each, which a CLI invocation never pays.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	var camps []sweep.Campaign
	op := 0
	traced := b.measure(ctx, fx, b.budget/2, func() opRun {
		op++
		r, c, err := b.tracedOp(ctx, fx, op)
		if err != nil {
			b.chk.problem("traced operation %d: %v", op, err)
			b.attempted += b.chk.cells
			b.failed += b.chk.cells
		}
		camps = append(camps, c)
		return r
	})
	pprof.StopCPUProfile()
	cpu := map[string]int64{}
	if err := addLeafCounts(cpu, prof.Bytes()); err != nil {
		return err
	}

	var cells []sweep.Scenario
	for _, s := range b.grid.Expand() {
		if b.w.replay(s) {
			cells = append(cells, s)
		}
	}
	rep, err := replayCells(b.tr, cells)
	if err != nil {
		return err
	}
	for _, mm := range rep.mismatches {
		b.chk.problem("replay fidelity: %s", mm)
	}
	shares, samples := sharesOf(cpu)
	lm := layerMetrics(b.tr.snapshot(), len(traced), camps, fx, rep)
	lm.setRun(opMedian(untraced), opMedian(traced), shares, samples)
	for k, v := range lm {
		m[k] = v
	}
	b.note("traced run: %d untraced and %d traced operations, %d replayed cells, %d CPU samples", len(untraced), len(traced), rep.cells, samples)
	for _, line := range selfTimeTable(b.tr.snapshot()) {
		b.note("%s", line)
	}
	return nil
}

// tracedOp runs one operation composed from the layers' public APIs,
// labeled for the CPU profile, and checks its outputs like any other
// operation's.
func (b *benchRun) tracedOp(ctx context.Context, fx *fixture, op int) (opRun, sweep.Campaign, error) {
	out := b.fresh("out")
	defer os.RemoveAll(out)
	storeDir := ""
	if b.w.kind == coldStore {
		storeDir = b.fresh("store")
		defer os.RemoveAll(storeDir)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return opRun{}, sweep.Campaign{}, err
	}
	var c sweep.Campaign
	var err error
	b.heap.reset()
	t0 := time.Now()
	pprof.Do(ctx, pprof.Labels(opLabel, strconv.Itoa(op)), func(ctx context.Context) {
		c, err = b.composed(ctx, fx, op, storeDir, out)
	})
	r := opRun{d: time.Since(t0), peak: b.heap.max()}
	if err != nil {
		return r, c, err
	}
	code := sweepcli.ExitOK
	if c.Err() != nil || c.CacheErr != nil {
		code = sweepcli.ExitRuntime
	}
	b.checkOp(out, code, fmt.Sprint(errors.Join(c.Err(), c.CacheErr)))
	return r, c, nil
}

// composed is one operation put together the way cmd/sweep puts it
// together: store, engine, local or fleet backend, emitters. The
// engine's Runner, Cache and Backend seams and every step are under
// timing spans.
func (b *benchRun) composed(ctx context.Context, fx *fixture, op int, storeDir, out string) (sweep.Campaign, error) {
	tr := b.tr
	tr.on.Store(true)
	defer tr.on.Store(false)
	root := tr.begin("op", 0, op)
	defer tr.end(root)
	tr.setScope(op, root, root)

	eng := sweep.NewEngine(0)
	runner := tr.tracedRunner(cloversim.RunScenarioContext)
	var st *store.Store
	if storeDir != "" {
		id := tr.begin("store.open", root, op)
		var err error
		if st, err = store.Open(storeDir, cloversim.PhysicsVersion); err != nil {
			return sweep.Campaign{}, err
		}
		defer st.Close()
		tr.finish(id, "", int64(st.Len()))
		eng.Cache = &tracedCache{c: st, tr: tr}
	}
	if b.w.kind == warmFleet {
		id := tr.begin("dispatch.new", root, op)
		fleet, err := dispatch.New(ctx, fx.workerURLs(), cloversim.PhysicsVersion)
		tr.finish(id, errTag(err), 0)
		if err != nil {
			return sweep.Campaign{}, err
		}
		eng.Backend = &tracedBackend{b: fleet, tr: tr, name: "dispatch.execute"}
	} else {
		eng.Backend = &tracedBackend{b: &sweep.LocalBackend{Workers: runtime.GOMAXPROCS(0), Run: runner}, tr: tr, name: "sweep.backend"}
	}

	camp := tr.begin("sweep.campaign", root, op)
	tr.setScope(op, camp, camp)
	c := eng.RunScenariosContextProgress(ctx, b.grid.Expand(), runner, nil)
	tr.finish(camp, "", int64(len(c.Results)))
	tr.setScope(op, root, root)

	for _, e := range []struct {
		name, file string
		em         sweep.Emitter
	}{
		{"emit.csv", "campaign.csv", sweep.CSVEmitter{}},
		{"emit.json", "campaign.json", sweep.JSONEmitter{Indent: true}},
	} {
		id := tr.begin(e.name, root, op)
		n, err := emitFile(filepath.Join(out, e.file), e.em, c)
		tr.finish(id, errTag(err), n)
		if err != nil {
			return c, err
		}
	}
	id := tr.begin("emit.summary", root, op)
	err := sweep.SummaryEmitter{Metric: "store_ratio"}.Emit(io.Discard, c)
	tr.finish(id, errTag(err), 0)
	if err != nil {
		return c, err
	}
	if st != nil {
		id := tr.begin("store.close", root, op)
		err := st.Close()
		tr.finish(id, errTag(err), 0)
		if err != nil {
			return c, err
		}
	}
	return c, nil
}

// emitFile writes one emitter's output as cmd/sweep does and returns
// its size.
func emitFile(path string, e sweep.Emitter, c sweep.Campaign) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	cw := &countWriter{w: f}
	if err := e.Emit(cw, c); err != nil {
		f.Close()
		return cw.n, err
	}
	return cw.n, f.Close()
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func opMedian(runs []opRun) time.Duration {
	ds := make([]time.Duration, len(runs))
	for i, r := range runs {
		ds[i] = r.d
	}
	return median(ds)
}
