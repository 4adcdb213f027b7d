package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"cloversim/internal/bench"
	"cloversim/internal/cloverleaf"
	"cloversim/internal/core"
	"cloversim/internal/decomp"
	"cloversim/internal/machine"
	"cloversim/internal/memsim"
	"cloversim/internal/sweep"
	"cloversim/internal/trace"
	"cloversim/internal/workload"
)

// replayOp numbers the replayed cells' spans apart from the traced
// campaign operations.
const replayOp = 1000

// replayTotals sums what the traced run saw while replaying CloverLeaf
// cells: the calls the cloverleaf workload makes, and every loop of
// every rank group run through trace.Executor.Run.
type replayTotals struct {
	cells      int
	rankGroups int
	traffic    time.Duration // cloverleaf.RunTraffic
	benchStore time.Duration // bench.RunStore
	benchCopy  time.Duration // bench.RunCopy
	run        time.Duration // trace.Executor.Run, summed over loops
	loops      int64
	rows       int64
	counts     memsim.Counts
	core       core.Stats
	// mismatches lists loops whose replayed counts differ from
	// RunTraffic's; any entry fails the run.
	mismatches []string
}

// trafficOptions are the options the cloverleaf workload passes to
// cloverleaf.RunTraffic for a resolved scenario.
func trafficOptions(c workload.Config) cloverleaf.TrafficOptions {
	maxRows := c.MaxRows
	switch {
	case maxRows == 0:
		maxRows = 32
	case maxRows < 0:
		maxRows = 0
	}
	return cloverleaf.TrafficOptions{
		Machine:       c.Machine,
		Ranks:         c.Ranks,
		GridX:         c.MeshX,
		GridY:         c.MeshY,
		MaxRows:       maxRows,
		AlignArrays:   true,
		NTStores:      c.Mode.NTStores,
		OptimizeLoops: c.Mode.OptimizeLoops,
		SpecI2MOff:    c.Mode.SpecI2MOff,
		PFOff:         c.Mode.PFOff,
		Seed:          c.Seed,
	}
}

// replayCells runs each CloverLeaf cell's workload calls and replays
// its loops, checking the replay against RunTraffic loop by loop.
func replayCells(tr *tracer, cells []sweep.Scenario) (replayTotals, error) {
	var tot replayTotals
	for i, s := range cells {
		op := replayOp + i
		root := tr.begin("replay.cell", 0, op)
		err := replayCell(tr, root, op, s, &tot)
		tr.end(root)
		if err != nil {
			return tot, fmt.Errorf("replay %s: %w", s.Label(), err)
		}
	}
	return tot, nil
}

func timed(tr *tracer, name string, root, op int, fn func() error) (time.Duration, error) {
	id := tr.begin(name, root, op)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	tr.finish(id, errTag(err), 0)
	return d, err
}

func replayCell(tr *tracer, root, op int, s sweep.Scenario, tot *replayTotals) error {
	_, cfg, err := workload.Resolve(s)
	if err != nil {
		return err
	}
	to := trafficOptions(cfg)
	var ref *cloverleaf.TrafficResult
	d, err := timed(tr, "cloverleaf.traffic", root, op, func() (err error) {
		ref, err = cloverleaf.RunTraffic(to)
		return err
	})
	if err != nil {
		return err
	}
	tot.traffic += d
	tot.rankGroups += ref.RankShapes

	// The microbenchmarks with the options the cloverleaf workload passes.
	bspec := cfg.EffectiveSpec()
	d, err = timed(tr, "bench.store", root, op, func() error {
		_, err := bench.RunStore(bench.StoreOptions{
			Machine: bspec, Streams: 1, NT: cfg.Mode.NTStores, Cores: cfg.Threads,
			BytesPerStream: 2 << 20, PFOff: cfg.Mode.PFOff, Seed: cfg.Seed,
		})
		return err
	})
	if err != nil {
		return err
	}
	tot.benchStore += d
	d, err = timed(tr, "bench.copy", root, op, func() error {
		_, err := bench.RunCopy(bench.CopyOptions{
			Machine: bspec, Cores: cfg.Threads, Elems: 1 << 18,
			NT: cfg.Mode.NTStores, PFOff: cfg.Mode.PFOff, Seed: cfg.Seed,
		})
		return err
	})
	if err != nil {
		return err
	}
	tot.benchCopy += d

	// The replay, grouped and seeded the way RunTraffic groups and
	// seeds its simulated ranks.
	spec := *to.Machine
	spec.I2M.Enabled = spec.I2M.Enabled && !to.SpecI2MOff
	groups := rankGroups(to, &spec)
	env := trace.Env{
		NodeFraction:  float64(to.Ranks) / float64(spec.Cores()),
		ActiveSockets: spec.ActiveSockets(to.Ranks),
		PFOn:          !to.PFOff,
	}
	results := make([][]loopReplay, len(groups))
	err = sweep.ForEach(runtime.GOMAXPROCS(0), len(groups), func(i int) error {
		results[i] = replayGroup(tr, root, op, to, &spec, env, groups[i])
		return nil
	})
	if err != nil {
		return err
	}
	sums := map[string]memsim.Counts{}
	for _, loops := range results {
		for _, l := range loops {
			sums[l.name] = sums[l.name].Add(l.counts)
			tot.run += l.dur
			tot.loops++
			tot.rows += l.rows
			tot.counts = tot.counts.Add(l.counts)
			tot.core = addStats(tot.core, l.core)
		}
	}
	tot.cells++

	// Replay fidelity: per loop, the replay summed over rank groups
	// must issue exactly what RunTraffic reports.
	names := ref.LoopNames()
	for name := range sums {
		if ref.Loop(name) == nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		var want memsim.Counts
		if lt := ref.Loop(name); lt != nil {
			want = lt.Counts
		}
		if got := sums[name]; got != want {
			tot.mismatches = append(tot.mismatches, fmt.Sprintf("%s loop %s: replay %+v, RunTraffic %+v", s.Label(), name, got, want))
		}
	}
	return nil
}

// rankGroup is a set of ranks RunTraffic simulates once: same
// subdomain shape and same ccNUMA pressure.
type rankGroup struct {
	xspan, yspan int
	pressure     float64
	firstRank    int
}

func rankGroups(o cloverleaf.TrafficOptions, spec *machine.Spec) []rankGroup {
	seen := map[[3]int]bool{}
	var out []rankGroup
	for _, s := range decomp.Decompose(o.Ranks, o.GridX, o.GridY) {
		p := spec.PressureAt(s.Rank, o.Ranks)
		key := [3]int{s.XSpan(), s.YSpan(), int(p * 1e6)}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, rankGroup{xspan: s.XSpan(), yspan: s.YSpan(), pressure: p, firstRank: s.Rank})
	}
	return out
}

// loopReplay is one loop's replay on one rank group.
type loopReplay struct {
	name   string
	counts memsim.Counts
	core   core.Stats
	rows   int64
	dur    time.Duration
}

func replayGroup(tr *tracer, root, op int, o cloverleaf.TrafficOptions, spec *machine.Spec, env trace.Env, g rankGroup) []loopReplay {
	t := cloverleaf.NewTrafficChunk(1, g.xspan, 1, g.yspan, o.MaxRows, o.AlignArrays)
	loops := t.HotspotLoops(o.OptimizeLoops)
	if !o.HotspotOnly {
		loops = append(loops, t.AuxLoops()...)
	}
	x := trace.NewExecutor(spec)
	x.NTStores = o.NTStores
	e := env
	e.Pressure = g.pressure
	x.SetEnv(e)
	x.E.Seed(o.Seed ^ uint64(g.firstRank+1)*0x9e3779b97f4a7c15)

	out := make([]loopReplay, 0, len(loops))
	for _, li := range loops {
		rows := int64(li.Bounds.KHi - li.Bounds.KLo + 1)
		before := x.E.Stats()
		id := tr.begin("trace.run", root, op)
		t0 := time.Now()
		c := x.Run(li.Loop, li.Bounds)
		d := time.Since(t0)
		tr.finish(id, li.Loop.Name, rows)
		out = append(out, loopReplay{name: li.Loop.Name, counts: c, core: subStats(x.E.Stats(), before), rows: rows, dur: d})
	}
	return out
}

func addStats(a, b core.Stats) core.Stats {
	return core.Stats{
		FullLines:    a.FullLines + b.FullLines,
		PartialLines: a.PartialLines + b.PartialLines,
		Claimed:      a.Claimed + b.Claimed,
		RFOs:         a.RFOs + b.RFOs,
		NTLines:      a.NTLines + b.NTLines,
		NTReverted:   a.NTReverted + b.NTReverted,
	}
}

func subStats(a, b core.Stats) core.Stats {
	return core.Stats{
		FullLines:    a.FullLines - b.FullLines,
		PartialLines: a.PartialLines - b.PartialLines,
		Claimed:      a.Claimed - b.Claimed,
		RFOs:         a.RFOs - b.RFOs,
		NTLines:      a.NTLines - b.NTLines,
		NTReverted:   a.NTReverted - b.NTReverted,
	}
}

// lineAccesses is the number of per-line operations the trace
// executor and the store engine issued to the hierarchy (NT reverts
// are counted among the RFOs).
func lineAccesses(c memsim.Counts) int64 {
	return c.Loads + c.RFOs + c.ItoMLines + c.NTLines + c.WSLines
}
