package main

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"cloversim/internal/sweep"
)

// layerSet collects per-layer metrics.
type layerSet map[string]metric

func (l layerSet) set(name string, v float64, unit string) { l[name] = metric{Value: v, Unit: unit} }

// cellWorkloads are the workloads whose per-cell run time is reported.
var cellWorkloads = []string{"cloverleaf", "jacobi", "riemann", "stream"}

// layerMetrics derives the per-layer metrics from the traced
// operations' spans (counts are per operation), their campaigns, the
// fixture's daemons and the replay.
func layerMetrics(spans []span, ops int, camps []sweep.Campaign, fx *fixture, rep replayTotals) layerSet {
	l := layerSet{}
	perOp := 1 / float64(max(ops, 1))
	self := selfTimes(spans)
	byName := map[string][]span{}
	for _, s := range spans {
		if s.Op >= 1 && s.Op < replayOp {
			byName[s.Name] = append(byName[s.Name], s)
		}
	}

	// sweep: the engine.
	cells, hits := 0, 0
	if len(camps) > 0 {
		last := camps[len(camps)-1]
		cells = len(last.Results)
		for _, r := range last.Results {
			if r.Cached {
				hits++
			}
		}
	}
	var runs []span
	for name, ss := range byName {
		if strings.HasPrefix(name, "workload.") && strings.HasSuffix(name, ".run") {
			runs = append(runs, ss...)
		}
	}
	busy := sumDur(runs).Seconds() * perOp
	campaign := medianDur(byName["sweep.campaign"]).Seconds()
	workers := float64(runtime.GOMAXPROCS(0))
	if len(fx.daemons) > 0 {
		workers = float64(len(fx.daemons)) // one simulation slot each
	}
	idle := 0.0
	if campaign > 0 {
		idle = 1 - busy/(workers*campaign)
	}
	var campSelf []time.Duration
	for _, s := range byName["sweep.campaign"] {
		campSelf = append(campSelf, self[s.ID])
	}
	l.set("sweep.cells", float64(cells), "count")
	l.set("sweep.cache_hits", float64(hits), "count")
	l.set("sweep.runner_busy_s", busy, "s")
	l.set("sweep.worker_idle_frac", idle, "frac")
	l.set("sweep.self_s", median(campSelf).Seconds(), "s")

	// store: the client's store, or the daemons' for the fleet.
	opens := byName["store.open"]
	openS, records := medianDur(opens).Seconds(), 0.0
	if len(opens) > 0 {
		records = float64(opens[len(opens)-1].N)
	}
	if len(fx.daemons) > 0 {
		var ds []time.Duration
		for _, d := range fx.daemons {
			ds = append(ds, d.openS)
		}
		openS, records = median(ds).Seconds(), float64(fx.daemons[0].st.Len())
	}
	gets, puts := byName["store.get"], byName["store.put"]
	getHits := 0
	for _, s := range gets {
		if s.Tag == "hit" {
			getHits++
		}
	}
	hitRatio := 0.0
	if len(gets) > 0 {
		hitRatio = float64(getHits) / float64(len(gets))
	}
	l.set("store.open_s", openS, "s")
	l.set("store.records", records, "count")
	l.set("store.get_count", float64(len(gets))*perOp, "count")
	l.set("store.get_p50_us", float64(medianDur(gets))/1e3, "us")
	l.set("store.get_hit_ratio", hitRatio, "frac")
	l.set("store.put_count", float64(len(puts))*perOp, "count")
	l.set("store.put_p50_us", float64(medianDur(puts))/1e3, "us")
	l.set("store.put_failed", float64(countTag(puts, "err")), "count")

	// workload: per-cell run time as the engine's runner sees it.
	for _, wl := range cellWorkloads {
		l.set("workload."+wl+".run_p50_s", medianDur(byName["workload."+wl+".run"]).Seconds(), "s")
	}
	l.set("workload.cloverleaf.run_max_s", maxDur(byName["workload.cloverleaf.run"]).Seconds(), "s")
	l.set("workload.run_failed", float64(countTag(runs, "err")), "count")

	// cloverleaf, bench, trace, memsim and core: the replayed cells.
	c := rep.counts
	lines := lineAccesses(c)
	nsPerLine := 0.0
	if lines > 0 {
		nsPerLine = float64(rep.run.Nanoseconds()) / float64(lines)
	}
	claimRatio := 0.0
	if rep.core.FullLines > 0 {
		claimRatio = float64(rep.core.Claimed) / float64(rep.core.FullLines)
	}
	l.set("cloverleaf.traffic_s", rep.traffic.Seconds(), "s")
	l.set("cloverleaf.rank_groups", float64(rep.rankGroups), "count")
	l.set("bench.store_s", rep.benchStore.Seconds(), "s")
	l.set("bench.copy_s", rep.benchCopy.Seconds(), "s")
	l.set("trace.run_s", rep.run.Seconds(), "s")
	l.set("trace.loops", float64(rep.loops), "count")
	l.set("trace.rows", float64(rep.rows), "count")
	l.set("trace.lines", float64(lines), "count")
	l.set("trace.ns_per_line", nsPerLine, "ns")
	l.set("memsim.l1_hits", float64(c.L1Hits), "count")
	l.set("memsim.l2_hits", float64(c.L2Hits), "count")
	l.set("memsim.l3_hits", float64(c.L3Hits), "count")
	l.set("memsim.mem_read_lines", float64(c.MemReadLines), "count")
	l.set("memsim.mem_write_lines", float64(c.MemWriteLines), "count")
	l.set("memsim.pf_lines", float64(c.PFLines), "count")
	l.set("memsim.itom_lines", float64(c.ItoMLines), "count")
	l.set("core.full_lines", float64(rep.core.FullLines), "count")
	l.set("core.claimed", float64(rep.core.Claimed), "count")
	l.set("core.rfos", float64(rep.core.RFOs), "count")
	l.set("core.claim_ratio", claimRatio, "frac")
	l.set("core.nt_lines", float64(rep.core.NTLines), "count")
	l.set("core.nt_reverted", float64(rep.core.NTReverted), "count")

	// emit: the CSV and JSON emitters, file writes included.
	emitted := sumN(byName["emit.csv"]) + sumN(byName["emit.json"])
	l.set("emit.csv_s", medianDur(byName["emit.csv"]).Seconds(), "s")
	l.set("emit.json_s", medianDur(byName["emit.json"]).Seconds(), "s")
	l.set("emit.bytes", float64(emitted)*perOp, "B")

	// dispatch and sweepd: the fleet backend and the daemons serving it.
	perWorker := map[[2]int]int{} // (op, daemon) -> cells served
	for _, s := range gets {
		if s.N > 0 {
			perWorker[[2]int{s.Op, int(s.N)}]++
		}
	}
	cellsMax := 0
	for _, n := range perWorker {
		cellsMax = max(cellsMax, n)
	}
	handles := byName["sweepd.handle"]
	failedReqs := 0
	for _, s := range handles {
		if code, err := strconv.Atoi(s.Tag); err != nil || code >= 400 {
			failedReqs++
		}
	}
	var dispSelf []time.Duration
	for _, s := range byName["dispatch.execute"] {
		dispSelf = append(dispSelf, self[s.ID])
	}
	l.set("dispatch.execute_s", medianDur(byName["dispatch.execute"]).Seconds(), "s")
	l.set("dispatch.self_s", median(dispSelf).Seconds(), "s")
	l.set("dispatch.cells_per_worker_max", float64(cellsMax), "count")
	l.set("sweepd.requests", float64(len(handles))*perOp, "count")
	l.set("sweepd.handler_p50_ms", float64(medianDur(handles))/1e6, "ms")
	l.set("sweepd.resp_bytes", float64(sumN(handles))*perOp, "B")
	l.set("sweepd.failed", float64(failedReqs), "count")
	return l
}

// setRun adds the metrics of the traced run as a whole: tracing
// overhead, and the CPU profile reduced to shares by package.
func (l layerSet) setRun(untraced, traced time.Duration, shares map[string]float64, samples int64) {
	l.set("tracing.untraced_campaign_s", untraced.Seconds(), "s")
	l.set("tracing.traced_campaign_s", traced.Seconds(), "s")
	l.set("tracing.overhead_s", (traced - untraced).Seconds(), "s")
	l.set("cpu.samples", float64(samples), "count")
	for _, b := range shareBuckets {
		l.set("cpu.share."+b, shares[b], "frac")
	}
}

// selfTimeTable renders each span name's total self time, its span
// count and total time, for the report.
func selfTimeTable(spans []span) []string {
	self := selfTimes(spans)
	type agg struct {
		n           int
		total, self time.Duration
	}
	by := map[string]*agg{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.total += s.dur()
		a.self += self[s.ID]
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	out := []string{fmt.Sprintf("%-28s %8s %12s %12s", "span", "count", "total_s", "self_s")}
	for _, n := range names {
		a := by[n]
		out = append(out, fmt.Sprintf("%-28s %8d %12.6f %12.6f", n, a.n, a.total.Seconds(), a.self.Seconds()))
	}
	return out
}

func durs(ss []span) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.dur()
	}
	return out
}

func medianDur(ss []span) time.Duration { return median(durs(ss)) }

func maxDur(ss []span) time.Duration {
	var m time.Duration
	for _, s := range ss {
		m = max(m, s.dur())
	}
	return m
}

func sumDur(ss []span) time.Duration {
	var t time.Duration
	for _, s := range ss {
		t += s.dur()
	}
	return t
}

func sumN(ss []span) int64 {
	var n int64
	for _, s := range ss {
		n += s.N
	}
	return n
}

func countTag(ss []span, tag string) int {
	n := 0
	for _, s := range ss {
		if s.Tag == tag {
			n++
		}
	}
	return n
}
