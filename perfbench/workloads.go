package main

import (
	"strconv"
	"strings"

	"cloversim/internal/machine"
	"cloversim/internal/sweep"
	"cloversim/internal/workload"
)

// backendKind is how a workload's operations reach their results.
type backendKind int

const (
	// coldStore: local simulation, written through to a fresh empty
	// store per operation.
	coldStore backendKind = iota
	// noStore: local simulation, no store.
	noStore
	// warmFleet: every cell served by two sweepd daemons whose stores
	// set-up filled; the client has no store.
	warmFleet
)

// workloadDef is one benchmark workload: a campaign shape taken from
// real use, and the way its operations are served.
type workloadDef struct {
	name string
	// grid is the campaign; the benchmark seed becomes its Seed. Empty
	// machine, workload and mode axes mean all of them, as in cmd/sweep.
	grid sweep.GridSpec
	// digests names the committed output digests, which hold at
	// defaultSeed.
	digests string
	kind    backendKind
	// replay selects the CloverLeaf cells the traced run replays
	// through the trace executor.
	replay func(sweep.Scenario) bool
}

// icxBaseline picks the paper's own cell out of the default campaign.
func icxBaseline(s sweep.Scenario) bool {
	return s.Machine == machine.NameICX8360Y && s.Workload == "cloverleaf" && s.Mode.Name == "baseline"
}

var workloads = []workloadDef{
	// The default cross product every user and CI runs: 160 full-node
	// cells, mostly CloverLeaf time under memsim.
	{name: "campaign-cold", digests: "campaign", kind: coldStore, replay: icxBaseline},
	// The paper's prime-rank effect without row truncation: 71 strips
	// of 216 columns against 12x6 blocks, thousands of identical rows.
	{
		name: "prime-anchors",
		grid: sweep.GridSpec{
			Machines:  []string{machine.NameICX8360Y},
			Workloads: []string{"cloverleaf"},
			Modes:     []string{"baseline"},
			Ranks:     []int{71, 72},
			Meshes:    []string{"15360x3840"},
			MaxRows:   -1,
		},
		digests: "prime-anchors",
		kind:    noStore,
		replay:  func(sweep.Scenario) bool { return true },
	},
	// The default campaign served by a two-daemon fleet: the engine,
	// dispatch, the NDJSON expand transport, the daemons' stores and the
	// emitters, no physics.
	{name: "fleet-warm", digests: "campaign", kind: warmFleet, replay: icxBaseline},
}

func workloadByName(name string) (*workloadDef, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// gridFor returns the workload's grid spec under a seed, with empty
// axes filled in the way cmd/sweep fills them.
func (w *workloadDef) gridFor(seed uint64) sweep.GridSpec {
	g := w.grid
	g.Seed = seed
	if len(g.Machines) == 0 {
		g.Machines = machine.Names()
	}
	if len(g.Workloads) == 0 {
		g.Workloads = workload.Names()
	}
	if len(g.Modes) == 0 {
		g.Modes = sweep.ModeNames()
	}
	return g
}

// cliArgs renders the workload's grid as cmd/sweep flags. Axes the
// workload leaves empty are left to cmd/sweep's defaults.
func (w *workloadDef) cliArgs(seed uint64) []string {
	g := w.grid
	args := []string{"-q", "-seed", strconv.FormatUint(seed, 10)}
	list := func(flag string, vals []string) {
		if len(vals) > 0 {
			args = append(args, flag, strings.Join(vals, ","))
		}
	}
	list("-machines", g.Machines)
	list("-workloads", g.Workloads)
	list("-modes", g.Modes)
	ranks := make([]string, len(g.Ranks))
	for i, r := range g.Ranks {
		ranks[i] = strconv.Itoa(r)
	}
	list("-ranks", ranks)
	list("-mesh", g.Meshes)
	if g.MaxRows != 0 {
		args = append(args, "-maxrows", strconv.Itoa(g.MaxRows))
	}
	return args
}
