// Package cloversim is the public API of the CloverLeaf write-allocate
// evasion study: a Go reproduction of "CloverLeaf on Intel Multi-Core
// CPUs: A Case Study in Write-Allocate Evasion" (IPDPS 2024).
//
// The package exposes one runner per paper artifact (Listing 2, Table I,
// Figures 2-11); each returns the underlying data plus a CSV-ready table.
// The heavy lifting lives in the internal packages:
//
//   - internal/core     — SpecI2M write-allocate-evasion store engine
//   - internal/memsim   — cache hierarchy simulator
//   - internal/machine  — ICX/SPR machine models
//   - internal/trace    — loop replay
//   - internal/cloverleaf — the hydro mini-app (physics + traffic specs)
//   - internal/bench    — store/copy microbenchmarks
//   - internal/mpi      — in-process message passing
package cloversim

import (
	"fmt"

	"cloversim/internal/machine"
)

// Options configures experiment fidelity.
type Options struct {
	// MachineName selects a preset ("icx", "spr8470", "spr8470+s",
	// "spr8480"); default "icx".
	MachineName string
	// MaxRows truncates each rank's y extent in traffic studies. 0
	// selects the default of 32 rows (for tractability); a negative
	// value disables truncation (the paper-faithful full extent that
	// cmd/experiments -full passes).
	MaxRows int
	// Ranks restricts scaling sweeps to these rank counts (default: all
	// 1..cores).
	Ranks []int
	// Steps for physics-executing experiments (default 5).
	Steps int
	// Seed for the deterministic store-engine PRNG.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.MachineName == "" {
		o.MachineName = machine.NameICX8360Y
	}
	if o.MaxRows == 0 {
		o.MaxRows = 32
	}
	if o.Steps == 0 {
		o.Steps = 5
	}
	if o.Seed == 0 {
		o.Seed = 0x5eed
	}
	return o
}

func (o Options) machine() (*machine.Spec, error) {
	spec, ok := machine.ByName(o.MachineName)
	if !ok {
		return nil, fmt.Errorf("cloversim: unknown machine %q (have %v)", o.MachineName, machine.Names())
	}
	return spec, nil
}

func (o Options) rankList(max int) []int {
	if len(o.Ranks) > 0 {
		out := make([]int, 0, len(o.Ranks))
		for _, r := range o.Ranks {
			if r >= 1 && r <= max {
				out = append(out, r)
			}
		}
		return out
	}
	out := make([]int, max)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// Machines lists the available machine presets.
func Machines() []string { return machine.Names() }
