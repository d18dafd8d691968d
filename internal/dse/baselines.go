package dse

import (
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

// Exhaustive evaluates the full cross product of the option lists over the
// given stages jointly (the paper's "exhaustive exploration of all 9x9=81
// possible combinations" for the pre-processing stage) and returns the
// lowest-energy configuration satisfying the constraint. Candidates are
// evaluated through the scheduler like Generate's phases — the cross
// product is embarrassingly parallel, so this baseline benefits the most
// from Options.Workers — and the trace preserves enumeration order. The
// passing assignments' stage energies are characterized after the scan,
// Workers-wide.
func Exhaustive(opt Options, eval EvaluateFunc, energy StageEnergyFunc) (Result, error) {
	if err := opt.validate(); err != nil {
		return Result{}, err
	}
	e := newExplorer(opt, eval, energy)
	defer e.jobs.Wait()

	// Enumerate the full joint assignment list in the nested-loop order
	// of the sequential recursion.
	var assigns []map[pantompkins.Stage]dsp.ArithConfig
	assign := make(map[pantompkins.Stage]dsp.ArithConfig, len(opt.Stages))
	var rec func(idx int)
	rec = func(idx int) {
		if idx == len(opt.Stages) {
			snap := make(map[pantompkins.Stage]dsp.ArithConfig, len(assign))
			for s, c := range assign {
				snap[s] = c
			}
			assigns = append(assigns, snap)
			return
		}
		s := opt.Stages[idx]
		for _, lsb := range opt.LSBs[s] {
			for _, mul := range opt.Mults {
				for _, add := range opt.Adds {
					assign[s] = dsp.ArithConfig{LSBs: lsb, Add: add, Mul: mul}
					rec(idx + 1)
				}
			}
		}
		delete(assign, s)
	}
	rec(0)

	qs, _, err := e.scan(assigns, 0, scanAll)
	if err != nil {
		return Result{}, err
	}
	var energies []*energyJob
	for i, q := range qs {
		if q >= opt.Constraint {
			for _, s := range opt.Stages {
				energies = append(energies, e.want(s, assigns[i][s]))
			}
		}
	}
	if err := e.settle(); err != nil {
		return Result{}, err
	}

	bestEnergy := 0.0
	bestQuality := 0.0
	found := false
	var bestAssign map[pantompkins.Stage]dsp.ArithConfig
	for i, q := range qs {
		if q < opt.Constraint {
			continue
		}
		total := 0.0
		for range opt.Stages {
			total += energies[0].v
			energies = energies[1:]
		}
		if !found || total < bestEnergy {
			found = true
			bestEnergy = total
			bestQuality = q
			bestAssign = assigns[i]
		}
	}
	if found {
		e.chosen = bestAssign
	}
	e.result.Config = e.config(nil)
	e.result.Quality = bestQuality
	return e.result, nil
}

// GridPoint is one cell of an exhaustive two-stage grid (the paper's
// Table 2 layout).
type GridPoint struct {
	K1, K2  int
	Quality float64
	Energy  float64 // combined stage energy of the two explored stages
	Passed  bool
}

// ExhaustiveGrid evaluates every (k1, k2) pair for two stages with fixed
// module kinds and returns the grid (Table 2's PSNR/energy matrix). The
// pairs are independent, so they fan out across the scheduler when
// Options.Workers > 1. Every cell's energy is reported, so the distinct
// stage energies are characterized alongside the scan.
func ExhaustiveGrid(opt Options, s1, s2 pantompkins.Stage, eval EvaluateFunc, energy StageEnergyFunc) ([]GridPoint, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	e := newExplorer(opt, eval, energy)
	defer e.jobs.Wait()

	type cell struct {
		k1, k2   int
		en1, en2 *energyJob
	}
	var cells []cell
	var cands []map[pantompkins.Stage]dsp.ArithConfig
	for _, k1 := range opt.LSBs[s1] {
		for _, k2 := range opt.LSBs[s2] {
			c1 := dsp.ArithConfig{LSBs: k1, Add: opt.Adds[0], Mul: opt.Mults[0]}
			c2 := dsp.ArithConfig{LSBs: k2, Add: opt.Adds[0], Mul: opt.Mults[0]}
			cells = append(cells, cell{k1, k2, e.want(s1, c1), e.want(s2, c2)})
			cands = append(cands, map[pantompkins.Stage]dsp.ArithConfig{s1: c1, s2: c2})
		}
	}
	qs, _, err := e.scan(cands, 0, scanAll)
	if err != nil {
		return nil, err // the sequential grid reads no energy before its scan
	}
	if err := e.settle(); err != nil {
		return nil, err
	}
	var grid []GridPoint
	for i, q := range qs {
		grid = append(grid, GridPoint{
			K1: cells[i].k1, K2: cells[i].k2,
			Quality: q, Energy: cells[i].en1.v + cells[i].en2.v, Passed: q >= opt.Constraint,
		})
	}
	return grid, nil
}
