package dse

import (
	"fmt"
	"slices"

	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

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
// two stages must differ and both be among opt.Stages, whose LSB lists
// span the grid. The pairs are independent, so they go out as one batch
// across the call's engine of Options.Workers slots. Every cell's energy
// is reported, so the distinct stage energies are characterized alongside
// the scan.
func ExhaustiveGrid(opt Options, s1, s2 pantompkins.Stage, eval EvaluateFunc, energy StageEnergyFunc) ([]GridPoint, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if s1 == s2 {
		return nil, fmt.Errorf("dse: grid needs two distinct stages, got %v twice", s1)
	}
	for _, s := range []pantompkins.Stage{s1, s2} {
		if !slices.Contains(opt.Stages, s) {
			return nil, fmt.Errorf("dse: grid stage %v is not among the explored stages %v", s, opt.Stages)
		}
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
		return nil, err // the grid reads no energy before its scan
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
