package experiments

import (
	"fmt"
	"math"
	"strings"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/core"
	"github.com/xbiosip/xbiosip/internal/dse"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

// Table2Result carries both halves of the paper's Table 2 experiment: the
// exhaustive 9x9 PSNR/energy grid over (LPF, HPF) approximated LSBs, and
// the trace of Algorithm 1 exploring the same space.
type Table2Result struct {
	Grid        []dse.GridPoint
	Algorithm   dse.Result
	Constraint  float64
	GridEvals   int
	Alg1Evals   int
	Alg1Passing int
}

// Table2 runs the pre-processing exploration (paper §6.1): the exhaustive
// 81-point grid and Algorithm 1 over the same space.
func (s *Setup) Table2(constraint float64) (*Table2Result, error) {
	opt := dse.Options{
		Base:       pantompkins.AccurateConfig(),
		Stages:     []pantompkins.Stage{pantompkins.LPF, pantompkins.HPF},
		LSBs:       core.DefaultLSBLists(),
		Mults:      []approx.MultKind{s.Mul},
		Adds:       []approx.AdderKind{s.Add},
		Constraint: constraint,
		Workers:    s.Workers,
	}
	evalPSNR := func(cfg pantompkins.Config) (float64, error) {
		q, err := s.Eval.Evaluate(cfg)
		if err != nil {
			return 0, err
		}
		return q.PSNR, nil
	}
	grid, err := dse.ExhaustiveGrid(opt, pantompkins.LPF, pantompkins.HPF, evalPSNR, s.Energy.StageEnergy)
	if err != nil {
		return nil, err
	}
	alg, err := dse.Generate(opt, evalPSNR, s.Energy.StageEnergy)
	if err != nil {
		return nil, err
	}
	passing := 0
	for _, c := range alg.Explored {
		if c.Passed {
			passing++
		}
	}
	return &Table2Result{
		Grid:        grid,
		Algorithm:   alg,
		Constraint:  constraint,
		GridEvals:   len(grid),
		Alg1Evals:   alg.Evaluations,
		Alg1Passing: passing,
	}, nil
}

// FormatTable2 renders the PSNR grid with energy-reduction annotations and
// the Algorithm 1 trace summary.
func (s *Setup) FormatTable2(r *Table2Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 2: PSNR of the pre-processed signal over (LPF k, HPF k); constraint PSNR >= %.1f\n", r.Constraint)
	ks := []int{0, 2, 4, 6, 8, 10, 12, 14, 16}
	psnr := make(map[[2]int]float64)
	for _, g := range r.Grid {
		psnr[[2]int{g.K1, g.K2}] = g.Quality
	}
	sb.WriteString("        ")
	for _, k2 := range ks {
		fmt.Fprintf(&sb, " HPF%-4d", k2)
	}
	sb.WriteString("\n")
	for _, k1 := range ks {
		fmt.Fprintf(&sb, "LPF %-4d", k1)
		for _, k2 := range ks {
			v := psnr[[2]int{k1, k2}]
			if math.IsInf(v, 1) || v > 99 {
				sb.WriteString("   inf  ")
			} else {
				fmt.Fprintf(&sb, " %6.2f ", v)
			}
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "exhaustive grid: %d evaluations; Algorithm 1: %d evaluations (%d satisfying)\n",
		r.GridEvals, r.Alg1Evals, r.Alg1Passing)
	fmt.Fprintf(&sb, "Algorithm 1 selected: %v (PSNR %.2f)\n", r.Algorithm.Config, r.Algorithm.Quality)
	for _, c := range r.Algorithm.Explored {
		mark := "fail"
		if c.Passed {
			mark = "pass"
		}
		fmt.Fprintf(&sb, "  phase %d: %v -> %.2f (%s)\n", c.Phase, c.Config, c.Quality, mark)
	}
	return sb.String()
}
