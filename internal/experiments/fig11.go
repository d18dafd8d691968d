package experiments

import (
	"fmt"
	"strings"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/core"
	"github.com/xbiosip/xbiosip/internal/dse"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

// Fig11Row compares the exploration cost of the three strategies over the
// first n pipeline stages (one bar group of the paper's Fig 11).
type Fig11Row struct {
	Stages     int
	Heuristic  dse.ExplorationCost
	Algorithm1 dse.ExplorationCost
	Exhaustive dse.ExplorationCost
	Speedup    float64 // heuristic hours / Algorithm 1 hours
}

// ExplorationTime reproduces Fig 11: for n = 1..5 stages it computes the
// heuristic cost (multiples-of-two LSBs, one module pair throughout), the
// measured Algorithm 1 evaluation count, and the closed-form unrestricted
// exhaustive estimate (per-cell module assignment, quoted in log10 years).
func (s *Setup) ExplorationTime() ([]Fig11Row, error) {
	lsbs := core.DefaultLSBLists()
	var rows []Fig11Row
	for n := 1; n <= pantompkins.NumStages; n++ {
		stages := make([]pantompkins.Stage, n)
		copy(stages, pantompkins.Stages[:n])

		heuristic := dse.HeuristicCost(stages, lsbs, 1)
		exhaustive, err := dse.ExhaustiveCost(stages)
		if err != nil {
			return nil, err
		}

		opt := dse.Options{
			Base:       pantompkins.AccurateConfig(),
			Stages:     stages,
			LSBs:       lsbs,
			Mults:      []approx.MultKind{s.Mul},
			Adds:       []approx.AdderKind{s.Add},
			Constraint: 15, // signal PSNR gate, as in §6.1
			Workers:    s.Workers,
		}
		evalPSNR := func(cfg pantompkins.Config) (float64, error) {
			q, err := s.Eval.Evaluate(cfg)
			if err != nil {
				return 0, err
			}
			return q.PSNR, nil
		}
		res, err := dse.Generate(opt, evalPSNR, s.Energy.StageEnergy)
		if err != nil {
			return nil, err
		}
		alg := dse.MeasuredCost(n, res.Evaluations+1) // +1 final verification
		rows = append(rows, Fig11Row{
			Stages:     n,
			Heuristic:  heuristic,
			Algorithm1: alg,
			Exhaustive: exhaustive,
			Speedup:    heuristic.Hours / alg.Hours,
		})
	}
	return rows, nil
}

// FormatFig11 renders the exploration-time comparison.
func FormatFig11(rows []Fig11Row) string {
	var sb strings.Builder
	sb.WriteString("Fig 11: exploration time (paper-equivalent, 300 s/evaluation)\n")
	sb.WriteString(fmt.Sprintf("%6s %14s %14s %10s %22s\n",
		"stages", "heuristic[h]", "algorithm1[h]", "speedup", "exhaustive[log10 yrs]"))
	total := 0.0
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%6d %14.2f %14.2f %9.1fx %22.0f\n",
			r.Stages, r.Heuristic.Hours, r.Algorithm1.Hours, r.Speedup, r.Exhaustive.Log10Years))
		total += r.Speedup
	}
	sb.WriteString(fmt.Sprintf("mean speedup over the heuristic: %.1fx (paper: ~23.6x)\n", total/float64(len(rows))))
	return sb.String()
}
