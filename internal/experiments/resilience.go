package experiments

import (
	"fmt"
	"strings"

	"github.com/xbiosip/xbiosip/internal/metrics"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
	"github.com/xbiosip/xbiosip/internal/synth"
)

// ResilienceRow is one point of a stage error-resilience sweep (paper
// Figs 2 and 8): physical reductions of the approximated stage plus
// application quality with only that stage approximated.
type ResilienceRow struct {
	K          int
	Reductions synth.Reduction
	PSNR       float64 // of the pre-processed signal vs accurate
	SSIM       float64
	Accuracy   float64 // peak detection accuracy in [0,1]
}

// StageResilience sweeps the approximated-LSB count of a single stage
// (all other stages accurate) and reports quality and energy trade-offs —
// the experiment behind Fig 2 (LPF) and Figs 8a-8d (remaining stages).
func (s *Setup) StageResilience(stage pantompkins.Stage) ([]ResilienceRow, error) {
	var rows []ResilienceRow
	for k := 0; k <= pantompkins.MaxLSBs[stage]; k += 2 {
		cfg := pantompkins.AccurateConfig()
		cfg.Stage[stage] = s.stageCfg(k)
		q, err := s.Eval.Evaluate(cfg)
		if err != nil {
			return nil, err
		}
		red, err := s.Energy.StageReduction(stage, cfg.Stage[stage])
		if err != nil {
			return nil, err
		}
		rows = append(rows, ResilienceRow{
			K:          k,
			Reductions: red,
			PSNR:       q.PSNR,
			SSIM:       q.SSIM,
			Accuracy:   q.PeakAccuracy,
		})
	}
	return rows, nil
}

// ResilienceThreshold returns the largest swept k that keeps full peak
// detection accuracy (the paper's "error-resilience threshold").
func ResilienceThreshold(rows []ResilienceRow) int {
	thr := 0
	for _, r := range rows {
		if r.Accuracy >= 1.0 {
			thr = r.K
		}
	}
	return thr
}

// FormatResilience renders a sweep as the rows of Fig 2 / Fig 8.
func FormatResilience(stage pantompkins.Stage, rows []ResilienceRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Error resilience of the %v stage (others accurate)\n", stage)
	fmt.Fprintf(&sb, "%4s %8s %8s %8s %8s %8s %7s %9s\n",
		"k", "area(x)", "power(x)", "delay(x)", "energy(x)", "PSNR", "SSIM", "accuracy")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%4d %8.2f %8.2f %8.2f %8.2f %8.2f %7.3f %8.2f%%\n",
			r.K, r.Reductions.Area, r.Reductions.Power, r.Reductions.Delay, r.Reductions.Energy,
			metrics.ClampPSNR(r.PSNR), r.SSIM, 100*r.Accuracy)
	}
	fmt.Fprintf(&sb, "error-resilience threshold: %d LSBs\n", ResilienceThreshold(rows))
	return sb.String()
}

// UniformResult is the Fig 10 experiment: the same number of LSBs
// approximated at all five stages, compared against the accurate pipeline.
type UniformResult struct {
	K               int
	PSNR            float64
	SSIM            float64
	AccuratePeaks   int
	ApproxPeaks     int
	Accuracy        float64
	EnergyReduction float64
}

// UniformApproximation runs the Fig 10 experiment (the paper uses k=4 and
// reports PSNR 19.24, equal peak counts and ~7x less energy).
func (s *Setup) UniformApproximation(k int) (UniformResult, error) {
	var ks [pantompkins.NumStages]int
	for i := range ks {
		ks[i] = k
	}
	cfg := s.Config(ks)
	q, err := s.Eval.Evaluate(cfg)
	if err != nil {
		return UniformResult{}, err
	}
	red, err := s.Energy.PipelineReduction(cfg)
	if err != nil {
		return UniformResult{}, err
	}
	// Peak counts on the first record, as in the paper's figure.
	accP, err := pantompkins.New(pantompkins.AccurateConfig())
	if err != nil {
		return UniformResult{}, err
	}
	appP, err := pantompkins.New(cfg)
	if err != nil {
		return UniformResult{}, err
	}
	rec := s.Records[0]
	accDet := accP.Process(rec).Detection
	appDet := appP.Process(rec).Detection
	return UniformResult{
		K:               k,
		PSNR:            q.PSNR,
		SSIM:            q.SSIM,
		AccuratePeaks:   len(accDet.Peaks),
		ApproxPeaks:     len(appDet.Peaks),
		Accuracy:        q.PeakAccuracy,
		EnergyReduction: red,
	}, nil
}

// FormatUniform renders the Fig 10 experiment.
func FormatUniform(r UniformResult) string {
	return fmt.Sprintf(
		"Fig 10: uniform %d-LSB approximation at all five stages\n"+
			"  PSNR of high-pass filtered signal: %.2f dB (SSIM %.3f)\n"+
			"  peaks detected: accurate %d, approximate %d (accuracy %.2f%%)\n"+
			"  pipeline energy reduction: %.2fx\n",
		r.K, r.PSNR, r.SSIM, r.AccuratePeaks, r.ApproxPeaks, 100*r.Accuracy, r.EnergyReduction)
}
