package experiments

import (
	"fmt"
	"strings"

	"github.com/xbiosip/xbiosip/internal/core"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/ecg"
	"github.com/xbiosip/xbiosip/internal/metrics"
	"github.com/xbiosip/xbiosip/internal/netlist"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
	"github.com/xbiosip/xbiosip/internal/synth"
)

// AblationRow compares the three energy-accounting policies the synthesis
// substrate supports for one stage configuration:
//
//   - raw: the netlist exactly as generated (generic module composition,
//     the paper's module-count view);
//   - optimised: constant propagation + dead-cell elimination, energy =
//     total power x critical path (synthesis-like, activity-blind);
//   - activity: optimised netlist with stimulus-driven switching-activity
//     power (the repository's primary accounting; see package synth).
type AblationRow struct {
	Stage     pantompkins.Stage
	K         int
	Raw       float64 // energy reduction under raw accounting
	Optimised float64
	Activity  float64
}

// EnergyAccountingAblation quantifies how much of each stage's reported
// energy reduction comes from which modelling choice. It evaluates each
// stage at its maximum approximated LSBs under all three accountings.
func (s *Setup) EnergyAccountingAblation() ([]AblationRow, error) {
	var rows []AblationRow
	for _, st := range pantompkins.Stages {
		k := pantompkins.MaxLSBs[st]
		accCfg := dsp.Accurate()
		appCfg := s.stageCfg(k)

		reduction := func(analyze func(*netlist.Netlist) (synth.Report, error)) (float64, error) {
			base, err := pantompkins.StageNetlist(st, accCfg)
			if err != nil {
				return 0, err
			}
			app, err := pantompkins.StageNetlist(st, appCfg)
			if err != nil {
				return 0, err
			}
			rb, err := analyze(base)
			if err != nil {
				return 0, err
			}
			ra, err := analyze(app)
			if err != nil {
				return 0, err
			}
			return synth.Reductions(rb, ra).Energy, nil
		}

		raw, err := reduction(func(n *netlist.Netlist) (synth.Report, error) {
			return synth.Analyze(n), nil
		})
		if err != nil {
			return nil, err
		}
		// Optimised policy: the activity-blind report of the optimised
		// combinational stage, served from the same characterization-cache
		// entry the activity policy fills — an AnalyzeOptimized call here
		// would re-synthesize a stage the energy model already built.
		optBase, err := s.Energy.StageOptimizedReport(st, accCfg)
		if err != nil {
			return nil, err
		}
		optApp, err := s.Energy.StageOptimizedReport(st, appCfg)
		if err != nil {
			return nil, err
		}
		opt := synth.Reductions(optBase, optApp).Energy
		actBase, err := s.Energy.StageReport(st, accCfg)
		if err != nil {
			return nil, err
		}
		actApp, err := s.Energy.StageReport(st, appCfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Stage:     st,
			K:         k,
			Raw:       raw,
			Optimised: opt,
			Activity:  synth.Reductions(actBase, actApp).Energy,
		})
	}
	return rows, nil
}

// FormatAblation renders the accounting comparison.
func FormatAblation(rows []AblationRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation: stage energy reduction under the three accounting policies\n")
	sb.WriteString(fmt.Sprintf("%-6s %4s %10s %12s %12s\n", "stage", "k", "raw", "optimised", "activity"))
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-6v %4d %9.2fx %11.2fx %11.2fx\n",
			r.Stage, r.K, r.Raw, r.Optimised, r.Activity))
	}
	sb.WriteString("raw = generic module composition; optimised = const-prop+DCE, P*D;\n")
	sb.WriteString("activity = optimised + stimulus-driven switching power (primary model)\n")
	return sb.String()
}

// NoiseRobustnessRow is one point of the noise sweep: detection accuracy
// of the accurate pipeline and the paper's B9 design under increasing
// acquisition noise.
type NoiseRobustnessRow struct {
	MuscleNoiseMV float64
	AccurateAcc   float64
	B9Acc         float64
}

// NoiseRobustness sweeps EMG noise amplitude and compares the accurate and
// B9 detectors — an extension experiment checking that the approximation
// does not erode the algorithm's noise margin (the property the paper's
// error-resilience argument relies on).
func (s *Setup) NoiseRobustness(levelsMV []float64, samples int) ([]NoiseRobustnessRow, error) {
	b9 := s.Config([pantompkins.NumStages]int{10, 12, 2, 8, 16})
	var rows []NoiseRobustnessRow
	for _, mv := range levelsMV {
		cfg := ecg.DefaultConfig()
		cfg.Noise.MuscleMV = mv
		cfg.Seed = 33
		rec, err := cfg.Generate(fmt.Sprintf("noise-%.2f", mv), samples)
		if err != nil {
			return nil, err
		}
		accurate, err := accuracyOn(rec, pantompkins.AccurateConfig())
		if err != nil {
			return nil, err
		}
		approxAcc, err := accuracyOn(rec, b9)
		if err != nil {
			return nil, err
		}
		rows = append(rows, NoiseRobustnessRow{MuscleNoiseMV: mv, AccurateAcc: accurate, B9Acc: approxAcc})
	}
	return rows, nil
}

func accuracyOn(rec *ecg.Record, cfg pantompkins.Config) (float64, error) {
	p, err := pantompkins.New(cfg)
	if err != nil {
		return 0, err
	}
	det := p.Process(rec).Detection
	m, err := metrics.MatchPeaks(rec.Annotations, det.Peaks, core.DefaultPeakTolerance)
	if err != nil {
		return 0, err
	}
	return m.Sensitivity(), nil
}

// FormatNoiseRobustness renders the noise sweep.
func FormatNoiseRobustness(rows []NoiseRobustnessRow) string {
	var sb strings.Builder
	sb.WriteString("Noise robustness: detection accuracy vs EMG noise (accurate vs B9)\n")
	sb.WriteString(fmt.Sprintf("%12s %12s %12s\n", "noise[mV]", "accurate", "B9"))
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%12.2f %11.2f%% %11.2f%%\n", r.MuscleNoiseMV, 100*r.AccurateAcc, 100*r.B9Acc))
	}
	return sb.String()
}
