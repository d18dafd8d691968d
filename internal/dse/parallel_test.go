package dse_test

// External test package: exercises dse through the real evaluation stack
// (core + energy), which itself imports dse — hence the _test package.

import (
	"strconv"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/core"
	"github.com/xbiosip/xbiosip/internal/dse"
	"github.com/xbiosip/xbiosip/internal/ecg"
	"github.com/xbiosip/xbiosip/internal/energy"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

// goldenSamples fixes the synthetic record the golden values below were
// measured on (NSRDB-like record 0, seeded generator — fully
// reproducible).
const goldenSamples = 4000

// Golden sequential-seed behaviour of the pre-processing exploration
// (stages {LPF, HPF}, PSNR >= 15, ApproxAdd5/AppMultV1): the selected
// per-stage LSBs and the exploration cost. Every worker count must
// reproduce these exactly.
const (
	goldenLPFLSBs = 14
	goldenHPFLSBs = 16
	goldenEvals   = 11
)

func preOptions(t *testing.T) (dse.Options, dse.EvaluateFunc, dse.StageEnergyFunc) {
	t.Helper()
	rec, err := ecg.NSRDBRecord(0, goldenSamples)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := core.NewEvaluator([]*ecg.Record{rec})
	if err != nil {
		t.Fatal(err)
	}
	stim, err := energy.NewStimulus(rec)
	if err != nil {
		t.Fatal(err)
	}
	em := energy.NewModel(stim)
	opt := dse.Options{
		Base:       pantompkins.AccurateConfig(),
		Stages:     []pantompkins.Stage{pantompkins.LPF, pantompkins.HPF},
		LSBs:       core.DefaultLSBLists(),
		Mults:      []approx.MultKind{approx.AppMultV1},
		Adds:       []approx.AdderKind{approx.ApproxAdd5},
		Constraint: 15,
	}
	evalPSNR := func(cfg pantompkins.Config) (float64, error) {
		q, err := eval.Evaluate(cfg)
		if err != nil {
			return 0, err
		}
		return q.PSNR, nil
	}
	return opt, evalPSNR, em.StageEnergy
}

func requireEqualResults(t *testing.T, seq, par dse.Result, label string) {
	t.Helper()
	if par.Config != seq.Config {
		t.Errorf("%s: config %v, sequential selected %v", label, par.Config, seq.Config)
	}
	if par.Quality != seq.Quality {
		t.Errorf("%s: quality %v, sequential %v", label, par.Quality, seq.Quality)
	}
	if par.Evaluations != seq.Evaluations {
		t.Errorf("%s: %d evaluations, sequential %d", label, par.Evaluations, seq.Evaluations)
	}
	if len(par.Explored) != len(seq.Explored) {
		t.Fatalf("%s: trace length %d, sequential %d", label, len(par.Explored), len(seq.Explored))
	}
	for i := range seq.Explored {
		if par.Explored[i] != seq.Explored[i] {
			t.Errorf("%s: trace[%d] = %+v, sequential %+v", label, i, par.Explored[i], seq.Explored[i])
		}
	}
}

// TestGenerateParallelMatchesSequentialGolden runs the real pre-processing
// exploration on a one-slot engine and on wider ones and demands an
// identical outcome, pinned against golden values so a behaviour change is
// caught even if every worker count drifts together.
func TestGenerateParallelMatchesSequentialGolden(t *testing.T) {
	opt, evalPSNR, stageEnergy := preOptions(t)

	opt.Workers = 1
	seq, err := dse.Generate(opt, evalPSNR, stageEnergy)
	if err != nil {
		t.Fatal(err)
	}
	if got := seq.Config.Stage[pantompkins.LPF].LSBs; got != goldenLPFLSBs {
		t.Errorf("sequential selected LPF k=%d, golden %d", got, goldenLPFLSBs)
	}
	if got := seq.Config.Stage[pantompkins.HPF].LSBs; got != goldenHPFLSBs {
		t.Errorf("sequential selected HPF k=%d, golden %d", got, goldenHPFLSBs)
	}
	if seq.Evaluations != goldenEvals {
		t.Errorf("sequential cost %d evaluations, golden %d", seq.Evaluations, goldenEvals)
	}
	if seq.Evaluations != len(seq.Explored) {
		t.Errorf("evaluation count %d disagrees with trace length %d", seq.Evaluations, len(seq.Explored))
	}

	for _, workers := range []int{0, 2, 4, 8} {
		opt.Workers = workers
		par, err := dse.Generate(opt, evalPSNR, stageEnergy)
		if err != nil {
			t.Fatal(err)
		}
		requireEqualResults(t, seq, par, "workers="+strconv.Itoa(workers))
	}
}

// TestBaselinesParallelMatchSequential covers the exhaustive grid: the
// same 81 cells, qualities and energies for every worker count.
func TestBaselinesParallelMatchSequential(t *testing.T) {
	opt, evalPSNR, stageEnergy := preOptions(t)

	opt.Workers = 1
	gridSeq, err := dse.ExhaustiveGrid(opt, pantompkins.LPF, pantompkins.HPF, evalPSNR, stageEnergy)
	if err != nil {
		t.Fatal(err)
	}
	if len(gridSeq) != 81 {
		t.Errorf("exhaustive grid has %d cells, want 81", len(gridSeq))
	}

	opt.Workers = 4
	gridPar, err := dse.ExhaustiveGrid(opt, pantompkins.LPF, pantompkins.HPF, evalPSNR, stageEnergy)
	if err != nil {
		t.Fatal(err)
	}
	if len(gridPar) != len(gridSeq) {
		t.Fatalf("grid size %d, one-slot %d", len(gridPar), len(gridSeq))
	}
	for i := range gridSeq {
		if gridPar[i] != gridSeq[i] {
			t.Errorf("grid[%d] = %+v, one-slot %+v", i, gridPar[i], gridSeq[i])
		}
	}
}
