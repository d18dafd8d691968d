package experiments

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/xbiosip/xbiosip/internal/arith/kernel"
	"github.com/xbiosip/xbiosip/internal/core"
	"github.com/xbiosip/xbiosip/internal/energy"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

var (
	setupOnce sync.Once
	shared    *Setup
	setupErr  error
)

func testSetup(t *testing.T) *Setup {
	t.Helper()
	setupOnce.Do(func() {
		shared, setupErr = NewSetup(1, 5000)
	})
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	return shared
}

func TestNewSetupValidation(t *testing.T) {
	if _, err := NewSetup(0, 100); err == nil {
		t.Error("zero records accepted")
	}
	if _, err := NewSetup(100, 100); err == nil {
		t.Error("too many records accepted")
	}
}

func TestTable1ContainsAllModules(t *testing.T) {
	out := Table1()
	for _, name := range []string{"AccAdd", "ApproxAdd1", "ApproxAdd5", "AccMult", "AppMultV1", "AppMultV2", "0.409", "0.288"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table 1 missing %q", name)
		}
	}
}

func TestFig1FiveNodes(t *testing.T) {
	out := Fig1()
	for _, name := range []string{"Heart Rate", "Oxygen Saturation", "Temperature", "ECG", "EEG"} {
		if !strings.Contains(out, name) {
			t.Errorf("Fig 1 missing %q", name)
		}
	}
}

func TestStageResilienceLPF(t *testing.T) {
	s := testSetup(t)
	rows, err := s.StageResilience(pantompkins.LPF)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 { // k = 0,2,...,16
		t.Fatalf("LPF sweep has %d rows, want 9", len(rows))
	}
	if rows[0].K != 0 || rows[0].Accuracy != 1 {
		t.Errorf("k=0 row wrong: %+v", rows[0])
	}
	// Paper Fig 2 shapes: accuracy stays perfect through k=14 and SSIM is
	// monotonically non-increasing at high k.
	thr := ResilienceThreshold(rows)
	if thr < 12 {
		t.Errorf("LPF threshold %d, paper reports 14", thr)
	}
	if rows[len(rows)-1].SSIM >= rows[0].SSIM {
		t.Error("SSIM did not degrade across the sweep")
	}
	out := FormatResilience(pantompkins.LPF, rows)
	if !strings.Contains(out, "threshold") {
		t.Error("formatted sweep missing threshold line")
	}
}

func TestStageResilienceDERRange(t *testing.T) {
	s := testSetup(t)
	rows, err := s.StageResilience(pantompkins.DER)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // k = 0, 2, 4 (paper restricts DER to 4)
		t.Fatalf("DER sweep has %d rows, want 3", len(rows))
	}
}

func TestUniformApproximation(t *testing.T) {
	s := testSetup(t)
	r, err := s.UniformApproximation(4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Accuracy != 1 {
		t.Errorf("uniform-4 accuracy %.3f, want 1 (paper Fig 10: all peaks found)", r.Accuracy)
	}
	if r.AccuratePeaks != r.ApproxPeaks {
		t.Errorf("peak counts differ: %d vs %d (paper: equal)", r.AccuratePeaks, r.ApproxPeaks)
	}
	if r.EnergyReduction <= 1 {
		t.Errorf("uniform-4 energy reduction %.2f, want > 1", r.EnergyReduction)
	}
	if !strings.Contains(FormatUniform(r), "Fig 10") {
		t.Error("format missing title")
	}
}

func TestFig12ConfigTable(t *testing.T) {
	// The configuration table must match the paper's figure exactly.
	if len(Fig12Configs) != 15 {
		t.Fatalf("got %d configs, want 15 (A2 + B1..B14)", len(Fig12Configs))
	}
	if Fig12Configs[0].Name != "A2" || Fig12Configs[0].LSBs != [5]int{0, 0, 0, 0, 0} {
		t.Error("A2 wrong")
	}
	if Fig12Configs[9].Name != "B9" || Fig12Configs[9].LSBs != [5]int{10, 12, 2, 8, 16} {
		t.Errorf("B9 wrong: %+v", Fig12Configs[9])
	}
	if Fig12Configs[10].Name != "B10" || Fig12Configs[10].LSBs != [5]int{10, 12, 4, 8, 16} {
		t.Errorf("B10 wrong: %+v", Fig12Configs[10])
	}
}

func TestFig12Rows(t *testing.T) {
	s := testSetup(t)
	rows, err := s.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig12Configs) {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]Fig12Row{}
	for _, r := range rows {
		byName[r.Config.Name] = r
	}
	if byName["A2"].EnergyReduction != 1 {
		t.Errorf("A2 reduction %v, want 1", byName["A2"].EnergyReduction)
	}
	if byName["B9"].Accuracy != 1 {
		t.Errorf("B9 accuracy %v, want 1 (paper: 0%% loss)", byName["B9"].Accuracy)
	}
	if !(byName["B9"].EnergyReduction > 2) {
		t.Errorf("B9 reduction %v, want substantial (> 2)", byName["B9"].EnergyReduction)
	}
	// More approximation must not cost energy: B9 <= B14 ordering family.
	if byName["B14"].EnergyReduction < byName["B1"].EnergyReduction {
		t.Errorf("B14 (%vx) below B1 (%vx)", byName["B14"].EnergyReduction, byName["B1"].EnergyReduction)
	}
	out, err := s.FormatFig12(rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"A1", "B9", "B14", "orders of magnitude"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig 12 output missing %q", want)
		}
	}
}

// TestEnergyFiguresWarmColdShardIdentical is the acceptance bar of the
// shared energy-characterization cache: the energy figures (Fig 12, the
// accounting ablation) must be bit-identical whether the process-wide
// caches are cold or warm, and for every evaluation-engine worker count.
func TestEnergyFiguresWarmColdShardIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple full figure evaluations are slow")
	}
	type result struct {
		fig12 []Fig12Row
		abl   []AblationRow
	}
	run := func(workers int) result {
		s, err := NewSetupOpts(1, 3000, core.EvalOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := s.Fig12()
		if err != nil {
			t.Fatal(err)
		}
		abl, err := s.EnergyAccountingAblation()
		if err != nil {
			t.Fatal(err)
		}
		return result{fig12: rows, abl: abl}
	}
	dropAll := func() {
		energy.DropCaches()
		kernel.DropCaches()
	}
	dropAll()
	defer dropAll()
	cold := run(1)
	warm := run(4) // same process: every characterization is a cache hit
	if st := energy.CacheStats(); st.Hits == 0 {
		t.Fatal("second setup hit no cached characterizations")
	}
	dropAll()
	cold2 := run(3) // cold again, parallel engine
	for i, r := range []result{warm, cold2} {
		if !reflect.DeepEqual(cold.fig12, r.fig12) {
			t.Errorf("run %d: Fig 12 rows differ from the cold sequential run", i)
		}
		if !reflect.DeepEqual(cold.abl, r.abl) {
			t.Errorf("run %d: ablation rows differ from the cold sequential run", i)
		}
	}
}

func TestMisclassificationB10(t *testing.T) {
	s := testSetup(t)
	r, err := s.Misclassification(Fig12Configs[10])
	if err != nil {
		t.Fatal(err)
	}
	// B10 loses at most 1% of beats (paper: < 1% loss).
	if r.Match.Sensitivity() < 0.99 {
		t.Errorf("B10 accuracy %.3f, want >= 0.99", r.Match.Sensitivity())
	}
	if len(r.Missed) != r.Match.FalseNegatives {
		t.Errorf("missed-beat list %d != FN %d", len(r.Missed), r.Match.FalseNegatives)
	}
	out := FormatMisclassification(r)
	if !strings.Contains(out, "B10") {
		t.Error("report missing config name")
	}
}

func TestTable2SmallGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("table 2 is slow")
	}
	s := testSetup(t)
	r, err := s.Table2(15)
	if err != nil {
		t.Fatal(err)
	}
	if r.GridEvals != 81 {
		t.Errorf("grid evaluations %d, want 81", r.GridEvals)
	}
	// Paper: Algorithm 1 generates and evaluates only ~11 designs.
	if r.Alg1Evals >= 30 {
		t.Errorf("Algorithm 1 used %d evaluations, want far fewer than 81", r.Alg1Evals)
	}
	if r.Algorithm.Quality < 15 {
		t.Errorf("selected design PSNR %.2f below constraint", r.Algorithm.Quality)
	}
	out := s.FormatTable2(r)
	for _, want := range []string{"Table 2", "LPF", "HPF", "phase"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 output missing %q", want)
		}
	}
}

// TestTable2AlgorithmReusesGridSimulations pins the dedup across Table 2's
// two explorer calls, which run on engines of their own: the evaluator's
// cache serves every Algorithm 1 candidate, each a grid cell, so the
// record set is simulated for the grid's 81 designs and nothing more, at
// every worker count.
func TestTable2AlgorithmReusesGridSimulations(t *testing.T) {
	if testing.Short() {
		t.Skip("table 2 is slow")
	}
	for _, workers := range []int{1, 2, 4} {
		s, err := NewSetupOpts(1, 4000, core.EvalOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Table2(15); err != nil {
			t.Fatal(err)
		}
		if n := s.Eval.Evaluations(); n != 81 {
			t.Errorf("workers=%d: %d simulations after Table 2, want the grid's 81", workers, n)
		}
	}
}

func TestExplorationTime(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration sweep is slow")
	}
	s := testSetup(t)
	rows, err := s.ExplorationTime()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != pantompkins.NumStages {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Algorithm1.Evaluations >= r.Heuristic.Evaluations && r.Stages > 1 {
			t.Errorf("%d stages: Algorithm 1 (%v evals) not cheaper than heuristic (%v)",
				r.Stages, r.Algorithm1.Evaluations, r.Heuristic.Evaluations)
		}
		if r.Exhaustive.Log10Years < 10 {
			t.Errorf("%d stages: exhaustive estimate too small", r.Stages)
		}
	}
	// Speedup grows with the number of stages (the paper's average is
	// 23.6x; the exact value depends on the record).
	if !(rows[len(rows)-1].Speedup > rows[0].Speedup) {
		t.Error("speedup does not grow with stage count")
	}
	if !strings.Contains(FormatFig11(rows), "speedup") {
		t.Error("format missing speedup")
	}
}

func TestEnergyAccountingAblation(t *testing.T) {
	s := testSetup(t)
	rows, err := s.EnergyAccountingAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != pantompkins.NumStages {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Activity accounting must report at least as much reduction as
		// the activity-blind optimised P*D for every stage (never-toggling
		// cells can only help the approximate design relatively), and the
		// raw module view the least structure.
		if r.Activity <= 0 || r.Optimised <= 0 || r.Raw <= 0 {
			t.Errorf("%v: non-positive reduction %+v", r.Stage, r)
		}
	}
	// MWI has no constants to fold: raw and optimised baselines coincide,
	// and activity adds the width-trimming on top.
	var mwi AblationRow
	for _, r := range rows {
		if r.Stage == pantompkins.MWI {
			mwi = r
		}
	}
	if !(mwi.Activity > mwi.Optimised) {
		t.Errorf("MWI activity %vx not above optimised %vx", mwi.Activity, mwi.Optimised)
	}
	if !strings.Contains(FormatAblation(rows), "activity") {
		t.Error("format missing policy names")
	}
}

func TestNoiseRobustness(t *testing.T) {
	s := testSetup(t)
	rows, err := s.NoiseRobustness([]float64{0.02, 0.10}, 6000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// At mild noise both designs detect everything; B9 must track the
	// accurate pipeline within a couple of percent at every level.
	if rows[0].AccurateAcc != 1 || rows[0].B9Acc != 1 {
		t.Errorf("mild noise row: %+v", rows[0])
	}
	for _, r := range rows {
		if r.AccurateAcc-r.B9Acc > 0.02 {
			t.Errorf("B9 lost noise margin at %.2f mV: accurate %.3f vs B9 %.3f",
				r.MuscleNoiseMV, r.AccurateAcc, r.B9Acc)
		}
	}
	if !strings.Contains(FormatNoiseRobustness(rows), "B9") {
		t.Error("format missing header")
	}
}
