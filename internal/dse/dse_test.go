package dse

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
	"github.com/xbiosip/xbiosip/internal/sched"
)

// syntheticQuality models a quality surface that degrades with total
// approximation: quality = 100 - sum(k_s * weight_s). It lets the DSE
// tests run without ECG simulation while preserving the monotone structure
// Algorithm 1 assumes.
func syntheticQuality(weights map[pantompkins.Stage]float64) EvaluateFunc {
	return func(cfg pantompkins.Config) (float64, error) {
		q := 100.0
		for _, s := range pantompkins.Stages {
			q -= float64(cfg.Stage[s].LSBs) * weights[s]
		}
		return q, nil
	}
}

// syntheticEnergy: stage energy falls linearly with k from a per-stage
// baseline.
func syntheticEnergy(base map[pantompkins.Stage]float64) StageEnergyFunc {
	return func(s pantompkins.Stage, cfg dsp.ArithConfig) (float64, error) {
		b := base[s]
		if b == 0 {
			b = 100
		}
		return b * (1 - float64(cfg.LSBs)/40.0), nil
	}
}

func lsbLists(stages ...pantompkins.Stage) map[pantompkins.Stage][]int {
	m := make(map[pantompkins.Stage][]int)
	for _, s := range stages {
		var l []int
		for k := pantompkins.MaxLSBs[s]; k >= 0; k -= 2 {
			l = append(l, k)
		}
		m[s] = l
	}
	return m
}

func defaultOptions(constraint float64, stages ...pantompkins.Stage) Options {
	return Options{
		Base:       pantompkins.AccurateConfig(),
		Stages:     stages,
		LSBs:       lsbLists(stages...),
		Mults:      []approx.MultKind{approx.AppMultV1},
		Adds:       []approx.AdderKind{approx.ApproxAdd5},
		Constraint: constraint,
	}
}

func TestGenerateSatisfiesConstraint(t *testing.T) {
	weights := map[pantompkins.Stage]float64{pantompkins.LPF: 2, pantompkins.HPF: 3}
	energyBase := map[pantompkins.Stage]float64{pantompkins.LPF: 100, pantompkins.HPF: 200}
	opt := defaultOptions(40, pantompkins.LPF, pantompkins.HPF)
	res, err := Generate(opt, syntheticQuality(weights), syntheticEnergy(energyBase))
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality < opt.Constraint {
		t.Errorf("selected design quality %.1f below constraint %.1f", res.Quality, opt.Constraint)
	}
	if res.Evaluations == 0 {
		t.Error("no evaluations recorded")
	}
	// The design must actually approximate something.
	total := res.Config.Stage[pantompkins.LPF].LSBs + res.Config.Stage[pantompkins.HPF].LSBs
	if total == 0 {
		t.Error("generated design has no approximation at all")
	}
}

func TestGenerateEvaluatesFarFewerThanExhaustive(t *testing.T) {
	weights := map[pantompkins.Stage]float64{pantompkins.LPF: 2, pantompkins.HPF: 3}
	energyBase := map[pantompkins.Stage]float64{pantompkins.LPF: 100, pantompkins.HPF: 200}
	opt := defaultOptions(40, pantompkins.LPF, pantompkins.HPF)

	gen, err := Generate(opt, syntheticQuality(weights), syntheticEnergy(energyBase))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := ExhaustiveGrid(opt, pantompkins.LPF, pantompkins.HPF, syntheticQuality(weights), syntheticEnergy(energyBase))
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 81 {
		t.Errorf("exhaustive grid has %d cells, want 81 (9x9)", len(grid))
	}
	// Paper: Algorithm 1 evaluates ~11 designs instead of 81.
	if gen.Evaluations >= len(grid)/2 {
		t.Errorf("Algorithm 1 used %d evaluations vs exhaustive %d", gen.Evaluations, len(grid))
	}
}

func TestGenerateOrdersStagesBySavings(t *testing.T) {
	// HPF has far larger maximum savings; the algorithm sorts ascending,
	// so LPF is explored in phase 1. Check via the trace: the first
	// evaluated candidate varies LPF only.
	weights := map[pantompkins.Stage]float64{pantompkins.LPF: 1, pantompkins.HPF: 1}
	energy := func(s pantompkins.Stage, cfg dsp.ArithConfig) (float64, error) {
		if s == pantompkins.HPF {
			return 1000 * (1 - float64(cfg.LSBs)/17.0), nil // huge savings potential
		}
		return 100 * (1 - float64(cfg.LSBs)/40.0), nil
	}
	opt := defaultOptions(60, pantompkins.LPF, pantompkins.HPF)
	res, err := Generate(opt, syntheticQuality(weights), energy)
	if err != nil {
		t.Fatal(err)
	}
	firstCand := res.Explored[0].Config
	if firstCand.Stage[pantompkins.HPF].LSBs != 0 {
		t.Error("phase 1 explored HPF first; expected LPF (smaller max savings)")
	}
	if firstCand.Stage[pantompkins.LPF].LSBs != 16 {
		t.Errorf("phase 1 should start from maximum LSBs, got %d", firstCand.Stage[pantompkins.LPF].LSBs)
	}
}

func TestGenerateImpossibleConstraint(t *testing.T) {
	// Nothing satisfies quality 1000: the algorithm still terminates and
	// returns the accurate base configuration.
	weights := map[pantompkins.Stage]float64{pantompkins.LPF: 2, pantompkins.HPF: 3}
	opt := defaultOptions(1000, pantompkins.LPF, pantompkins.HPF)
	res, err := Generate(opt, syntheticQuality(weights), syntheticEnergy(nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range opt.Stages {
		if res.Config.Stage[s].LSBs != 0 {
			t.Errorf("impossible constraint still approximated stage %v", s)
		}
	}
}

func TestGenerateThreeStages(t *testing.T) {
	weights := map[pantompkins.Stage]float64{
		pantompkins.DER: 5, pantompkins.SQR: 3, pantompkins.MWI: 1,
	}
	opt := defaultOptions(50, pantompkins.DER, pantompkins.SQR, pantompkins.MWI)
	res, err := Generate(opt, syntheticQuality(weights), syntheticEnergy(nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality < 50 {
		t.Errorf("three-stage generation violated constraint: %.1f", res.Quality)
	}
}

func TestGenerateValidation(t *testing.T) {
	opt := defaultOptions(50)
	if _, err := Generate(opt, nil, nil); err == nil {
		t.Error("empty stage list accepted")
	}
	opt = defaultOptions(50, pantompkins.LPF)
	opt.Mults = nil
	if _, err := Generate(opt, nil, nil); err == nil {
		t.Error("empty module list accepted")
	}
	opt = defaultOptions(50, pantompkins.LPF)
	opt.LSBs[pantompkins.LPF] = []int{2, 4} // not descending
	if _, err := Generate(opt, nil, nil); err == nil {
		t.Error("non-descending LSB list accepted")
	}
}

// TestSpeculativeErrorDoesNotAbortParallelRun: with workers > 1 the
// engine speculatively evaluates candidates past a scan's stopping point;
// an error among those speculated designs must not fail a run the
// one-slot explorer, which evaluates only traced candidates, completes.
func TestSpeculativeErrorDoesNotAbortParallelRun(t *testing.T) {
	eval := func(cfg pantompkins.Config) (float64, error) {
		k := cfg.Stage[pantompkins.LPF].LSBs
		if k == 14 {
			// Phase 1 scans k descending: 16 passes first, so the
			// sequential walk never evaluates 14 — only speculation does.
			return 0, errors.New("broken design k=14")
		}
		return 100 - float64(k), nil
	}
	opt := defaultOptions(50, pantompkins.LPF)
	opt.Workers = 1
	seq, err := Generate(opt, eval, syntheticEnergy(nil))
	if err != nil {
		t.Fatalf("one-slot run failed: %v", err)
	}
	if seq.Config.Stage[pantompkins.LPF].LSBs != 16 {
		t.Fatalf("one-slot run selected k=%d, want 16", seq.Config.Stage[pantompkins.LPF].LSBs)
	}
	opt.Workers = 4
	par, err := Generate(opt, eval, syntheticEnergy(nil))
	if err != nil {
		t.Fatalf("parallel run aborted on a speculated error: %v", err)
	}
	if par.Config != seq.Config || par.Evaluations != seq.Evaluations {
		t.Errorf("parallel result %v (%d evals) differs from one-slot %v (%d evals)",
			par.Config, par.Evaluations, seq.Config, seq.Evaluations)
	}

	// An error the sequential walk DOES reach must still propagate: make
	// every candidate fail the constraint so the scan reaches k=14.
	opt.Constraint = 1000
	if _, err := Generate(opt, eval, syntheticEnergy(nil)); err == nil {
		t.Error("reachable evaluation error was swallowed by the parallel path")
	}
	opt.Workers = 1
	if _, err := Generate(opt, eval, syntheticEnergy(nil)); err == nil {
		t.Error("reachable evaluation error was swallowed by the one-slot explorer")
	}
}

func TestExhaustiveFindsLowestEnergyFeasible(t *testing.T) {
	weights := map[pantompkins.Stage]float64{pantompkins.LPF: 2, pantompkins.HPF: 3}
	opt := defaultOptions(40, pantompkins.LPF, pantompkins.HPF)
	grid, err := ExhaustiveGrid(opt, pantompkins.LPF, pantompkins.HPF, syntheticQuality(weights), syntheticEnergy(nil))
	if err != nil {
		t.Fatal(err)
	}
	// The first passing cell of least energy, in grid order.
	var best *GridPoint
	for i := range grid {
		if grid[i].Passed && (best == nil || grid[i].Energy < best.Energy) {
			best = &grid[i]
		}
	}
	if best == nil {
		t.Fatal("no grid cell passes")
	}
	// With quality 100-2a-3b >= 40 and energy decreasing in a+b, the
	// optimum maximises 2.5a+2.5b... energy 100(1-a/40)+100(1-b/40)
	// decreasing in a+b; constraint 2a+3b <= 60 with a<=16,b<=16. Optimal
	// a=16 (cheap on quality), then 3b <= 28 -> b = 8 (multiples of 2).
	if best.K1 != 16 || best.K2 != 8 {
		t.Errorf("exhaustive optimum (%d,%d), want (16,8)", best.K1, best.K2)
	}
}

func TestExhaustiveGridShape(t *testing.T) {
	weights := map[pantompkins.Stage]float64{pantompkins.LPF: 2, pantompkins.HPF: 3}
	opt := defaultOptions(40, pantompkins.LPF, pantompkins.HPF)
	grid, err := ExhaustiveGrid(opt, pantompkins.LPF, pantompkins.HPF, syntheticQuality(weights), syntheticEnergy(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 81 {
		t.Fatalf("grid has %d points, want 81", len(grid))
	}
	for _, g := range grid {
		wantQ := 100 - 2*float64(g.K1) - 3*float64(g.K2)
		if math.Abs(g.Quality-wantQ) > 1e-9 {
			t.Fatalf("grid (%d,%d) quality %v, want %v", g.K1, g.K2, g.Quality, wantQ)
		}
		if g.Passed != (g.Quality >= 40) {
			t.Fatalf("grid (%d,%d) pass flag wrong", g.K1, g.K2)
		}
	}
}

// TestExhaustiveGridRejectsStages pins that a grid over a repeated stage
// or a stage outside Options.Stages fails with an error naming the stage
// instead of returning an empty grid.
func TestExhaustiveGridRejectsStages(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stages []pantompkins.Stage
		s1, s2 pantompkins.Stage
		want   string
	}{
		{"same stage", []pantompkins.Stage{pantompkins.LPF, pantompkins.HPF}, pantompkins.LPF, pantompkins.LPF, "LPF"},
		{"both outside", []pantompkins.Stage{pantompkins.LPF}, pantompkins.DER, pantompkins.MWI, "DER"},
		{"second outside", []pantompkins.Stage{pantompkins.LPF, pantompkins.HPF}, pantompkins.LPF, pantompkins.MWI, "MWI"},
		{"first outside", []pantompkins.Stage{pantompkins.LPF, pantompkins.HPF}, pantompkins.SQR, pantompkins.HPF, "SQR"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			grid, err := ExhaustiveGrid(defaultOptions(40, tc.stages...), tc.s1, tc.s2,
				syntheticQuality(nil), syntheticEnergy(nil))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ExhaustiveGrid(%v, %v) over %v = %d cells, error %v; want an error naming %v",
					tc.s1, tc.s2, tc.stages, len(grid), err, tc.want)
			}
		})
	}
}

func TestHeuristicCost(t *testing.T) {
	lsbs := lsbLists(pantompkins.LPF, pantompkins.HPF)
	c := HeuristicCost([]pantompkins.Stage{pantompkins.LPF, pantompkins.HPF}, lsbs, 1)
	if c.Evaluations != 81 {
		t.Errorf("heuristic evaluations = %v, want 81", c.Evaluations)
	}
	// 81 evaluations x 300 s = 6.75 hours ("roughly seven hours", §6.1).
	if c.Hours < 6 || c.Hours > 7.5 {
		t.Errorf("heuristic hours = %v, want ~6.75", c.Hours)
	}
}

func TestExhaustiveCostAstronomical(t *testing.T) {
	cost, err := ExhaustiveCost([]pantompkins.Stage{pantompkins.LPF, pantompkins.HPF})
	if err != nil {
		t.Fatal(err)
	}
	// Per-cell assignment: thousands of cells, each with 6 or 3 choices;
	// the log10 count must be astronomically large (paper: ~1e220 years
	// for the full application).
	if cost.Log10Years < 100 {
		t.Errorf("exhaustive estimate log10 years = %v, want > 100", cost.Log10Years)
	}
	if !math.IsInf(cost.Hours, 1) {
		t.Error("exhaustive hours should be +Inf")
	}
}

func TestMeasuredCost(t *testing.T) {
	c := MeasuredCost(2, 12)
	if c.Evaluations != 12 {
		t.Errorf("evaluations = %v", c.Evaluations)
	}
	if math.Abs(c.Hours-1) > 1e-9 {
		t.Errorf("12 evals x 300 s = %v h, want 1", c.Hours)
	}
}

// TestScanScratchReuse guards the per-run scan scratch: once an explorer
// has scanned a candidate list, further scans of the same size — the way
// the later phases of Algorithm 1 revisit candidate sweeps — must reuse
// the configuration and quality buffers. With a pre-grown trace and every
// candidate cached, a warm scan allocates exactly what its one
// EvaluateBatch call allocates.
func TestScanScratchReuse(t *testing.T) {
	weights := map[pantompkins.Stage]float64{pantompkins.LPF: 2}
	opt := defaultOptions(40, pantompkins.LPF)
	e := newExplorer(opt, syntheticQuality(weights), syntheticEnergy(nil))
	var cands []map[pantompkins.Stage]dsp.ArithConfig
	var cfgs []pantompkins.Config
	for _, k := range opt.LSBs[pantompkins.LPF] {
		ov := map[pantompkins.Stage]dsp.ArithConfig{
			pantompkins.LPF: {LSBs: k, Add: approx.ApproxAdd5, Mul: approx.AppMultV1},
		}
		cands = append(cands, ov)
		cfgs = append(cfgs, e.config(ov))
	}
	if _, _, err := e.scan(cands, 1, scanAll); err != nil { // warm the buffers and the cache
		t.Fatal(err)
	}
	batch := testing.AllocsPerRun(50, func() {
		if _, err := e.eng.EvaluateBatch(cfgs); err != nil {
			t.Fatal(err)
		}
	})
	explored := e.result.Explored[:0]
	scan := testing.AllocsPerRun(50, func() {
		e.result.Explored = explored
		if _, _, err := e.scan(cands, 1, scanAll); err != nil {
			t.Fatal(err)
		}
	})
	if scan != batch {
		t.Fatalf("warm scan allocates %.1f objects/run, its EvaluateBatch %.1f; scratch not reused", scan, batch)
	}
}

// TestOneWorkerEvaluatesOnlyTraced pins the one-slot contract: with
// Workers 1 a stopping scan submits one candidate per batch, so Generate
// calls its EvaluateFunc only for canonical configurations its trace
// lists, plus the final verification as the last call, and at most once
// for each.
func TestOneWorkerEvaluatesOnlyTraced(t *testing.T) {
	two := []int{8, 6, 4, 2, 0}
	rp, rpEval, rpEnergy := readPointOptions()
	cases := []struct {
		name   string
		opt    Options
		eval   EvaluateFunc
		energy StageEnergyFunc
	}{
		{"2-stage", defaultOptions(40, pantompkins.LPF, pantompkins.HPF),
			syntheticQuality(map[pantompkins.Stage]float64{pantompkins.LPF: 2, pantompkins.HPF: 3}), syntheticEnergy(nil)},
		{"3-stage", defaultOptions(50, pantompkins.DER, pantompkins.SQR, pantompkins.MWI),
			syntheticQuality(map[pantompkins.Stage]float64{pantompkins.DER: 5, pantompkins.SQR: 3, pantompkins.MWI: 1}), syntheticEnergy(nil)},
		{"two kinds", Options{Base: pantompkins.AccurateConfig(), Stages: []pantompkins.Stage{pantompkins.LPF, pantompkins.HPF},
			LSBs:  map[pantompkins.Stage][]int{pantompkins.LPF: two, pantompkins.HPF: two},
			Mults: []approx.MultKind{approx.AppMultV2, approx.AppMultV1}, Adds: []approx.AdderKind{approx.ApproxAdd1, approx.ApproxAdd5},
			Constraint: 70},
			syntheticQuality(map[pantompkins.Stage]float64{pantompkins.LPF: 2, pantompkins.HPF: 3}), syntheticEnergy(nil)},
		{"fallback", rp, rpEval, rpEnergy},
	}
	for _, tc := range cases {
		var mu sync.Mutex
		var calls []pantompkins.Config
		eval := func(cfg pantompkins.Config) (float64, error) {
			mu.Lock()
			calls = append(calls, sched.Canonical(cfg))
			mu.Unlock()
			return tc.eval(cfg)
		}
		opt := tc.opt
		opt.Workers = 1
		res, err := Generate(opt, eval, tc.energy)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		traced := make(map[pantompkins.Config]bool)
		for _, c := range res.Explored {
			traced[sched.Canonical(c.Config)] = true
		}
		seen := make(map[pantompkins.Config]bool)
		for i, cfg := range calls {
			if seen[cfg] {
				t.Errorf("%s: call %d evaluated %v again", tc.name, i, cfg)
			}
			seen[cfg] = true
			if !traced[cfg] && i < len(calls)-1 {
				t.Errorf("%s: call %d evaluated %v, which the trace does not list", tc.name, i, cfg)
			}
		}
	}
}
