package dse

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

// readPointOptions is a two-stage run in which Algorithm 1 reaches each
// of its energy read points with a key it has not read before, under
// quality 100 - k(LPF) - k(HPF)/2 >= 92:
//
//   - savings: (LPF, accurate), (LPF, 8), (HPF, accurate), (HPF, 8); HPF
//     saves more, so LPF goes first;
//   - phase 1: LPF 8 fails, LPF 6 passes — the hit;
//   - phase 2: HPF 2 and 4 pass, HPF 6 fails;
//   - phase 3: pairs (LPF 4, HPF 6) and (LPF 2, HPF 8), both pass;
//   - final: Best picks (LPF 6, HPF 8), which fails, so bestPassing reads
//     the phase-1 hit's HPF: Base's (k=2, ApproxAdd1, AppMultV2), read
//     nowhere else.
func readPointOptions() (Options, EvaluateFunc, StageEnergyFunc) {
	opt := Options{
		Base:       pantompkins.AccurateConfig(),
		Stages:     []pantompkins.Stage{pantompkins.LPF, pantompkins.HPF},
		LSBs:       map[pantompkins.Stage][]int{pantompkins.LPF: {8, 6, 4, 2, 0}, pantompkins.HPF: {8, 6, 4, 2}},
		Mults:      []approx.MultKind{approx.AppMultV1},
		Adds:       []approx.AdderKind{approx.ApproxAdd5},
		Constraint: 92,
	}
	opt.Base.Stage[pantompkins.HPF] = dsp.ArithConfig{LSBs: 2, Add: approx.ApproxAdd1, Mul: approx.AppMultV2}
	eval := syntheticQuality(map[pantompkins.Stage]float64{pantompkins.LPF: 1, pantompkins.HPF: 0.5})
	energy := func(s pantompkins.Stage, c dsp.ArithConfig) (float64, error) {
		slope := 1.0 / 40
		if s == pantompkins.HPF {
			slope = 1.0 / 20
		}
		return kindEnergy(100*(1-slope*float64(c.LSBs)), c), nil
	}
	return opt, eval, energy
}

// kindEnergy scales a stage energy by the elementary kinds, which are
// dead parameters at zero LSBs.
func kindEnergy(base float64, c dsp.ArithConfig) float64 {
	if c.LSBs == 0 {
		return base
	}
	return base * (1 + 0.01*float64(c.Add) + 0.02*float64(c.Mul))
}

var (
	hitLPF  = dsp.ArithConfig{LSBs: 6, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
	pass2   = dsp.ArithConfig{LSBs: 2, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
	pair3   = dsp.ArithConfig{LSBs: 4, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
	baseHPF = dsp.ArithConfig{LSBs: 2, Add: approx.ApproxAdd1, Mul: approx.AppMultV2}
)

// phaseOf names the Algorithm 1 phase a readPointOptions candidate
// belongs to: phases 2 and 3 give HPF the option kinds, phase 2 keeps
// the hit's LPF and phase 3 trades LPF LSBs away.
func phaseOf(cfg pantompkins.Config) int {
	switch {
	case cfg.Stage[pantompkins.HPF].Add != approx.ApproxAdd5:
		return 1
	case cfg.Stage[pantompkins.LPF].LSBs == hitLPF.LSBs:
		return 2
	default:
		return 3
	}
}

// probe instruments an explorer's callbacks. It keeps the high-water
// mark of evaluations plus characterizations in flight and counts energy
// requests per canonical key.
type probe struct {
	inflight, peak atomic.Int64

	mu    sync.Mutex
	calls map[energyKey]int
}

func newProbe() *probe { return &probe{calls: make(map[energyKey]int)} }

func (p *probe) enter() {
	n := p.inflight.Add(1)
	for m := p.peak.Load(); n > m && !p.peak.CompareAndSwap(m, n); m = p.peak.Load() {
	}
	// Hold the slot long enough for callbacks to overlap.
	time.Sleep(20 * time.Microsecond)
}

func (p *probe) eval(f EvaluateFunc) EvaluateFunc {
	return func(cfg pantompkins.Config) (float64, error) {
		p.enter()
		defer p.inflight.Add(-1)
		return f(cfg)
	}
}

func (p *probe) energy(f StageEnergyFunc) StageEnergyFunc {
	return func(s pantompkins.Stage, c dsp.ArithConfig) (float64, error) {
		p.enter()
		defer p.inflight.Add(-1)
		p.mu.Lock()
		p.calls[energyKey{s, c.Canonical()}]++
		p.mu.Unlock()
		return f(s, c)
	}
}

// workerCounts are the Options.Workers values every explorer test runs:
// the GOMAXPROCS default, one slot and more slots than the host's cores.
var workerCounts = []int{0, 1, 2, 4}

// bound is the most callbacks an explorer of the given worker count may
// run at once: its engine's slot count.
func bound(workers int) int64 {
	if workers == 0 {
		return int64(runtime.GOMAXPROCS(0))
	}
	return int64(workers)
}

// exploreFunc runs one explorer entry point; the grid explores the first
// two stages.
type exploreFunc func(opt Options, eval EvaluateFunc, energy StageEnergyFunc) (any, error)

var explorers = []struct {
	name string
	run  exploreFunc
}{
	{"Generate", func(opt Options, eval EvaluateFunc, energy StageEnergyFunc) (any, error) {
		return Generate(opt, eval, energy)
	}},
	{"ExhaustiveGrid", func(opt Options, eval EvaluateFunc, energy StageEnergyFunc) (any, error) {
		return ExhaustiveGrid(opt, opt.Stages[0], opt.Stages[1], eval, energy)
	}},
}

// waitGoroutines polls until the goroutine count is back at base: a
// goroutine that has signalled completion may still be exiting.
func waitGoroutines(t *testing.T, base int, label string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Errorf("%s: %d goroutines after return, %d before", label, n, base)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExplorerOverlapsEnergy pins the explorer's stage-energy contract:
// characterizations overlap the scans that follow their request, each
// canonical (stage, config) is requested once per call, evaluations plus
// characterizations never exceed the engine's slot count, nothing runs
// after return, and every worker count returns the one-slot result.
func TestExplorerOverlapsEnergy(t *testing.T) {
	t.Run("overlap", func(t *testing.T) {
		opt, eval, energy := readPointOptions()
		opt.Workers = 1
		seq, err := Generate(opt, eval, energy)
		if err != nil {
			t.Fatal(err)
		}
		// The hit's energy waits for a phase-2 evaluation, the first
		// passing phase-2 candidate's for a phase-3 evaluation: reading
		// each before that scan starts would time out. One call blocks
		// at a time, so a slot stays free.
		var began [4]chan struct{}
		var once [4]sync.Once
		for i := range began {
			began[i] = make(chan struct{})
		}
		await := func(phase int) error {
			select {
			case <-began[phase]:
				return nil
			case <-time.After(10 * time.Second):
				return fmt.Errorf("no phase-%d evaluation began while the energy was characterized", phase)
			}
		}
		overlapEval := func(cfg pantompkins.Config) (float64, error) {
			ph := phaseOf(cfg)
			once[ph].Do(func() { close(began[ph]) })
			return eval(cfg)
		}
		overlapEnergy := func(s pantompkins.Stage, c dsp.ArithConfig) (float64, error) {
			switch {
			case s == pantompkins.LPF && c == hitLPF:
				if err := await(2); err != nil {
					return 0, err
				}
			case s == pantompkins.HPF && c == pass2:
				if err := await(3); err != nil {
					return 0, err
				}
			}
			return energy(s, c)
		}
		opt.Workers = 2
		par, err := Generate(opt, overlapEval, overlapEnergy)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par, seq) {
			t.Errorf("overlapped result %+v, one-slot %+v", par, seq)
		}
	})

	weights := map[pantompkins.Stage]float64{
		pantompkins.LPF: 2, pantompkins.HPF: 3, pantompkins.DER: 5, pantompkins.SQR: 3, pantompkins.MWI: 1,
	}
	energy := func(s pantompkins.Stage, c dsp.ArithConfig) (float64, error) {
		return kindEnergy(float64(100+10*int(s))*(1-float64(c.LSBs)/40), c), nil
	}
	two := []int{8, 6, 4, 2, 0}
	sets := []struct {
		name string
		opt  Options
	}{
		{"1-stage", Options{Stages: []pantompkins.Stage{pantompkins.LPF}, Constraint: 80,
			LSBs: lsbLists(pantompkins.LPF)}},
		{"2-stage", Options{Stages: []pantompkins.Stage{pantompkins.LPF, pantompkins.HPF}, Constraint: 70,
			LSBs: map[pantompkins.Stage][]int{pantompkins.LPF: two, pantompkins.HPF: two}}},
		{"3-stage", Options{Stages: []pantompkins.Stage{pantompkins.DER, pantompkins.SQR, pantompkins.MWI}, Constraint: 50,
			LSBs: lsbLists(pantompkins.DER, pantompkins.SQR, pantompkins.MWI)}},
	}
	for _, set := range sets {
		opt := set.opt
		opt.Base = pantompkins.AccurateConfig()
		// Two kinds each, so accurate spellings alias under the memo key.
		opt.Mults = []approx.MultKind{approx.AppMultV2, approx.AppMultV1}
		opt.Adds = []approx.AdderKind{approx.ApproxAdd1, approx.ApproxAdd5}
		if len(opt.Stages) == 3 {
			opt.Mults, opt.Adds = opt.Mults[1:], opt.Adds[1:]
		}
		eval := syntheticQuality(weights)
		for _, ex := range explorers {
			if ex.name == "ExhaustiveGrid" && len(opt.Stages) < 2 {
				continue
			}
			opt.Workers = 1
			seq, err := ex.run(opt, eval, energy)
			if err != nil {
				t.Fatalf("%s %s one slot: %v", set.name, ex.name, err)
			}
			for _, workers := range workerCounts {
				label := fmt.Sprintf("%s %s workers=%d", set.name, ex.name, workers)
				p := newProbe()
				base := runtime.NumGoroutine()
				opt.Workers = workers
				got, err := ex.run(opt, p.eval(eval), p.energy(energy))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if n := p.inflight.Load(); n != 0 {
					t.Errorf("%s: %d callbacks still running after return", label, n)
				}
				if peak := p.peak.Load(); peak > bound(workers) {
					t.Errorf("%s: %d evaluations and characterizations at once, bound %d", label, peak, bound(workers))
				}
				for key, n := range p.calls {
					if n > 1 {
						t.Errorf("%s: energy of %v %+v requested %d times", label, key.stage, key.cfg, n)
					}
				}
				if !reflect.DeepEqual(got, seq) {
					t.Errorf("%s: result %+v, one-slot %+v", label, got, seq)
				}
				waitGoroutines(t, base, label)
			}
		}
	}
}

// TestExplorerEnergyErrorsMatchSequential injects an energy error at each
// read point, some alongside an evaluation error, and requires every
// worker count to return the error the sequential algorithm returns, with
// no callback running and no goroutine left after return.
func TestExplorerEnergyErrorsMatchSequential(t *testing.T) {
	errEnergy := errors.New("injected energy error")
	errEval := errors.New("injected evaluation error")
	type fault struct {
		stage pantompkins.Stage
		cfg   dsp.ArithConfig
	}
	cases := []struct {
		name     string
		explore  string
		energy   fault
		evalFail func(cfg pantompkins.Config) bool
		want     error
	}{
		{name: "savings", explore: "Generate", energy: fault{pantompkins.HPF, dsp.Accurate()}, want: errEnergy},
		{name: "phase-1 hit", explore: "Generate", energy: fault{pantompkins.LPF, hitLPF}, want: errEnergy},
		{name: "phase-2 passing before phase-3 evaluation", explore: "Generate", energy: fault{pantompkins.HPF, pass2},
			evalFail: func(cfg pantompkins.Config) bool { return phaseOf(cfg) == 3 }, want: errEnergy},
		{name: "phase-3 pair", explore: "Generate", energy: fault{pantompkins.LPF, pair3}, want: errEnergy},
		{name: "bestPassing", explore: "Generate", energy: fault{pantompkins.HPF, baseHPF}, want: errEnergy},
		{name: "grid cell after grid evaluation", explore: "ExhaustiveGrid", energy: fault{pantompkins.LPF, pair3},
			evalFail: func(cfg pantompkins.Config) bool {
				return cfg.Stage[pantompkins.LPF].LSBs == 2 && cfg.Stage[pantompkins.HPF].LSBs == 2
			}, want: errEval},
		{name: "grid cell", explore: "ExhaustiveGrid", energy: fault{pantompkins.LPF, pair3}, want: errEnergy},
	}
	for _, tc := range cases {
		opt, eval, energy := readPointOptions()
		faultyEval := func(cfg pantompkins.Config) (float64, error) {
			if tc.evalFail != nil && tc.evalFail(cfg) {
				return 0, errEval
			}
			return eval(cfg)
		}
		faultyEnergy := func(s pantompkins.Stage, c dsp.ArithConfig) (float64, error) {
			if s == tc.energy.stage && c == tc.energy.cfg {
				return 0, errEnergy
			}
			return energy(s, c)
		}
		var run exploreFunc
		for _, ex := range explorers {
			if ex.name == tc.explore {
				run = ex.run
			}
		}
		for _, workers := range workerCounts {
			label := fmt.Sprintf("%s workers=%d", tc.name, workers)
			p := newProbe()
			base := runtime.NumGoroutine()
			opt.Workers = workers
			_, err := run(opt, p.eval(faultyEval), p.energy(faultyEnergy))
			if !errors.Is(err, tc.want) {
				t.Errorf("%s: error %v, want %v", label, err, tc.want)
			}
			if n := p.inflight.Load(); n != 0 {
				t.Errorf("%s: %d callbacks still running after return", label, n)
			}
			waitGoroutines(t, base, label)
		}
	}
}
