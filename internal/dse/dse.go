// Package dse implements XBioSiP's three-phase design generation
// methodology (paper Algorithm 1) together with the exhaustive grid it is
// compared against (Table 2), and the exploration-cost model behind the
// paper's Fig 11.
//
// The methodology explores, stage by stage, the number of approximated
// LSBs and the elementary adder/multiplier kinds, evaluating candidate
// designs through a caller-supplied quality function and ranking them by
// the caller-supplied stage energy model. It deliberately evaluates only a
// small number of design points (11 instead of 81 for the paper's
// pre-processing case) rather than searching for a Pareto-optimal front.
//
// Every explorer call runs on its own sched.Evaluator of Options.Workers
// slots. Candidate evaluation — a full pipeline simulation per design — is
// the dominant cost: each phase's candidate sequence is enumerated up
// front and evaluated in batches, then walked in order, so the trace, the
// evaluation count, the selected design and the error returned are those
// of the sequential algorithm for every worker count. With one slot a
// stopping scan submits one candidate per batch and evaluates only the
// traced candidates; with more, its batches of twice the slots may
// speculate past the stopping point. The engine's memoizing cache
// simulates a design revisited within a call only once.
//
// Stage energies, the second cost, are memoized per call by stage and
// canonical stage configuration, so each distinct pair is characterized at
// most once per call. A characterization starts on one of the engine's
// slots as soon as the algorithm knows it will read the value, and the
// explorer waits for it only where it reads it: phase 2's scan runs while
// the phase-1 hit is characterized, phase 3's scan while phase 2's passing
// candidates are, and each batch of reads runs Workers-wide. Reads happen
// in the sequential algorithm's order, so the first energy error it would
// meet is the one returned, and every call waits for the
// characterizations it started before it returns.
package dse

import (
	"fmt"
	"sort"
	"sync"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
	"github.com/xbiosip/xbiosip/internal/sched"
)

// EvaluateFunc returns the application quality of a full pipeline
// configuration (PSNR for the pre-processing gate, peak detection accuracy
// for the final gate — the caller chooses the metric). The explorer calls
// it from its engine's worker goroutines, so it must be deterministic and
// safe for concurrent use.
type EvaluateFunc func(cfg pantompkins.Config) (float64, error)

// StageEnergyFunc returns the per-operation energy of one stage
// configuration. An explorer asks for each stage and canonical stage
// configuration at most once per call, so the function must return the
// same value for configurations that differ only in the kinds of a stage
// with zero approximated LSBs (energy.Model does: its cache key clears
// them). Like an EvaluateFunc it runs on the engine's worker goroutines,
// so it must be deterministic and safe for concurrent use.
type StageEnergyFunc func(s pantompkins.Stage, cfg dsp.ArithConfig) (float64, error)

// Options configures one run of the design-generation methodology.
type Options struct {
	// Base is the starting pipeline configuration; stages not listed in
	// Stages keep their Base configuration throughout.
	Base pantompkins.Config
	// Stages is the StageList of Algorithm 1 (it will be sorted ascending
	// by maximum energy savings, line 3).
	Stages []pantompkins.Stage
	// LSBs lists the candidate approximated-LSB counts per stage in
	// descending order (phase 1 starts from the maximum).
	LSBs map[pantompkins.Stage][]int
	// Mults and Adds list the elementary module kinds in
	// most-approximate-first order (phase 1 order; phases 2 and 3 iterate
	// the reversed lists, "least-to-highest approximation").
	Mults []approx.MultKind
	Adds  []approx.AdderKind
	// Constraint is the quality constraint the generated design must
	// satisfy (same units as the EvaluateFunc).
	Constraint float64

	// Workers is the slot count of the call's engine (sched.New): 0
	// selects runtime.GOMAXPROCS(0). At most Workers goroutines evaluate
	// candidates or characterize stage energies at once. With one slot the
	// stopping-mode scans submit one candidate per batch, so only traced
	// candidates are evaluated; with more they submit 2×Workers and may
	// speculatively simulate designs past a phase's stopping point (the
	// results stay in the engine's cache and are not traced). The result
	// is identical for every value.
	Workers int
}

// Candidate is one evaluated design point (for exploration traces).
type Candidate struct {
	Config  pantompkins.Config
	Quality float64
	Passed  bool
	Phase   int // 1, 2 or 3 for Algorithm 1; 0 for baselines
}

// Result is the outcome of a design-space exploration.
type Result struct {
	// Config is the selected pipeline configuration.
	Config pantompkins.Config
	// Quality is the evaluated quality of Config (re-evaluated if the
	// algorithm selected component stages from different candidates).
	Quality float64
	// Evaluations counts quality evaluations performed (the paper's
	// exploration-cost unit: one evaluation simulates a full recording).
	// Speculative or cache-served evaluations of the parallel engine do
	// not change this count: it is the sequential algorithm's cost.
	Evaluations int
	// Explored traces every evaluated candidate in order.
	Explored []Candidate
}

func (o *Options) validate() error {
	if len(o.Stages) == 0 {
		return fmt.Errorf("dse: no stages to explore")
	}
	if len(o.Mults) == 0 || len(o.Adds) == 0 {
		return fmt.Errorf("dse: empty module lists")
	}
	for _, s := range o.Stages {
		if len(o.LSBs[s]) == 0 {
			return fmt.Errorf("dse: no LSB candidates for stage %v", s)
		}
		for i := 1; i < len(o.LSBs[s]); i++ {
			if o.LSBs[s][i] > o.LSBs[s][i-1] {
				return fmt.Errorf("dse: LSB list for stage %v not descending", s)
			}
		}
	}
	return nil
}

// energyKey identifies one stage energy: the stage and its canonical
// configuration (dsp.ArithConfig.Canonical).
type energyKey struct {
	stage pantompkins.Stage
	cfg   dsp.ArithConfig
}

// energyJob is one memoized stage energy; done is closed once v and err
// are final.
type energyJob struct {
	done chan struct{}
	v    float64
	err  error
}

// explorer carries the mutable state of one explorer call.
type explorer struct {
	opt    Options
	energy StageEnergyFunc
	eng    *sched.Evaluator[float64]
	chosen map[pantompkins.Stage]dsp.ArithConfig
	result Result
	// energies memoizes the call's stage energies; reads lists, in the
	// sequential algorithm's read order, the energies wanted since the
	// last settle; jobs counts the characterizations still running on
	// engine slots, which the call waits for before it returns.
	energies map[energyKey]*energyJob
	reads    []*energyJob
	jobs     sync.WaitGroup
	// scanCfgs/scanQs are the candidate-scan scratch, recycled across
	// every scan of one run — all three phases of Algorithm 1 share one
	// buffer pair instead of re-allocating per phase. The quality slice
	// scan returns aliases scanQs and is valid until the next scan call.
	scanCfgs []pantompkins.Config
	scanQs   []float64
}

// newExplorer builds the call's engine of opt.Workers slots over eval.
func newExplorer(opt Options, eval EvaluateFunc, energy StageEnergyFunc) *explorer {
	return &explorer{opt: opt, energy: energy, eng: sched.New(opt.Workers, sched.Func[float64](eval)),
		chosen: make(map[pantompkins.Stage]dsp.ArithConfig), energies: make(map[energyKey]*energyJob)}
}

// want records that the sequential algorithm reads the energy of stage s
// at configuration c at this point, and returns its memo entry. The
// first request for a key starts the characterization on one of the
// engine's worker slots. The entry's value is valid after the settle that
// reads it.
func (e *explorer) want(s pantompkins.Stage, c dsp.ArithConfig) *energyJob {
	key := energyKey{s, c.Canonical()}
	j := e.energies[key]
	if j == nil {
		j = &energyJob{done: make(chan struct{})}
		e.energies[key] = j
		e.jobs.Add(1)
		e.eng.Go(func() {
			defer e.jobs.Done()
			j.v, j.err = e.energy(s, c)
			close(j.done)
		})
	}
	e.reads = append(e.reads, j)
	return j
}

// settle reads every wanted energy in the order it was wanted, waiting
// for the ones still characterizing, and returns the first error — the
// one the sequential algorithm meets.
func (e *explorer) settle() error {
	reads := e.reads
	e.reads = e.reads[:0]
	for _, j := range reads {
		<-j.done
		if j.err != nil {
			return j.err
		}
	}
	return nil
}

// fail returns the error a return path reports for err: the first error
// among the energies the sequential algorithm would have read by now, or
// err itself.
func (e *explorer) fail(err error) error {
	if eerr := e.settle(); eerr != nil {
		return eerr
	}
	return err
}

// config materialises the pipeline configuration with the current chosen
// stage architectures plus phase-local overrides.
func (e *explorer) config(overrides map[pantompkins.Stage]dsp.ArithConfig) pantompkins.Config {
	cfg := e.opt.Base
	for s, c := range e.chosen {
		cfg.Stage[s] = c
	}
	for s, c := range overrides {
		cfg.Stage[s] = c
	}
	return cfg
}

// scanMode states when an ordered candidate scan stops.
type scanMode int

const (
	scanAll    scanMode = iota // evaluate and trace every candidate
	stopOnPass                 // stop at the first constraint-satisfying candidate
	stopOnFail                 // stop at the first violating candidate
)

// scan evaluates the candidate overrides in order, tracing each under the
// given phase, until the mode's stopping condition fires (the stopping
// candidate is traced too). It returns the traced qualities and the index
// the scan stopped at (-1 if it ran through). scanAll mode has no stopping
// condition, so its whole list goes out as one batch; the stopping modes
// go out one candidate at a time on a one-slot engine and in chunks of
// twice the worker count otherwise, which bounds the speculation past the
// stopping point. Results past it are cached but not traced, so the trace
// is identical to a sequential scan. So is error behaviour: a failed batch
// is replayed in order from the cache, and only an error the sequential
// walk would have reached (no stop before it) propagates.
func (e *explorer) scan(cands []map[pantompkins.Stage]dsp.ArithConfig, phase int, mode scanMode) ([]float64, int, error) {
	if cap(e.scanCfgs) < len(cands) {
		e.scanCfgs = make([]pantompkins.Config, len(cands))
	}
	cfgs := e.scanCfgs[:len(cands)]
	for i, ov := range cands {
		cfgs[i] = e.config(ov)
	}
	chunk := len(cfgs)
	if mode != scanAll {
		chunk = 1
		if w := e.eng.Workers(); w > 1 {
			chunk = 2 * w
		}
	}
	if cap(e.scanQs) < len(cfgs) {
		e.scanQs = make([]float64, 0, len(cfgs))
	}
	qs := e.scanQs[:0]
	// step traces one candidate and reports whether the scan stops here.
	step := func(idx int, q float64) bool {
		passed := q >= e.opt.Constraint
		e.result.Evaluations++
		e.result.Explored = append(e.result.Explored, Candidate{Config: cfgs[idx], Quality: q, Passed: passed, Phase: phase})
		qs = append(qs, q)
		return (mode == stopOnPass && passed) || (mode == stopOnFail && !passed)
	}
	for lo := 0; lo < len(cfgs); lo += chunk {
		hi := min(lo+chunk, len(cfgs))
		batch, err := e.eng.EvaluateBatch(cfgs[lo:hi])
		if err != nil {
			// The batch error may come from a candidate the sequential
			// algorithm never reaches (past the stopping point). Replay
			// the chunk in order against the cache so only sequentially
			// reachable errors propagate.
			for idx := lo; idx < hi; idx++ {
				q, err := e.eng.Evaluate(cfgs[idx])
				if err != nil {
					return nil, 0, err
				}
				if step(idx, q) {
					return qs, idx, nil
				}
			}
			continue
		}
		for i, q := range batch {
			if step(lo+i, q) {
				return qs, lo + i, nil
			}
		}
	}
	return qs, -1, nil
}

// override builds a single-stage override map.
func override(s pantompkins.Stage, c dsp.ArithConfig) map[pantompkins.Stage]dsp.ArithConfig {
	return map[pantompkins.Stage]dsp.ArithConfig{s: c}
}

// Generate runs the three-phase design generation methodology (paper
// Algorithm 1) and returns the selected configuration. Candidate
// evaluations and stage-energy characterizations run on the call's engine
// of Options.Workers slots; the outcome is identical to the sequential
// algorithm's in every field, errors included, for every worker count.
func Generate(opt Options, eval EvaluateFunc, energy StageEnergyFunc) (Result, error) {
	if err := opt.validate(); err != nil {
		return Result{}, err
	}
	e := newExplorer(opt, eval, energy)
	defer e.jobs.Wait()

	// Line 3: sort the stage list ascending by maximum energy savings:
	// accurate energy divided by the energy at maximum approximation.
	stages := append([]pantompkins.Stage(nil), opt.Stages...)
	accurate := make([]*energyJob, len(stages))
	most := make([]*energyJob, len(stages))
	for i, s := range stages {
		accurate[i] = e.want(s, dsp.Accurate())
		most[i] = e.want(s, dsp.ArithConfig{LSBs: opt.LSBs[s][0], Add: opt.Adds[0], Mul: opt.Mults[0]})
	}
	if err := e.settle(); err != nil {
		return Result{}, err
	}
	savings := make(map[pantompkins.Stage]float64, len(stages))
	for i, s := range stages {
		savings[s] = 1e18
		if most[i].v > 0 {
			savings[s] = accurate[i].v / most[i].v
		}
	}
	sort.SliceStable(stages, func(i, j int) bool { return savings[stages[i]] < savings[stages[j]] })

	// A scored candidate's energy is valid once a settle has read it.
	type scored struct {
		cfg    dsp.ArithConfig
		energy *energyJob
	}
	best := func(cands []scored) (dsp.ArithConfig, bool) {
		found := false
		var bc dsp.ArithConfig
		be := 0.0
		for _, c := range cands {
			if !found || c.energy.v < be {
				bc, be, found = c.cfg, c.energy.v, true
			}
		}
		return bc, found
	}

	// Phase 1 (lines 4-16): first stage, from maximum approximation down,
	// accept the first design that satisfies the constraint.
	first := stages[0]
	var arch1 []dsp.ArithConfig
	var cands1 []map[pantompkins.Stage]dsp.ArithConfig
	for _, lsb := range opt.LSBs[first] {
		for _, mul := range opt.Mults {
			for _, add := range opt.Adds {
				cand := dsp.ArithConfig{LSBs: lsb, Add: add, Mul: mul}
				arch1 = append(arch1, cand)
				cands1 = append(cands1, override(first, cand))
			}
		}
	}
	_, hit, err := e.scan(cands1, 1, stopOnPass)
	if err != nil {
		return Result{}, err
	}
	if hit >= 0 {
		// Best over the single hit is the hit whatever its energy, so it
		// is chosen now and its energy is read with phase 2's, after
		// phase 2's scan.
		e.want(first, arch1[hit])
		e.chosen[first] = arch1[hit]
	}

	// Phases 2 and 3 (lines 17-51) repeat for every remaining stage.
	for i := 1; i < len(stages); i++ {
		cur := stages[i]
		prev := stages[i-1]

		// Phase 2: iterate the reversed lists (least-to-highest
		// approximation), storing designs while the constraint holds.
		var arch2 []dsp.ArithConfig
		var cands2 []map[pantompkins.Stage]dsp.ArithConfig
		for li := len(opt.LSBs[cur]) - 1; li >= 0; li-- {
			lsb := opt.LSBs[cur][li]
			for mi := len(opt.Mults) - 1; mi >= 0; mi-- {
				for ai := len(opt.Adds) - 1; ai >= 0; ai-- {
					cand := dsp.ArithConfig{LSBs: lsb, Add: opt.Adds[ai], Mul: opt.Mults[mi]}
					arch2 = append(arch2, cand)
					cands2 = append(cands2, override(cur, cand))
				}
			}
		}
		_, fail, err := e.scan(cands2, 2, stopOnFail)
		if err != nil {
			return Result{}, e.fail(err)
		}
		passing := len(arch2)
		if fail >= 0 {
			passing = fail // candidates before the first failure passed
		}
		var stage2 []scored
		for _, cand := range arch2[:passing] {
			stage2 = append(stage2, scored{cand, e.want(cur, cand)})
		}

		// Phase 3: diagonal traversal — trade LSBs from the previous
		// stage to the current one, two at a time. (The published
		// pseudo-code recomputes LSB1/LSB2 from the stored architecture
		// each iteration, which would not advance; we walk the diagonal
		// progressively, which is the evident intent.)
		// The whole diagonal is evaluated unconditionally, so it is one
		// scanAll batch. It depends on LSB counts only, so it runs while
		// phase 2's energies are characterized.
		k1 := e.chosen[prev].LSBs
		k2 := 0
		if passing > 0 {
			k2 = arch2[passing-1].LSBs
		}
		maxK2 := opt.LSBs[cur][0]
		var stage1 []scored
		if c, ok := e.chosen[prev]; ok {
			stage1 = append(stage1, scored{c, e.want(prev, c)})
		}
		type pair struct{ c1, c2 dsp.ArithConfig }
		var pairs []pair
		var cands3 []map[pantompkins.Stage]dsp.ArithConfig
		for k1 >= 2 && k2+2 <= maxK2 {
			k1 -= 2
			k2 += 2
			for _, mul := range opt.Mults {
				for _, add := range opt.Adds {
					c1 := dsp.ArithConfig{LSBs: k1, Add: add, Mul: mul}
					c2 := dsp.ArithConfig{LSBs: k2, Add: add, Mul: mul}
					pairs = append(pairs, pair{c1, c2})
					cands3 = append(cands3, map[pantompkins.Stage]dsp.ArithConfig{prev: c1, cur: c2})
				}
			}
		}
		qs, _, err := e.scan(cands3, 3, scanAll)
		if err != nil {
			return Result{}, e.fail(err)
		}
		for pi, q := range qs {
			if q < opt.Constraint {
				continue
			}
			stage1 = append(stage1, scored{pairs[pi].c1, e.want(prev, pairs[pi].c1)})
			stage2 = append(stage2, scored{pairs[pi].c2, e.want(cur, pairs[pi].c2)})
		}
		if err := e.settle(); err != nil {
			return Result{}, err
		}

		// Lines 47-48: keep the lowest-energy architecture per array.
		if c, ok := best(stage2); ok {
			e.chosen[cur] = c
		}
		if c, ok := best(stage1); ok {
			e.chosen[prev] = c
		}
	}
	// A single-stage run reads the phase-1 hit's energy here.
	if err := e.settle(); err != nil {
		return Result{}, err
	}

	// Final verification of the selected configuration. The published
	// pseudo-code picks Best(Stage1) and Best(Stage2) independently, which
	// can combine stage choices that were only quality-checked as part of
	// different pairs; when that combination misses the constraint we fall
	// back to the lowest-energy candidate that actually passed evaluation.
	final := e.config(nil)
	q, err := e.eng.Evaluate(final)
	if err != nil {
		return Result{}, err
	}
	if q < opt.Constraint {
		if cand, cq, ok, err := e.bestPassing(); err != nil {
			return Result{}, err
		} else if ok {
			final, q = cand, cq
		}
	}
	e.result.Config = final
	e.result.Quality = q
	return e.result, nil
}

// bestPassing returns the explored passing candidate with the lowest total
// energy over the explored stages.
func (e *explorer) bestPassing() (pantompkins.Config, float64, bool, error) {
	var energies []*energyJob
	for _, c := range e.result.Explored {
		if c.Passed {
			for _, s := range e.opt.Stages {
				energies = append(energies, e.want(s, c.Config.Stage[s]))
			}
		}
	}
	if err := e.settle(); err != nil {
		return pantompkins.Config{}, 0, false, err
	}
	found := false
	var bestCfg pantompkins.Config
	bestQ, bestE := 0.0, 0.0
	for _, c := range e.result.Explored {
		if !c.Passed {
			continue
		}
		total := 0.0
		for range e.opt.Stages {
			total += energies[0].v
			energies = energies[1:]
		}
		if !found || total < bestE {
			found = true
			bestCfg, bestQ, bestE = c.Config, c.Quality, total
		}
	}
	return bestCfg, bestQ, found, nil
}
