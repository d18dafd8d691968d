package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"
	"sync"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith/kernel"
	"github.com/xbiosip/xbiosip/internal/core"
	"github.com/xbiosip/xbiosip/internal/dse"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/ecg"
	"github.com/xbiosip/xbiosip/internal/energy"
	"github.com/xbiosip/xbiosip/internal/metrics"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
	"github.com/xbiosip/xbiosip/internal/sched"
)

// The design-flow workloads. Op i runs on input set i mod sets (explore-
// cold walks the four gates within each set first), so every run cycles
// through the same seed-drawn inputs in the same order and the median of
// a run covers the whole input mix.
const (
	flowSets      = 16 // input sets per run (4 under -short)
	flowRecords   = 2
	flowSamples   = 20000
	determinismOp = 3 // ops re-run sequentially by verify
)

// gate is one explore-cold constraint pair: the PSNR gate in dB and the
// accuracy loss allowed relative to the accurate pipeline on the same
// records. An absolute accuracy gate would let many record sets
// degenerate to the accurate design.
type gate struct {
	psnr, loss float64
}

var gates = [4]gate{{15, 0}, {20, 0}, {15, 0.01}, {20, 0.01}}

// flowSet is one op's input: fresh NSRDB-like records drawn from the seed.
type flowSet struct {
	recs []*ecg.Record
	acc  float64 // accurate pipeline's peak accuracy (explore-cold only)
	refs []*metrics.SignalRef
}

// makeSet draws input set j of seed. Its records take the NSRDB-like
// subject profiles 2j and 2j+1 (mod 18) and seed-drawn generator seeds, so
// every seed runs the same mix of heart rates, amplitudes and noise levels
// over fresh beats and noise.
func makeSet(seed uint64, j int) (*flowSet, error) {
	rng := rand.New(rand.NewPCG(seed, uint64(j)))
	s := &flowSet{}
	for r := 0; r < flowRecords; r++ {
		subject := (flowRecords*j + r) % ecg.NumNSRDBRecords
		cfg, err := ecg.NSRDBConfig(subject)
		if err != nil {
			return nil, err
		}
		cfg.Seed = rng.Int64()
		rec, err := cfg.Generate(fmt.Sprintf("set%02d/nsrdb-like-%02d", j, subject), flowSamples)
		if err != nil {
			return nil, err
		}
		s.recs = append(s.recs, rec)
	}
	return s, nil
}

// references returns the accurate SignalRefs the traced replay grades
// against, building them on first use.
func (s *flowSet) references() ([]*metrics.SignalRef, error) {
	if s.refs != nil {
		return s.refs, nil
	}
	acc, err := pantompkins.New(pantompkins.AccurateConfig())
	if err != nil {
		return nil, err
	}
	for _, rec := range s.recs {
		ref, err := metrics.NewSignalRef(acc.Run(rec.Samples).Filtered, metrics.SSIMWindow)
		if err != nil {
			return nil, err
		}
		s.refs = append(s.refs, ref)
	}
	return s.refs, nil
}

// flowFixture runs explore-cold (grid false) or grid-warm (grid true).
type flowFixture struct {
	e    *env
	name string
	grid bool
	sets []*flowSet
	em   *energy.Model

	// Per-op state, set by prepare and run.
	ev      *core.Evaluator
	design  *core.Design
	points  []dse.GridPoint
	kstat0  kernel.Stats
	estat0  energy.Stats
	digests map[int]string

	// noted records the quality of every design a traced op evaluated, so
	// the replay can re-run exactly those designs.
	mu    sync.Mutex
	noted map[pantompkins.Config]core.Quality

	// Sums over traced ops of the per-op counters.
	tracedOps                                   int
	candidates, sims, memoHits, memoAll         float64
	charBuilds, charHits, charAll, tables, kibs float64
}

func setupExplore(e *env) (fixture, error) { return setupFlow(e, "explore-cold", false) }
func setupGrid(e *env) (fixture, error)    { return setupFlow(e, "grid-warm", true) }

func setupFlow(e *env, name string, grid bool) (fixture, error) {
	f := &flowFixture{e: e, name: name, grid: grid, digests: map[int]string{}}
	n := flowSets
	if e.short {
		n = 4
	}
	for j := 0; j < n; j++ {
		var s *flowSet
		err := e.timed("ecg.generate_ms", func() (err error) {
			s, err = makeSet(e.seed, j)
			return err
		})
		if err != nil {
			return nil, err
		}
		if !grid {
			var ev *core.Evaluator
			if err := e.timed("core.new_evaluator_ms", func() (err error) {
				ev, err = newEvaluator(s.recs)
				return err
			}); err != nil {
				return nil, err
			}
			q, err := ev.Evaluate(pantompkins.AccurateConfig())
			if err != nil {
				return nil, err
			}
			s.acc = q.PeakAccuracy
		}
		f.sets = append(f.sets, s)
	}
	var stim *energy.Stimulus
	if err := e.timed("energy.new_stimulus_ms", func() (err error) {
		stim, err = energy.NewStimulus(f.sets[0].recs[0])
		return err
	}); err != nil {
		return nil, err
	}
	f.em = energy.NewModel(stim)
	if grid {
		// One grid builds every kernel table and energy characterization
		// the timed grids use.
		if err := e.timed("core.new_evaluator_ms", func() (err error) {
			f.ev, err = newEvaluator(f.sets[0].recs)
			return err
		}); err != nil {
			return nil, err
		}
		if _, err := f.exhaustiveGrid(workers); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// newEvaluator builds a fresh evaluator. It runs record shards inline
// (Workers 1): core.Evaluator has no Close, so a pool per fresh evaluator
// would outlive its op. The explorer's own workers give the parallelism.
func newEvaluator(recs []*ecg.Record) (*core.Evaluator, error) {
	return core.NewEvaluatorOpts(recs, core.EvalOptions{Workers: 1})
}

func (f *flowFixture) set(i int) *flowSet {
	if f.grid {
		return f.sets[i%len(f.sets)]
	}
	return f.sets[i/len(gates)%len(f.sets)]
}

// key names op i's input in the golden file.
func (f *flowFixture) key(i int) string {
	if f.grid {
		return fmt.Sprintf("s%02d", i%len(f.sets))
	}
	return fmt.Sprintf("s%02dg%d", i/len(gates)%len(f.sets), i%len(gates))
}

func (f *flowFixture) methodology(i int, ev *core.Evaluator, w int) *core.Methodology {
	g := gates[i%len(gates)]
	m := core.NewMethodology(ev, f.em)
	m.SignalConstraint = g.psnr
	m.FinalConstraint = f.set(i).acc * (1 - g.loss)
	m.Workers = w
	return m
}

func (f *flowFixture) prepare(i int) error {
	ev, err := newEvaluator(f.set(i).recs)
	if err != nil {
		return err
	}
	f.ev = ev
	if !f.grid {
		// A fresh xbiosip dse starts with empty process-wide caches.
		kernel.DropCaches()
		energy.DropCaches()
	}
	if f.e.tr.traced() {
		f.noted = map[pantompkins.Config]core.Quality{}
		f.kstat0, f.estat0 = kernel.CacheStats(), energy.CacheStats()
	}
	return nil
}

func (f *flowFixture) run(i int) error {
	var err error
	switch {
	case f.grid:
		f.points, err = f.exhaustiveGrid(workers)
	case f.e.tr.traced():
		f.design, err = f.tracedMethodology(f.methodology(i, f.ev, workers))
	default:
		f.design, err = f.methodology(i, f.ev, workers).Run()
	}
	return err
}

// exhaustiveGrid runs the Table 2 grid on f.ev with w explorer workers.
func (f *flowFixture) exhaustiveGrid(w int) ([]dse.GridPoint, error) {
	tr := f.e.tr
	opt := dse.Options{
		Base:       pantompkins.AccurateConfig(),
		Stages:     []pantompkins.Stage{pantompkins.LPF, pantompkins.HPF},
		LSBs:       core.DefaultLSBLists(),
		Mults:      []approx.MultKind{approx.AppMultV1},
		Adds:       []approx.AdderKind{approx.ApproxAdd5},
		Constraint: 15,
		Workers:    w,
	}
	id := tr.begin("dse.ExhaustiveGrid", 0)
	defer tr.end(id)
	return dse.ExhaustiveGrid(opt, pantompkins.LPF, pantompkins.HPF,
		f.evalFunc(id, func(q core.Quality) float64 { return q.PSNR }), f.energyFunc(id))
}

// evalFunc is the explorer's quality callback: Evaluate on the op's
// evaluator under a core.Evaluate span, reduced to one number by pick.
func (f *flowFixture) evalFunc(parent int32, pick func(core.Quality) float64) dse.EvaluateFunc {
	return func(cfg pantompkins.Config) (float64, error) {
		q, err := f.evaluate(parent, cfg)
		if err != nil {
			return 0, err
		}
		return pick(q), nil
	}
}

func (f *flowFixture) evaluate(parent int32, cfg pantompkins.Config) (core.Quality, error) {
	id := f.e.tr.begin("core.Evaluate", parent)
	q, err := f.ev.Evaluate(cfg)
	f.e.tr.end(id)
	if err == nil && id != 0 {
		f.mu.Lock()
		f.noted[sched.Canonical(cfg)] = q
		f.mu.Unlock()
	}
	return q, err
}

func (f *flowFixture) energyFunc(parent int32) dse.StageEnergyFunc {
	return func(s pantompkins.Stage, cfg dsp.ArithConfig) (float64, error) {
		id := f.e.tr.begin("energy.StageEnergy", parent)
		defer f.e.tr.end(id)
		return f.em.StageEnergy(s, cfg)
	}
}

// tracedMethodology is core.Methodology.Run with a span around every call
// it makes into dse, core and energy. The determinism check in verify
// re-runs traced ops through Methodology.Run itself and requires the same
// design, so this copy cannot drift from it unnoticed.
func (f *flowFixture) tracedMethodology(m *core.Methodology) (*core.Design, error) {
	tr := f.e.tr
	root := tr.begin("core.Methodology.Run", 0)
	defer tr.end(root)
	opt := func(base pantompkins.Config, stages []pantompkins.Stage, constraint float64) dse.Options {
		return dse.Options{Base: base, Stages: stages, LSBs: m.LSBs, Mults: m.Mults, Adds: m.Adds,
			Constraint: constraint, Workers: m.Workers}
	}
	gen := func(o dse.Options, pick func(core.Quality) float64) (dse.Result, error) {
		id := tr.begin("dse.Generate", root)
		defer tr.end(id)
		return dse.Generate(o, f.evalFunc(id, pick), f.energyFunc(id))
	}
	pre, err := gen(opt(pantompkins.AccurateConfig(), m.PreStages, m.SignalConstraint), func(q core.Quality) float64 {
		if q.PeakAccuracy < m.FinalConstraint {
			return math.Inf(-1)
		}
		return q.PSNR
	})
	if err != nil {
		return nil, fmt.Errorf("pre-processing gate: %w", err)
	}
	proc, err := gen(opt(pre.Config, m.ProcStages, m.FinalConstraint), func(q core.Quality) float64 { return q.PeakAccuracy })
	if err != nil {
		return nil, fmt.Errorf("signal-processing gate: %w", err)
	}
	q, err := f.evaluate(root, proc.Config)
	if err != nil {
		return nil, err
	}
	id := tr.begin("energy.PipelineReduction", root)
	red, err := m.Energy.PipelineReduction(proc.Config)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return &core.Design{
		Config: proc.Config, PreConfig: pre.Config, Quality: q, EnergyReduction: red,
		PreEvaluations: pre.Evaluations, ProcEvaluations: proc.Evaluations,
		PreTrace: pre.Explored, ProcTrace: proc.Explored,
	}, nil
}

func (f *flowFixture) finish(i int) error {
	var d string
	if f.grid {
		d = gridDigest(f.points)
	} else {
		d = designDigest(f.design)
	}
	f.digests[i] = d
	var golden error
	if f.e.seed == 1 && !f.e.updating {
		if want, ok := goldenDigests[f.name+" "+f.key(i)]; !ok {
			golden = fmt.Errorf("no golden digest for %s %s", f.name, f.key(i))
		} else if d != want {
			golden = fmt.Errorf("%s: digest %s, golden %s", f.key(i), d, want)
		}
	}
	if !f.e.tr.traced() {
		return golden
	}
	return errors.Join(golden, f.account(i))
}

// account adds traced op i's counters to the sums and replays it.
func (f *flowFixture) account(i int) error {
	f.tracedOps++
	if f.grid {
		f.candidates += float64(len(f.points))
	} else {
		f.candidates += float64(len(f.design.PreTrace) + len(f.design.ProcTrace))
	}
	st := f.ev.CacheStats()
	f.sims += float64(st.Misses)
	f.memoHits += float64(st.Hits)
	f.memoAll += float64(st.Hits + st.Misses)
	ks, es := kernel.CacheStats(), energy.CacheStats()
	f.tables += float64(ks.ConstTables + ks.SquareTables + ks.ChainProjs -
		f.kstat0.ConstTables - f.kstat0.SquareTables - f.kstat0.ChainProjs)
	f.kibs += float64(ks.TableBytes-f.kstat0.TableBytes) / 1024
	f.charBuilds += float64(es.Misses - f.estat0.Misses)
	f.charHits += float64(es.Hits - f.estat0.Hits)
	f.charAll += float64(es.Hits + es.Misses - f.estat0.Hits - f.estat0.Misses)
	if len(f.noted) != int(st.Misses) {
		return fmt.Errorf("%d distinct designs evaluated, evaluator simulated %d", len(f.noted), st.Misses)
	}
	return f.replay(i)
}

// replay re-runs, on one goroutine, every design op i simulated, one layer
// call at a time under its own span, and checks that the peak matching
// totals equal what Evaluate reported. explore-cold replays from empty
// kernel caches, as its op ran; grid-warm keeps them warm, as its op did.
func (f *flowFixture) replay(i int) error {
	s := f.set(i)
	refs, err := s.references()
	if err != nil {
		return err
	}
	cfgs := make([]pantompkins.Config, 0, len(f.noted))
	for cfg := range f.noted {
		cfgs = append(cfgs, cfg)
	}
	sort.Slice(cfgs, func(a, b int) bool { return fmt.Sprint(cfgs[a]) < fmt.Sprint(cfgs[b]) })

	tr := f.e.tr
	root := tr.begin("replay", 0)
	defer tr.end(root)
	if !f.grid {
		kernel.DropCaches()
	}
	var out pantompkins.Outputs
	det := pantompkins.NewStreamDetector(s.recs[0].FS)
	var whole pantompkins.PeakDetector
	for _, cfg := range cfgs {
		id := tr.begin("pantompkins.New", root)
		p, err := pantompkins.New(cfg)
		tr.end(id)
		if err != nil {
			return err
		}
		var match metrics.MatchResult
		for ri, rec := range s.recs {
			id = tr.begin("pantompkins.RunInto", root)
			p.RunInto(&out, rec.Samples)
			tr.end(id)

			id = tr.begin("pantompkins.StreamDetector", root)
			det.Reset()
			for k := range out.Filtered {
				det.Push(out.Filtered[k], out.Integrated[k])
			}
			peaks := det.Finish().Peaks
			tr.end(id)

			// Evaluate still runs the whole-record detector; timing it too
			// lets the replay account for Evaluate's time.
			id = tr.begin("pantompkins.PeakDetector.Detect", root)
			whole.Detect(out.Filtered, out.Integrated, rec.FS)
			tr.end(id)

			id = tr.begin("metrics.SignalRef.Quality", root)
			_, _, err := refs[ri].Quality(out.Filtered)
			tr.end(id)
			if err != nil {
				return err
			}

			id = tr.begin("metrics.MatchPeaks", root)
			m, err := metrics.MatchPeaks(rec.Annotations, peaks, core.DefaultPeakTolerance)
			tr.end(id)
			if err != nil {
				return err
			}
			match.TruePositives += m.TruePositives
			match.FalsePositives += m.FalsePositives
			match.FalseNegatives += m.FalseNegatives
		}
		if want := f.noted[cfg].Match; match != want {
			return fmt.Errorf("replay of %v matched %+v, Evaluate reported %+v", cfg, match, want)
		}
	}
	return nil
}

// verify re-runs the first ops sequentially (one explorer worker) on fresh
// evaluators; the generated designs and grids must not change.
func (f *flowFixture) verify(ops int) error {
	for i := 0; i < min(determinismOp, ops); i++ {
		ev, err := newEvaluator(f.set(i).recs)
		if err != nil {
			return err
		}
		f.ev = ev
		var d string
		if f.grid {
			pts, err := f.exhaustiveGrid(1)
			if err != nil {
				return err
			}
			d = gridDigest(pts)
		} else {
			design, err := f.methodology(i, ev, 1).Run()
			if err != nil {
				return err
			}
			d = designDigest(design)
		}
		if d != f.digests[i] {
			return fmt.Errorf("op %d (%s) is not deterministic: %s with 1 worker, %s with %d", i, f.key(i), d, f.digests[i], workers)
		}
	}
	return nil
}

func (f *flowFixture) layers(m map[string]float64, _ []float64) {
	tr, n := f.e.tr, float64(max(f.tracedOps, 1))
	m["dse.self_ms"] = tr.selfPerOp("dse.Generate") + tr.selfPerOp("dse.ExhaustiveGrid")
	m["dse.candidates"] = f.candidates / n
	m["dse.useful_ratio"] = ratio(f.candidates, f.sims)
	eval := tr.perOp("core.Evaluate")
	m["core.evaluate_ms"] = eval
	m["core.evaluate_calls"] = tr.count("core.Evaluate") / n
	m["core.simulations"] = f.sims / n
	m["core.memo_hit_ratio"] = ratio(f.memoHits, f.memoAll)
	m["energy.stage_energy_ms"] = tr.perOp("energy.StageEnergy") + tr.perOp("energy.PipelineReduction")
	m["energy.stage_energy_calls"] = (tr.count("energy.StageEnergy") + tr.count("energy.PipelineReduction")) / n
	m["energy.char_builds"] = f.charBuilds / n
	m["energy.char_hit_ratio"] = ratio(f.charHits, f.charAll)
	m["kernel.tables_built"] = f.tables / n
	m["kernel.table_kib"] = f.kibs / n
	for name, metric := range map[string]string{
		"pantompkins.New":                 "kernel.build_ms",
		"pantompkins.RunInto":             "pantompkins.run_ms",
		"pantompkins.StreamDetector":      "pantompkins.detect_ms",
		"pantompkins.PeakDetector.Detect": "pantompkins.peak_detect_ms",
		"metrics.SignalRef.Quality":       "metrics.quality_ms",
		"metrics.MatchPeaks":              "metrics.match_ms",
	} {
		m[metric] = tr.perOp(name)
	}
	// The layers Evaluate runs today, so PeakDetector rather than the
	// StreamDetector that is meant to replace it.
	replay := m["kernel.build_ms"] + m["pantompkins.run_ms"] + m["pantompkins.peak_detect_ms"] +
		m["metrics.quality_ms"] + m["metrics.match_ms"]
	m["core.attribution_ratio"] = ratio(replay, eval)
}

func (f *flowFixture) samplesPerOp() float64 { return 0 }
func (f *flowFixture) close()                {}

func (f *flowFixture) digestsByKey() map[string]string {
	out := map[string]string{}
	for i, d := range f.digests {
		out[f.key(i)] = d
	}
	return out
}

// designDigest hashes everything a generated design reports: the chosen
// configurations, their quality and energy, and both exploration traces.
func designDigest(d *core.Design) string {
	h := fnv.New64a()
	q := d.Quality
	fmt.Fprintf(h, "%v|%v|%x|%x|%x|%+v|%x|%d|%d\n", d.Config.Stage, d.PreConfig.Stage,
		math.Float64bits(q.PSNR), math.Float64bits(q.SSIM), math.Float64bits(q.PeakAccuracy), q.Match,
		math.Float64bits(d.EnergyReduction), d.PreEvaluations, d.ProcEvaluations)
	for _, tr := range [][]dse.Candidate{d.PreTrace, d.ProcTrace} {
		for _, c := range tr {
			fmt.Fprintf(h, "%v|%x|%t|%d\n", c.Config.Stage, math.Float64bits(c.Quality), c.Passed, c.Phase)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// gridDigest hashes every grid point's LSBs, PSNR and energy.
func gridDigest(pts []dse.GridPoint) string {
	h := fnv.New64a()
	for _, p := range pts {
		fmt.Fprintf(h, "%d|%d|%x|%x|%t\n", p.K1, p.K2, math.Float64bits(p.Quality), math.Float64bits(p.Energy), p.Passed)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
