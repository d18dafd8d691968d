// Package core implements the XBioSiP methodology itself (paper Fig 4):
// two-stage quality-evaluation-based approximation of a bio-signal
// processing pipeline.
//
// The flow is:
//
//  1. characterise the elementary approximate module library (package
//     approx / synth);
//  2. analyse the error resilience of every application stage (package
//     experiments exposes the sweeps);
//  3. run the design generation methodology (package dse, Algorithm 1)
//     over the data pre-processing stages with a signal-quality
//     constraint (PSNR of the filtered signal);
//  4. run it again over the signal-processing stages with the final
//     application constraint (QRS peak detection accuracy), keeping the
//     pre-processing choice.
//
// Evaluating quality twice — once on the intermediate signal a physician
// may need, once on the application output — is the paper's central idea;
// Methodology.Run wires the two gates exactly that way.
//
// The two gates also shape the evaluation cost. Gate 2 holds gate 1's
// pre-processing unit fixed, and the Table 2 grid has few distinct LPFs,
// so consecutive designs mostly share a leading run of stages. The
// Evaluator simulates each record as its own sub-job through the
// whole-record pipeline path, and keeps, per pooled worker scratch and
// record, the stage outputs and PSNR/SSIM of the last design simulated
// there; the next design's simulation resumes at the first stage whose
// canonical configuration differs (bit-identical, since every stage's
// batch filter starts from a cleared delay line). That holds at most
// (concurrent evaluations) × records × 5 signals × samples × 8 B.
package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/dse"
	"github.com/xbiosip/xbiosip/internal/ecg"
	"github.com/xbiosip/xbiosip/internal/energy"
	"github.com/xbiosip/xbiosip/internal/metrics"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
	"github.com/xbiosip/xbiosip/internal/sched"
)

// Quality bundles the metrics of one evaluated configuration over the
// evaluation record set.
type Quality struct {
	// PSNR is the mean PSNR (dB) of the pre-processed (high-pass filtered)
	// signal against the accurate pipeline's output.
	PSNR float64
	// SSIM is the mean structural similarity of the same signals.
	SSIM float64
	// PeakAccuracy is the paper's final metric: the fraction of reference
	// heartbeats detected (aggregated over all records).
	PeakAccuracy float64
	// Match aggregates peak matching over all records.
	Match metrics.MatchResult
}

// DefaultPeakTolerance is the matching window (+-samples) between detected
// and reference R peaks: 150 ms at 200 Hz.
const DefaultPeakTolerance = 30

// EvalOptions tunes the evaluation engine behind an Evaluator.
type EvalOptions struct {
	// Workers is the evaluation pool size (0 = runtime.GOMAXPROCS(0)).
	// The pool serves both whole-design jobs (the explorer's candidate
	// batches) and the per-record sub-jobs a single design splits into.
	// Results are bit-identical for every value; see package sched.
	Workers int
}

// Evaluator evaluates pipeline configurations over a fixed record set,
// caching the accurate reference outputs (the "behavioral model"
// evaluation loop of the paper's tool-flow, Fig 9).
//
// Evaluate is safe for concurrent use and memoized through a two-level
// sched engine: the design-space explorer fans candidate evaluations out
// across worker goroutines, a cache-missing design additionally splits
// into one sub-job per record on the same pool, and any design revisited
// — by a later phase, a baseline, or another experiment over the same
// record set — is served from the cache instead of re-simulated.
type Evaluator struct {
	Records []*ecg.Record
	// Tolerance is the peak matching window in samples. It may be set
	// freely before the first Evaluate; the first evaluation latches it
	// (cached results are keyed on it implicitly), and any later mutation
	// makes Evaluate fail instead of silently mixing windows.
	Tolerance int

	tolOnce sync.Once
	tol     int

	refs []*metrics.SignalRef
	eng  *sched.Evaluator[Quality]

	// scratch is a free list of warm per-worker simulation state
	// (pipeline, per-record stage outputs, detector): a record evaluation
	// is allocation-free once a scratch for its configuration exists, and
	// it re-runs only the stages after the prefix it shares with the
	// record's last simulation in that scratch.
	scratch struct {
		sync.Mutex
		free []*recScratch
	}
}

// recScratch is one worker's reusable simulation state: the pipeline
// compiled for the canonical configuration cfg, the last simulation of
// every record this scratch has run, and the detector that runs the
// pantompkins.StreamDetector decisions over each whole record in place,
// reusing its trace buffers. The evaluator holds one scratch per
// concurrent record evaluation, so the simulations cost at most
// (concurrent evaluations) × records × 5 signals × samples × 8 B.
type recScratch struct {
	det  pantompkins.PeakDetector
	cfg  pantompkins.Config
	pipe *pantompkins.Pipeline
	sims []recSim // indexed by record, grown on first use
}

// recSim is the last whole-record simulation of one record in a scratch:
// the canonical configuration whose stages produced out, and the graded
// PSNR (clamped) and SSIM of out.Filtered. A later design resumes from
// the first stage where its configuration differs from cfg. ok is false
// until a simulation and its grading complete.
type recSim struct {
	cfg        pantompkins.Config
	ok         bool
	out        pantompkins.Outputs
	psnr, ssim float64
}

// recPartial is the per-record slice of a Quality record.
type recPartial struct {
	psnr, ssim float64
	match      metrics.MatchResult
}

// NewEvaluator prepares an evaluator over the given records with default
// engine options (all CPUs).
func NewEvaluator(records []*ecg.Record) (*Evaluator, error) {
	return NewEvaluatorOpts(records, EvalOptions{})
}

// NewEvaluatorOpts prepares an evaluator with explicit engine options.
func NewEvaluatorOpts(records []*ecg.Record, opts EvalOptions) (*Evaluator, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("core: evaluator needs at least one record")
	}
	e := &Evaluator{Records: records, Tolerance: DefaultPeakTolerance}
	acc, err := pantompkins.New(pantompkins.AccurateConfig())
	if err != nil {
		return nil, err
	}
	for _, rec := range records {
		out := acc.Run(rec.Samples)
		ref, err := metrics.NewSignalRef(out.Filtered, metrics.SSIMWindow)
		if err != nil {
			return nil, fmt.Errorf("core: reference for record %q: %w", rec.Name, err)
		}
		e.refs = append(e.refs, ref)
	}
	e.eng = sched.NewSharded[Quality, recPartial](opts.Workers, len(records), e.evalRecord, e.reduce)
	return e, nil
}

// Evaluations returns the number of distinct pipeline simulations
// performed (the exploration-cost unit of Fig 11); cache hits do not
// count.
func (e *Evaluator) Evaluations() int { return int(e.eng.Stats().Misses) }

// CacheStats returns the evaluation cache accounting.
func (e *Evaluator) CacheStats() sched.Stats { return e.eng.Stats() }

// Evaluate returns the (possibly cached) aggregated quality of cfg over
// every record.
func (e *Evaluator) Evaluate(cfg pantompkins.Config) (Quality, error) {
	if err := e.latchTolerance(); err != nil {
		return Quality{}, err
	}
	return e.eng.Evaluate(cfg)
}

// latchTolerance pins the matching window at the first evaluation and
// rejects later mutation: the cache cannot be invalidated, so changing
// the window mid-flight would silently mix results measured under
// different tolerances.
func (e *Evaluator) latchTolerance() error {
	e.tolOnce.Do(func() { e.tol = e.Tolerance })
	if e.Tolerance != e.tol {
		return fmt.Errorf("core: Tolerance mutated after the first Evaluate (latched %d, now %d); build a new Evaluator instead",
			e.tol, e.Tolerance)
	}
	return nil
}

// getScratch pops warm simulation state (or a fresh zero one).
func (e *Evaluator) getScratch() *recScratch {
	e.scratch.Lock()
	defer e.scratch.Unlock()
	if n := len(e.scratch.free); n > 0 {
		sc := e.scratch.free[n-1]
		e.scratch.free = e.scratch.free[:n-1]
		return sc
	}
	return &recScratch{}
}

func (e *Evaluator) putScratch(sc *recScratch) {
	e.scratch.Lock()
	defer e.scratch.Unlock()
	e.scratch.free = append(e.scratch.free, sc)
}

// evalRecord evaluates cfg on record ri — the unit of the record
// scheduling level. cfg is canonicalized first (sched.Canonical: a stage
// with zero approximated LSBs is exact whatever its module kinds), so
// designs that generate the same hardware share pipelines and stage
// outputs.
//
// The simulation resumes from the longest stage prefix cfg shares with
// the last design this scratch simulated on ri: the stages before the
// first differing one are skipped and their outputs reused (bit-identical,
// see pantompkins.Pipeline.RunFrom), and PSNR/SSIM are reused as well when
// LPF and HPF both match. Detection and peak matching always run. This
// is what makes the explorer's usual sequences cheap: gate 2 holds the
// gate-1 pre-processing unit fixed, and the Table 2 grid varies HPF
// fastest under few distinct LPFs. After warm-up (a pooled scratch
// holding cfg's pipeline exists) a record evaluation allocates nothing.
func (e *Evaluator) evalRecord(cfg pantompkins.Config, ri int) (recPartial, error) {
	sc := e.getScratch()
	defer e.putScratch(sc)
	cfg = sched.Canonical(cfg)
	if sc.pipe == nil || sc.cfg != cfg {
		p, err := pantompkins.New(cfg)
		if err != nil {
			return recPartial{}, err
		}
		sc.cfg, sc.pipe = cfg, p
	}
	if sc.sims == nil {
		sc.sims = make([]recSim, len(e.Records))
	}
	rs := &sc.sims[ri]
	from := pantompkins.LPF
	if rs.ok {
		from = resumeStage(rs.cfg, cfg)
	}
	rs.ok = false
	sc.pipe.RunFrom(&rs.out, e.Records[ri].Samples, from)
	if from <= pantompkins.HPF {
		psnr, ssim, err := e.signalQuality(ri, rs.out.Filtered)
		if err != nil {
			return recPartial{}, err
		}
		rs.psnr, rs.ssim = psnr, ssim
	}
	rs.cfg, rs.ok = cfg, true
	m, err := e.matchRecord(ri, rs.out.Filtered, rs.out.Integrated, sc)
	if err != nil {
		return recPartial{}, err
	}
	return recPartial{psnr: rs.psnr, ssim: rs.ssim, match: m}, nil
}

// resumeStage returns the first stage whose configuration differs between
// two canonical configurations, or NumStages when none does.
func resumeStage(prev, next pantompkins.Config) pantompkins.Stage {
	for _, s := range pantompkins.Stages {
		if prev.Stage[s] != next.Stage[s] {
			return s
		}
	}
	return pantompkins.NumStages
}

// signalQuality grades record ri's filtered signal against the accurate
// reference. Identical signals give +Inf PSNR; it is clamped per record
// for aggregation.
func (e *Evaluator) signalQuality(ri int, filtered []int64) (psnr, ssim float64, err error) {
	psnr, ssim, err = e.refs[ri].Quality(filtered)
	return metrics.ClampPSNR(psnr), ssim, err
}

// matchRecord runs detection over one record's filtered/integrated
// signals and matches the detected peaks against its annotations.
func (e *Evaluator) matchRecord(ri int, filtered, integrated []int64, sc *recScratch) (metrics.MatchResult, error) {
	rec := e.Records[ri]
	det := sc.det.Detect(filtered, integrated, rec.FS)
	return metrics.MatchPeaks(rec.Annotations, det.Peaks, e.tol)
}

// reduce folds the record partials — always in record order, whatever the
// worker count — into the aggregated Quality.
func (e *Evaluator) reduce(_ pantompkins.Config, parts []recPartial) (Quality, error) {
	var q Quality
	psnrSum, ssimSum := 0.0, 0.0
	for _, p := range parts {
		psnrSum += p.psnr
		ssimSum += p.ssim
		q.Match.TruePositives += p.match.TruePositives
		q.Match.FalsePositives += p.match.FalsePositives
		q.Match.FalseNegatives += p.match.FalseNegatives
	}
	q.PSNR = psnrSum / float64(len(e.Records))
	q.SSIM = ssimSum / float64(len(e.Records))
	q.PeakAccuracy = q.Match.Sensitivity()
	return q, nil
}

// Methodology wires the two-gate XBioSiP flow.
type Methodology struct {
	Eval   *Evaluator
	Energy *energy.Model
	// SignalConstraint is the pre-processing gate: minimum PSNR (dB) of
	// the filtered signal (the paper uses 15).
	SignalConstraint float64
	// FinalConstraint is the application gate: minimum peak detection
	// accuracy in [0,1] (the paper reports designs at 1.00 and 0.99).
	FinalConstraint float64
	// PreStages and ProcStages partition the pipeline into the data
	// pre-processing and signal-processing sections (paper §4).
	PreStages  []pantompkins.Stage
	ProcStages []pantompkins.Stage
	// LSB candidate lists per stage, descending. Defaults follow the
	// paper: multiples of two up to the per-stage bound.
	LSBs map[pantompkins.Stage][]int
	// Module lists, most-approximate-first. The paper's §6 evaluation
	// restricts both to a single kind (ApproxAdd5 / AppMultV1).
	Mults []approx.MultKind
	Adds  []approx.AdderKind
	// Workers is the candidate-evaluation parallelism of both gates
	// (0 = runtime.GOMAXPROCS(0), 1 = strictly sequential). The generated
	// design is identical for every value; see package sched.
	Workers int
}

// NewMethodology returns the paper's default setup: pre-processing =
// {LPF, HPF} with PSNR >= 15, signal processing = {DER, SQR, MWI} with
// 100% peak detection accuracy, ApproxAdd5 + AppMultV1 modules, LSBs in
// multiples of two up to each stage's bound.
func NewMethodology(eval *Evaluator, em *energy.Model) *Methodology {
	m := &Methodology{
		Eval:             eval,
		Energy:           em,
		SignalConstraint: 15,
		FinalConstraint:  1.0,
		PreStages:        []pantompkins.Stage{pantompkins.LPF, pantompkins.HPF},
		ProcStages:       []pantompkins.Stage{pantompkins.DER, pantompkins.SQR, pantompkins.MWI},
		LSBs:             DefaultLSBLists(),
		Mults:            []approx.MultKind{approx.AppMultV1},
		Adds:             []approx.AdderKind{approx.ApproxAdd5},
		Workers:          runtime.GOMAXPROCS(0),
	}
	return m
}

// DefaultLSBLists returns the paper's LSB candidate lists: descending
// multiples of two bounded per stage (16/16/4/8/16, paper §6).
func DefaultLSBLists() map[pantompkins.Stage][]int {
	lists := make(map[pantompkins.Stage][]int, pantompkins.NumStages)
	for _, s := range pantompkins.Stages {
		var l []int
		for k := pantompkins.MaxLSBs[s]; k >= 0; k -= 2 {
			l = append(l, k)
		}
		lists[s] = l
	}
	return lists
}

// Design is the methodology's outcome.
type Design struct {
	// Config is the final approximate bio-signal processor configuration.
	Config pantompkins.Config
	// PreConfig is the approximate pre-processing unit (gate 1 result).
	PreConfig pantompkins.Config
	// Quality is the final evaluated quality.
	Quality Quality
	// EnergyReduction is the end-to-end energy reduction vs accurate.
	EnergyReduction float64
	// PreEvaluations / ProcEvaluations count the exploration cost of each
	// gate.
	PreEvaluations  int
	ProcEvaluations int
	// PreTrace and ProcTrace record every explored candidate.
	PreTrace  []dse.Candidate
	ProcTrace []dse.Candidate
}

// Run executes both gates and returns the generated design.
func (m *Methodology) Run() (*Design, error) {
	// Resolve the documented default here: dse treats 0 as sequential,
	// this layer promises 0 = all CPUs.
	workers := m.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Gate 1: approximations in data pre-processing, judged by signal
	// PSNR.
	preOpt := dse.Options{
		Base:       pantompkins.AccurateConfig(),
		Stages:     m.PreStages,
		LSBs:       m.LSBs,
		Mults:      m.Mults,
		Adds:       m.Adds,
		Constraint: m.SignalConstraint,
		Workers:    workers,
	}
	// Gate 1 candidates must not only clear the signal-quality bar but
	// also preserve the final application quality: the paper's §6.2
	// proceeds "considering 0% quality loss during the data pre-processing
	// stage", so a pre-processing unit that already drops beats is
	// rejected here regardless of its PSNR.
	evalPSNR := func(cfg pantompkins.Config) (float64, error) {
		q, err := m.Eval.Evaluate(cfg)
		if err != nil {
			return 0, err
		}
		if q.PeakAccuracy < m.FinalConstraint {
			return math.Inf(-1), nil
		}
		return q.PSNR, nil
	}
	stageEnergy := m.Energy.StageEnergy
	pre, err := dse.Generate(preOpt, evalPSNR, stageEnergy)
	if err != nil {
		return nil, fmt.Errorf("core: pre-processing gate: %w", err)
	}

	// Gate 2: approximations in signal processing, judged by peak
	// detection accuracy, keeping the pre-processing choice.
	procOpt := dse.Options{
		Base:       pre.Config,
		Stages:     m.ProcStages,
		LSBs:       m.LSBs,
		Mults:      m.Mults,
		Adds:       m.Adds,
		Constraint: m.FinalConstraint,
		Workers:    workers,
	}
	evalAcc := func(cfg pantompkins.Config) (float64, error) {
		q, err := m.Eval.Evaluate(cfg)
		if err != nil {
			return 0, err
		}
		return q.PeakAccuracy, nil
	}
	proc, err := dse.Generate(procOpt, evalAcc, stageEnergy)
	if err != nil {
		return nil, fmt.Errorf("core: signal-processing gate: %w", err)
	}

	q, err := m.Eval.Evaluate(proc.Config)
	if err != nil {
		return nil, err
	}
	red, err := m.Energy.PipelineReduction(proc.Config)
	if err != nil {
		return nil, err
	}
	return &Design{
		Config:          proc.Config,
		PreConfig:       pre.Config,
		Quality:         q,
		EnergyReduction: red,
		PreEvaluations:  pre.Evaluations,
		ProcEvaluations: proc.Evaluations,
		PreTrace:        pre.Explored,
		ProcTrace:       proc.Explored,
	}, nil
}
