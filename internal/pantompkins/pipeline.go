package pantompkins

import (
	"fmt"

	"github.com/xbiosip/xbiosip/internal/arith/kernel"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/ecg"
)

// Outputs holds every intermediate signal of one pipeline run; the
// two-stage quality evaluation reads Filtered (the pre-processing output
// the paper grades with PSNR/SSIM) and the detector reads Filtered plus
// Integrated.
type Outputs struct {
	LowPassed  []int64 // after stage A
	Filtered   []int64 // after stage B (the pre-processed signal)
	Derivative []int64 // after stage C
	Squared    []int64 // after stage D
	Integrated []int64 // after stage E

	raw []int64 // PushBlock's widened samples
}

// Pipeline is one instantiated Pan-Tompkins processing chain: five
// compiled stages plus their state (the three FIR delay lines and the
// integrator window). The compiled stages are immutable and safe to share
// across goroutines; Stream hands each stream its own state over them.
type Pipeline struct {
	lpf *dsp.FIR
	hpf *dsp.FIR
	der *dsp.FIR
	sqr *dsp.Squarer
	mwi *dsp.MovingSum
	xs  []int64 // RunFrom's widened-sample scratch buffer
}

// New builds the pipeline for the given per-stage approximation
// configuration.
func New(cfg Config) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lpf, err := dsp.NewFIR(LPFCoeffs, LPFShift, cfg.Stage[LPF])
	if err != nil {
		return nil, fmt.Errorf("pantompkins: LPF: %w", err)
	}
	hpf, err := dsp.NewFIR(HPFCoeffs, HPFShift, cfg.Stage[HPF])
	if err != nil {
		return nil, fmt.Errorf("pantompkins: HPF: %w", err)
	}
	der, err := dsp.NewFIR(DERCoeffs, DERShift, cfg.Stage[DER])
	if err != nil {
		return nil, fmt.Errorf("pantompkins: DER: %w", err)
	}
	sqr, err := dsp.NewSquarer(SQRShift, cfg.Stage[SQR])
	if err != nil {
		return nil, fmt.Errorf("pantompkins: SQR: %w", err)
	}
	mwi, err := dsp.NewMovingSum(MWIWindow, MWIShift, cfg.Stage[MWI])
	if err != nil {
		return nil, fmt.Errorf("pantompkins: MWI: %w", err)
	}
	return &Pipeline{lpf: lpf, hpf: hpf, der: der, sqr: sqr, mwi: mwi}, nil
}

// KernelTableBytes returns the live kernel table footprint of this design:
// the allocated bytes of every distinct product, squaring and
// chain-projection table its five compiled stages read (tables shared
// between stages — or with other designs, via the global kernel cache —
// count once), whether or not the signals have filled them yet. Exact
// stages are table-free and every AMA5 chain tap but the last reads a
// projection instead of a raw table, so the accurate pipeline reports zero and an
// approximate one mostly projections. Streams share the compiled stages,
// so the footprint does not grow with them.
func (p *Pipeline) KernelTableBytes() int64 {
	var total int64
	tabs := map[*kernel.ConstMulTable]bool{}
	var projs []kernel.ProjTable
	for _, f := range []*dsp.FIR{p.lpf, p.hpf, p.der} {
		for _, t := range f.Tables() {
			if !tabs[t] {
				tabs[t] = true
				total += t.Bytes()
			}
		}
		for _, pr := range f.ProjTables() {
			dup := false
			for _, q := range projs {
				if q.Same(pr) {
					dup = true
					break
				}
			}
			if !dup {
				projs = append(projs, pr)
				total += pr.Bytes()
			}
		}
	}
	if t := p.sqr.Table(); t != nil {
		total += t.Bytes()
	}
	return total
}

// Run processes raw ADC samples through all five stages, whole-array
// stage by stage from cleared delay lines. For sample-at-a-time
// processing of a live signal use Reset and Push, whose outputs are
// bit-identical to Run's.
func (p *Pipeline) Run(samples []int16) *Outputs {
	return p.RunInto(&Outputs{}, samples)
}

// RunInto is Run writing into out: each intermediate signal reuses the
// corresponding slice of out when its capacity suffices, so a caller
// processing many records (the evaluation loop of the design-space
// explorer) allocates the buffers once. It returns out.
func (p *Pipeline) RunInto(out *Outputs, samples []int16) *Outputs {
	return p.RunFrom(out, samples, LPF)
}

// RunFrom is RunInto resuming at stage from: the stages before it are
// skipped and their signals in out are taken as they stand, so out must
// already hold them for these samples, computed by stages configured
// exactly like this pipeline's (canonically: a stage with zero
// approximated LSBs is exact whatever its module kinds). Every stage's
// whole-array filter starts from a cleared delay line and reads only its
// input signal, so the result is bit-identical to RunInto. A design
// explorer that varies only later stages reuses the earlier outputs this
// way. The skipped stages' delay lines are left as they were, so Push
// continues a RunFrom run only when from is LPF. from >= NumStages runs
// nothing.
func (p *Pipeline) RunFrom(out *Outputs, samples []int16, from Stage) *Outputs {
	if out == nil {
		out = &Outputs{}
	}
	if from <= LPF {
		p.xs = resize(p.xs, len(samples))
		for i, s := range samples {
			p.xs[i] = int64(s)
		}
		out.LowPassed = p.lpf.FilterInto(out.LowPassed, p.xs)
	}
	if from <= HPF {
		out.Filtered = p.hpf.FilterInto(out.Filtered, out.LowPassed)
	}
	if from <= DER {
		out.Derivative = p.der.FilterInto(out.Derivative, out.Filtered)
	}
	if from <= SQR {
		out.Squared = p.sqr.FilterInto(out.Squared, out.Derivative)
	}
	if from <= MWI {
		out.Integrated = p.mwi.FilterInto(out.Integrated, out.Squared)
	}
	return out
}

// StreamSample is the per-stage output delta one Push produces: every
// stage is causal and one-in-one-out, so each raw sample yields exactly
// one new sample of every intermediate signal.
type StreamSample struct {
	LowPassed  int64
	Filtered   int64
	Derivative int64
	Squared    int64
	Integrated int64
}

// Reset clears every stage's delay line so the pipeline can start a new
// record or a fresh live stream. A freshly built pipeline is already
// reset.
func (p *Pipeline) Reset() {
	p.lpf.Reset()
	p.hpf.Reset()
	p.der.Reset()
	p.mwi.Reset()
}

// Push feeds one raw ADC sample through all five stages and returns the
// new sample of each intermediate signal. Pushing a record sample by
// sample from a reset pipeline produces bit-identical signals to Run on
// the whole record: this is the streaming entry point for near-sensor
// deployments where samples arrive one at a time.
func (p *Pipeline) Push(x int16) StreamSample {
	var s StreamSample
	s.LowPassed = p.lpf.Process(int64(x))
	s.Filtered = p.hpf.Process(s.LowPassed)
	s.Derivative = p.der.Process(s.Filtered)
	s.Squared = p.sqr.Process(s.Derivative)
	s.Integrated = p.mwi.Process(s.Squared)
	return s
}

// PushBlock continues the pipeline over a block of raw samples exactly as
// len(samples) calls of Push would, and leaves the block's signals in out
// (every field resliced to len(samples), valid until out is reused). Each
// FIR stage writes its block straight into out from its own delay line,
// so a caller advancing many streams through one Outputs allocates
// nothing once the buffers and each stream's delay lines have grown to
// its block length. It returns out.
func (p *Pipeline) PushBlock(out *Outputs, samples []int16) *Outputs {
	n := len(samples)
	out.raw = resize(out.raw, n)
	for i, s := range samples {
		out.raw[i] = int64(s)
	}
	out.LowPassed = resize(out.LowPassed, n)
	p.lpf.Block(out.LowPassed, out.raw)
	out.Filtered = resize(out.Filtered, n)
	p.hpf.Block(out.Filtered, out.LowPassed)
	out.Derivative = resize(out.Derivative, n)
	p.der.Block(out.Derivative, out.Filtered)
	out.Squared = resize(out.Squared, n)
	p.sqr.ProcessBlock(out.Squared, out.Derivative)
	out.Integrated = resize(out.Integrated, n)
	p.mwi.ProcessBlock(out.Integrated, out.Squared)
	return out
}

// resize returns a slice of length n, reusing s's backing array when it
// is large enough.
func resize(s []int64, n int) []int64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int64, n)
}

// Stream couples a pipeline state of its own with an incremental
// StreamDetector: the fully streaming form of Process. Each Push feeds
// one raw ADC sample through the five stages and the new
// filtered/integrated samples into the detector, which advances its
// thresholds and beat decisions in O(1) — the streaming path never
// rescans a record. Process runs the same detector over the whole-record
// outputs, so Finish returns the Detection Process reports for the same
// record.
type Stream struct {
	p   *Pipeline
	det *StreamDetector
}

// Stream starts a streaming detection session at fs Hz. The stream owns
// its stage state — cleared delay lines and integrator window — over p's
// compiled stages, which it shares with p and every other stream of p
// without copying; p's own state is left alone. Streams of one pipeline
// may run on different goroutines.
func (p *Pipeline) Stream(fs int) *Stream {
	own := &Pipeline{lpf: p.lpf.Clone(), hpf: p.hpf.Clone(), der: p.der.Clone(),
		sqr: p.sqr, mwi: p.mwi.Clone()}
	return &Stream{p: own, det: NewStreamDetector(fs)}
}

// Push processes one raw sample through all five stages and the
// incremental detector, returning the per-stage outputs of this sample.
func (s *Stream) Push(x int16) StreamSample {
	out := s.p.Push(x)
	s.det.Push(out.Filtered, out.Integrated)
	return out
}

// Detector exposes the incremental detector (for live beat inspection).
func (s *Stream) Detector() *StreamDetector { return s.det }

// Pipeline exposes the stream's own pipeline state, so a drain can
// advance the stream's stages a block at a time (Pipeline.PushBlock) and
// feed the block's outputs to the detector in one
// StreamDetector.PushBlock call — which is exactly equivalent to
// per-sample Push.
func (s *Stream) Pipeline() *Pipeline { return s.p }

// Restart clears the stream's stage state and the incremental detector in
// place, beginning a fresh detection session on the same hardware. The
// stage state and the detector's event buffers are kept; a detector that
// had finished learning regrows a learning window for the 2 s it
// relearns (see StreamDetector.Reset). A multiplexing service
// (internal/serve) reuses one Stream per session slot across successive
// occupants this way; after Restart the stream behaves exactly like a
// fresh Pipeline.Stream.
func (s *Stream) Restart() {
	s.p.Reset()
	s.det.Reset()
}

// Finish flushes the detector's lookahead and returns the final
// Detection; see StreamDetector.Finish.
func (s *Stream) Finish() *Detection { return s.det.Finish() }

// Result bundles a pipeline run with its detection outcome.
type Result struct {
	Outputs   *Outputs
	Detection Detection
}

// Process runs the full algorithm — five stages plus adaptive-threshold
// detection — over a record and returns all intermediate products. The
// detection runs StreamDetector's decisions over the whole filtered and
// integrated signals (see Detect).
func (p *Pipeline) Process(rec *ecg.Record) *Result {
	out := p.Run(rec.Samples)
	det := Detect(out.Filtered, out.Integrated, rec.FS)
	return &Result{Outputs: out, Detection: det}
}

// GroupDelay returns the pipeline's approximate group delay in samples
// from the raw input to the integrator output: LPF (11+1)/2-1 = 5, HPF 16,
// DER 2, MWI window/2. Detection positions are corrected by this amount
// before they are compared against raw-signal annotations.
func GroupDelay() int {
	return 5 + 16 + 2 + MWIWindow/2
}
