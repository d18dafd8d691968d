package pantompkins

import (
	"fmt"

	"github.com/xbiosip/xbiosip/internal/arith/kernel"
	"github.com/xbiosip/xbiosip/internal/dsp"
)

// PipelineBatch evaluates many same-config pipelines' pending blocks as
// batch rounds: the three FIR stages run as kernel.BatchChain rounds
// over one shared compiled plan (per-stream delay lines supply the
// history, so mid-stream continuation is exact), the squarer runs as
// one slice kernel over the packed round, and the integrator slides
// per stream. Every stream's outputs are bit-identical to pushing its
// block through Pipeline.Push one sample at a time — the batch buys
// dispatch amortization, not different arithmetic — which the
// equivalence tests sweep over widths, churn and both kernel modes.
//
// A PipelineBatch owns the donor pipeline that compiled the shared
// plans plus reusable packed scratch, so one instance per draining
// goroutine runs allocation-free in steady state.
type PipelineBatch struct {
	cfg   Config
	donor *Pipeline
	lpf   *kernel.BatchChain
	hpf   *kernel.BatchChain
	der   *kernel.BatchChain

	lpfShift, hpfShift, derShift uint

	xs []int64 // widened raw samples, packed stream-major
	lp []int64 // low-passed, same geometry
	ft []int64 // filtered (HPF output), same geometry
	dv []int64 // derivative, squared in place, same geometry
	ig []int64 // integrated, same geometry

	ins  []kernel.BatchIn
	ftV  [][]int64
	igV  [][]int64
	offs []int
}

// NewPipelineBatch builds a batch evaluator for pipelines sharing p's
// configuration. p becomes the plan donor: its compiled stage chains
// are the shared batch plans (chains are immutable and stateless, so
// sharing them across streams is exact); its delay lines are never
// touched by Run.
func NewPipelineBatch(p *Pipeline) *PipelineBatch {
	return &PipelineBatch{
		cfg:      p.cfg,
		donor:    p,
		lpf:      p.lpf.Chain().NewBatch(),
		hpf:      p.hpf.Chain().NewBatch(),
		der:      p.der.Chain().NewBatch(),
		lpfShift: uint(p.lpf.OutShift()),
		hpfShift: uint(p.hpf.OutShift()),
		derShift: uint(p.der.OutShift()),
	}
}

// Run advances each pipeline by its block: pipes[i] consumes blocks[i]
// exactly as if every sample had gone through pipes[i].Push. It returns
// per-stream views of the filtered and integrated outputs (the pair the
// detector consumes), valid until the next Run. Pipes must be distinct,
// share the batch's configuration, and not be the donor; empty blocks
// are legal (the stream sits the round out). Rounds wider than
// kernel.MaxBatch are chunked internally, so any width works.
func (b *PipelineBatch) Run(pipes []*Pipeline, blocks [][]int16) (filtered, integrated [][]int64) {
	if len(pipes) != len(blocks) {
		panic("pantompkins: PipelineBatch pipes/blocks length mismatch")
	}
	total := 0
	for i, p := range pipes {
		if p.cfg != b.cfg {
			panic(fmt.Sprintf("pantompkins: PipelineBatch config mismatch: stream %d has %v, batch compiled %v",
				i, p.cfg, b.cfg))
		}
		total += len(blocks[i])
	}
	if cap(b.xs) < total {
		b.xs = make([]int64, total)
		b.lp = make([]int64, total)
		b.ft = make([]int64, total)
		b.dv = make([]int64, total)
		b.ig = make([]int64, total)
	}
	b.ftV = resizeViews(b.ftV, len(pipes))
	b.igV = resizeViews(b.igV, len(pipes))
	if cap(b.offs) < len(pipes) {
		b.offs = make([]int, len(pipes))
	}
	offs := b.offs[:len(pipes)]
	p := 0
	for i, block := range blocks {
		offs[i] = p
		for _, s := range block {
			b.xs[p] = int64(s)
			p++
		}
	}
	for off := 0; off < len(pipes); off += kernel.MaxBatch {
		end := off + kernel.MaxBatch
		if end > len(pipes) {
			end = len(pipes)
		}
		b.runChunk(pipes[off:end], blocks[off:end], offs[off:end])
	}
	for i := range pipes {
		n := len(blocks[i])
		b.ftV[i] = b.ft[offs[i] : offs[i]+n]
		b.igV[i] = b.ig[offs[i] : offs[i]+n]
	}
	return b.ftV, b.igV
}

// runChunk runs one ≤MaxBatch-wide round through the five stages.
func (b *PipelineBatch) runChunk(pipes []*Pipeline, blocks [][]int16, offs []int) {
	if cap(b.ins) < len(pipes) {
		b.ins = make([]kernel.BatchIn, len(pipes))
	}
	ins := b.ins[:len(pipes)]

	// Stage A: low pass over the widened raw samples.
	for i, p := range pipes {
		n := len(blocks[i])
		ins[i] = kernel.BatchIn{
			Hist: p.lpf.History(),
			Xs:   b.xs[offs[i] : offs[i]+n],
			Dst:  b.lp[offs[i] : offs[i]+n],
		}
	}
	b.lpf.Run(ins, b.lpfShift, dsp.SampleWidth)
	for i, p := range pipes {
		p.lpf.Advance(ins[i].Xs)
	}

	// Stage B: high pass over the low-passed block.
	for i, p := range pipes {
		n := len(blocks[i])
		ins[i] = kernel.BatchIn{
			Hist: p.hpf.History(),
			Xs:   b.lp[offs[i] : offs[i]+n],
			Dst:  b.ft[offs[i] : offs[i]+n],
		}
	}
	b.hpf.Run(ins, b.hpfShift, dsp.SampleWidth)
	for i, p := range pipes {
		p.hpf.Advance(ins[i].Xs)
	}

	// Stage C: derivative over the filtered block.
	for i, p := range pipes {
		n := len(blocks[i])
		ins[i] = kernel.BatchIn{
			Hist: p.der.History(),
			Xs:   b.ft[offs[i] : offs[i]+n],
			Dst:  b.dv[offs[i] : offs[i]+n],
		}
	}
	b.der.Run(ins, b.derShift, dsp.SampleWidth)
	for i, p := range pipes {
		p.der.Advance(ins[i].Xs)
	}

	// Stages D and E: square in place, then integrate per stream (the
	// integrator's ring continues each stream's window exactly).
	for i, p := range pipes {
		n := len(blocks[i])
		dv := b.dv[offs[i] : offs[i]+n]
		p.sqr.ProcessBlock(dv, dv)
		p.mwi.ProcessBlock(b.ig[offs[i]:offs[i]+n], dv)
	}
}

// resizeViews returns a view slice of length n, reusing v's backing
// array when it is large enough.
func resizeViews(v [][]int64, n int) [][]int64 {
	if cap(v) >= n {
		return v[:n]
	}
	return make([][]int64, n)
}
