package kernel

import "github.com/xbiosip/xbiosip/internal/arith"

// This file holds the multi-stream batch layer: one compiled Chain
// evaluated over up to MaxBatch independent streams per call.
//
// Every chain strategy computes dst[i] from the delayed samples
// xs[i-lag], lag <= MaxLag, reading zero before the start of the signal
// (see Chain.Run). That locality is what makes batching trivial to keep
// bit-identical: pack each stream as [history prefix | block] regions
// back to back in one buffer and run the strategy once over the whole
// thing. Outputs at data positions only ever read the stream's own
// prefix and block — a data position sits at least MaxLag past the
// region start — so they match the stream's scalar evaluation exactly,
// for every strategy and every stream-to-region assignment. Outputs at
// prefix positions read across the region boundary into the previous
// stream's tail; they are garbage and are discarded on unpack. The
// sliding-window wiring strategy stays exact under this scheme because
// its window sum telescopes: S at any position is the plain modular sum
// of the covered lags' projection terms, regardless of what values the
// warm-up positions read.
//
// What the batch buys is dispatch amortization, not new arithmetic: one
// indirect chainFunc call (and one trip through its strategy setup) per
// round instead of per stream per sample, with the projection/LUT tables
// staying cache-resident across all lanes of the round. The per-stream
// scalar paths remain the equivalence oracle — batch_test.go sweeps
// batch-vs-scalar bit-identity over widths, ragged tails and histories
// in both compilation modes.

// MaxBatch is the widest batch one BatchChain.Run round evaluates. It
// mirrors the 64-lane word packing of the netlist activity engine: a
// round is "one word" of independent streams.
const MaxBatch = 64

// BatchIn describes one stream's slice of a batch round.
type BatchIn struct {
	// Hist holds the stream's most recent prior inputs, oldest first —
	// up to the chain's MaxLag samples matter. A shorter (or nil)
	// history is zero-filled at the front, which is exactly the state of
	// a stream younger than the chain's deepest lag.
	Hist []int64
	// Xs is the stream's input block for this round. Empty blocks are
	// legal and produce no outputs (the stream sits the round out).
	Xs []int64
	// Dst receives the stream's outputs; len(Dst) must equal len(Xs).
	Dst []int64
}

// MaxLag returns the deepest delay-line read of the chain's taps — the
// history a stream must supply for batched evaluation to continue its
// signal exactly. An empty chain reads nothing.
func (c *Chain) MaxLag() int {
	m := 0
	for i := range c.ops {
		if c.ops[i].lag > m {
			m = c.ops[i].lag
		}
	}
	return m
}

// BatchChain evaluates its Chain over many independent streams per call,
// amortizing strategy dispatch across the batch. It owns reusable packed
// scratch, so one BatchChain per caller goroutine runs allocation-free
// in steady state. Build with Chain.NewBatch.
type BatchChain struct {
	c   *Chain
	lag int
	buf []int64 // packed [prefix|block] input regions
	out []int64 // packed outputs, same geometry
}

// NewBatch returns a batch evaluator over the chain. The Chain is shared
// (it is immutable after compilation); the scratch is per-BatchChain.
func (c *Chain) NewBatch() *BatchChain {
	return &BatchChain{c: c, lag: c.MaxLag()}
}

// Run evaluates the chain for every stream of the batch: stream s reads
// its own history and block — dst[i] from xs[i-lag] with Hist supplying
// the samples before the block, zero before the stream's start — and
// writes its outputs through the same output bus slicing as Chain.Run.
// Results are bit-identical to running each stream through Chain.Run
// over its full packed signal, for any batch width and stream order.
// Run panics on more than MaxBatch streams or a Dst/Xs length mismatch.
func (b *BatchChain) Run(streams []BatchIn, outShift uint, outWidth int) {
	if len(streams) > MaxBatch {
		panic("kernel: batch exceeds MaxBatch streams")
	}
	for i := range streams {
		if len(streams[i].Dst) != len(streams[i].Xs) {
			panic("kernel: batch stream Dst/Xs length mismatch")
		}
	}
	if len(b.c.ops) == 0 {
		z := arith.ToSigned(0, outWidth)
		for i := range streams {
			dst := streams[i].Dst
			for j := range dst {
				dst[j] = z
			}
		}
		return
	}
	lag := b.lag
	total := 0
	for i := range streams {
		if len(streams[i].Xs) > 0 {
			total += lag + len(streams[i].Xs)
		}
	}
	if total == 0 {
		return
	}
	if cap(b.buf) < total {
		b.buf = make([]int64, total)
		b.out = make([]int64, total)
	}
	buf, out := b.buf[:total], b.out[:total]
	// Pack: zero-padded history prefix, then the block.
	p := 0
	for i := range streams {
		s := &streams[i]
		if len(s.Xs) == 0 {
			continue
		}
		h := s.Hist
		if len(h) > lag {
			h = h[len(h)-lag:]
		}
		for z := 0; z < lag-len(h); z++ {
			buf[p] = 0
			p++
		}
		p += copy(buf[p:], h)
		p += copy(buf[p:], s.Xs)
	}
	// One strategy call over the whole round.
	b.c.fn(b.c, out, buf, outShift, outWidth)
	// Unpack the data regions; prefix outputs are discarded.
	p = 0
	for i := range streams {
		s := &streams[i]
		if len(s.Xs) == 0 {
			continue
		}
		p += lag
		p += copy(s.Dst, out[p:p+len(s.Xs)])
	}
}
