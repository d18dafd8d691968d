// Package dsp provides the approximate fixed-point DSP building blocks the
// Pan-Tompkins stages are assembled from: a direct-form FIR filter, a
// moving-window integrator and a squarer, all parameterised by the number
// of approximated LSBs and the elementary adder/multiplier kinds
// (paper §4.2). Every arithmetic operation is evaluated bit-true through
// compiled word-parallel kernels (package arith/kernel) that are
// equivalence-tested against the bit-serial behavioural models of package
// oracle, so the output equals what the generated hardware computes. The
// package tests check every FIR and integrator entry point against the
// oracle's tap-chain and slot-order window folds.
//
// Each stage compiles its arithmetic once and keeps it immutable; its only
// state is its delay line. A FIR evaluates through one chain kernel
// whether it runs a whole record (FilterInto) or a stream's next block
// (Block, and Process as a one-sample block): its delay line is one
// linear window that each block is appended to and the chain runs over.
// The integrator runs every entry point through its adder's window
// strategy: FilterInto is a reset and one block, Process a one-sample
// block, and its delay line carries one running-sum word. Clone gives
// another stream its own delay line over the same compiled stage.
package dsp

import (
	"fmt"
	"unsafe"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
	"github.com/xbiosip/xbiosip/internal/arith/kernel"
)

// overlaps reports whether two slices share any backing memory. The
// whole-signal paths read input samples after earlier output indices
// were written, so overlapping buffers must be split.
func overlaps(a, b []int64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	a0 := uintptr(unsafe.Pointer(&a[0]))
	a1 := a0 + uintptr(len(a))*unsafe.Sizeof(int64(0))
	b0 := uintptr(unsafe.Pointer(&b[0]))
	b1 := b0 + uintptr(len(b))*unsafe.Sizeof(int64(0))
	return a0 < b1 && b0 < a1
}

// ArithConfig selects the approximation of one processing stage: the
// number of approximated LSBs and the elementary cells used there. The
// zero value (0 LSBs) is the accurate configuration.
type ArithConfig struct {
	LSBs int
	Add  approx.AdderKind
	Mul  approx.MultKind
}

// Accurate returns the exact configuration.
func Accurate() ArithConfig { return ArithConfig{} }

// Canonical returns the configuration with its dead parameters cleared:
// with zero approximated LSBs the arithmetic is exact whatever the
// elementary kinds, so every spelling of an accurate stage maps to
// Accurate(). Caches key stages on it.
func (c ArithConfig) Canonical() ArithConfig {
	if c.LSBs == 0 {
		return ArithConfig{}
	}
	return c
}

// String renders the configuration compactly, e.g. "k=8/ApproxAdd5/AppMultV1".
func (c ArithConfig) String() string {
	return fmt.Sprintf("k=%d/%v/%v", c.LSBs, c.Add, c.Mul)
}

// SampleWidth is the ADC word width the pipeline processes (paper §3).
const SampleWidth = 16

// AccWidth is the accumulator/adder width of the processing units
// (the paper synthesises 32-bit adders and 16x16 multipliers, §5).
const AccWidth = 32

// FIR is a direct-form FIR filter with constant integer coefficients. Each
// tap multiplies through a bit-true approximate multiplier and the
// products accumulate through an approximate ripple-carry adder chain in
// tap order, exactly mirroring the generated stage netlist: negative
// coefficients subtract their product magnitude.
//
// The taps compile once into a kernel.Chain, and every entry point
// evaluates through it from a history of the tap count: Block runs the
// stream's window, Process is a one-sample Block, and FilterInto runs a
// whole record's first positions as one Block from a cleared window and
// the rest over the record itself. The chain is immutable, so the
// filter's only state is its delay line, and Clone hands a stream its own
// delay line over the same chain.
type FIR struct {
	n        int // taps, and the history length of the window
	chain    *kernel.Chain
	outShift uint
	// win is the delay line, one linear window: win[fill-n:fill] holds the
	// last n inputs oldest first (zeros before the first input), and a
	// block is appended at win[fill:]. Block moves the history to the
	// front when a block does not fit, so its copies are the block itself
	// and, once per fill, n samples.
	win  []int64
	fill int
	// out is Process's destination. Chain.Run's dst escapes through the
	// strategy's func value, so a local array would be allocated per call.
	out [1]int64
}

// NewFIR builds the filter. outShift is the right shift applied to the
// accumulator before the result is sliced back to SampleWidth bits.
func NewFIR(coeffs []int64, outShift int, cfg ArithConfig) (*FIR, error) {
	if len(coeffs) == 0 {
		return nil, fmt.Errorf("dsp: FIR needs at least one coefficient")
	}
	if outShift < 0 || outShift >= AccWidth {
		return nil, fmt.Errorf("dsp: FIR output shift %d out of range", outShift)
	}
	mult := arith.Multiplier{Width: SampleWidth, ApproxLSBs: cfg.LSBs, Mult: cfg.Mul, Add: cfg.Add}
	if err := mult.Validate(); err != nil {
		return nil, err
	}
	adder, err := kernel.CachedAdder(arith.Adder{Width: AccWidth, ApproxLSBs: cfg.LSBs, Kind: cfg.Add})
	if err != nil {
		return nil, err
	}
	chainOps := make([]kernel.ChainOp, 0, len(coeffs))
	for i, c := range coeffs {
		if c == 0 {
			continue
		}
		mag := c
		if mag < 0 {
			mag = -mag
		}
		chainOps = append(chainOps, kernel.ChainOp{Coeff: mag, Lag: i, Sub: c < 0})
	}
	chain, err := adder.NewChain(mult, chainOps)
	if err != nil {
		return nil, err
	}
	f := &FIR{n: len(coeffs), chain: chain, outShift: uint(outShift)}
	return f.Clone(), nil
}

// Clone returns a filter over f's compiled taps with a cleared delay line
// of its own. The taps are shared, not copied: they are immutable, so
// clones may run on different goroutines. The window starts with room
// for n more inputs, so per-sample Process moves its history once every
// n samples.
func (f *FIR) Clone() *FIR {
	return &FIR{n: f.n, chain: f.chain, outShift: f.outShift, win: make([]int64, 2*f.n), fill: f.n}
}

// Tables returns the distinct raw product tables the filter's chain
// materialized: every tap's for the generic chain, only the last tap's
// for an AMA5 chain (its other taps read projections, see ProjTables),
// none for an exact chain — the honest footprint,
// mirroring kernel.CacheStats. Their Bytes are allocated bytes: a full
// table is allocated whole and filled as the filter's inputs reach new
// magnitudes.
func (f *FIR) Tables() []*kernel.ConstMulTable { return f.chain.RawTables() }

// ProjTables returns the distinct chain projection tables the filter's
// chain consumes (see kernel.Chain.ProjTables).
func (f *FIR) ProjTables() []kernel.ProjTable { return f.chain.ProjTables() }

// Reset clears the delay line.
func (f *FIR) Reset() {
	f.fill = f.n
	clear(f.win[:f.n])
}

// Process consumes one SampleWidth-bit sample and produces one output
// sample (sign-extended from the hardware's output slice): a one-sample
// Block.
func (f *FIR) Process(x int64) int64 {
	v := [1]int64{x}
	f.Block(f.out[:], v[:])
	return f.out[0]
}

// Block continues the filter over a block of inputs, writing one output
// per input to dst[:len(xs)] exactly as len(xs) calls of Process would;
// dst may alias xs. It appends the block to the window and runs the chain
// from the history length straight into dst. A block that does not fit
// moves the history to the front first; only a block longer than any
// before grows the window, to the history plus the block.
func (f *FIR) Block(dst, xs []int64) {
	n := f.n
	if f.fill+len(xs) > len(f.win) {
		w := f.win
		if n+len(xs) > len(w) {
			w = make([]int64, n+len(xs))
		}
		copy(w, f.win[f.fill-n:f.fill])
		f.win, f.fill = w, n
	}
	end := f.fill + len(xs)
	if len(xs) == 1 {
		// Process's sample: a store, where copy would call memmove.
		f.win[f.fill] = xs[0]
	} else {
		copy(f.win[f.fill:], xs)
	}
	f.chain.Run(dst, f.win[f.fill-n:end], n, f.outShift, SampleWidth)
	f.fill = end
}

// FilterInto runs the filter over a whole signal from a cleared delay
// line, writing into dst, which is grown only when its capacity is
// insufficient — the path for callers that run many records without
// per-record allocation. It returns the output slice. The record's first
// n positions (n the tap count) run as one Block from the cleared window,
// which has room for them; the chain then runs the rest over the record
// itself, whose first n samples are their history. The delay line is
// left exactly as if the signal had been streamed, so Process or Block
// may continue where the record ended.
func (f *FIR) FilterInto(dst, xs []int64) []int64 {
	dst = resize(dst, len(xs))
	if overlaps(dst, xs) {
		// The chain reads delayed samples after their output index was
		// written; overlapping buffers must split.
		dst = make([]int64, len(xs))
	}
	n := f.n
	f.Reset()
	if len(xs) <= n {
		f.Block(dst, xs)
		return dst
	}
	f.Block(dst[:n], xs[:n])
	f.chain.Run(dst[n:], xs, n, f.outShift, SampleWidth)
	copy(f.win, xs[len(xs)-n:])
	f.fill = n
	return dst
}

// resize returns a slice of length n, reusing s's backing array when it is
// large enough.
func resize(s []int64, n int) []int64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int64, n)
}

// MovingSum is the moving-window integration stage: a Window-deep delay
// line accumulated by a chain of approximate adders each sample, matching
// the stage netlist ("composed solely of adder blocks", paper §4.2). Its
// input is the squarer's full 32-bit product — keeping the beat's energy
// envelope in the accumulator's upper bits is what gives this stage its
// extreme error resilience (paper §4.2 tolerates 16 approximated LSBs).
//
// The window chains its ring slots in slot order through the adder's
// compiled window strategy (kernel.Adder.Slide), shared by every clone:
// a running sum for the exact and AMA5 adders, the per-sample re-fold
// for the others. The integrator's only state is the slot ring, the
// cursor and the strategy's running-sum word.
type MovingSum struct {
	adder    *kernel.Adder
	outShift int
	ring     []int64
	pos      int
	sum      uint64
}

// NewMovingSum builds the integrator with the given window length.
func NewMovingSum(window, outShift int, cfg ArithConfig) (*MovingSum, error) {
	if window < 2 {
		return nil, fmt.Errorf("dsp: moving-sum window %d too small", window)
	}
	if outShift < 0 || outShift >= AccWidth {
		return nil, fmt.Errorf("dsp: moving-sum output shift %d out of range", outShift)
	}
	adder, err := kernel.CachedAdder(arith.Adder{Width: AccWidth, ApproxLSBs: cfg.LSBs, Kind: cfg.Add})
	if err != nil {
		return nil, err
	}
	return &MovingSum{adder: adder, outShift: outShift, ring: make([]int64, window)}, nil
}

// Clone returns an integrator over m's compiled adder with a cleared
// window of its own; clones may run on different goroutines.
func (m *MovingSum) Clone() *MovingSum {
	return &MovingSum{adder: m.adder, outShift: m.outShift, ring: make([]int64, len(m.ring))}
}

// Reset clears the window and its running sum.
func (m *MovingSum) Reset() {
	clear(m.ring)
	m.pos, m.sum = 0, 0
}

// Process consumes one sample and returns the windowed sum, shifted and
// sliced like the hardware output bus: a one-sample ProcessBlock.
func (m *MovingSum) Process(x int64) int64 {
	v := [1]int64{x}
	m.ProcessBlock(v[:], v[:])
	return v[0]
}

// ProcessBlock feeds a block through the integrator from its current
// window, writing one output per input into dst (len(dst) must be at
// least len(xs); dst may alias xs index for index) exactly as len(xs)
// calls of Process would. Each sample costs O(1) for the exact and
// AMA5 adders and a fold of the window for the others.
func (m *MovingSum) ProcessBlock(dst, xs []int64) {
	m.pos, m.sum = m.adder.Slide(dst, xs, m.ring, m.pos, m.sum, uint(m.outShift), AccWidth-m.outShift)
}

// FilterInto runs the integrator over a whole signal, writing into dst
// (grown only when needed): a cleared window followed by ProcessBlock
// over the record.
func (m *MovingSum) FilterInto(dst, xs []int64) []int64 {
	m.Reset()
	dst = resize(dst, len(xs))
	if overlaps(dst, xs) {
		// An output write would clobber a later input; overlapping
		// buffers must split.
		dst = make([]int64, len(xs))
	}
	m.ProcessBlock(dst, xs)
	return dst
}

// Squarer is the point-by-point squaring stage (one 16x16 multiplier,
// paper §3 stage D). The full 32-bit product feeds the integrator, shifted
// right by outShift (0 in the reference pipeline).
type Squarer struct {
	tab      *kernel.SquareTable
	outShift int
}

// NewSquarer builds the squarer.
func NewSquarer(outShift int, cfg ArithConfig) (*Squarer, error) {
	if outShift < 0 || outShift >= 2*SampleWidth {
		return nil, fmt.Errorf("dsp: squarer output shift %d out of range", outShift)
	}
	mult := arith.Multiplier{Width: SampleWidth, ApproxLSBs: cfg.LSBs, Mult: cfg.Mul, Add: cfg.Add}
	tab, err := kernel.CachedSquareTable(mult)
	if err != nil {
		return nil, err
	}
	return &Squarer{tab: tab, outShift: outShift}, nil
}

// Table returns the squaring table, so callers can account the design's
// kernel table footprint (exact configurations are table-free: 0 bytes).
func (s *Squarer) Table() *kernel.SquareTable { return s.tab }

// Process squares one sample.
func (s *Squarer) Process(x int64) int64 {
	return s.tab.Square(x) >> uint(s.outShift)
}

// ProcessBlock squares a block into dst (len(dst) must be at least
// len(xs); dst may alias xs index-for-index).
func (s *Squarer) ProcessBlock(dst, xs []int64) {
	s.tab.SquareSlice(dst[:len(xs)], xs, uint(s.outShift))
}

// FilterInto squares a whole signal into dst (grown only when needed).
func (s *Squarer) FilterInto(dst, xs []int64) []int64 {
	dst = resize(dst, len(xs))
	if overlaps(dst, xs) && &dst[0] != &xs[0] {
		// A same-index transform tolerates identical buffers but not
		// offset overlap (an output write would clobber a later input).
		dst = make([]int64, len(xs))
	}
	s.tab.SquareSlice(dst, xs, uint(s.outShift))
	return dst
}
