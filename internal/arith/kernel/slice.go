package kernel

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
)

// This file holds the chain kernels: a FIR's signed accumulation datapath
// evaluated over a span of sample positions per call (the integrator's
// window strategies live in window.go).
//
// A Chain runs a FIR's complete per-sample product accumulation — every
// tap's table lookup and the adder's closed form inlined, the accumulator
// held in a register — as one call per span of positions. There are three
// strategies, one per class of traffic (see "Fast strategies for the
// traffic that exists" in the package documentation):
//
//   - the fused exact MAC (macChain): an exact adder over exact in-range
//     products, every k = 0 FIR of the paper's designs;
//   - the AMA5 chains (ama5Chain, and slidingAMA5 for the high-pass
//     shape): an AMA5 adder with k > 0 over more than one tap, design
//     B9's LPF, HPF and DER;
//   - the generic chain (chunkChain) for every other configuration: it
//     folds each tap through the adder's approximate region, 8 cells per
//     chunk-LUT lookup, or natively at k = 0.
//
// The fused MAC and the AMA5 chains evaluate a span long enough to repay
// a few calls tap-major: the AMA5 chains from passMin positions, the MAC
// from macPassMin, or from its recurrence's minSpan. Their per-tap terms
// are a modular sum, so dst serves as the accumulator and each tap, or
// pair of MAC taps, is one pass over the span whose loop keeps its few
// values in registers (see termPass and macPass); a last pass slices the
// span. A shorter span runs sample-major: one loop over the positions,
// each folding every tap.
//
// The slicing loops the paper's designs run over many positions — those
// last passes and the integrator's running sums (window.go) — compute the
// output slicing's shifts once per call (see sliceShifts); finish stays
// the definition, the general path and the slicing of the short spans
// and the generic chain.
//
// Every strategy reads position i's taps at xs[i-lag] with no test: Run
// starts past the chain's deepest tap lag, so xs[:from] is the history
// every position reads. A strategy writes position i to dst[i-from]. Its
// sample-major loops count positions: one over dst indices keeps one more
// value live, which spills the running sum of a loop over the taps on
// every tap.
//
// Chains also own the decision of which product representations exist at
// all: a tap an AMA5 chain reads only through a projection never
// materializes its 2^Width raw product table (NewChain builds the
// projection straight from the compiled multiplier plan), so a design
// keeps just its AMA5 chains' last-tap raw tables.
//
// Every chain and window strategy is bit-identical to folding the
// corresponding scalar operations; slice_test.go checks all cell kinds
// against the fold through the bit-serial arith models.

// ChainOp describes one tap of an accumulation chain: the fixed signed
// coefficient of the tap's product, the delay-line age of the sample it
// consumes, and whether the product is subtracted through the adder
// datapath (a negative filter coefficient).
type ChainOp struct {
	Coeff int64
	Lag   int
	Sub   bool
}

// ProjTable is one cached AMA5 chain projection (see newChainProj):
// entry x holds a tap's whole upper-slice term. Entries are stored as
// uint16 when a bound proves every term fits (see projFits16), halving
// the footprint per chain polarity, and uint32 otherwise. Exactly one
// tier is set. The AMA5 loops and passes split their taps by tier
// (projTaps), and the sliding window is stenciled per tier, so no loop
// tests it. The entries fill on demand, when the Run of a chain reading
// the table reaches new operand magnitudes.
type ProjTable struct {
	u16 []uint16
	u32 []uint32
	cov *coverage
}

// valid reports whether the handle references a table at all.
func (p ProjTable) valid() bool { return p.u16 != nil || p.u32 != nil }

// Bytes returns the allocated storage of the projection in bytes, filled
// or not.
func (p ProjTable) Bytes() int64 { return int64(len(p.u16))*2 + int64(len(p.u32))*4 }

// Same reports whether two handles reference one cached table (pointer
// identity, the key callers dedup footprint accounting by).
func (p ProjTable) Same(q ProjTable) bool {
	if p.u16 != nil || q.u16 != nil {
		return p.u16 != nil && q.u16 != nil && &p.u16[0] == &q.u16[0]
	}
	return p.u32 != nil && q.u32 != nil && &p.u32[0] == &q.u32[0]
}

// chainOp is the compiled form of one tap. The product is evaluated
// through the fastest available projection of its table, most specific
// first: proj is the AMA5 upper-slice projection (one load + one add per
// tap, see ama5Chain), tab32 the full table inline, mul the fallback
// closure (table-free exact tier, int64 tables). tab is the raw-table
// handle for footprint accounting (nil for projected taps, whose raw
// tables are never built). neg is the subtract flag lowered to the
// operand XOR mask / carry-in the strategy loops consume branch-free.
type chainOp struct {
	proj  ProjTable
	tab32 []int32
	mul   func(int64) int64
	tab   *ConstMulTable
	mask  uint64
	neg   uint64 // 0 for add, ^0 for subtract (operand inversion + carry)
	lag   int
}

// macTap is one tap of the fused exact-MAC strategy: the signed
// coefficient and the lag, packed tight so the loop over the taps
// stays within a cache line or two.
type macTap struct {
	c   int64
	lag int
}

// projTap is one projected tap in the compact form the AMA5 strategies
// read: its lag and its projection entries, 32 bytes instead of a
// chainOp's 120.
type projTap[T uint16 | uint32] struct {
	lag int
	tab []T
}

// projTaps are projected taps split by projection tier, so that each
// loop or pass reads one entry width with no per-tap tier branch.
type projTaps struct {
	p16 []projTap[uint16]
	p32 []projTap[uint32]
}

func (t *projTaps) add(op *chainOp) {
	if op.proj.u16 != nil {
		t.p16 = append(t.p16, projTap[uint16]{op.lag, op.proj.u16})
	} else {
		t.p32 = append(t.p32, projTap[uint32]{op.lag, op.proj.u32})
	}
}

// sum adds the taps' terms at position i.
func (t *projTaps) sum(xs []int64, i int, m uint64) uint64 {
	var u uint64
	for _, p := range t.p16 {
		u += uint64(p.tab[uint64(xs[i-p.lag])&m])
	}
	for _, p := range t.p32 {
		u += uint64(p.tab[uint64(xs[i-p.lag])&m])
	}
	return u
}

// passMin is the shortest span of positions the AMA5 strategies
// evaluate in passes; a shorter one, such as the single
// position of a FIR.Process sample, runs their sample-major loop. Each
// pass costs a call and a reload of the span, which a few positions do
// not repay: in a sweep of FIR.Block calls of 1 to 8 positions over
// B9's LPF, HPF and DER, passes were faster from 4 positions on, and
// slower on the LPF and the DER below that.
const passMin = 4

// macPassMin is the shortest span the fused MAC evaluates in passes over
// its direct taps; a recurrence over their difference takes passes from
// its own minSpan on (see macChain), and a shorter span runs the direct
// loop. In sweeps of FIR.Block calls of 1 to 8 positions over the exact
// LPF, HPF and DER, passes over the DER's 4 direct taps were faster than
// the direct loop from 6 positions on; the HPF's recurrence was faster
// from its minSpan (2 positions), and the LPF's was even with the direct
// loop from its minSpan (5) and faster from 7.
const macPassMin = 6

// addTo adds the taps' terms at positions from..from+len(d)-1 of xs to
// d, one pass per tap. With set, the first pass writes d instead of
// adding.
func (t *projTaps) addTo(d, xs []int64, from int, m uint64, set bool) {
	for _, p := range t.p16 {
		termPass(d, xs[from-p.lag:], p.tab, m, set)
		set = false
	}
	for _, p := range t.p32 {
		termPass(d, xs[from-p.lag:], p.tab, m, set)
		set = false
	}
}

// termPass adds the term tab[x&m] of each xs[i] to d[i], i < len(d), or
// writes it with set. Terms are modular sums, so the order of a span's
// passes changes no bit, and one tap's loop keeps its few live values in
// registers where a sample-major loop over all taps spills its sum and
// cursors on every tap.
//
//go:noinline
func termPass[T uint16 | uint32](d, xs []int64, tab []T, m uint64, set bool) {
	xs = xs[:len(d)]
	_ = tab[m] // every index x&m is at most m: no bounds check in the loops
	if set {
		for i, x := range xs {
			d[i] = int64(tab[uint64(x)&m])
		}
		return
	}
	for i, x := range xs {
		d[i] += int64(tab[uint64(x)&m])
	}
}

// subPass subtracts the term tab[x&m] of each xs[i] from d[i],
// i < len(d): the majority-table term a sliding window's correction tap
// replaces (see slidingAMA5).
//
//go:noinline
func subPass[T uint16 | uint32](d, xs []int64, tab []T, m uint64) {
	xs = xs[:len(d)]
	_ = tab[m]
	for i, x := range xs {
		d[i] -= int64(tab[uint64(x)&m])
	}
}

// slidePass writes the sliding window's sum at each position of d. S is
// the window at the position before d[0]; at position i the term of
// enter[i] enters and that of leave[i] leaves.
//
//go:noinline
func slidePass[T uint16 | uint32](d, enter, leave []int64, tab []T, m, S uint64) {
	enter, leave = enter[:len(d)], leave[:len(d)]
	_ = tab[m]
	for i := range d {
		S += uint64(tab[uint64(enter[i])&m]) - uint64(tab[uint64(leave[i])&m])
		d[i] = int64(S)
	}
}

// finishPass is the last pass of the AMA5 strategies: d holds the sum u
// of the projected terms at positions from..from+len(d)-1 of xs, and the
// pass adds the last tap's raw product ub through the AMA5 closed form
// (see ama5Chain) and slices the accumulator with the shifts of
// sliceShifts.
//
// The closed form (ub&mk | (u + ub>>k)<<k) & mW is ub + u<<k in its low
// w bits, and the slicing reads only those, so the pass masks nothing.
// When the slice lies inside the accumulator, the loop shifts u left by
// multiplying with 2^k, since an amd64 shift by a variable count ties up
// the count register: with fewer live values it runs in registers. Other
// slicings, or a last tap without an int32 table, take a loop through
// finish.
//
//go:noinline
func finishPass(d, xs []int64, from int, op *chainOp, w, k int, outShift uint, outWidth int) {
	ku, neg := uint(k), op.neg
	xs = xs[from-op.lag:][:len(d)]
	pl, r, inside := sliceShifts(w, outShift, outWidth)
	if tab, m := op.tab32, op.mask; tab != nil && inside {
		pk := uint64(1) << ku // u<<k
		r &= 63               // no change to r, but the loop then shifts with no range check
		_ = tab[m]
		for i, x := range xs {
			d[i] = int64(((uint64(tab[uint64(x)&m])^neg)+uint64(d[i])*pk)*pl) >> r
		}
		return
	}
	for i, x := range xs {
		d[i] = finish((uint64(op.at(x))^neg)+uint64(d[i])<<ku, w, outShift, outWidth)
	}
}

// chainFunc evaluates a compiled chain at positions from..len(xs)-1 into
// dst[:len(xs)-from], which is all of dst (see Chain.Run).
type chainFunc func(c *Chain, dst, xs []int64, from int, outShift uint, outWidth int)

// Chain is a compiled accumulation chain: the full per-sample fold of a
// FIR's tap products through one adder, with the adder's closed form
// inlined per tap, evaluated sample-major or, for the AMA5 strategies
// and the fused MAC over a long enough span, in passes over the taps.
// Build chains with Adder.NewChain.
// A Chain is immutable apart from its fill bound and holds no signal
// state, so one Chain serves any number of streams on any number of
// goroutines.
type Chain struct {
	ad    *Adder
	ops   []chainOp
	fn    chainFunc
	fused bool // the chain compiled to the native multiply-accumulate loop
	// covs are the coverages of the distinct on-demand tables the
	// strategy reads, and bound the smallest of their bounds when Run
	// last grew them: a lower bound on each, since bounds only grow, so
	// Run compares one word per call.
	covs  []*coverage
	bound atomic.Uint64
}

// NewChain compiles the accumulation chain of the given taps, all
// multiplying through spec. The first tap starts each sample's chain (its
// product is copied, or subtracted from zero, rather than added), exactly
// like the scalar accumulation.
//
// It picks one of three strategies. A fully exact chain (exact adder,
// exact multiplier plan, every coefficient in range) collapses to native
// multiply-accumulate: the sliced product of a Width-bit operand with
// |c| < 2^(Width-1) is the plain integer product, and native accumulation
// is associative modulo the accumulator width, so the whole chain is one
// MAC loop — bit-identical and table-free — or, when the coefficients'
// first or second difference is sparser, a recurrence over it (see
// macChain). An AMA5 chain of k > 0 and more than one tap gives every tap
// but the last a projection table, so the per-tap term (ub >> k) + carry
// collapses to one load (see ama5Chain and newChainProj), and runs the
// high-pass shape as a sliding window (slidingAMA5). Every other chain
// runs the generic chunkChain over full product tables.
//
// The fused MAC and the AMA5 strategies read compact per-tap arrays
// built here. They run a span of at least passMin positions (AMA5) or
// macPassMin, or the recurrence's minSpan (MAC), in passes, one per tap
// or pair of taps; a shorter span runs sample-major.
//
// Raw product tables materialize only for the taps the chosen strategy
// reads products from — every tap of the generic chain, just the last
// tap of an AMA5 chain, none of a fused one.
func (ad *Adder) NewChain(spec arith.Multiplier, ops []ChainOp) (*Chain, error) {
	c := &Chain{ad: ad}
	if len(ops) == 0 {
		c.fn = emptyChain
		return c, nil
	}
	m, err := CachedMultiplier(spec)
	if err != nil {
		return nil, err
	}
	c.ops = make([]chainOp, 0, len(ops))
	mac := ad.exact
	for _, op := range ops {
		co := chainOp{mask: m.opMask, lag: op.Lag}
		if op.Sub {
			co.neg = ^uint64(0)
		}
		if !m.exact || op.Coeff < 0 || op.Coeff >= int64(1)<<(spec.Width-1) {
			mac = false
		}
		c.ops = append(c.ops, co)
	}
	if mac {
		taps := make([]macTap, len(ops))
		for o, op := range ops {
			taps[o] = macTap{c: op.Coeff, lag: op.Lag}
			if op.Sub {
				taps[o].c = -op.Coeff
			}
		}
		c.fn = macChain(ad.spec.Width, taps)
		c.fused = true
		return c, nil
	}
	w, k := ad.spec.Width, effectiveLSBs(ad.spec)
	last := len(c.ops) - 1
	// AMA5 keeps the last operand's low region, so it reads that tap raw.
	ama5 := k > 0 && ad.spec.Kind == approx.ApproxAdd5 && last != 0
	for o := range c.ops {
		op := &c.ops[o]
		if ama5 && o != last {
			op.proj = cachedChainProj(m, ops[o].Coeff, w, k, op.neg != 0)
			continue
		}
		t, err := CachedConstMulTable(spec, ops[o].Coeff)
		if err != nil {
			return nil, err
		}
		op.tab, op.tab32, op.mul = t, t.tab32, t.fn
	}
	for o := range c.ops {
		cv := c.ops[o].proj.cov
		if t := c.ops[o].tab; t != nil {
			cv = t.cov
		}
		if cv != nil && !slices.Contains(c.covs, cv) {
			c.covs = append(c.covs, cv)
		}
	}
	if !ama5 {
		c.fn = chunkChain(w, k, ad.spec.Kind, last != 0)
	} else if plan, ok := slidePlanFor(c); ok {
		c.fn = slidingWiring(w, k, plan, c.ops)
	} else {
		c.fn = ama5Chain(w, k, c.ops)
	}
	if c.covs != nil {
		c.fn = coverFirst(c.fn)
	}
	return c, nil
}

// coverFirst wraps the strategy of a chain that reads on-demand tables:
// before it evaluates, it fills them over the largest |x| of xs[from:]
// (see Run). Chains without such tables run their strategy directly.
func coverFirst(run chainFunc) chainFunc {
	return func(c *Chain, dst, xs []int64, from int, outShift uint, outWidth int) {
		if mag := maxMagnitude(xs[from:]); mag >= c.bound.Load() {
			c.cover(mag)
		}
		run(c, dst, xs, from, outShift, outWidth)
	}
}

// slidePlan drives the sliding-window evaluation of an AMA5 chain's
// projected taps. The projected per-tap terms form a plain modular sum,
// so taps that share one projection table over a contiguous lag range
// collapse to an O(1) sliding window per sample (add the entering term,
// drop the leaving one), with the few differing taps corrected
// individually — the 32-tap high-pass shape goes from 31 projection loads
// per sample to two window updates plus one correction.
type slidePlan struct {
	tab  ProjTable // majority projection table
	mask uint64
	a, b int   // contiguous lag range the window covers
	corr []int // op indices inside [a..b] projecting through another table
}

// slidePlanFor inspects an AMA5 chain's projected taps, every tap but
// the last, and builds the sliding plan when it pays: at least eight
// projected taps, one per consecutive lag, at most a quarter of them
// differing from the majority table.
func slidePlanFor(c *Chain) (slidePlan, bool) {
	n := len(c.ops) - 1
	if n < 8 {
		return slidePlan{}, false
	}
	// One projected tap per consecutive lag (every tap shares the
	// multiplier's operand mask). The majority table is found by linear
	// scans over the handful of distinct projections (a chain has one
	// table per distinct coefficient polarity), keeping construction
	// allocation-light.
	var distinct [8]ProjTable
	var counts [8]int
	nd := 0
	for o := range n {
		op := &c.ops[o]
		if op.lag != c.ops[0].lag+o {
			return slidePlan{}, false
		}
		found := false
		for d := 0; d < nd; d++ {
			if distinct[d].Same(op.proj) {
				counts[d]++
				found = true
				break
			}
		}
		if !found {
			if nd == len(distinct) {
				return slidePlan{}, false // more tables than any FIR shape uses
			}
			distinct[nd] = op.proj
			counts[nd] = 1
			nd++
		}
	}
	best := 0
	for d := 1; d < nd; d++ {
		if counts[d] > counts[best] {
			best = d
		}
	}
	if corr := n - counts[best]; corr > n/4 {
		return slidePlan{}, false
	}
	plan := slidePlan{tab: distinct[best], mask: c.ops[0].mask, a: c.ops[0].lag, b: c.ops[n-1].lag}
	for o := range n {
		if !c.ops[o].proj.Same(plan.tab) {
			plan.corr = append(plan.corr, o)
		}
	}
	return plan, true
}

// slidingWiring picks slidingAMA5's stencil for the majority table's
// entry width, so the uint16 tier costs no per-sample branch on the
// window loads.
func slidingWiring(w, k int, plan slidePlan, ops []chainOp) chainFunc {
	if plan.tab.u16 != nil {
		return slidingAMA5(w, k, plan, plan.tab.u16, ops)
	}
	return slidingAMA5(w, k, plan, plan.tab.u32, ops)
}

// slidingAMA5 is ama5Chain with the projected taps evaluated through the
// sliding window of a slidePlan; bit-identical because the projected
// terms sum in plain modular arithmetic (see ama5Chain for the closed
// form and newChainProj for the terms). The window, the correction taps
// (in compact form, plus the majority terms they replace) and the last
// tap read their samples directly: the window's seed reads back to lag
// b+1, which Run's start past the deepest tap lag covers.
//
// A span of at least passMin positions runs in passes over dst: the
// window is one pass that carries S and writes it at every position,
// each correction tap adds its terms in one pass and subtracts the
// majority terms it replaces in another, and finishPass applies the last
// tap. A shorter span runs the sample-major loop.
//
//go:noinline
func slidingAMA5[T uint16 | uint32](w, k int, plan slidePlan, tab []T, ops []chainOp) chainFunc {
	mW := mask(w)
	mk := mask(k)
	ku := uint(k)
	tm, a, b := plan.mask, plan.a, plan.b
	var corr projTaps
	corrLags := make([]int, len(plan.corr))
	for n, o := range plan.corr {
		corr.add(&ops[o])
		corrLags[n] = ops[o].lag
	}
	opL := &ops[len(ops)-1]
	return func(c *Chain, dst, xs []int64, from int, outShift uint, outWidth int) {
		// Seed the window at position from-1 from the samples before
		// from. The first slide drops the term of sample from-1-b that the
		// seed added, so at every position the window holds exactly its
		// covered lags' terms.
		var S uint64
		for l := a; l <= b; l++ {
			S += uint64(tab[uint64(xs[from-1-l])&tm])
		}
		if len(dst) >= passMin {
			slidePass(dst, xs[from-a:], xs[from-1-b:], tab, tm, S)
			corr.addTo(dst, xs, from, tm, false)
			for _, l := range corrLags {
				subPass(dst, xs[from-l:], tab, tm)
			}
			finishPass(dst, xs, from, opL, w, k, outShift, outWidth)
			return
		}
		for i := from; i < len(xs); i++ {
			// Slide: lag a of sample i enters, lag b of sample i-1 leaves.
			S += uint64(tab[uint64(xs[i-a])&tm]) - uint64(tab[uint64(xs[i-1-b])&tm])
			u := S + corr.sum(xs, i, tm)
			for _, l := range corrLags {
				u -= uint64(tab[uint64(xs[i-l])&tm])
			}
			ub := (uint64(opL.at(xs[i-opL.lag])) ^ opL.neg) & mW
			dst[i-from] = finish((ub&mk|(u+ub>>ku)<<ku)&mW, w, outShift, outWidth)
		}
	}
}

// macChain is the fused fully-exact chain: native multiply-accumulate with
// the signed coefficients folded in, equivalent to the modular sum of
// sliced exact products (see NewChain). The taps merge per lag, and a
// span runs in passes over dst (see macPasses): over the order-th
// difference of the taps when that is sparser (sparsestDifference: the
// HPF's 32 taps difference to 4, the LPF triangle's 11 to 3) and the span
// repays its seeds (minSpan), over the direct taps when it has at least
// macPassMin positions. A shorter span, such as one Process sample, runs
// the direct loop.
//
// macChain itself must not inline: the compiler does not inline calls
// inside the closure of an inlined function, and an out-of-line finish
// would spill the loop's registers at every position.
//
//go:noinline
func macChain(w int, taps []macTap) chainFunc {
	direct := mergeLags(taps)
	if len(direct) == 0 {
		return emptyChain // the taps cancel: every output is the sliced zero
	}
	deep := direct[len(direct)-1].lag
	diff, order := sparsestDifference(direct)
	// Seeding costs order direct sums; a recurrence position costs
	// len(diff)+order operations against a direct one's len(direct).
	minSpan := math.MaxInt
	if order > 0 {
		minSpan = order*len(direct)/(len(direct)-len(diff)-order) + 1
	}
	deepDiff := deep + order
	return func(c *Chain, dst, xs []int64, from int, outShift uint, outWidth int) {
		if p := max(from, deepDiff); len(xs)-p >= minSpan {
			macPasses(w, direct, diff, order, dst, xs, from, p, outShift, outWidth)
			return
		}
		if len(dst) >= macPassMin {
			macPasses(w, direct, direct, 0, dst, xs, from, from, outShift, outWidth)
			return
		}
		for i := from; i < len(xs); i++ {
			dst[i-from] = finish(uint64(macSum(direct, xs, i)), w, outShift, outWidth)
		}
	}
}

// macSum is the direct multiply-accumulate of taps at position i.
func macSum(taps []macTap, xs []int64, i int) int64 {
	var s int64
	for _, t := range taps {
		s += xs[i-t.lag] * t.c
	}
	return s
}

// macPasses evaluates positions from..len(xs)-1 of a fused chain into dst
// in passes: directly up to p, then over taps, which are the direct taps
// (order 0, p = from) or their order-th difference (p at or past its
// deepest lag). dst serves as the accumulator: each macPass adds two taps'
// products over the span (the first writes them), and macFinish
// integrates the sums and slices them. With y the accumulator, order 1 is
// y[i] = y[i-1] + diff·x and order 2 is v[i] = v[i-1] + diff·x,
// y[i] = y[i-1] + v[i], seeded by the direct sums at p-1 and p-2. The
// identities hold in wrapping
// 64-bit arithmetic and the slicing reads only the low w bits, so every
// output is the direct sum's.
func macPasses(w int, direct, taps []macTap, order int, dst, xs []int64, from, p int, outShift uint, outWidth int) {
	for i := from; i < p; i++ {
		dst[i-from] = finish(uint64(macSum(direct, xs, i)), w, outShift, outWidth)
	}
	var y, v int64
	if order > 0 {
		y = macSum(direct, xs, p-1)
	}
	if order > 1 {
		v = y - macSum(direct, xs, p-2)
	}
	d := dst[p-from:]
	for t := 0; t < len(taps); t += 2 {
		a, b := taps[t], macTap{lag: taps[t].lag} // an odd last tap pairs with a zero product
		if t+1 < len(taps) {
			b = taps[t+1]
		}
		macPass(d, xs[p-a.lag:], xs[p-b.lag:], a.c, b.c, t == 0)
	}
	pl, r, inside := sliceShifts(w, outShift, outWidth)
	macFinish(d, order, y, v, pl, r)
	if !inside {
		finishAll(d, w, outShift, outWidth)
	}
}

// macPass adds the products ca·xa[i] + cb·xb[i] of two taps to d[i],
// i < len(d), or writes them with set. A sample-major loop over the taps
// reloads each tap's coefficient and lag at every position and keeps its
// sum and cursors on the stack; one pass keeps its few values in
// registers, as termPass does.
//
//go:noinline
func macPass(d, xa, xb []int64, ca, cb int64, set bool) {
	xa, xb = xa[:len(d)], xb[:len(d)]
	if set {
		for i := range d {
			d[i] = xa[i]*ca + xb[i]*cb
		}
		return
	}
	for i := range d {
		d[i] += xa[i]*ca + xb[i]*cb
	}
}

// macFinish is the last pass of the fused MAC: d holds the taps' sums at
// each position, and the pass integrates them order times from the seeds
// y, the accumulator at the position before d[0], and v, its first
// difference there, then slices each accumulator with sliceShifts' pl
// and r.
//
//go:noinline
func macFinish(d []int64, order int, y, v int64, pl uint64, r uint) {
	r &= 63 // no change to r, but the loops then shift with no range check
	switch order {
	case 0:
		for i, s := range d {
			d[i] = int64(uint64(s)*pl) >> r
		}
	case 1:
		for i, s := range d {
			y += s
			d[i] = int64(uint64(y)*pl) >> r
		}
	default:
		for i, s := range d {
			v += s
			y += v
			d[i] = int64(uint64(y)*pl) >> r
		}
	}
}

// mergeLags sorts taps by lag in place, sums the coefficients of equal
// lags and drops zero sums: the same wrapping sum at every position.
func mergeLags(taps []macTap) []macTap {
	slices.SortFunc(taps, func(a, b macTap) int { return cmp.Compare(a.lag, b.lag) })
	out := taps[:0]
	for _, t := range taps {
		if n := len(out); n > 0 && out[n-1].lag == t.lag {
			out[n-1].c += t.c
			continue
		}
		out = append(out, t)
	}
	return slices.DeleteFunc(out, func(t macTap) bool { return t.c == 0 })
}

// difference returns the first difference of a tap sequence: tap (c, l)
// adds c at lag l and -c at lag l+1.
func difference(taps []macTap) []macTap {
	d := make([]macTap, 0, 2*len(taps))
	for _, t := range taps {
		d = append(d, t, macTap{c: -t.c, lag: t.lag + 1})
	}
	return mergeLags(d)
}

// sparsestDifference picks the cheapest form of merged direct taps by
// nonzero taps plus the recurrence terms of its order: order 0 (the taps
// themselves, diff nil), 1 or 2 (their first or second difference), the
// lower order on a tie. The DER's 4 taps stay direct.
func sparsestDifference(direct []macTap) (diff []macTap, order int) {
	best := len(direct)
	d := direct
	for o := 1; o <= 2; o++ {
		d = difference(d)
		if len(d)+o < best {
			diff, order, best = d, o, len(d)+o
		}
	}
	return diff, order
}

// ProjTables returns the distinct projection tables the chain's strategy
// consumes (empty for all but AMA5 chains), so callers can account a
// design's full kernel working set alongside its product tables.
func (c *Chain) ProjTables() []ProjTable {
	var out []ProjTable
	for i := range c.ops {
		p := c.ops[i].proj
		if !p.valid() {
			continue
		}
		dup := false
		for _, q := range out {
			if q.Same(p) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, p)
		}
	}
	return out
}

// RawTables returns the distinct raw product tables the chain
// materialized: every tap's for the generic chain, only the last tap's
// for an AMA5 chain, none for a fused chain.
func (c *Chain) RawTables() []*ConstMulTable {
	var out []*ConstMulTable
	seen := map[*ConstMulTable]bool{}
	for i := range c.ops {
		t := c.ops[i].tab
		if t == nil || seen[t] {
			continue
		}
		seen[t] = true
		out = append(out, t)
	}
	return out
}

// Run evaluates the chain at positions from..len(xs)-1 of the signal xs
// (position i from the delayed samples xs[i-lag]) and applies the output
// bus slicing: the accumulator is sign-extended, shifted right by
// outShift and sliced to outWidth bits. Position i goes to dst[i-from],
// so Run writes dst[:len(xs)-from] and nothing else. dst must be at least
// len(xs)-from long and must not overlap xs, from must lie past the
// chain's deepest tap lag and at most at len(xs), outShift below 64 and
// outWidth in [1, 64]. Run on an empty chain writes the sliced zero
// accumulator, from any from in [0, len(xs)].
//
// xs[:from] is the history: every sample a position reads lies in xs,
// so no strategy tests an index. The start index is how every caller
// continues a signal: a stream's window — its last inputs, at least one
// more than the deepest tap lag, followed by the next block — run from
// the history's length yields exactly the outputs the whole signal has
// at the block's positions, and only those. No history position is
// computed and discarded. A whole record starts from a history of zeros,
// the delay line of a cleared filter (dsp.FIR.FilterInto runs its first
// positions as one block of its window).
//
// Before it evaluates, Run fills the chain's on-demand tables over the
// largest |x| of xs[from:] — one scan and, once the tables reach that
// far, one atomic load. The history xs[:from] is not scanned, so it must
// hold only zeros and operands that an earlier Run of this chain
// evaluated (at a position at or after its start index). A delay line
// that holds a stream's past inputs, or zeros after a reset, meets this.
func (c *Chain) Run(dst, xs []int64, from int, outShift uint, outWidth int) {
	// The full slice expression bounds the span by len(dst), not cap(dst):
	// every strategy then writes exactly the dst it is handed.
	c.fn(c, dst[:len(xs)-from:len(dst)], xs, from, outShift, outWidth)
}

// cover fills every on-demand table the chain reads up to operand
// magnitude mag and republishes the chain's bound. A racing Run may
// publish an older, smaller bound; that only costs it a later cover.
func (c *Chain) cover(mag uint64) {
	b := uint64(math.MaxUint64)
	for _, cv := range c.covs {
		cv.cover(mag)
		b = min(b, cv.bound.Load())
	}
	c.bound.Store(b)
}

// emptyChain is the chain of no taps: the sliced zero accumulator.
func emptyChain(_ *Chain, dst, _ []int64, _ int, _ uint, _ int) {
	clear(dst)
}

// at is the tap's product of operand x: the full int32 table inline when
// the tap has one, the tier closure otherwise.
func (op *chainOp) at(x int64) int64 {
	if op.tab32 != nil {
		return int64(op.tab32[uint64(x)&op.mask])
	}
	return op.mul(x)
}

// finish applies the output bus slicing to a masked accumulator: it is
// arith.ToSigned(uint64(arith.ToSigned(acc, w))>>outShift, outWidth) for
// widths in [1, 64] and shifts below 64, written as masked shift pairs so
// that it inlines to plain shifts. A call left in a strategy loop would
// force every live value of the loop onto the stack, which is most of the
// cost of a one-position Run.
//
// finish is the definition of the slicing and its general path. Its three
// shift counts all need amd64's shift-count register, so a loop that
// inlines it reloads them at every position; the hot loops over many
// positions slice with sliceShifts instead.
func finish(acc uint64, w int, outShift uint, outWidth int) int64 {
	sw, so := uint(64-w)&63, uint(64-outWidth)&63
	return int64(uint64(int64(acc<<sw)>>sw)>>(outShift&63)<<so) >> so
}

// sliceShifts computes the output slicing of finish once per call, as a
// multiply and an arithmetic right shift: int64(acc*pl) >> r. When the
// slice lies inside the accumulator (outShift+outWidth <= w, as at every
// pipeline stage), its bits are bits of acc itself, so finish is those
// bits sign-extended: pl moves the slice's top bit to bit 63 and r brings
// it down sign-extended. The multiply is a left shift that leaves the
// count register to r. Any other slicing reads sign-extension bits of the
// accumulator and takes the general path: sliceShifts then returns the
// identity (pl 1, r 0) and inside false, and the caller's loop writes the
// raw accumulators for finishAll to slice.
func sliceShifts(w int, outShift uint, outWidth int) (pl uint64, r uint, inside bool) {
	if outShift+uint(outWidth) > uint(w) {
		return 1, 0, false
	}
	return uint64(1) << (64 - outShift - uint(outWidth)), uint(64-outWidth) & 63, true
}

// finishAll slices every raw accumulator of d through finish: the general
// path of the loops that slice with sliceShifts.
func finishAll(d []int64, w int, outShift uint, outWidth int) {
	for i, acc := range d {
		d[i] = finish(uint64(acc), w, outShift, outWidth)
	}
}

// ama5Chain covers the pure-wiring cell AMA5 (Sum = B). The chain has a
// closed form without a loop-carried dependency: a step keeps only its
// own operand in the approximate region, so the carry entering the exact
// upper slice at step o is bit k-1 of the previous operand. The upper
// slices therefore sum independently per tap, and the final low bits
// come from the last operand. Subtraction inverts the operand; wiring
// cells drop the +1 carry-in, like the scalar adder.
//
// Every tap before the last contributes only its upper slice plus its
// carry, so it reads its whole term from a projection table (see
// newChainProj): (ub + 2^(k-1)) >> k per tap, the opening accumulator
// included, because copying p and zero-subtracting through the wiring
// datapath both leave acc = ub. The projected taps are compact (lag,
// table) pairs split by tier, so a projected tap is one load and one add.
//
// A span of at least passMin positions runs in passes over dst: the
// first projected tap writes its terms, each further one adds them, and
// finishPass applies the last tap. A shorter span runs the sample-major
// loop.
//
//go:noinline
func ama5Chain(w, k int, ops []chainOp) chainFunc {
	mW := mask(w)
	mk := mask(k)
	ku := uint(k)
	last := len(ops) - 1
	var taps projTaps
	for o := range ops[:last] {
		taps.add(&ops[o])
	}
	opL := &ops[last]
	m := opL.mask
	return func(c *Chain, dst, xs []int64, from int, outShift uint, outWidth int) {
		if len(dst) >= passMin {
			taps.addTo(dst, xs, from, m, true)
			finishPass(dst, xs, from, opL, w, k, outShift, outWidth)
			return
		}
		for i := from; i < len(xs); i++ {
			u := taps.sum(xs, i, m)
			ub := (uint64(opL.at(xs[i-opL.lag])) ^ opL.neg) & mW
			dst[i-from] = finish((ub&mk|(u+ub>>ku)<<ku)&mW, w, outShift, outWidth)
		}
	}
}

// newChainProj allocates one AMA5 tap's projection table: entry x is the
// whole upper-slice term ((p(x) ^ neg) & mask(w) + 2^(k-1)) >> k of the
// product p(x) of x with coeff through plan m, k >= 1. The entries fill on
// demand from the plan's products (see productRows, made by the first
// fill; a composite plan's come by rows), so no raw product table is
// required. Constant multiplication is odd (f(-x) == -f(x), the
// sign-magnitude arrangement of every tier), so the two signs of one
// magnitude share a single product evaluation, exactly like a full
// table's fill.
func newChainProj(m *Multiplier, coeff int64, w, k int, neg bool) ProjTable {
	n := int(m.opMask) + 1
	var p ProjTable
	if projFits16(m.spec, w, k, neg) {
		p.u16 = make([]uint16, n)
	} else {
		p.u32 = make([]uint32, n)
	}
	term := projTerm{mW: mask(w), half: uint64(1) << (k - 1), k: uint(k)}
	if neg {
		term.nm = ^uint64(0)
	}
	var src *productRows // made by the first fill
	u16, u32 := p.u16, p.u32
	p.cov = newCoverage(m.spec.Width, func(lo, hi uint64) {
		if src == nil {
			src = m.constRows(coeff)
		}
		if u16 != nil {
			fillProj(u16, lo, hi, src, term)
		} else {
			fillProj(u32, lo, hi, src, term)
		}
	})
	return p
}

// projTerm is the upper-slice term of one projection.
type projTerm struct {
	nm, mW, half uint64
	k            uint
}

func (t projTerm) of(p int64) uint64 { return ((uint64(p)^t.nm)&t.mW + t.half) >> t.k }

// projFits16 reports whether every term of a projection fits uint16,
// from the largest w-bit pattern ub a tap can feed the accumulator
// rather than from the entries (see the package documentation): 2^w - 1
// in general, but at most 2^w - 2^z for an added tap of an AMA5 plan
// with a composite root, z = min(ApproxLSBs, Width), because its final
// accumulation copies the zero low bits of hh << Width into the product.
func projFits16(spec arith.Multiplier, w, k int, neg bool) bool {
	maxUB := mask(w)
	// A composite root is any plan of Width > 2 that is not exact; an
	// exact one approximates no LSBs, so mask(0) leaves maxUB as it is.
	if !neg && spec.Add == approx.ApproxAdd5 && spec.Width > 2 {
		maxUB &^= mask(min(spec.ApproxLSBs, spec.Width))
	}
	return (maxUB+uint64(1)<<(k-1))>>uint(k) <= 0xffff
}

// fillProj writes magnitudes [lo, hi) of a projection table from src,
// fillStep products at a time: the terms of +mag and -mag from the one
// product p of +mag, -mag's from -p. The minimum operand, magnitude
// len(tab)/2, has only its negative entry.
func fillProj[T uint16 | uint32](tab []T, lo, hi uint64, src *productRows, term projTerm) {
	n := uint64(len(tab))
	term.k &= 63 // the shift in of needs no range fixup
	var buf [fillStep]int64
	for mag := lo; mag < hi; mag += fillStep {
		ps := buf[:min(hi-mag, fillStep)]
		src.products(ps, mag)
		for i, p := range ps {
			x := mag + uint64(i)
			if x < n/2 {
				tab[x] = T(term.of(p))
			}
			if x > 0 {
				tab[(n-x)&(n-1)] = T(term.of(-p))
			}
		}
	}
}

// cachedChainProj returns the memoized AMA5 chain projection for one
// (spec, coeff) product under the given chain parameters, filled from the
// compiled plan's products and cached globally like the tables
// themselves (first insert wins).
func cachedChainProj(m *Multiplier, coeff int64, w, k int, neg bool) ProjTable {
	key := projKey{spec: m.spec, coeff: coeff, w: w, k: k, neg: neg}
	planCache.Lock()
	if planCache.proj == nil {
		planCache.proj = make(map[projKey]ProjTable)
	}
	p, ok := planCache.proj[key]
	planCache.Unlock()
	if ok {
		return p
	}
	p = newChainProj(m, coeff, w, k, neg)
	planCache.Lock()
	defer planCache.Unlock()
	if prev, ok := planCache.proj[key]; ok {
		return prev
	}
	planCache.proj[key] = p
	return p
}

// chunkChain is the generic chain: every configuration without a
// strategy of its own (see NewChain). It folds the taps one by one as
// the scalar accumulation does, the first copied or subtracted from zero
// through the adder, every later one through the approximate region 8
// cells per lookup of the packed byte-wide chunk LUT (k <= 8 approximated
// LSBs cost one table access per tap, k <= 16 two) and the exact upper
// slice natively. At k = 0 the region is empty and the fold is native
// addition. The LUT is built only for a chain that adds, one of more
// than one tap with k > 0.
func chunkChain(w, k int, kind approx.AdderKind, adds bool) chainFunc {
	mW := mask(w)
	var lut []uint32
	if adds && k > 0 {
		lut = chunkLUT(kind)
	}
	ku := uint(k)
	return func(c *Chain, dst, xs []int64, from int, outShift uint, outWidth int) {
		ops := c.ops
		op0 := &ops[0]
		for i := from; i < len(xs); i++ {
			p := op0.at(xs[i-op0.lag])
			if op0.neg != 0 {
				p = c.ad.SubSigned(0, p)
			}
			acc := uint64(p) & mW
			for o := 1; o < len(ops); o++ {
				op := &ops[o]
				ub := (uint64(op.at(xs[i-op.lag])) ^ op.neg) & mW
				carry := op.neg & 1
				var sum uint64
				b := 0
				for ; b+8 <= k; b += 8 {
					e := uint64(lut[carry<<16|((acc>>b)&0xff)<<8|(ub>>b)&0xff])
					sum |= (e & 0xff) << b
					carry = (e >> 15) & 1
				}
				if r := k - b; r > 0 {
					e := uint64(lut[carry<<16|((acc>>b)&0xff)<<8|(ub>>b)&0xff])
					sum |= (e & (uint64(1)<<r - 1)) << b
					carry = (e >> (7 + r)) & 1
				}
				acc = (sum | (acc>>ku+ub>>ku+carry)<<ku) & mW
			}
			dst[i-from] = finish(acc, w, outShift, outWidth)
		}
	}
}
