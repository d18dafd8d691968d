package kernel

import (
	"math/bits"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
)

// This file holds the batched slice kernels: whole-signal variants of the
// signed accumulation datapaths that process one sample vector per call.
//
// The per-sample hot path pays one indirect call per elementary operation
// (package dsp chains them tap by tap through AddSigned/SubSigned). The
// slice kernels hoist that call out of the loops entirely: a Chain runs a
// FIR's complete per-sample product accumulation — every tap's table
// lookup and the adder's closed form inlined, the accumulator held in a
// register — as one call per signal, and FoldSlice collapses an
// integrator window to one call per sample. For the chunk-LUT kinds
// (AMA1/AMA3) a region of up to eight approximated LSBs is one packed
// byte-wide table access per operation, so the paper's configurations
// (k <= 16) cost at most two lookups per accumulate.
//
// Chains also own the decision of which product representations exist at
// all: a tap the strategy reads only through a wiring-chain projection
// never materializes its 2^Width raw product table (NewChain builds the
// projection straight from the compiled multiplier plan), so a batch-only
// workload — the design-space exploration — keeps just the boundary taps'
// raw tables. See dsp.FIR for the per-sample side of that laziness.
//
// Every slice kernel is bit-identical to folding the corresponding scalar
// operations over the vector; slice_test.go checks all cell kinds in both
// compilation modes.

// ChainOp describes one tap of an accumulation chain: the fixed signed
// coefficient of the tap's product, the delay-line age of the sample it
// consumes, and whether the product is subtracted through the adder
// datapath (a negative filter coefficient).
type ChainOp struct {
	Coeff int64
	Lag   int
	Sub   bool
}

// ProjTable is one cached wiring-chain projection (see buildChainProj):
// entry x holds a tap's whole upper-slice term. Entries are stored as
// uint16 when every term fits — k >= 16 approximated LSBs guarantee it
// (terms are bounded by 2^(w-k) shifted slices of the w-bit accumulator),
// halving the footprint per chain polarity — and uint32 otherwise.
// Exactly one tier is set.
type ProjTable struct {
	u16 []uint16
	u32 []uint32
}

// valid reports whether the handle references a table at all.
func (p ProjTable) valid() bool { return p.u16 != nil || p.u32 != nil }

// at returns entry i — the construction-time accessor. The strategy loops
// do not call it: they test the tier once per table and keep the load
// inline (see wiringChain and slidingWiring), so the halved footprint
// costs one perfectly-predicted branch instead of a function call.
func (p ProjTable) at(i uint64) uint64 {
	if p.u16 != nil {
		return uint64(p.u16[i])
	}
	return uint64(p.u32[i])
}

// Entries returns the number of table entries.
func (p ProjTable) Entries() int {
	if p.u16 != nil {
		return len(p.u16)
	}
	return len(p.u32)
}

// Bytes returns the live storage of the projection in bytes.
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
// first: proj is the wiring-chain upper-slice projection (one load + one
// add per tap, see wiringChain), tab32 the full table inline, mul the
// fallback closure (table-free exact tier, decomposed tier, int64
// tables). tab is the raw-table handle for footprint accounting (nil for
// projected taps, whose raw tables are never built). c carries the signed
// coefficient for the fused exact-MAC strategy; neg is the subtract flag
// lowered to the operand XOR mask / carry-in the strategy loops consume
// branch-free.
type chainOp struct {
	proj  ProjTable
	tab32 []int32
	mul   func(int64) int64
	tab   *ConstMulTable
	c     int64
	mask  uint64
	neg   uint64 // 0 for add, ^0 for subtract (operand inversion + carry)
	lag   int
}

// chainFunc runs a compiled chain over a whole signal (see Chain.Run).
type chainFunc func(c *Chain, dst, xs []int64, outShift uint, outWidth int)

// Chain is a compiled accumulation chain: the full per-sample fold of a
// FIR's tap products through one adder, evaluated sample-major with the
// adder's closed form inlined per tap. Build chains with Adder.NewChain.
type Chain struct {
	ad    *Adder
	ops   []chainOp
	fn    chainFunc
	fused bool // the chain compiled to the native multiply-accumulate loop
}

// Fused reports whether the chain collapsed to the native
// multiply-accumulate loop (exact adder, exact in-range products). The
// per-sample scalar paths consult it so their fast path and the batch
// kernel share one fusibility decision.
func (c *Chain) Fused() bool { return c.fused }

// NewChain compiles the accumulation chain of the given taps, all
// multiplying through spec. The first tap starts each sample's chain (its
// product is copied, or subtracted from zero, rather than added), exactly
// like the scalar accumulation.
//
// Two chain-level fusions happen here. A fully exact chain (exact adder,
// exact multiplier plan, every coefficient in range) collapses to native
// multiply-accumulate: the sliced product of a Width-bit operand with
// |c| < 2^(Width-1) is the plain integer product, and native accumulation
// is associative modulo the accumulator width, so the whole chain is one
// MAC loop — bit-identical and table-free. For the wiring adders
// (AMA4/AMA5) every tap that contributes only its upper slice gets a
// projection table: the per-tap term (ub >> k) + carry collapses to one
// load (see wiringChain and buildChainProj).
//
// Raw product tables materialize only for the taps the chosen strategy
// reads products from — every tap of the generic/native/chunk strategies,
// just the boundary taps of a wiring chain, none of a fused one.
func (ad *Adder) NewChain(spec arith.Multiplier, ops []ChainOp) (*Chain, error) {
	c := &Chain{ad: ad, fn: ad.chain}
	if len(ops) == 0 {
		return c, nil
	}
	m, err := CachedMultiplier(spec)
	if err != nil {
		return nil, err
	}
	c.ops = make([]chainOp, 0, len(ops))
	mac := ad.exact
	for _, op := range ops {
		co := chainOp{c: op.Coeff, mask: m.opMask, lag: op.Lag}
		if op.Sub {
			co.neg = ^uint64(0)
			co.c = -co.c
		}
		if !m.exact || op.Coeff < 0 || op.Coeff >= int64(1)<<(spec.Width-1) {
			mac = false
		}
		c.ops = append(c.ops, co)
	}
	if mac {
		c.fn = macChain(ad.spec.Width)
		c.fused = true
		return c, nil
	}
	invA := ad.spec.Kind == approx.ApproxAdd4
	wiring := ad.enabled && !ad.exact && (invA || ad.spec.Kind == approx.ApproxAdd5)
	k := effectiveLSBs(ad.spec)
	last := len(c.ops) - 1
	for o := range c.ops {
		op := &c.ops[o]
		// AMA4 derives the low region from the raw opening accumulator;
		// AMA5 keeps the last operand's low region, needs it raw. A
		// single-tap chain's opening accumulator is the result.
		projected := wiring && last != 0 && (invA && o != 0 || !invA && o != last)
		if projected {
			op.proj = cachedChainProj(m, ops[o].Coeff, ad.spec.Width, k, op.neg != 0, !invA)
			continue
		}
		t, err := CachedConstMulTable(spec, ops[o].Coeff)
		if err != nil {
			return nil, err
		}
		op.tab, op.tab32, op.mul = t, t.tab32, t.fn
	}
	if wiring {
		if plan, ok := slidePlanFor(c, invA); ok {
			c.fn = slidingWiring(ad.spec.Width, k, invA, plan)
		}
	}
	return c, nil
}

// slidePlan drives the sliding-window evaluation of a wiring chain's
// projected taps. The projected per-tap terms form a plain modular sum,
// so taps that share one projection table over a contiguous lag range
// collapse to an O(1) sliding window per sample (add the entering term,
// drop the leaving one), with the few differing taps corrected
// individually — the 32-tap high-pass shape goes from 31 projection loads
// per sample to two window updates plus one correction.
type slidePlan struct {
	tab   ProjTable // majority projection table
	mask  uint64
	a, b  int   // contiguous lag range the window covers
	corr  []int // op indices inside [a..b] projecting through another table
	terms int   // b - a + 1
}

// slidePlanFor inspects a chain's projected taps and builds the sliding
// plan when it pays: at least eight projected taps, one per consecutive
// lag, at most a quarter of them differing from the majority table.
func slidePlanFor(c *Chain, invA bool) (slidePlan, bool) {
	last := len(c.ops) - 1
	lo, hi := 0, last-1 // AMA5 projects every tap but the last
	if invA {
		lo, hi = 1, last // AMA4 every tap but the opening one
	}
	n := hi - lo + 1
	if n < 8 {
		return slidePlan{}, false
	}
	// One projected tap per consecutive lag, all sharing one operand mask.
	// The majority table is found by linear scans over the handful of
	// distinct projections (a chain has one table per distinct coefficient
	// polarity), keeping construction allocation-light.
	var distinct [8]ProjTable
	var counts [8]int
	nd := 0
	for o := lo; o <= hi; o++ {
		op := &c.ops[o]
		if !op.proj.valid() || op.mask != c.ops[lo].mask || op.lag != c.ops[lo].lag+(o-lo) {
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
	plan := slidePlan{tab: distinct[best], mask: c.ops[lo].mask, a: c.ops[lo].lag, b: c.ops[hi].lag, terms: n}
	for o := lo; o <= hi; o++ {
		if !c.ops[o].proj.Same(plan.tab) {
			plan.corr = append(plan.corr, o)
		}
	}
	return plan, true
}

// slidingWiring is wiringChain with the projected taps evaluated through
// the sliding window of a slidePlan; bit-identical because the projected
// terms sum in plain modular arithmetic (see wiringChain for the closed
// form and buildChainProj for the terms). The loop is stenciled per
// majority-table entry width, so the uint16 tier costs no per-sample
// branches on the window loads.
func slidingWiring(w, k int, invA bool, plan slidePlan) chainFunc {
	if plan.tab.u16 != nil {
		return slidingWiringT(w, k, invA, plan, plan.tab.u16)
	}
	return slidingWiringT(w, k, invA, plan, plan.tab.u32)
}

func slidingWiringT[T uint16 | uint32](w, k int, invA bool, plan slidePlan, tab []T) chainFunc {
	mW := mask(w)
	mk := mask(k)
	ku := uint(k)
	return func(c *Chain, dst, xs []int64, outShift uint, outWidth int) {
		ops := c.ops
		ad := c.ad
		last := len(ops) - 1
		tm := plan.mask
		// Window state for the virtual sample before the signal: every
		// covered lag reads the zero-filled prefix.
		S := uint64(plan.terms) * uint64(tab[0])
		for i := range dst {
			// Slide: lag a of sample i enters, lag b of sample i-1 leaves.
			var xn, xo int64
			if j := i - plan.a; j >= 0 {
				xn = xs[j]
			}
			if j := i - 1 - plan.b; j >= 0 {
				xo = xs[j]
			}
			S += uint64(tab[uint64(xn)&tm]) - uint64(tab[uint64(xo)&tm])
			u := S
			for _, ci := range plan.corr {
				op := &ops[ci]
				var x int64
				if j := i - op.lag; j >= 0 {
					x = xs[j]
				}
				xi := uint64(x) & tm
				if p16 := op.proj.u16; p16 != nil {
					u += uint64(p16[xi])
				} else {
					u += uint64(op.proj.u32[xi])
				}
				u -= uint64(tab[xi])
			}
			var acc uint64
			if invA {
				op0 := &ops[0]
				p0 := op0.product(xs, i)
				if op0.neg != 0 {
					acc = uint64(ad.subS(0, p0)) & mW
				} else {
					acc = uint64(p0) & mW
				}
				steps := uint64(last)
				u += acc>>ku + steps/2 + ((acc>>(ku-1))&1)*(steps&1)
				low := acc & mk
				if steps&1 == 1 {
					low = ^acc & mk
				}
				acc = (low | u<<ku) & mW
			} else {
				opL := &ops[last]
				ub := (uint64(opL.product(xs, i)) ^ opL.neg) & mW
				u += ub >> ku
				acc = (ub&mk | u<<ku) & mW
			}
			dst[i] = finish(acc, w, outShift, outWidth)
		}
	}
}

// macChain is the fused fully-exact chain: one native multiply-accumulate
// per tap with the signed coefficients folded in, equivalent to the
// nativeChain sum of sliced exact products (see NewChain).
func macChain(w int) chainFunc {
	mW := mask(w)
	return func(c *Chain, dst, xs []int64, outShift uint, outWidth int) {
		ops := c.ops
		for i := range dst {
			var s int64
			for o := range ops {
				op := &ops[o]
				var x int64
				if j := i - op.lag; j >= 0 {
					x = xs[j]
				}
				s += x * op.c
			}
			dst[i] = finish(uint64(s)&mW, w, outShift, outWidth)
		}
	}
}

// ProjTables returns the distinct projection tables the chain's strategy
// consumes (empty for non-wiring chains), so callers can account a
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
// materialized: every tap's for the generic strategies, only the boundary
// taps' for wiring chains, none for a fused chain. The projected taps'
// raw tables do not exist unless another consumer (the per-sample FIR
// path) builds them.
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

// Run evaluates the chain for every sample of xs into dst (dst[i] from the
// delayed samples xs[i-lag], reading zero before the start of the signal)
// and applies the output bus slicing: the accumulator is sign-extended,
// shifted right by outShift and sliced to outWidth bits. dst and xs must
// not overlap. Run on an empty chain writes the sliced zero accumulator.
func (c *Chain) Run(dst, xs []int64, outShift uint, outWidth int) {
	if len(c.ops) == 0 {
		for i := range dst {
			dst[i] = arith.ToSigned(0, outWidth)
		}
		return
	}
	c.fn(c, dst, xs, outShift, outWidth)
}

// product evaluates one tap's delayed sample product (samples before the
// start of the signal read as zero): the full int32 table inline when the
// tap has one, the tier closure otherwise. Only taps holding a raw table
// reach here — the strategies read projected taps through proj.
func (op *chainOp) product(xs []int64, i int) int64 {
	var x int64
	if j := i - op.lag; j >= 0 {
		x = xs[j]
	}
	if op.tab32 != nil {
		return int64(op.tab32[uint64(x)&op.mask])
	}
	return op.mul(x)
}

// start opens one sample's chain: the first product is copied into the
// accumulator, or subtracted from zero through the full signed datapath
// for a leading negative tap (one closure call per sample, not per tap).
func (c *Chain) start(xs []int64, i int) (acc uint64) {
	op := &c.ops[0]
	p := op.product(xs, i)
	if op.neg != 0 {
		p = c.ad.subS(0, p)
	}
	return uint64(p)
}

// finish applies the output bus slicing to a masked accumulator.
func finish(acc uint64, w int, outShift uint, outWidth int) int64 {
	return arith.ToSigned(uint64(arith.ToSigned(acc, w))>>outShift, outWidth)
}

// compileChain picks the chain evaluation strategy for spec.
func compileChain(spec arith.Adder, enabled bool) chainFunc {
	w := spec.Width
	if !enabled {
		return genericChain(w)
	}
	k := effectiveLSBs(spec)
	switch {
	case k == 0:
		return nativeChain(w)
	case spec.Kind == approx.ApproxAdd4 || spec.Kind == approx.ApproxAdd5:
		return wiringChain(w, k, spec.Kind == approx.ApproxAdd4)
	case spec.Kind == approx.ApproxAdd2:
		return ama2Chain(w, k)
	default:
		return chunkChain(w, k, spec.Kind)
	}
}

// genericChain folds the compiled signed closures per tap — the scalar
// path restated; oracle mode takes this route so the bit-serial reference
// models stay on the evaluation path.
func genericChain(w int) chainFunc {
	mW := mask(w)
	return func(c *Chain, dst, xs []int64, outShift uint, outWidth int) {
		ops := c.ops
		ad := c.ad
		for i := range dst {
			acc := ops[0].product(xs, i)
			if ops[0].neg != 0 {
				acc = ad.subS(0, acc)
			}
			for o := 1; o < len(ops); o++ {
				op := &ops[o]
				p := op.product(xs, i)
				if op.neg != 0 {
					acc = ad.subS(acc, p)
				} else {
					acc = ad.addS(acc, p)
				}
			}
			dst[i] = finish(uint64(acc)&mW, w, outShift, outWidth)
		}
	}
}

// nativeChain is the exact datapath. Native addition is associative
// modulo the accumulator width, so the whole chain collapses to one
// modular sum of signed products — no loop-carried dependency, every tap
// independent.
func nativeChain(w int) chainFunc {
	mW := mask(w)
	return func(c *Chain, dst, xs []int64, outShift uint, outWidth int) {
		ops := c.ops
		for i := range dst {
			var s uint64
			for o := range ops {
				op := &ops[o]
				p := uint64(op.product(xs, i))
				s += (p ^ op.neg) + (op.neg & 1)
			}
			dst[i] = finish(s&mW, w, outShift, outWidth)
		}
	}
}

// wiringChain covers the pure-wiring cells AMA5 (Sum = B) and, with invA,
// AMA4 (Sum = NOT A). The chain has a closed form that removes the
// loop-carried dependency entirely: a step keeps only its own operand (or
// the complement of the previous low bits) in the approximate region, so
// the carry entering the exact upper slice at step o — bit k-1 of the
// previous accumulator — is a bit of the previous operand (AMA5) or an
// alternating function of the opening accumulator (AMA4). The upper
// slices therefore sum independently per tap, and the final low bits come
// from the last operand (AMA5) or the opening accumulator's parity-
// complemented low bits (AMA4). Subtraction inverts the operand; wiring
// cells drop the +1 carry-in, like the scalar closures.
//
// Every tap that contributes only its upper slice reads its whole term
// from a projection table (see buildChainProj): AMA5 sums
// projRound[x] = (ub + 2^(k-1)) >> k per tap before the last — the
// opening accumulator included, because copying p and zero-subtracting
// through the wiring datapath both leave acc = ub, making the seed
// acc>>k plus its k-1 bit the same rounded shift — and AMA4 sums
// projTrunc[x] = ub >> k for every tap after the opening one. The hot
// loop is one table load and one add per such tap.
func wiringChain(w, k int, invA bool) chainFunc {
	mW := mask(w)
	mk := mask(k)
	ku := uint(k)
	return func(c *Chain, dst, xs []int64, outShift uint, outWidth int) {
		ops := c.ops
		ad := c.ad
		last := len(ops) - 1
		if last == 0 {
			// Single-tap chain: the opening accumulator is the result.
			op0 := &ops[0]
			for i := range dst {
				p0 := op0.product(xs, i)
				var acc uint64
				if op0.neg != 0 {
					acc = uint64(ad.subS(0, p0)) & mW
				} else {
					acc = uint64(p0) & mW
				}
				dst[i] = finish(acc, w, outShift, outWidth)
			}
			return
		}
		if invA {
			// AMA4: carries alternate with the opening low bits; the low
			// region complements once per step.
			steps := uint64(last)
			for i := range dst {
				op0 := &ops[0]
				p0 := op0.product(xs, i)
				var acc uint64
				if op0.neg != 0 {
					acc = uint64(ad.subS(0, p0)) & mW
				} else {
					acc = uint64(p0) & mW
				}
				u := acc>>ku + steps/2 + ((acc>>(ku-1))&1)*(steps&1)
				low := acc & mk
				if steps&1 == 1 {
					low = ^acc & mk
				}
				for o := 1; o <= last; o++ {
					op := &ops[o]
					var x int64
					if j := i - op.lag; j >= 0 {
						x = xs[j]
					}
					xi := uint64(x) & op.mask
					if p16 := op.proj.u16; p16 != nil {
						u += uint64(p16[xi])
					} else {
						u += uint64(op.proj.u32[xi])
					}
				}
				dst[i] = finish((low|u<<ku)&mW, w, outShift, outWidth)
			}
			return
		}
		// AMA5: every tap before the last is one projection load; the last
		// operand keeps the low region.
		opL := &ops[last]
		for i := range dst {
			var u uint64
			for o := 0; o < last; o++ {
				op := &ops[o]
				var x int64
				if j := i - op.lag; j >= 0 {
					x = xs[j]
				}
				xi := uint64(x) & op.mask
				if p16 := op.proj.u16; p16 != nil {
					u += uint64(p16[xi])
				} else {
					u += uint64(op.proj.u32[xi])
				}
			}
			ub := (uint64(opL.product(xs, i)) ^ opL.neg) & mW
			u += ub >> ku
			dst[i] = finish((ub&mk|u<<ku)&mW, w, outShift, outWidth)
		}
	}
}

// buildChainProj enumerates one tap's whole upper-slice term
// ((p(x) ^ neg) & mask(w) + round*2^(k-1)) >> k over every operand value
// through the plan's product closure — no raw product table required.
// Constant multiplication is odd (f(-x) == -f(x), the sign-magnitude
// arrangement of every tier), so the two signs of one magnitude share a
// single product evaluation, exactly like the full-table build. Entries
// narrow to uint16 when they all fit: guaranteed at k >= 16, where a term
// is at most a 2^(w-k) <= 2^16 slice plus the rounding carry; the value
// check also catches the k = 16 rounding edge.
func buildChainProj(f func(int64) int64, width, w, k int, opMask uint64, neg, round bool) ProjTable {
	mW := mask(w)
	var nm uint64
	if neg {
		nm = ^uint64(0)
	}
	var half uint64
	if round {
		half = uint64(1) << (k - 1)
	}
	n := int(opMask) + 1
	mid := n / 2
	u32 := make([]uint32, n)
	var max uint32
	term := func(p int64) uint32 {
		ub := (uint64(p) ^ nm) & mW
		e := uint32((ub + half) >> uint(k))
		if e > max {
			max = e
		}
		return e
	}
	for u := 0; u < mid; u++ {
		p := f(int64(u))
		u32[u] = term(p)
		if u > 0 {
			u32[n-u] = term(-p)
		}
	}
	// The minimum value has no positive counterpart; evaluate it directly.
	u32[mid] = term(f(arith.ToSigned(uint64(mid), width)))
	if max <= 0xffff {
		u16 := make([]uint16, n)
		for i, e := range u32 {
			u16[i] = uint16(e)
		}
		return ProjTable{u16: u16}
	}
	return ProjTable{u32: u32}
}

// cachedChainProj returns the memoized wiring-chain projection for one
// (spec, coeff) product under the given chain parameters, built through
// the compiled plan's product closure and cached globally like the tables
// themselves (first insert wins).
func cachedChainProj(m *Multiplier, coeff int64, w, k int, neg, round bool) ProjTable {
	key := projKey{spec: m.spec, coeff: coeff, w: w, k: k, neg: neg, round: round}
	planCache.Lock()
	if planCache.proj == nil {
		planCache.proj = make(map[projKey]ProjTable)
	}
	p, ok := planCache.proj[key]
	planCache.Unlock()
	if ok {
		return p
	}
	p = buildChainProj(m.productFn(coeff), m.spec.Width, w, k, m.opMask, neg, round)
	planCache.Lock()
	defer planCache.Unlock()
	if prev, ok := planCache.proj[key]; ok {
		return prev
	}
	planCache.proj[key] = p
	return p
}

// ama2Chain covers AMA2 through the native-carry XOR trick of ama2Add,
// inlined per tap.
func ama2Chain(w, k int) chainFunc {
	mW := mask(w)
	mk := mask(k)
	return func(c *Chain, dst, xs []int64, outShift uint, outWidth int) {
		ops := c.ops
		for i := range dst {
			acc := c.start(xs, i) & mW
			for o := 1; o < len(ops); o++ {
				op := &ops[o]
				ub := (uint64(op.product(xs, i)) ^ op.neg) & mW
				v, cf := bits.Add64(acc, ub, op.neg&1)
				if w < 64 {
					cf = (v >> w) & 1
				}
				couts := ((acc ^ ub ^ v) >> 1) | cf<<(w-1)
				acc = ((v &^ mk) | (^couts & mk)) & mW
			}
			dst[i] = finish(acc, w, outShift, outWidth)
		}
	}
}

// chunkChain evaluates the approximate region through the packed byte-wide
// chunk LUT, 8 cells per lookup: k <= 8 approximated LSBs cost one table
// access per tap, k <= 16 two.
func chunkChain(w, k int, kind approx.AdderKind) chainFunc {
	mW := mask(w)
	lut := chunkLUT(kind)
	ku := uint(k)
	return func(c *Chain, dst, xs []int64, outShift uint, outWidth int) {
		ops := c.ops
		for i := range dst {
			acc := c.start(xs, i) & mW
			for o := 1; o < len(ops); o++ {
				op := &ops[o]
				ub := (uint64(op.product(xs, i)) ^ op.neg) & mW
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
			dst[i] = finish(acc, w, outShift, outWidth)
		}
	}
}

// FoldSlice chains vals through the signed adder in index order:
// vals[0] + vals[1] + ... exactly like starting an accumulation chain from
// the first operand (no add against zero), so it is bit-identical to the
// integrator's slot-order window sum. An empty slice folds to 0.
func (ad *Adder) FoldSlice(vals []int64) int64 {
	return ad.fold(vals)
}

// Exact reports whether the compiled plan reduces to native two's-
// complement addition (zero effective approximated LSBs under kernel
// mode). Callers may then use algebraic shortcuts — e.g. a sliding-window
// sum instead of re-folding the window — that are bit-identical to the
// cell-level chain. In oracle mode this is always false, so shortcuts stay
// off and the bit-serial models keep running.
func (ad *Adder) Exact() bool { return ad.exact }

// compileFold builds the window-fold kernel for spec. Kinds without a
// dedicated inline loop fold the compiled signed closure per element
// (correct, just not faster); in oracle mode everything takes that route.
func compileFold(spec arith.Adder, ad *Adder, enabled bool) func([]int64) int64 {
	w := spec.Width
	if !enabled {
		return ad.genericFold
	}
	k := effectiveLSBs(spec)
	switch {
	case k == 0:
		return nativeFold(w)
	case spec.Kind == approx.ApproxAdd4 || spec.Kind == approx.ApproxAdd5:
		return wiringFold(w, k, spec.Kind == approx.ApproxAdd4)
	default:
		return ad.genericFold
	}
}

// genericFold chains the compiled signed add over the slice.
func (ad *Adder) genericFold(vals []int64) int64 {
	if len(vals) == 0 {
		return 0
	}
	acc := vals[0]
	for _, v := range vals[1:] {
		acc = ad.addS(acc, v)
	}
	return acc
}

// nativeFold sums the slice natively. Each scalar chain step masks to the
// word width and sign-extends, but only the low w bits feed the next add,
// so the chain equals the plain modular sum; a single-element fold returns
// the element untouched, exactly like starting the chain there.
func nativeFold(w int) func([]int64) int64 {
	mW := mask(w)
	return func(vals []int64) int64 {
		if len(vals) == 0 {
			return 0
		}
		if len(vals) == 1 {
			return vals[0]
		}
		var s int64
		for _, v := range vals {
			s += v
		}
		return arith.ToSigned(uint64(s)&mW, w)
	}
}

// wiringFold chains the wiring-cell add (AMA5, or AMA4 with invA) over
// the slice through the same closed form as wiringChain: independent
// upper-slice sums with the inter-step carries read off the operands
// (AMA5) or the opening element's alternating low bits (AMA4).
func wiringFold(w, k int, invA bool) func([]int64) int64 {
	mW := mask(w)
	mk := mask(k)
	ku := uint(k)
	return func(vals []int64) int64 {
		if len(vals) == 0 {
			return 0
		}
		if len(vals) == 1 {
			return vals[0]
		}
		acc := uint64(vals[0]) & mW
		last := len(vals) - 1
		u := acc >> ku
		var low uint64
		if invA {
			b0 := (acc >> (ku - 1)) & 1
			steps := uint64(last)
			u += steps / 2
			u += b0 * (steps & 1)
			low = acc & mk
			if steps&1 == 1 {
				low = ^acc & mk
			}
			for _, v := range vals[1:] {
				u += (uint64(v) & mW) >> ku
			}
		} else {
			u += (acc >> (ku - 1)) & 1
			for _, v := range vals[1:last] {
				ub := uint64(v) & mW
				u += ub>>ku + (ub>>(ku-1))&1
			}
			ub := uint64(vals[last]) & mW
			u += ub >> ku
			low = ub & mk
		}
		return arith.ToSigned((low|u<<ku)&mW, w)
	}
}
