package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
)

// sliceSpecs enumerates the adder configurations the slice-kernel
// equivalence sweep covers: every cell kind at representative widths and
// approximated-LSB counts, including the chunk-LUT boundary cases around
// eight bits and the k >= 16 region where wiring-chain projections narrow
// to uint16 entries.
func sliceSpecs() []arith.Adder {
	var specs []arith.Adder
	for _, kind := range approx.AdderKinds {
		for _, w := range []int{8, 16, 32} {
			for _, k := range []int{0, 1, 4, 7, 8, 9, 15, 16} {
				if k > w {
					continue
				}
				specs = append(specs, arith.Adder{Width: w, ApproxLSBs: k, Kind: kind})
			}
		}
	}
	return specs
}

// chainTestSpec is the multiplier configuration the chain tests run over.
var chainTestSpec = arith.Multiplier{Width: 16, ApproxLSBs: 4, Mult: approx.AppMultV1, Add: approx.ApproxAdd5}

// chainTestCoeffs are the product coefficients the chain tests mix:
// distinct magnitudes of both signs.
var chainTestCoeffs = []int64{1, 3, -2, 31}

// scalarChain folds one sample through the bit-serial reference: the
// products of ref (see refProducts), then the adder model's operations —
// product copy or zero-subtract for the first tap, AddSigned/SubSigned
// for the rest — then the output bus slicing.
func scalarChain(ad arith.Adder, ref map[int64]func(int64) int64, ops []ChainOp, xs []int64, i int, shift uint, outW int) int64 {
	var acc int64
	for o, op := range ops {
		var x int64
		if j := i - op.Lag; j >= 0 {
			x = xs[j]
		}
		p := ref[op.Coeff](x)
		switch {
		case o == 0 && op.Sub:
			acc = ad.SubSigned(0, p)
		case o == 0:
			acc = p
		case op.Sub:
			acc = ad.SubSigned(acc, p)
		default:
			acc = ad.AddSigned(acc, p)
		}
	}
	return arith.ToSigned(uint64(acc)>>shift, outW)
}

// historyLen is the least history Run accepts before a chain's first
// position: one more sample than its deepest tap lag.
func historyLen(c *Chain) int {
	h := 1
	for _, op := range c.ops {
		h = max(h, op.lag+1)
	}
	return h
}

// zeroPadded returns xs after pad zeros: a cleared delay line followed by
// the signal, whose positions each read zero before xs[0] as the scalar
// fold does.
func zeroPadded(xs []int64, pad int) []int64 {
	return append(make([]int64, pad, pad+len(xs)), xs...)
}

// runFromZeros runs c over the whole signal xs into dst as a record from
// a cleared delay line: xs after historyLen zeros, from the first sample.
func runFromZeros(c *Chain, dst, xs []int64, shift uint, outW int) {
	h := historyLen(c)
	c.Run(dst, zeroPadded(xs, h), h, shift, outW)
}

// TestChainMatchesScalar runs compiled chains over random signals and
// compares every output against the scalar per-sample accumulation
// through the bit-serial models, for every cell kind and for leading add
// and leading subtract taps. It checks the adder's window strategy the
// same way: Slide over ragged blocks against the bit-serial chain of the
// ring's slots, at two output slicings.
// It runs as the subtest kernels=true, the name it kept from when a
// bit-serial mode ran it a second time as kernels=false.
func TestChainMatchesScalar(t *testing.T) { t.Run("kernels=true", chainMatchesScalar) }

func chainMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := refProducts(chainTestSpec, chainTestCoeffs)
	const n = 64
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(int16(rng.Uint64()))
	}
	// hpfLike triggers the sliding-window AMA5 evaluation: a long
	// run of one subtracted coefficient with a differing tap in the
	// middle (the high-pass shape); hpfHole breaks lag contiguity
	// so the plain projected loop stays covered at length.
	hpfLike := make([]ChainOp, 12)
	hpfHole := make([]ChainOp, 0, 11)
	for i := range hpfLike {
		hpfLike[i] = ChainOp{Coeff: 1, Lag: i, Sub: true}
		if i != 4 {
			hpfHole = append(hpfHole, ChainOp{Coeff: 1, Lag: i, Sub: i%2 == 0})
		}
	}
	hpfLike[6] = ChainOp{Coeff: 31, Lag: 6, Sub: false}
	chains := [][]ChainOp{
		{{Coeff: 1, Lag: 0}, {Coeff: 3, Lag: 1, Sub: true}, {Coeff: -2, Lag: 5}, {Coeff: 31, Lag: 31, Sub: true}},
		{{Coeff: 31, Lag: 2, Sub: true}, {Coeff: 1, Lag: 0}, {Coeff: 3, Lag: n + 3, Sub: true}},
		{{Coeff: -2, Lag: 4}},
		{{Coeff: 1, Lag: 0}, {Coeff: 31, Lag: 6, Sub: true}},
		{{Coeff: 3, Lag: 1, Sub: true}, {Coeff: -2, Lag: 0, Sub: true}},
		hpfLike,
		hpfHole,
		{},
	}
	for _, spec := range sliceSpecs() {
		ad, err := CompileAdder(spec)
		if err != nil {
			t.Fatal(err)
		}
		shift := uint(3)
		outW := spec.Width - 3
		for ci, ops := range chains {
			chain, err := ad.NewChain(chainTestSpec, ops)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]int64, n)
			runFromZeros(chain, dst, xs, shift, outW)
			for i := 0; i < n; i++ {
				want := scalarChain(spec, ref, ops, xs, i, shift, outW)
				if dst[i] != want {
					t.Fatalf("%+v chain %d: Run[%d] = %d, scalar chain %d", spec, ci, i, dst[i], want)
				}
			}
		}
		// Slide vs the scalar chain over the ring in slot order,
		// continued over ragged blocks from a zeroed ring, at the slicing
		// above and at one reaching past the accumulator width, which the
		// running sums slice through the general path.
		for _, wlen := range []int{1, 2, 5, 32} {
			blocks := make([][]int64, 8)
			for b := range blocks {
				xs := make([]int64, rng.Intn(2*wlen))
				for i := range xs {
					xs[i] = int64(int32(rng.Uint64()))
				}
				blocks[b] = xs
			}
			for _, sliceW := range []int{outW, outW + 2} {
				ring := make([]int64, wlen)
				model := make([]int64, wlen)
				pos, sum, mpos := 0, uint64(0), 0
				for _, xs := range blocks {
					dst := make([]int64, len(xs))
					pos, sum = ad.Slide(dst, xs, ring, pos, sum, shift, sliceW)
					for i, x := range xs {
						model[mpos] = x
						mpos = (mpos + 1) % wlen
						acc := model[0]
						for _, v := range model[1:] {
							acc = spec.AddSigned(acc, v)
						}
						// The accumulator is w bits wide: sign-extend it
						// first, as a one-slot window adds nothing.
						acc = arith.ToSigned(uint64(acc), spec.Width)
						if want := arith.ToSigned(uint64(acc)>>shift, sliceW); dst[i] != want {
							t.Fatalf("%+v: Slide(window %d) sliced (%d, %d) [%d] = %d, scalar chain %d",
								spec, wlen, shift, sliceW, i, dst[i], want)
						}
					}
				}
			}
		}
	}
}

// signedOps lowers signed FIR coefficients to chain taps the way
// dsp.NewFIR does: zero coefficients drop, negative ones subtract their
// magnitude.
func signedOps(coeffs ...int64) []ChainOp {
	var ops []ChainOp
	for lag, c := range coeffs {
		switch {
		case c > 0:
			ops = append(ops, ChainOp{Coeff: c, Lag: lag})
		case c < 0:
			ops = append(ops, ChainOp{Coeff: -c, Lag: lag, Sub: true})
		}
	}
	return ops
}

// firShape is a chain shape with the merged tap count and difference
// order sparsestDifference must pick for its fused exact form.
type firShape struct {
	name        string
	ops         []ChainOp
	taps, order int
}

// firShapes are chain shapes whose fused exact forms take each path of
// macChain: the HPF (its 32 taps difference to 4), the LPF triangle
// (second difference, 3 taps), a linear ramp (second difference), a run
// of one subtracted coefficient starting past lag 0 (first difference)
// and the DER, which stays direct.
func firShapes() []firShape {
	hpf := make([]int64, 32)
	for i := range hpf {
		hpf[i] = -1
	}
	hpf[16] = 31
	run := make([]int64, 14)
	for i := 2; i < len(run); i++ {
		run[i] = -7
	}
	return []firShape{
		{"hpf", signedOps(hpf...), 4, 1},
		{"lpf", signedOps(1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1), 3, 2},
		{"ramp", signedOps(1, 2, 3, 4, 5, 6, 7, 8, 9), 3, 2},
		{"run", signedOps(run...), 2, 1},
		{"der", signedOps(2, 1, 0, -1, -2), 4, 0},
	}
}

// TestChainContinuation pins the start-index contract every continuing
// caller relies on: Run over [history | block] from len(history) writes
// the outputs Run over the whole signal has at the block's positions to
// dst[:len(block)], exactly those, and leaves a sentinel just past them
// untouched, for every chain strategy — the fused MAC and its difference
// recurrences, the generic chain (exact under an approximate multiplier,
// AMA1-AMA4, single-tap AMA5), plain and sliding AMA5, empty — with a
// 32-bit and (exact) a 16-bit accumulator, whose sums wrap. The signal
// follows a cleared delay line of historyLen zeros, the least history
// Run accepts, and histories run from that least one up to the whole
// padded prefix. The whole run itself must equal the scalar fold, runs
// from just past the least history its tail (past it a recurrence
// starts), and a run over a signal shorter than the deepest lag its
// prefix. Blocks of passMin-1 to macPassMin+1 positions after the least
// history, as a continuing caller packs it, straddle the spans at which
// the AMA5 strategies (passMin) and the fused MAC's direct taps
// (macPassMin) switch from their sample-major loop to passes, and the
// LPF's minSpan; they run at a second output slicing too, one reaching
// past the accumulator width, which the passes finish through the
// general slicing.
// It runs as the subtest kernels=true, the name it kept from when a
// bit-serial mode ran it a second time as kernels=false.
func TestChainContinuation(t *testing.T) { t.Run("kernels=true", chainContinuation) }

func chainContinuation(t *testing.T) {
	shapes := [][]ChainOp{
		{{Coeff: 1, Lag: 0}, {Coeff: 3, Lag: 1, Sub: true}, {Coeff: 2, Lag: 5}, {Coeff: 31, Lag: 12, Sub: true}},
		{{Coeff: 2, Lag: 4, Sub: true}},
		{},
	}
	for _, s := range firShapes() {
		shapes = append(shapes, s.ops)
	}
	coeffs := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 31}
	exactMul := arith.Multiplier{Width: 16, ApproxLSBs: 0, Mult: approx.AccMult, Add: approx.AccAdd}
	const sentinel = int64(-1) << 40
	rng := rand.New(rand.NewSource(19))
	xs := make([]int64, 160)
	for i := range xs {
		xs[i] = int64(int16(rng.Uint64()))
	}
	refs := map[arith.Multiplier]map[int64]func(int64) int64{
		chainTestSpec: refProducts(chainTestSpec, coeffs),
		exactMul:      refProducts(exactMul, coeffs),
	}
	adders := []arith.Adder{{Width: 16, ApproxLSBs: 0, Kind: approx.AccAdd}}
	for _, kind := range approx.AdderKinds {
		for _, k := range []int{0, 4, 9, 16} {
			adders = append(adders, arith.Adder{Width: 32, ApproxLSBs: k, Kind: kind})
		}
	}
	whole := make([]int64, len(xs))
	wide := make([]int64, len(xs))
	dst := make([]int64, len(xs)+1)
	for _, spec := range adders {
		ad, err := CompileAdder(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, mul := range []arith.Multiplier{chainTestSpec, exactMul} {
			for ci, ops := range shapes {
				chain, err := ad.NewChain(mul, ops)
				if err != nil {
					t.Fatal(err)
				}
				at := fmt.Sprintf("%+v mul %v chain %d", spec, mul, ci)
				// span runs the chain over in from h into a sentinel-filled
				// dst, which must then hold want and, just past it, the
				// sentinel still.
				span := func(what string, in []int64, h int, shift uint, outW int, want []int64) {
					t.Helper()
					for i := range dst {
						dst[i] = sentinel
					}
					chain.Run(dst, in, h, shift, outW)
					for i, v := range want {
						if dst[i] != v {
							t.Fatalf("%s: %s: dst[%d] = %d, want %d", at, what, i, dst[i], v)
						}
					}
					if dst[len(want)] != sentinel {
						t.Fatalf("%s: %s: dst[%d] = %d past the %d outputs, want it untouched",
							at, what, len(want), dst[len(want)], len(want))
					}
				}
				pad := historyLen(chain)
				padded := zeroPadded(xs, pad)
				chain.Run(whole, padded, pad, 3, 29)
				for i := range whole {
					if want := scalarChain(spec, refs[mul], ops, xs, i, 3, 29); whole[i] != want {
						t.Fatalf("%s: Run[%d] = %d, scalar chain %d", at, i, whole[i], want)
					}
				}
				// Whole-signal runs from past the least history and runs
				// over signals shorter than the deepest lag.
				for _, from := range []int{pad + 1, pad + 2} {
					span(fmt.Sprintf("run from %d", from), padded, from, 3, 29, whole[from-pad:])
				}
				for _, n := range []int{1, pad / 2, pad - 1} {
					if n < 1 {
						continue
					}
					span(fmt.Sprintf("%d-sample signal", n), padded[:pad+n], pad, 3, 29, whole[:n])
				}
				for s := 0; s < len(xs); s += 1 + rng.Intn(40) {
					e := s + rng.Intn(len(xs)-s+1)
					for _, h := range []int{pad, pad + 1, pad + s} {
						h = min(h, pad+s)
						span(fmt.Sprintf("block [%d,%d) history %d", s, e, h), padded[pad+s-h:pad+e], h, 3, 29, whole[s:e])
					}
				}
				chain.Run(wide, padded, pad, 20, 16)
				for i := range wide {
					if want := scalarChain(spec, refs[mul], ops, xs, i, 20, 16); wide[i] != want {
						t.Fatalf("%s: Run[%d] sliced (20, 16) = %d, scalar chain %d", at, i, wide[i], want)
					}
				}
				for _, sl := range []struct {
					shift uint
					outW  int
					whole []int64
				}{{3, 29, whole}, {20, 16, wide}} {
					for n := min(passMin, macPassMin) - 1; n <= max(passMin, macPassMin)+1; n++ {
						for s := pad; s+n <= len(xs); s += 23 {
							span(fmt.Sprintf("%d-position block at %d sliced (%d, %d)", n, s, sl.shift, sl.outW),
								padded[s:pad+s+n], pad, sl.shift, sl.outW, sl.whole[s:s+n])
						}
					}
				}
			}
		}
	}
}

// TestSliceShifts checks the once-per-call output slicing against
// finish, its definition, over every accumulator width w, shift and
// output width of finish's domain: where the slice lies inside the
// accumulator (outShift+outWidth <= w), int64(acc*pl) >> r equals finish
// for random, small signed and edge accumulators, which are not masked to
// w bits, as the strategies' running sums are not. Every other slicing
// must take the general path: sliceShifts reports it and returns the
// identity, so finish over the accumulator the loop writes is finish.
func TestSliceShifts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	accs := make([]uint64, 8)
	for w := 1; w <= 64; w++ {
		for outShift := uint(0); outShift < 64; outShift++ {
			for outW := 1; outW <= 64; outW++ {
				pl, r, inside := sliceShifts(w, outShift, outW)
				if want := int(outShift)+outW <= w; inside != want {
					t.Fatalf("sliceShifts(%d, %d, %d) inside = %v, want %v", w, outShift, outW, inside, want)
				}
				if !inside && (pl != 1 || r != 0) {
					t.Fatalf("sliceShifts(%d, %d, %d) = (%d, %d) on the general path, want the identity", w, outShift, outW, pl, r)
				}
				accs[0], accs[1], accs[2] = 0, ^uint64(0), uint64(1)<<(w-1)
				accs[3] = uint64(rng.Int63n(1<<20) - 1<<19)
				for i := 4; i < len(accs); i++ {
					accs[i] = rng.Uint64()
				}
				for _, acc := range accs {
					got := int64(acc*pl) >> r
					if !inside {
						got = finish(uint64(got), w, outShift, outW)
					}
					if want := finish(acc, w, outShift, outW); got != want {
						t.Fatalf("w %d slice (%d, %d) acc %#x: %d, finish %d", w, outShift, outW, acc, got, want)
					}
				}
			}
		}
	}
}

// TestExactChainFusion compares the fused exact chain (native
// multiply-accumulate and its difference recurrences) and its non-fusible
// fallbacks against the scalar accumulation: small coefficients of both
// signs fuse, a coefficient at the sign boundary (2^15) must not, and the
// behaviour is identical either way, through a 32-bit and a wrapping
// 16-bit accumulator. Fused chains must also be table-free, and each FIR
// shape must compile to the difference form firShapes names.
func TestExactChainFusion(t *testing.T) {
	spec := arith.Multiplier{Width: 16, ApproxLSBs: 0, Mult: approx.AccMult, Add: approx.AccAdd}
	coeffs := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, -3, 31, 1 << 15}
	ref := refProducts(spec, coeffs)
	ad, err := CompileAdder(arith.Adder{Width: 32, ApproxLSBs: 0, Kind: approx.AccAdd})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const n = 48
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(int16(rng.Uint64()))
	}
	chains := [][]ChainOp{
		{{Coeff: 1, Lag: 0}, {Coeff: 7, Lag: 1, Sub: true}, {Coeff: -3, Lag: 3}, {Coeff: 31, Lag: 7, Sub: true}},
		{{Coeff: 1 << 15, Lag: 0}, {Coeff: 1, Lag: 2, Sub: true}}, // 2^15 coefficient: no fusion
		{{Coeff: -3, Lag: 1, Sub: true}},
	}
	// A negative or out-of-range coefficient blocks fusion.
	wantFused := []bool{false, false, false}
	fusible := [][]ChainOp{
		{{Coeff: 1, Lag: 0}, {Coeff: 7, Lag: 1, Sub: true}, {Coeff: 31, Lag: 7, Sub: true}},
	}
	for _, s := range firShapes() {
		fusible = append(fusible, s.ops)
		taps := make([]macTap, len(s.ops))
		for o, op := range s.ops {
			taps[o] = macTap{c: op.Coeff, lag: op.Lag}
			if op.Sub {
				taps[o].c = -op.Coeff
			}
		}
		direct := mergeLags(taps)
		form, order := sparsestDifference(direct)
		if order == 0 {
			form = direct
		}
		if len(form) != s.taps || order != s.order {
			t.Fatalf("%s: %d taps of difference order %d, want %d of order %d", s.name, len(form), order, s.taps, s.order)
		}
	}
	for _, w := range []int{32, 16} {
		adK, err := CompileAdder(arith.Adder{Width: w, ApproxLSBs: 0, Kind: approx.AccAdd})
		if err != nil {
			t.Fatal(err)
		}
		for ci, ops := range fusible {
			chain, err := adK.NewChain(spec, ops)
			if err != nil {
				t.Fatal(err)
			}
			if !chain.fused {
				t.Fatalf("in-range exact chain %d did not fuse", ci)
			}
			if len(chain.RawTables()) != 0 {
				t.Fatalf("fused chain materialized %d raw tables", len(chain.RawTables()))
			}
			dst := make([]int64, n)
			runFromZeros(chain, dst, xs, 5, 16)
			for i := 0; i < n; i++ {
				if want := scalarChain(adK.Spec(), ref, ops, xs, i, 5, 16); dst[i] != want {
					t.Fatalf("%d-bit fused chain %d: Run[%d] = %d, scalar %d", w, ci, i, dst[i], want)
				}
			}
		}
	}
	for ci, ops := range chains {
		chain, err := ad.NewChain(spec, ops)
		if err != nil {
			t.Fatal(err)
		}
		if chain.fused != wantFused[ci] {
			t.Fatalf("chain %d: fused = %v, want %v", ci, chain.fused, wantFused[ci])
		}
		dst := make([]int64, n)
		runFromZeros(chain, dst, xs, 5, 16)
		for i := 0; i < n; i++ {
			if want := scalarChain(ad.Spec(), ref, ops, xs, i, 5, 16); dst[i] != want {
				t.Fatalf("chain %d: Run[%d] = %d, scalar %d", ci, i, dst[i], want)
			}
		}
	}
}

// TestChainLazyRawTables pins the laziness contract: an AMA5 chain with a
// sliding plan materializes raw product tables only for its last tap,
// and the projected interior taps' 2^16-entry tables stay out of the
// global cache until another consumer asks for them.
func TestChainLazyRawTables(t *testing.T) {
	DropCaches()
	defer DropCaches()
	spec := arith.Multiplier{Width: 16, ApproxLSBs: 10, Mult: approx.AppMultV1, Add: approx.ApproxAdd5}
	ad, err := CompileAdder(arith.Adder{Width: 32, ApproxLSBs: 10, Kind: approx.ApproxAdd5})
	if err != nil {
		t.Fatal(err)
	}
	// The 32-tap HPF shape: one subtracted unit coefficient everywhere,
	// one differing tap in the middle.
	ops := make([]ChainOp, 32)
	for i := range ops {
		ops[i] = ChainOp{Coeff: 1, Lag: i, Sub: true}
	}
	ops[16] = ChainOp{Coeff: 32, Lag: 16}
	chain, err := ad.NewChain(spec, ops)
	if err != nil {
		t.Fatal(err)
	}
	raw := chain.RawTables()
	if len(raw) != 1 {
		t.Fatalf("AMA5 chain materialized %d raw tables, want 1 (the last tap)", len(raw))
	}
	if got := len(chain.ProjTables()); got != 2 {
		t.Fatalf("chain holds %d distinct projections, want 2", got)
	}
	st := CacheStats()
	if st.ConstTables != 1 {
		t.Fatalf("global cache has %d raw const-mul tables, want 1", st.ConstTables)
	}
	if st.ChainProjs != 2 {
		t.Fatalf("global cache has %d projections, want 2", st.ChainProjs)
	}
}

// TestChainProjTiers checks the projection tier the bound picks before a
// table holds any entry, and the filled table against the direct uint32
// construction: at k >= 16 every term fits and the uint16 table must be
// element-identical to the wide one; at small k, or at a subtracted
// tap's rounding edge, the terms exceed 16 bits and the table must stay
// uint32. The bound does not read the coefficient, so an all-zero
// product table takes the tier of any other.
func TestChainProjTiers(t *testing.T) {
	spec := arith.Multiplier{Width: 16, ApproxLSBs: 16, Mult: approx.AppMultV1, Add: approx.ApproxAdd5}
	m, err := CachedMultiplier(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		coeff  int64
		w, k   int
		neg    bool
		want16 bool
	}{
		{1, 32, 16, true, false}, // rounding edge: (2^32-1 + 2^15) >> 16 == 2^16
		{1, 32, 16, false, true}, // an AMA5 added tap feeds at most 2^32 - 2^16
		{1, 32, 17, true, true},
		{31, 32, 16, false, true},
		{1, 32, 10, true, false}, // terms up to 2^22
		{1, 32, 8, false, false}, // negative operands wrap high: terms > 2^16
		{0, 32, 8, false, false}, // the k = 8 bound, whatever the products
	} {
		p := newChainProj(m, tc.coeff, tc.w, tc.k, tc.neg)
		if got := p.u16 != nil; got != tc.want16 {
			t.Fatalf("%+v: uint16 tier = %v, want %v", tc, got, tc.want16)
		}
		if p.Entries() != int(m.opMask)+1 {
			t.Fatalf("%+v: %d entries, want %d", tc, p.Entries(), int(m.opMask)+1)
		}
		// The minimum operand's magnitude fills the whole table.
		p.cov.cover(p.cov.half)
		if got := p.cov.entries(); got != int64(p.Entries()) {
			t.Fatalf("%+v: %d entries filled, want %d", tc, got, p.Entries())
		}
		// Element-identity against the direct uint32 construction over the
		// products the fill reads (TestRowFills checks those).
		ps := m.Products(tc.coeff)
		mW := mask(tc.w)
		var nm uint64
		if tc.neg {
			nm = ^uint64(0)
		}
		half := uint64(1) << (tc.k - 1)
		for u := 0; u < p.Entries(); u++ {
			prod := ps[magnitude(arith.ToSigned(uint64(u), spec.Width))]
			if u >= len(ps)-1 {
				prod = -prod // a negative operand's entry mirrors its magnitude's
			}
			want := ((uint64(prod)^nm)&mW + half) >> uint(tc.k)
			var got uint64
			if p.u16 != nil {
				got = uint64(p.u16[u])
			} else {
				got = uint64(p.u32[u])
			}
			if got != want {
				t.Fatalf("%+v entry %d: %d, want %d", tc, u, got, want)
			}
		}
	}
}

// TestProductFnMatchesReference checks the per-magnitude product closure
// of the plans a fill cannot take by rows — exact plans and 2-bit leaf
// roots — against the bit-serial reference, over every magnitude
// 0..2^(Width-1) (16-bit ones sampled).
func TestProductFnMatchesReference(t *testing.T) {
	specs := []arith.Multiplier{
		{Width: 16, ApproxLSBs: 0, Mult: approx.AppMultV1, Add: approx.ApproxAdd5}, // exact: k = 0
		{Width: 16, ApproxLSBs: 8, Mult: approx.AccMult, Add: approx.AccAdd},       // exact kinds
		{Width: 2, ApproxLSBs: 2, Mult: approx.AppMultV1, Add: approx.AccAdd},      // leaf root
		{Width: 2, ApproxLSBs: 4, Mult: approx.AppMultV2, Add: approx.ApproxAdd5},  // leaf root
	}
	for _, spec := range specs {
		m, err := CompileMultiplier(spec)
		if err != nil {
			t.Fatal(err)
		}
		if m.composite() {
			t.Fatalf("%+v: a composite plan, which fills by rows", spec)
		}
		step := uint64(1)
		if spec.Width == 16 {
			step = 7
		}
		half := uint64(1) << (spec.Width - 1)
		for _, c := range []int64{0, 1, -2, 31, -31, 255, -1 << 15} {
			f := m.productFn(c)
			for _, mag := range append([]uint64{half}, seq(0, half, step)...) {
				if got, want := f(mag), spec.MulSigned(int64(mag), c); got != want {
					t.Fatalf("%+v c=%d: productFn(%d) = %d, reference %d", spec, c, mag, got, want)
				}
			}
		}
	}
}

// seq returns lo, lo+step, ... below hi.
func seq(lo, hi, step uint64) []uint64 {
	var s []uint64
	for x := lo; x < hi; x += step {
		s = append(s, x)
	}
	return s
}

// FuzzChainRun checks fuzzed chains against the scalar fold of the
// bit-serial reference products. The taps come from a small magnitude
// alphabet through moves that keep, step or replace the previous tap's
// magnitude and keep or flip its sign, so runs, ramps and the FIR shapes
// occur; lags reach at most 40. The adder is exact, through the fused
// chain with a 32- or a wrapping 16-bit accumulator, or AMA5 at k 4, 10,
// 12, 16 or 2 (B9's DER; last, so that earlier inputs keep their
// configs), through the AMA5 projections of both tiers. The signal
// follows a cleared delay line of historyLen zeros. A Run over the
// history (which Run's contract requires an earlier run to have
// evaluated) precedes a Run from a fuzzed start index over the whole
// fuzzed-length signal, which must write exactly its positions to the
// front of dst and leave the element past them untouched.
//
// data[0] picks the adder, data[1] seeds the signal, data[2] sets its
// length (1..96) and data[3] the start index. Every later byte is one
// tap: bits 0-1 move the magnitude (keep, up, down, or jump to the
// alphabet entry in bits 2-4), bit 5 flips the sign and bits 6-7 step
// the next tap's lag by 1, 1, 2 or 0 (a repeated lag). Seeds #6 to #8
// replay B9's LPF (k=10), HPF (k=12) and DER (k=2) as one 24-sample
// serve block after a history of the deepest lag's samples; the last six replay
// the accurate LPF, HPF and DER (exact 32-bit adder), the fused MAC's
// passes, as one such block and as a whole 96-sample record.
func FuzzChainRun(f *testing.F) {
	lpf := []byte{0x00, 0x01, 0x01, 0x01, 0x01, 0x01, 0x02, 0x02, 0x02, 0x02, 0x02}
	hpf := append([]byte{0x20}, make([]byte, 15)...)
	hpf = append(hpf, 0x3f, 0x27)
	hpf = append(hpf, make([]byte, 14)...)
	der := []byte{0x0b, 0x82, 0x20, 0x01}
	f.Add(append([]byte{0, 7, 95, 0}, lpf...))
	f.Add(append([]byte{1, 2, 50, 12}, hpf...))
	f.Add(append([]byte{3, 9, 60, 40}, lpf...))
	f.Add(append([]byte{5, 1, 80, 31}, hpf...))
	f.Add(append([]byte{4, 3, 20, 4}, der...))
	f.Add(append([]byte{2, 5, 6, 0}, hpf...))
	f.Add(append([]byte{3, 11, 10 + 23, 10}, lpf...))
	f.Add(append([]byte{4, 12, 31 + 23, 31}, hpf...))
	f.Add(append([]byte{6, 13, 4 + 23, 4}, der...))
	f.Add(append([]byte{0, 14, 10 + 23, 10}, lpf...))
	f.Add(append([]byte{0, 15, 31 + 23, 31}, hpf...))
	f.Add(append([]byte{0, 16, 4 + 23, 4}, der...))
	f.Add(append([]byte{0, 17, 95, 0}, lpf...))
	f.Add(append([]byte{0, 18, 95, 0}, hpf...))
	f.Add(append([]byte{0, 19, 95, 0}, der...))
	mags := []int64{0, 1, 2, 3, 4, 5, 6, 31}
	exactMul := arith.Multiplier{Width: 16, ApproxLSBs: 0, Mult: approx.AccMult, Add: approx.AccAdd}
	type config struct {
		adder arith.Adder
		mul   arith.Multiplier
	}
	configs := []config{
		{arith.Adder{Width: 32, ApproxLSBs: 0, Kind: approx.AccAdd}, exactMul},
		{arith.Adder{Width: 16, ApproxLSBs: 0, Kind: approx.AccAdd}, exactMul},
	}
	for _, k := range []int{4, 10, 12, 16, 2} {
		configs = append(configs, config{
			arith.Adder{Width: 32, ApproxLSBs: k, Kind: approx.ApproxAdd5},
			arith.Multiplier{Width: 16, ApproxLSBs: k, Mult: approx.AppMultV1, Add: approx.ApproxAdd5},
		})
	}
	const sentinel = int64(-1) << 40
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		cfg := configs[int(data[0])%len(configs)]
		ad, err := CompileAdder(cfg.adder)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(data[1])))
		xs := make([]int64, 1+int(data[2])%96)
		for i := range xs {
			xs[i] = int64(int16(rng.Uint64()))
		}
		from := int(data[3]) % (len(xs) + 1)
		var ops []ChainOp
		idx, sub, lag := 1, false, 0
		for _, b := range data[4:] {
			if lag > 40 || len(ops) == 64 {
				break
			}
			switch b & 3 {
			case 1:
				idx = min(idx+1, len(mags)-1)
			case 2:
				idx = max(idx-1, 0)
			case 3:
				idx = int(b>>2) & 7
			}
			sub = sub != (b>>5&1 == 1)
			ops = append(ops, ChainOp{Coeff: mags[idx], Lag: lag, Sub: sub})
			lag += [4]int{1, 1, 2, 0}[b>>6]
		}
		chain, err := ad.NewChain(cfg.mul, ops)
		if err != nil {
			t.Fatal(err)
		}
		shift, outW := uint(3), cfg.adder.Width-3
		pad := historyLen(chain)
		padded := zeroPadded(xs, pad)
		hist := make([]int64, from)
		chain.Run(hist, padded[:pad+from], pad, shift, outW)
		dst := make([]int64, len(xs)+1)
		for i := range dst {
			dst[i] = sentinel
		}
		chain.Run(dst, padded, pad+from, shift, outW)
		ref := refProducts(cfg.mul, mags)
		for i := range xs {
			want := scalarChain(cfg.adder, ref, ops, xs, i, shift, outW)
			switch {
			case i < from && hist[i] != want:
				t.Fatalf("%+v taps %v from %d: history run [%d] = %d, want %d", cfg.adder, ops, from, i, hist[i], want)
			case i >= from && dst[i-from] != want:
				t.Fatalf("%+v taps %v from %d: position %d: dst[%d] = %d, want %d",
					cfg.adder, ops, from, i, i-from, dst[i-from], want)
			}
		}
		if n := len(xs) - from; dst[n] != sentinel {
			t.Fatalf("%+v taps %v from %d: dst[%d] = %d past the %d outputs, want it untouched",
				cfg.adder, ops, from, n, dst[n], n)
		}
	})
}
