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

// refMul returns reference product closures (via eagerly built tables,
// which are themselves equivalence-tested against the bit-serial model)
// for the scalar chain reference.
func refMul(t *testing.T, spec arith.Multiplier, coeffs []int64) map[int64]func(int64) int64 {
	t.Helper()
	ref := make(map[int64]func(int64) int64, len(coeffs))
	for _, c := range coeffs {
		tab, err := NewConstMulTable(spec, c)
		if err != nil {
			t.Fatal(err)
		}
		ref[c] = tab.Mul
	}
	return ref
}

// scalarChain folds one sample through the reference per-tap operations:
// product copy or zero-subtract for the first tap, AddSigned/SubSigned
// for the rest, then the output bus slicing.
func scalarChain(ad *Adder, ref map[int64]func(int64) int64, ops []ChainOp, xs []int64, i int, shift uint, outW int) int64 {
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

// TestChainMatchesScalar runs compiled chains over random signals and
// compares every output against the scalar per-sample accumulation, for
// every cell kind in both compilation modes and for leading add and
// leading subtract taps. It checks the adder's window strategy the same
// way: Slide over ragged blocks against the scalar chain of the ring's
// slots.
func TestChainMatchesScalar(t *testing.T) {
	for _, mode := range []bool{true, false} {
		mode := mode
		t.Run(fmt.Sprintf("kernels=%v", mode), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			ref := refMul(t, chainTestSpec, chainTestCoeffs)
			const n = 64
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = int64(int16(rng.Uint64()))
			}
			// hpfLike triggers the sliding-window wiring evaluation: a long
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
				ad, err := compileAdderMode(spec, mode)
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
					chain.Run(dst, xs, 0, shift, outW)
					for i := 0; i < n; i++ {
						want := scalarChain(ad, ref, ops, xs, i, shift, outW)
						if dst[i] != want {
							t.Fatalf("%+v chain %d: Run[%d] = %d, scalar chain %d", spec, ci, i, dst[i], want)
						}
					}
				}
				// Slide vs the scalar chain over the ring in slot order,
				// continued over ragged blocks from a zeroed ring.
				for _, wlen := range []int{1, 2, 5, 32} {
					ring := make([]int64, wlen)
					model := make([]int64, wlen)
					pos, sum, mpos := 0, uint64(0), 0
					for b := 0; b < 8; b++ {
						xs := make([]int64, rng.Intn(2*wlen))
						for i := range xs {
							xs[i] = int64(int32(rng.Uint64()))
						}
						dst := make([]int64, len(xs))
						pos, sum = ad.Slide(dst, xs, ring, pos, sum, shift, outW)
						for i, x := range xs {
							model[mpos] = x
							mpos = (mpos + 1) % wlen
							acc := model[0]
							for _, v := range model[1:] {
								acc = ad.AddSigned(acc, v)
							}
							if want := arith.ToSigned(uint64(acc)>>shift, outW); dst[i] != want {
								t.Fatalf("%+v: Slide(window %d)[%d] = %d, scalar chain %d", spec, wlen, i, dst[i], want)
							}
						}
					}
				}
			}
		})
	}
}

// TestChainContinuation pins the start-index contract every continuing
// caller relies on: Run over [history | block] from len(history) writes
// exactly the tail of Run over the whole signal at the block's positions
// and leaves dst[:from] untouched, for every chain strategy — native,
// fused MAC, AMA2, chunk LUT, plain and sliding wiring, single tap,
// empty — in both compilation modes. Histories run from the deepest tap
// lag (the least that is exact) up to the whole signal prefix.
func TestChainContinuation(t *testing.T) {
	hpf := make([]ChainOp, 32)
	for i := range hpf {
		hpf[i] = ChainOp{Coeff: 1, Lag: i, Sub: true}
	}
	hpf[16] = ChainOp{Coeff: 31, Lag: 16}
	shapes := [][]ChainOp{
		hpf,
		{{Coeff: 1, Lag: 0}, {Coeff: 3, Lag: 1, Sub: true}, {Coeff: 2, Lag: 5}, {Coeff: 31, Lag: 12, Sub: true}},
		{{Coeff: 2, Lag: 4, Sub: true}},
		{},
	}
	exactMul := arith.Multiplier{Width: 16, ApproxLSBs: 0, Mult: approx.AccMult, Add: approx.AccAdd}
	const sentinel = int64(-1) << 40
	for _, mode := range []bool{true, false} {
		mode := mode
		t.Run(fmt.Sprintf("kernels=%v", mode), func(t *testing.T) {
			rng := rand.New(rand.NewSource(19))
			xs := make([]int64, 160)
			for i := range xs {
				xs[i] = int64(int16(rng.Uint64()))
			}
			whole := make([]int64, len(xs))
			for _, kind := range approx.AdderKinds {
				for _, k := range []int{0, 4, 9, 16} {
					ad, err := compileAdderMode(arith.Adder{Width: 32, ApproxLSBs: k, Kind: kind}, mode)
					if err != nil {
						t.Fatal(err)
					}
					for _, mul := range []arith.Multiplier{chainTestSpec, exactMul} {
						for ci, ops := range shapes {
							chain, err := ad.NewChain(mul, ops)
							if err != nil {
								t.Fatal(err)
							}
							maxLag := 0
							for _, op := range ops {
								if op.Lag > maxLag {
									maxLag = op.Lag
								}
							}
							chain.Run(whole, xs, 0, 3, 29)
							for s := 0; s < len(xs); s += 1 + rng.Intn(40) {
								e := s + rng.Intn(len(xs)-s+1)
								for _, h := range []int{maxLag, maxLag + 1, s} {
									if h > s {
										h = s
									}
									in := xs[s-h : e]
									dst := make([]int64, len(in))
									for i := range dst {
										dst[i] = sentinel
									}
									chain.Run(dst, in, h, 3, 29)
									for i := range dst {
										want := sentinel
										if i >= h {
											want = whole[s-h+i]
										}
										if dst[i] != want {
											t.Fatalf("%v k=%d mul %v chain %d: block [%d,%d) history %d: dst[%d] = %d, want %d",
												kind, k, mul, ci, s, e, h, i, dst[i], want)
										}
									}
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestExactChainFusion compares the fused exact chain (native
// multiply-accumulate) and its non-fusible fallbacks against the scalar
// accumulation: small coefficients of both signs fuse, a coefficient at
// the sign boundary (2^15) must not, and the behaviour is identical
// either way. Fused chains must also be table-free.
func TestExactChainFusion(t *testing.T) {
	spec := arith.Multiplier{Width: 16, ApproxLSBs: 0, Mult: approx.AccMult, Add: approx.AccAdd}
	coeffs := []int64{1, 7, -3, 31, 1 << 15}
	ref := refMul(t, spec, coeffs)
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
	// A negative or out-of-range coefficient blocks fusion in every mode.
	wantFused := []bool{false, false, false}
	// Fusion itself requires a kernel-mode exact adder (oracle mode keeps
	// the bit-serial models on the path), so pin the mode here.
	adK, err := compileAdderMode(arith.Adder{Width: 32, ApproxLSBs: 0, Kind: approx.AccAdd}, true)
	if err != nil {
		t.Fatal(err)
	}
	fusible := [][]ChainOp{
		{{Coeff: 1, Lag: 0}, {Coeff: 7, Lag: 1, Sub: true}, {Coeff: 31, Lag: 7, Sub: true}},
	}
	for _, ops := range fusible {
		chain, err := adK.NewChain(spec, ops)
		if err != nil {
			t.Fatal(err)
		}
		if !chain.fused {
			t.Fatalf("in-range exact chain did not fuse")
		}
		if len(chain.RawTables()) != 0 {
			t.Fatalf("fused chain materialized %d raw tables", len(chain.RawTables()))
		}
		dst := make([]int64, n)
		chain.Run(dst, xs, 0, 5, 16)
		for i := 0; i < n; i++ {
			if want := scalarChain(ad, ref, ops, xs, i, 5, 16); dst[i] != want {
				t.Fatalf("fused chain: Run[%d] = %d, scalar %d", i, dst[i], want)
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
		chain.Run(dst, xs, 0, 5, 16)
		for i := 0; i < n; i++ {
			if want := scalarChain(ad, ref, ops, xs, i, 5, 16); dst[i] != want {
				t.Fatalf("chain %d: Run[%d] = %d, scalar %d", ci, i, dst[i], want)
			}
		}
	}
}

// TestChainLazyRawTables pins the laziness contract: a wiring chain with a
// sliding plan materializes raw product tables only for its boundary taps,
// and the projected interior taps' 2^16-entry tables stay out of the
// global cache until another consumer asks for them.
func TestChainLazyRawTables(t *testing.T) {
	DropCaches()
	defer DropCaches()
	spec := arith.Multiplier{Width: 16, ApproxLSBs: 10, Mult: approx.AppMultV1, Add: approx.ApproxAdd5}
	// The wiring-projection strategy only compiles in kernel mode; pin it
	// so the laziness contract holds under the oracle CI run too.
	ad, err := compileAdderMode(arith.Adder{Width: 32, ApproxLSBs: 10, Kind: approx.ApproxAdd5}, true)
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

	// An oracle-mode adder chain reads every tap's product: all tables.
	adO, err := compileAdderMode(arith.Adder{Width: 32, ApproxLSBs: 10, Kind: approx.ApproxAdd5}, false)
	if err != nil {
		t.Fatal(err)
	}
	chainO, err := adO.NewChain(spec, ops)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(chainO.RawTables()); got != 2 {
		t.Fatalf("oracle chain materialized %d raw tables, want 2 (both magnitudes)", got)
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
		coeff    int64
		w, k     int
		neg, rnd bool
		want16   bool
	}{
		{1, 32, 16, true, true, false}, // rounding edge: (2^32-1 + 2^15) >> 16 == 2^16
		{1, 32, 16, false, true, true}, // an AMA5 added tap feeds at most 2^32 - 2^16
		{1, 32, 17, true, false, true},
		{31, 32, 16, false, true, true},
		{1, 32, 10, true, true, false},  // terms up to 2^22
		{1, 32, 8, false, false, false}, // negative operands wrap high: terms > 2^16
		{0, 32, 8, false, false, false}, // the k = 8 bound, whatever the products
	} {
		p := newChainProj(m, tc.coeff, tc.w, tc.k, tc.neg, tc.rnd)
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
		// Element-identity against the direct uint32 construction.
		f := m.productFn(tc.coeff)
		mW := mask(tc.w)
		var nm uint64
		if tc.neg {
			nm = ^uint64(0)
		}
		var half uint64
		if tc.rnd {
			half = uint64(1) << (tc.k - 1)
		}
		for u := 0; u < p.Entries(); u++ {
			x := arith.ToSigned(uint64(u), spec.Width)
			want := ((uint64(f(x))^nm)&mW + half) >> uint(tc.k)
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

// TestProductFnMatchesReference checks the table-free product closure —
// what projections are built from — against the bit-serial reference for
// every representation tier.
func TestProductFnMatchesReference(t *testing.T) {
	specs := []arith.Multiplier{
		{Width: 16, ApproxLSBs: 0, Mult: approx.AccMult, Add: approx.AccAdd},       // exact
		{Width: 16, ApproxLSBs: 8, Mult: approx.AppMultV1, Add: approx.AccAdd},     // decomposed-exact
		{Width: 16, ApproxLSBs: 8, Mult: approx.AppMultV1, Add: approx.ApproxAdd5}, // composite approx
		{Width: 16, ApproxLSBs: 12, Mult: approx.AppMultV2, Add: approx.ApproxAdd3},
	}
	for _, mode := range []bool{true, false} {
		for _, spec := range specs {
			m, err := compileMultiplierMode(spec, mode)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []int64{0, 1, -2, 31, -31, 255} {
				f := m.productFn(c)
				for i := 0; i < 1<<16; i += 7 {
					x := arith.ToSigned(uint64(i), 16)
					if got, want := f(x), spec.MulSigned(x, c); got != want {
						t.Fatalf("mode=%v %+v c=%d: productFn(%d) = %d, reference %d", mode, spec, c, x, got, want)
					}
				}
			}
		}
	}
}
