package kernel_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
	"github.com/xbiosip/xbiosip/internal/arith/kernel"
	"github.com/xbiosip/xbiosip/internal/core"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

// chainWidths are the accumulator widths the tier test projects onto:
// the pipeline's 32-bit chains and a narrower one.
var chainWidths = [2]int{29, 32}

// productRange enumerates one (spec, coefficient) product over every
// operand value: whether every entry of the full table fits int32, and
// per chain width the largest w-bit pattern an added (ub = p) and a
// subtracted (ub = ^p) tap feeds an AMA5 chain — the term of a
// projection grows with ub, so these decide the narrowest projection
// tier the entries allow. Constant products are odd, so each magnitude
// is evaluated once for both signs; the minimum operand has no twin.
type productRange struct {
	fits32         bool
	maxAdd, maxSub [len(chainWidths)]uint64
}

func enumerateProducts(t *testing.T, spec arith.Multiplier, c int64) productRange {
	t.Helper()
	m, err := kernel.CompileMultiplier(spec)
	if err != nil {
		t.Fatal(err)
	}
	ps := m.Products(c)
	r := productRange{fits32: true}
	entry := func(p int64) {
		if p > math.MaxInt32 || p < math.MinInt32 {
			r.fits32 = false
		}
		for i, w := range chainWidths {
			mW := uint64(1)<<w - 1
			r.maxAdd[i] = max(r.maxAdd[i], uint64(p)&mW)
			r.maxSub[i] = max(r.maxSub[i], ^uint64(p)&mW)
		}
	}
	half := len(ps) - 1
	for _, p := range ps[:half] {
		entry(p)
		entry(-p)
	}
	entry(-ps[half])
	return r
}

// projFits16 is the tier the entries allow at chain width chainWidths[i]:
// every AMA5 term fits uint16.
func (r productRange) projFits16(i, k int, neg bool) bool {
	ub := r.maxAdd[i]
	if neg {
		ub = r.maxSub[i]
	}
	return (ub+uint64(1)<<(k-1))>>k <= 0xffff
}

// squaresFit32 reports whether every square of spec fits int32. Squares
// are even, so the magnitudes 0..2^(Width-1) cover every entry.
func squaresFit32(t *testing.T, spec arith.Multiplier) bool {
	t.Helper()
	m, err := kernel.CompileMultiplier(spec)
	if err != nil {
		t.Fatal(err)
	}
	for mag := int64(0); mag <= 1<<(spec.Width-1); mag++ {
		if p := m.MulSigned(mag, mag); p > math.MaxInt32 || p < math.MinInt32 {
			return false
		}
	}
	return true
}

// TestTableTierBounds checks the representation tiers that bounds pick
// before a table holds any entry against the entries themselves.
//
// Over Width {4, 8, 16}, every multiplier and adder kind, k = 1..2*Width,
// chain widths {29, 32} and both tap polarities, no chosen tier may be
// narrower than an enumerated entry needs: an int32
// const-mul table holds only int32 products, squares always fit int32,
// and a uint16 projection holds only uint16 terms. Coefficients sample
// small and boundary magnitudes of both signs — at 16 bits the int32
// bound is tightest at |c| = 2^15 - 1, and the projection bound does not
// depend on c. Under -short, and in race builds, which instrument this
// one-goroutine enumeration for nothing, the grid samples every fourth k
// and the tightest coefficient, and the explorer's space every other k.
//
// Over the explorer's design space — the Table 1 kinds, the LSB lists of
// core.DefaultLSBLists and the LPF/HPF/DER coefficients as the FIR
// stages pass them — every tier must equal the narrowest one the
// enumeration allows, which is the tier tables took when they were
// enumerated at creation, so no table grew. The exact pairing (AccMult
// with AccAdd) checks its squares only: its plan gets no const-mul table
// or projection (NewChain fuses its chains).
func TestTableTierBounds(t *testing.T) {
	sample := testing.Short() || kernel.RaceBuild()
	for _, width := range []int{4, 8, 16} {
		half := int64(1) << (width - 1)
		coeffs := []int64{1, -1, 2, 3, -6, 31, half - 1, -(half - 1), half, -half}
		kStep := 1
		switch {
		case sample:
			coeffs, kStep = []int64{half - 1}, 4
		case width == 16:
			coeffs = []int64{-6, 12345, half - 1}
		}
		for _, mk := range approx.MultKinds {
			t.Run(fmt.Sprintf("w%d/%v", width, mk), func(t *testing.T) {
				t.Parallel()
				checkTierGrid(t, width, mk, coeffs, kStep)
			})
		}
	}

	// The explorer's space, as dsp builds it: a 16-bit multiplier and a
	// 32-bit chain adder sharing one k and one adder kind, coefficient
	// magnitudes with the sign as the tap's polarity.
	for _, mk := range approx.MultKinds {
		t.Run(fmt.Sprintf("explorer/%v", mk), func(t *testing.T) {
			t.Parallel()
			checkExplorerTiers(t, mk, sample)
		})
	}
}

// checkTierGrid checks that no tier the bounds choose for one width and
// multiplier kind is narrower than its enumerated entries need.
func checkTierGrid(t *testing.T, width int, mk approx.MultKind, coeffs []int64, kStep int) {
	for _, ak := range approx.AdderKinds {
		for k := 1; k <= 2*width; k += kStep {
			spec := arith.Multiplier{Width: width, ApproxLSBs: k, Mult: mk, Add: ak}
			if !squaresFit32(t, spec) {
				t.Fatalf("%+v: a square overflows the int32 square table", spec)
			}
			if exactKinds(spec) {
				continue
			}
			for _, c := range coeffs {
				r := enumerateProducts(t, spec, c)
				if kernel.ConstFits32(spec, c) && !r.fits32 {
					t.Fatalf("%+v c=%d: int32 tier chosen, a product overflows it", spec, c)
				}
				for i, w := range chainWidths {
					ck := min(k, w)
					for _, neg := range []bool{false, true} {
						if kernel.ProjFits16(spec, w, ck, neg) && !r.projFits16(i, ck, neg) {
							t.Fatalf("%+v c=%d w=%d k=%d neg=%v: uint16 tier chosen, a term overflows it",
								spec, c, w, ck, neg)
						}
					}
				}
			}
		}
	}
}

// exactKinds reports whether spec pairs the exact cells, an exact plan at
// any k.
func exactKinds(spec arith.Multiplier) bool {
	return spec.Mult == approx.AccMult && spec.Add == approx.AccAdd
}

// checkExplorerTiers checks that every tier the bounds choose over the
// explorer's space for one multiplier kind equals the narrowest tier its
// enumerated entries allow.
func checkExplorerTiers(t *testing.T, mk approx.MultKind, sample bool) {
	lists := core.DefaultLSBLists()
	firs := map[pantompkins.Stage][]int64{
		pantompkins.LPF: pantompkins.LPFCoeffs,
		pantompkins.HPF: pantompkins.HPFCoeffs,
		pantompkins.DER: pantompkins.DERCoeffs,
	}
	for _, ak := range approx.AdderKinds {
		for _, k := range lists[pantompkins.SQR] {
			spec := arith.Multiplier{Width: 16, ApproxLSBs: k, Mult: mk, Add: ak}
			if !squaresFit32(t, spec) {
				t.Fatalf("%+v: square table tier int32, the enumeration needs int64", spec)
			}
		}
		for stage, taps := range firs {
			for i, k := range lists[stage] {
				spec := arith.Multiplier{Width: 16, ApproxLSBs: k, Mult: mk, Add: ak}
				if k == 0 || exactKinds(spec) || sample && i%2 == 1 {
					continue
				}
				ranges := map[int64]productRange{}
				for _, tc := range taps {
					if tc == 0 {
						continue
					}
					c, neg := tc, tc < 0
					if neg {
						c = -tc
					}
					label := fmt.Sprintf("%v %+v c=%d", stage, spec, tc)
					r, ok := ranges[c]
					if !ok {
						r = enumerateProducts(t, spec, c)
						ranges[c] = r
						if got := kernel.ConstFits32(spec, c); got != r.fits32 {
							t.Fatalf("%s: const-mul int32 tier %v, enumeration %v", label, got, r.fits32)
						}
					}
					if ak != approx.ApproxAdd5 {
						continue
					}
					if got, want := kernel.ProjFits16(spec, 32, k, neg), r.projFits16(1, k, neg); got != want {
						t.Fatalf("%s: projection uint16 tier %v, enumeration %v", label, got, want)
					}
				}
			}
		}
	}
}
