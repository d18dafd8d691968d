package kernel

import (
	"fmt"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
)

// TestSubProductTablesMatchEval checks the recursive sub-product tables
// against the per-entry plan walk they replace: entry a of lo must pack
// ll(a, cl) | lh(a, ch)<<16 and entry a of hi hl(a, cl) | hh(a, ch)<<16,
// for every composite plan of Width 4, 8 and 16 (every multiplier kind,
// adder kind and k) and coefficient magnitudes that cover both halves,
// their edges and, masked to the width, wrapping values. Under -short
// and in race builds it samples every third k.
func TestSubProductTablesMatchEval(t *testing.T) {
	mags := []uint64{0, 1, 2, 3, 6, 31, 255, 256, 300, 32767, 32768, 65535}
	kStep := 1
	if testing.Short() || raceBuild {
		kStep = 3
	}
	for _, width := range []int{4, 8, 16} {
		for _, mk := range approx.MultKinds {
			t.Run(fmt.Sprintf("w%d/%v", width, mk), func(t *testing.T) {
				t.Parallel()
				for _, ak := range approx.AdderKinds {
					for k := 1; k <= 2*width; k += kStep {
						spec := arith.Multiplier{Width: width, ApproxLSBs: k, Mult: mk, Add: ak}
						m, err := CompileMultiplier(spec)
						if err != nil {
							t.Fatal(err)
						}
						if !m.composite() {
							continue
						}
						n := m.root
						for _, cm := range mags {
							cm &= m.opMask
							lo, hi := n.subProductTables(cm)
							cl, ch := cm&n.hMask, cm>>n.h
							for a := range lo {
								ua := uint64(a)
								wantLo := uint32(n.ll.eval(ua, cl)) | uint32(n.lh.eval(ua, ch))<<16
								wantHi := uint32(n.hl.eval(ua, cl)) | uint32(n.hh.eval(ua, ch))<<16
								if lo[a] != wantLo || hi[a] != wantHi {
									t.Fatalf("%+v cm=%d: entry %d = %#x/%#x, plan walk %#x/%#x", spec, cm, a, lo[a], hi[a], wantLo, wantHi)
								}
							}
						}
					}
				}
			})
		}
	}
}

// rowFillCase is one plan and coefficient the row-fill test fills.
type rowFillCase struct {
	spec arith.Multiplier
	c    int64
}

// rowFillCases returns the plans and coefficients TestRowFills fills. At
// Width 16 every root-adder kind appears: exact and AMA5, which fill
// through the closed form, and AMA1-AMA4, which call the adders.
// The coefficients are the explorer's 6 and 31 and three with a non-zero
// high byte (300, 32767 and -32768), whose hh sub-products are non-zero;
// -32768 and k > 16 take the int64 const-mul tier. At Width 4 and 8,
// whose rows are shorter than one fillStep, every multiplier and adder
// kind appears at three k, with coefficients that rotate through the
// minimum, the maximum and 6. Under -short and in race builds only the
// first two Width-16 cases run.
func rowFillCases(sample bool) []rowFillCase {
	w16 := func(k int, mk approx.MultKind, ak approx.AdderKind, c int64) rowFillCase {
		return rowFillCase{arith.Multiplier{Width: 16, ApproxLSBs: k, Mult: mk, Add: ak}, c}
	}
	cases := []rowFillCase{
		w16(16, approx.AppMultV1, approx.ApproxAdd5, 31),
		w16(8, approx.AppMultV2, approx.ApproxAdd1, 300),
		w16(12, approx.AppMultV1, approx.ApproxAdd5, -32768),
		w16(8, approx.AppMultV2, approx.ApproxAdd4, 300),
		w16(16, approx.AccMult, approx.ApproxAdd4, 6),
		w16(12, approx.AppMultV1, approx.AccAdd, 32767),
		w16(20, approx.AppMultV2, approx.ApproxAdd2, -32768),
		w16(16, approx.AccMult, approx.ApproxAdd3, 32767),
	}
	if sample {
		return cases[:2]
	}
	for _, width := range []int{4, 8} {
		half := int64(1) << (width - 1)
		coeffs := []int64{-half, half - 1, 6}
		for _, mk := range approx.MultKinds {
			for _, ak := range approx.AdderKinds {
				for i, k := range []int{1, width, 2*width - 1} {
					spec := arith.Multiplier{Width: width, ApproxLSBs: k, Mult: mk, Add: ak}
					cases = append(cases, rowFillCase{spec, coeffs[i]})
				}
			}
		}
	}
	return cases
}

// TestRowFills fills projections and full const-mul tables whole, through
// their fill functions in pieces that start and end inside rows and end
// with the minimum operand, and checks every entry against the plan walk
// (Multiplier.MulSigned) and a sample of operands against the bit-serial
// arith.Multiplier.MulSigned. The projections cover both polarities and
// chain widths 16 and 32. Both row forms must run.
func TestRowFills(t *testing.T) {
	forms := map[bool]bool{}
	for _, tc := range rowFillCases(testing.Short() || raceBuild) {
		m, err := CompileMultiplier(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if m.composite() {
			_, okM := m.root.addMid.wiringForm()
			_, okL := m.root.addLo.wiringForm()
			forms[okM && okL] = true
		}
		half := uint64(1) << (tc.spec.Width - 1)
		walk := make([]int64, half+1) // the product of +mag
		for mag := range walk {
			walk[mag] = m.MulSigned(int64(mag), tc.c)
		}
		// product is entry u's product: the walk of +mag mirrored for -mag.
		// Zero has no mirror (AMA4's low bits may make its product
		// non-zero), the minimum operand no positive twin.
		product := func(u int) int64 {
			x := arith.ToSigned(uint64(u), tc.spec.Width)
			if x < 0 {
				return -walk[-x]
			}
			return walk[x]
		}
		for _, u := range []uint64{0, 1, 3, half / 2, half/2 + 1, half - 1, half, half + 1, 2*half - 1} {
			x := arith.ToSigned(u, tc.spec.Width)
			if got, want := product(int(u)), tc.spec.MulSigned(x, tc.c); got != want {
				t.Fatalf("%+v c=%d: plan walk of %d = %d, bit-serial %d", tc.spec, tc.c, x, got, want)
			}
		}
		cuts := []uint64{0, 1, half/2 + 1, half - 1, half + 1}
		fill := func(cov *coverage) {
			for i := 1; i < len(cuts); i++ {
				cov.fill(cuts[i-1], cuts[i])
			}
		}
		for _, w := range []int{16, 32} {
			k := min(tc.spec.ApproxLSBs, w)
			for _, neg := range []bool{false, true} {
				p := newChainProj(m, tc.c, w, k, neg)
				fill(p.cov)
				term := projTerm{mW: mask(w), half: uint64(1) << (k - 1), k: uint(k)}
				if neg {
					term.nm = ^uint64(0)
				}
				for u := 0; u < p.Entries(); u++ {
					got := uint64(0)
					if p.u16 != nil {
						got = uint64(p.u16[u])
					} else {
						got = uint64(p.u32[u])
					}
					if want := term.of(product(u)); got != want {
						t.Fatalf("%+v c=%d w=%d k=%d neg=%v: entry %d = %d, plan walk %d",
							tc.spec, tc.c, w, k, neg, u, got, want)
					}
				}
			}
		}
		tab, err := NewConstMulTable(tc.spec, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		if tab.cov == nil {
			continue // the exact tier fills nothing
		}
		fill(tab.cov)
		for u := range 1 << tc.spec.Width {
			got := int64(0)
			if tab.tab32 != nil {
				got = int64(tab.tab32[u])
			} else {
				got = tab.tab64[u]
			}
			if want := product(u); got != want {
				t.Fatalf("%+v c=%d: const-mul entry %d = %d, plan walk %d (int64 tier %v)", tc.spec, tc.c, u, got, want, tab.tab64 != nil)
			}
		}
	}
	if !forms[true] || !forms[false] {
		t.Fatalf("row forms run (closed form: true, adder closures: false): %v", forms)
	}
}
