package kernel_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
	"github.com/xbiosip/xbiosip/internal/arith/kernel"
	"github.com/xbiosip/xbiosip/internal/oracle"
)

// TestAdderExhaustive8 proves the compiled adder bit-identical to the
// bit-serial reference for every cell kind and every approximated-LSB
// count at width 8, over all 2^16 operand pairs and both carry-ins, plus
// the subtractor path.
func TestAdderExhaustive8(t *testing.T) {
	for _, kind := range approx.AdderKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			for k := 0; k <= 8; k++ {
				ref := arith.Adder{Width: 8, ApproxLSBs: k, Kind: kind}
				kad, err := kernel.CompileAdder(ref)
				if err != nil {
					t.Fatal(err)
				}
				for a := uint64(0); a < 256; a++ {
					for b := uint64(0); b < 256; b++ {
						for cin := uint8(0); cin < 2; cin++ {
							ws, wc := oracle.AddCarry(ref, a, b, cin)
							gs, gc := kad.AddCarry(a, b, cin)
							if gs != ws || gc != wc {
								t.Fatalf("%v k=%d AddCarry(%#x,%#x,%d): kernel (%#x,%d), reference (%#x,%d)",
									kind, k, a, b, cin, gs, gc, ws, wc)
							}
						}
						if w, g := oracle.Sub(ref, a, b), kad.Sub(a, b); g != w {
							t.Fatalf("%v k=%d Sub(%#x,%#x): kernel %#x, reference %#x", kind, k, a, b, g, w)
						}
					}
				}
			}
		})
	}
}

// wideAdderLSBs picks representative approximated-LSB counts for width w:
// the strategy boundaries (0, 1, w) plus chunk-LUT partial/full byte splits.
func wideAdderLSBs(w int) []int {
	ks := map[int]bool{0: true, 1: true, 7: true, 8: true, 9: true, w / 2: true, w - 1: true, w: true}
	var out []int
	for k := range ks {
		if k >= 0 && k <= w {
			out = append(out, k)
		}
	}
	return out
}

// TestAdderRandomWide runs the randomized wide-width equivalence sweep:
// every cell kind at widths 16..64 (including the non-power-of-two and the
// 64-bit edge cases) over random operands, for AddCarry and both signed
// paths.
func TestAdderRandomWide(t *testing.T) {
	for _, w := range []int{16, 24, 32, 33, 63, 64} {
		for _, kind := range approx.AdderKinds {
			w, kind := w, kind
			t.Run(fmt.Sprintf("w%d/%v", w, kind), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(int64(w)*100 + int64(kind)))
				for _, k := range wideAdderLSBs(w) {
					ref := arith.Adder{Width: w, ApproxLSBs: k, Kind: kind}
					kad, err := kernel.CompileAdder(ref)
					if err != nil {
						t.Fatal(err)
					}
					for n := 0; n < 3000; n++ {
						a, b := rng.Uint64(), rng.Uint64()
						cin := uint8(rng.Intn(2))
						ws, wc := oracle.AddCarry(ref, a, b, cin)
						gs, gc := kad.AddCarry(a, b, cin)
						if gs != ws || gc != wc {
							t.Fatalf("w=%d %v k=%d AddCarry(%#x,%#x,%d): kernel (%#x,%d), reference (%#x,%d)",
								w, kind, k, a, b, cin, gs, gc, ws, wc)
						}
						sa := arith.ToSigned(a, w)
						sb := arith.ToSigned(b, w)
						if want, got := oracle.AddSigned(ref, sa, sb), kad.AddSigned(sa, sb); got != want {
							t.Fatalf("w=%d %v k=%d AddSigned(%d,%d): kernel %d, reference %d", w, kind, k, sa, sb, got, want)
						}
						if want, got := oracle.SubSigned(ref, sa, sb), kad.SubSigned(sa, sb); got != want {
							t.Fatalf("w=%d %v k=%d SubSigned(%d,%d): kernel %d, reference %d", w, kind, k, sa, sb, got, want)
						}
					}
				}
			})
		}
	}
}

// TestAdderQuickEquivalence drives the same equivalence property through
// testing/quick's generator for the pipeline's production widths.
func TestAdderQuickEquivalence(t *testing.T) {
	for _, w := range []int{16, 32} {
		for _, kind := range approx.AdderKinds {
			for _, k := range []int{1, 3, 8, w / 2, w} {
				ref := arith.Adder{Width: w, ApproxLSBs: k, Kind: kind}
				kad, err := kernel.CompileAdder(ref)
				if err != nil {
					t.Fatal(err)
				}
				prop := func(a, b uint64, carry bool) bool {
					var cin uint8
					if carry {
						cin = 1
					}
					ws, wc := oracle.AddCarry(ref, a, b, cin)
					gs, gc := kad.AddCarry(a, b, cin)
					return gs == ws && gc == wc
				}
				if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
					t.Errorf("w=%d %v k=%d: %v", w, kind, k, err)
				}
			}
		}
	}
}
