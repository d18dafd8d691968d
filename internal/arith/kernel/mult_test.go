package kernel_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
	"github.com/xbiosip/xbiosip/internal/arith/kernel"
)

// TestMultiplierExhaustive4 proves the compiled multiplier bit-identical
// to the recursive reference for every elementary kind combination and
// every approximated-LSB count at width 4, over all operand pairs, for
// both the unsigned and the signed path.
func TestMultiplierExhaustive4(t *testing.T) {
	for _, mk := range approx.MultKinds {
		for _, ak := range approx.AdderKinds {
			mk, ak := mk, ak
			t.Run(fmt.Sprintf("%v/%v", mk, ak), func(t *testing.T) {
				t.Parallel()
				for k := 0; k <= 8; k++ {
					ref := arith.Multiplier{Width: 4, ApproxLSBs: k, Mult: mk, Add: ak}
					km, err := kernel.CompileMultiplier(ref)
					if err != nil {
						t.Fatal(err)
					}
					for a := uint64(0); a < 16; a++ {
						for b := uint64(0); b < 16; b++ {
							if want, got := ref.Mul(a, b), km.Mul(a, b); got != want {
								t.Fatalf("%v/%v k=%d Mul(%d,%d): kernel %d, reference %d", mk, ak, k, a, b, got, want)
							}
							sa := arith.ToSigned(a, 4)
							sb := arith.ToSigned(b, 4)
							if want, got := ref.MulSigned(sa, sb), km.MulSigned(sa, sb); got != want {
								t.Fatalf("%v/%v k=%d MulSigned(%d,%d): kernel %d, reference %d", mk, ak, k, sa, sb, got, want)
							}
						}
					}
				}
			})
		}
	}
}

// TestMultiplierExhaustive8 sweeps all 2^16 operand pairs at width 8 for
// the approximate elementary kinds across representative k values,
// including the chunk-LUT adder kinds the plan tree exercises in its
// accumulation slices.
func TestMultiplierExhaustive8(t *testing.T) {
	adds := []approx.AdderKind{approx.ApproxAdd1, approx.ApproxAdd2, approx.ApproxAdd5}
	for _, mk := range []approx.MultKind{approx.AppMultV1, approx.AppMultV2} {
		for _, ak := range adds {
			mk, ak := mk, ak
			t.Run(fmt.Sprintf("%v/%v", mk, ak), func(t *testing.T) {
				t.Parallel()
				for _, k := range []int{1, 3, 5, 8, 13, 16} {
					ref := arith.Multiplier{Width: 8, ApproxLSBs: k, Mult: mk, Add: ak}
					km, err := kernel.CompileMultiplier(ref)
					if err != nil {
						t.Fatal(err)
					}
					for a := uint64(0); a < 256; a++ {
						for b := uint64(0); b < 256; b++ {
							if want, got := ref.Mul(a, b), km.Mul(a, b); got != want {
								t.Fatalf("%v/%v k=%d Mul(%d,%d): kernel %d, reference %d", mk, ak, k, a, b, got, want)
							}
						}
					}
				}
			})
		}
	}
}

// TestMultiplierRandomWide runs the randomized equivalence sweep at the
// production width (16, the pipeline's multipliers) and the maximum width
// (32), for every kind combination and k across the whole 2*Width range,
// on both the unsigned and signed paths.
func TestMultiplierRandomWide(t *testing.T) {
	for _, w := range []int{16, 32} {
		for _, mk := range approx.MultKinds {
			for _, ak := range approx.AdderKinds {
				w, mk, ak := w, mk, ak
				t.Run(fmt.Sprintf("w%d/%v/%v", w, mk, ak), func(t *testing.T) {
					t.Parallel()
					rng := rand.New(rand.NewSource(int64(w)*1000 + int64(mk)*10 + int64(ak)))
					for _, k := range []int{0, 1, 2, 4, w / 2, w, 3 * w / 2, 2*w - 1, 2 * w} {
						ref := arith.Multiplier{Width: w, ApproxLSBs: k, Mult: mk, Add: ak}
						km, err := kernel.CompileMultiplier(ref)
						if err != nil {
							t.Fatal(err)
						}
						for n := 0; n < 400; n++ {
							a := rng.Uint64()
							b := rng.Uint64()
							if want, got := ref.Mul(a, b), km.Mul(a, b); got != want {
								t.Fatalf("w=%d %v/%v k=%d Mul(%#x,%#x): kernel %#x, reference %#x", w, mk, ak, k, a, b, got, want)
							}
							sa := arith.ToSigned(a, w)
							sb := arith.ToSigned(b, w)
							if want, got := ref.MulSigned(sa, sb), km.MulSigned(sa, sb); got != want {
								t.Fatalf("w=%d %v/%v k=%d MulSigned(%d,%d): kernel %d, reference %d", w, mk, ak, k, sa, sb, got, want)
							}
						}
					}
				})
			}
		}
	}
}

// TestMultiplierQuickEquivalence drives the signed-path equivalence through
// testing/quick at the pipeline's 16-bit operand width.
func TestMultiplierQuickEquivalence(t *testing.T) {
	for _, mk := range []approx.MultKind{approx.AppMultV1, approx.AppMultV2} {
		for _, ak := range []approx.AdderKind{approx.ApproxAdd2, approx.ApproxAdd3, approx.ApproxAdd5} {
			for _, k := range []int{4, 10, 16, 24} {
				ref := arith.Multiplier{Width: 16, ApproxLSBs: k, Mult: mk, Add: ak}
				km, err := kernel.CompileMultiplier(ref)
				if err != nil {
					t.Fatal(err)
				}
				prop := func(a, b int64) bool {
					sa := arith.ToSigned(uint64(a), 16)
					sb := arith.ToSigned(uint64(b), 16)
					return ref.MulSigned(sa, sb) == km.MulSigned(sa, sb)
				}
				if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
					t.Errorf("%v/%v k=%d: %v", mk, ak, k, err)
				}
			}
		}
	}
}

// TestTablesMatchReference proves every entry of the kernel-built
// coefficient and squaring tables identical to the bit-serial model they
// enumerate (arith.Multiplier.MulSigned), for the pipeline's coefficient
// set, the edge coefficients 0, -1, -32 and 12345, and representative
// configurations, 2-bit leaf roots (tables filled through the plan walk)
// among them.
func TestTablesMatchReference(t *testing.T) {
	configs := []arith.Multiplier{
		{Width: 16, ApproxLSBs: 0, Mult: approx.AccMult, Add: approx.AccAdd},
		{Width: 16, ApproxLSBs: 8, Mult: approx.AppMultV1, Add: approx.ApproxAdd5},
		{Width: 16, ApproxLSBs: 16, Mult: approx.AppMultV2, Add: approx.ApproxAdd2},
		{Width: 16, ApproxLSBs: 12, Mult: approx.AppMultV1, Add: approx.ApproxAdd1},
		// Exactly combined roots: full tables filled through the rows'
		// closed form at k = 0.
		{Width: 16, ApproxLSBs: 8, Mult: approx.AppMultV1, Add: approx.AccAdd},
		{Width: 16, ApproxLSBs: 6, Mult: approx.AppMultV2, Add: approx.AccAdd},
		// Leaf roots: no decomposition.
		{Width: 2, ApproxLSBs: 2, Mult: approx.AppMultV1, Add: approx.AccAdd},
		{Width: 2, ApproxLSBs: 4, Mult: approx.AppMultV2, Add: approx.ApproxAdd5},
	}
	coeffs := []int64{0, 1, -1, 2, 3, 4, 5, 6, 31, -32, 12345}
	for _, m := range configs {
		for _, c := range coeffs {
			got, err := kernel.CachedConstMulTable(m, c)
			if err != nil {
				t.Fatal(err)
			}
			if got.Coeff() != c {
				t.Fatalf("cfg %+v: Coeff() = %d, want %d", m, got.Coeff(), c)
			}
			for i := 0; i < 1<<m.Width; i++ {
				x := arith.ToSigned(uint64(i), m.Width)
				if want := m.MulSigned(x, c); got.Mul(x) != want {
					t.Fatalf("cfg %+v coeff %d: table mismatch at x=%d: kernel %d, reference %d",
						m, c, x, got.Mul(x), want)
				}
			}
		}
		got, err := kernel.CachedSquareTable(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1<<m.Width; i++ {
			x := arith.ToSigned(uint64(i), m.Width)
			if want := m.MulSigned(x, x); got.Square(x) != want {
				t.Fatalf("cfg %+v: square table mismatch at x=%d: kernel %d, reference %d",
					m, x, got.Square(x), want)
			}
		}
	}
}

// TestExactSquareSliceExhaustive checks the exact squarer's block path,
// which squares the operand sign-extended from Width bits: SquareSlice of
// an exact 16-bit spec over every 16-bit operand, and over operands past
// 16 bits, which wrap to their low 16, at shifts 0, 1 and 3, against the
// bit-serial square of the wrapped operand. Shifts 40 and 64 check the
// bound on the shift count, which must keep every square's shifted value.
func TestExactSquareSliceExhaustive(t *testing.T) {
	spec := arith.Multiplier{Width: 16, ApproxLSBs: 0, Mult: approx.AccMult, Add: approx.AccAdd}
	sq, err := kernel.NewSquareTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]int64, 1<<16) // by the operand's low 16 bits
	var xs []int64
	for u := range ref {
		x := arith.ToSigned(uint64(u), 16)
		ref[u] = spec.MulSigned(x, x)
		xs = append(xs, x, x+1<<16, x-5<<20, int64(uint64(x)^0xdead<<40))
	}
	rng := rand.New(rand.NewSource(29))
	for range 4096 {
		xs = append(xs, int64(rng.Uint64()))
	}
	xs = append(xs, -1<<63, 1<<63-1)
	dst := make([]int64, len(xs))
	for _, shift := range []uint{0, 1, 3, 40, 64} {
		sq.SquareSlice(dst, xs, shift)
		for i, x := range xs {
			if want := ref[uint16(x)] >> shift; dst[i] != want {
				t.Fatalf("SquareSlice(x=%d, shift %d) = %d, reference %d", x, shift, dst[i], want)
			}
		}
	}
}

// TestConstTableRejectsWideMultipliers pins the table width bound: a
// 2^Width-entry table is only built for operands of at most 16 bits.
func TestConstTableRejectsWideMultipliers(t *testing.T) {
	m := arith.Multiplier{Width: 32, Mult: approx.AccMult, Add: approx.AccAdd}
	if _, err := kernel.NewConstMulTable(m, 3); err == nil {
		t.Error("NewConstMulTable(width 32) succeeded, want error")
	}
	if _, err := kernel.NewSquareTable(m); err == nil {
		t.Error("NewSquareTable(width 32) succeeded, want error")
	}
}
