package arith

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/xbiosip/xbiosip/internal/approx"
)

func TestAccurateMultiplierMatchesNative(t *testing.T) {
	m := Multiplier{Width: 16, ApproxLSBs: 0, Mult: approx.AccMult, Add: approx.AccAdd}
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 2000; i++ {
		a, b := rng.Uint64()&mask(16), rng.Uint64()&mask(16)
		if got, want := m.Mul(a, b), a*b; got != want {
			t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
		}
	}
}

func TestRecursiveStructureExactWhenAccurate(t *testing.T) {
	// Force the recursion (k=2*Width with accurate cells takes the bit-true
	// path end to end) and confirm it reconstructs exact products for every
	// width.
	for _, w := range []int{2, 4, 8, 16} {
		m := Multiplier{Width: w, ApproxLSBs: 2 * w, Mult: approx.AccMult, Add: approx.AccAdd}
		rng := rand.New(rand.NewSource(int64(w)))
		n := 500
		if w <= 4 {
			n = 1 << (2 * w) // exhaustive for small widths
		}
		for i := 0; i < n; i++ {
			var a, b uint64
			if w <= 4 {
				a, b = uint64(i)>>w&mask(w), uint64(i)&mask(w)
			} else {
				a, b = rng.Uint64()&mask(w), rng.Uint64()&mask(w)
			}
			// accurate() fast path would bypass recursion; call mulRec.
			got := m.mulRec(a, b, w, 0) & mask(2*w)
			if got != a*b {
				t.Fatalf("width %d: mulRec(%d,%d) = %d, want %d", w, a, b, got, a*b)
			}
		}
	}
}

func TestMultiplierZeroLSBsExactForAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, mk := range approx.MultKinds {
		for _, ak := range approx.AdderKinds {
			m := Multiplier{Width: 16, ApproxLSBs: 0, Mult: mk, Add: ak}
			for i := 0; i < 100; i++ {
				a, b := rng.Uint64()&mask(16), rng.Uint64()&mask(16)
				if got := m.Mul(a, b); got != a*b {
					t.Fatalf("%v/%v k=0: Mul(%d,%d) = %d, want %d", mk, ak, a, b, got, a*b)
				}
			}
		}
	}
}

func TestMultiplier4x4KnownApproximation(t *testing.T) {
	// 4x4 with k=4, AppMultV1: only the LL elementary cell (lane [0,4)) is
	// approximate. 3*3 in the low halves triggers the Kulkarni error:
	// (4a+3)(4b+3) should lose 2 in the LL lane (9 -> 7) before
	// accumulation.
	m := Multiplier{Width: 4, ApproxLSBs: 4, Mult: approx.AppMultV1, Add: approx.AccAdd}
	got := m.Mul(3, 3) // a=0011, b=0011: LL = 3*3
	if got != 7 {
		t.Errorf("Mul(3,3) with k=4 V1 = %d, want 7", got)
	}
	// Operands whose low halves are not 3x3 stay exact.
	if got := m.Mul(2, 3); got != 6 {
		t.Errorf("Mul(2,3) with k=4 V1 = %d, want 6", got)
	}
	// High-half products are outside the approximated lane.
	if got := m.Mul(12, 12); got != 144 {
		t.Errorf("Mul(12,12) with k=4 V1 = %d, want 144 (HH lane exact)", got)
	}
}

func TestMultiplierErrorGrowsWithK(t *testing.T) {
	// Mean absolute error over a fixed operand sample must be monotonically
	// non-decreasing in k (statistically; this sample is fixed and seeded).
	rng := rand.New(rand.NewSource(12))
	type pair struct{ a, b uint64 }
	sample := make([]pair, 400)
	for i := range sample {
		sample[i] = pair{rng.Uint64() & mask(16), rng.Uint64() & mask(16)}
	}
	meanErr := func(k int) float64 {
		m := Multiplier{Width: 16, ApproxLSBs: k, Mult: approx.AppMultV1, Add: approx.ApproxAdd5}
		var sum float64
		for _, p := range sample {
			d := int64(m.Mul(p.a, p.b)) - int64(p.a*p.b)
			if d < 0 {
				d = -d
			}
			sum += float64(d)
		}
		return sum / float64(len(sample))
	}
	prev := -1.0
	for k := 0; k <= 16; k += 4 {
		e := meanErr(k)
		if e < prev {
			t.Fatalf("mean abs error decreased from %.1f to %.1f at k=%d", prev, e, k)
		}
		prev = e
	}
	if meanErr(0) != 0 {
		t.Error("k=0 mean error nonzero")
	}
	if meanErr(16) == 0 {
		t.Error("k=16 mean error is zero; approximation had no effect")
	}
}

func TestMultiplierErrorConfinedToLowLanes(t *testing.T) {
	// With k approximated product LSBs, the error must stay "local": bits
	// far above k can only be disturbed by carries out of the approximated
	// region, so |error| < 2^(k+2).
	rng := rand.New(rand.NewSource(13))
	for _, k := range []int{4, 8, 12} {
		m := Multiplier{Width: 16, ApproxLSBs: k, Mult: approx.AppMultV2, Add: approx.ApproxAdd5}
		bound := int64(1) << (k + 2)
		for i := 0; i < 1000; i++ {
			a, b := rng.Uint64()&mask(16), rng.Uint64()&mask(16)
			d := int64(m.Mul(a, b)) - int64(a*b)
			if d < 0 {
				d = -d
			}
			if d >= bound {
				t.Fatalf("k=%d: |error| %d >= 2^%d for %d*%d", k, d, k+2, a, b)
			}
		}
	}
}

func TestMulSignedSignMagnitude(t *testing.T) {
	m := Multiplier{Width: 16, ApproxLSBs: 0, Mult: approx.AccMult, Add: approx.AccAdd}
	cases := []struct{ a, b, want int64 }{
		{3, 4, 12},
		{-3, 4, -12},
		{3, -4, -12},
		{-3, -4, 12},
		{-32768, 2, -65536},
		{-32768, -32768, 1 << 30},
		{32767, 32767, 32767 * 32767},
		{0, -12345, 0},
	}
	for _, c := range cases {
		if got := m.MulSigned(c.a, c.b); got != c.want {
			t.Errorf("MulSigned(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestMulSignedApproxSymmetry(t *testing.T) {
	// Sign-magnitude arrangement: |approx(a*b)| is independent of operand
	// signs.
	m := Multiplier{Width: 16, ApproxLSBs: 8, Mult: approx.AppMultV1, Add: approx.ApproxAdd5}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 500; i++ {
		a := int64(int16(rng.Uint64()))
		b := int64(int16(rng.Uint64()))
		if a == -32768 || b == -32768 {
			continue // magnitude not representable with flipped sign
		}
		p := m.MulSigned(a, b)
		if q := m.MulSigned(-a, b); q != -p {
			t.Fatalf("MulSigned(-a,b) = %d, want %d", q, -p)
		}
		if q := m.MulSigned(a, -b); q != -p {
			t.Fatalf("MulSigned(a,-b) = %d, want %d", q, -p)
		}
		if q := m.MulSigned(-a, -b); q != p {
			t.Fatalf("MulSigned(-a,-b) = %d, want %d", q, p)
		}
	}
}

func TestMultiplierValidate(t *testing.T) {
	bad := []Multiplier{
		{Width: 3, Mult: approx.AccMult, Add: approx.AccAdd},
		{Width: 64, Mult: approx.AccMult, Add: approx.AccAdd},
		{Width: 16, ApproxLSBs: -1, Mult: approx.AccMult, Add: approx.AccAdd},
		{Width: 16, ApproxLSBs: 33, Mult: approx.AccMult, Add: approx.AccAdd},
		{Width: 16, Mult: approx.MultKind(9), Add: approx.AccAdd},
		{Width: 16, Mult: approx.AccMult, Add: approx.AdderKind(9)},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", m)
		}
	}
	if err := (Multiplier{Width: 16, ApproxLSBs: 8, Mult: approx.AppMultV1, Add: approx.ApproxAdd5}).Validate(); err != nil {
		t.Errorf("Validate(16,8,V1,AMA5): %v", err)
	}
}

func TestQuickCommutativityUnderApproximationV1(t *testing.T) {
	// AppMultV1 and the accumulation structure are symmetric in a and b, so
	// the approximate product must commute.
	m := Multiplier{Width: 16, ApproxLSBs: 10, Mult: approx.AppMultV1, Add: approx.ApproxAdd5}
	f := func(a, b uint16) bool {
		return m.Mul(uint64(a), uint64(b)) == m.Mul(uint64(b), uint64(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickMultiplyByZeroAndOne(t *testing.T) {
	// Multiplying by 0 stays 0 for configurations whose cells map all-zero
	// inputs to zero outputs (AccAdd, AMA1, AMA5 — AMA2/3/4 emit Sum=1 on
	// the 000 pattern, so a zero operand does NOT force a zero product
	// there, which is itself part of their approximation error).
	zeroPreserving := []approx.AdderKind{approx.AccAdd, approx.ApproxAdd1, approx.ApproxAdd5}
	f := func(a uint16, k uint8, mki, aki uint8) bool {
		m := Multiplier{
			Width:      16,
			ApproxLSBs: int(k) % 33,
			Mult:       approx.MultKinds[mki%approx.NumMultKinds],
			Add:        zeroPreserving[aki%uint8(len(zeroPreserving))],
		}
		if m.Mul(uint64(a), 0) != 0 || m.Mul(0, uint64(a)) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
