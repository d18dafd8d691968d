package arith_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
	"github.com/xbiosip/xbiosip/internal/oracle"
)

// The model tests below check the bit-serial models of package oracle
// over arith's specs: they keep their names here, beside the specs they
// take.

// mask returns the word mask for width w.
func mask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<w - 1
}

func TestAccurateAdderMatchesNative(t *testing.T) {
	ad := arith.Adder{Width: 32, ApproxLSBs: 0, Kind: approx.AccAdd}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		want := (a + b) & mask(32)
		if got := oracle.Add(ad, a, b); got != want {
			t.Fatalf("Add(%#x,%#x) = %#x, want %#x", a, b, got, want)
		}
	}
}

func TestAccurateKindIgnoresApproxLSBs(t *testing.T) {
	// k>0 with the accurate cell must still be exact.
	ad := arith.Adder{Width: 32, ApproxLSBs: 16, Kind: approx.AccAdd}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		a, b := rng.Uint64()&mask(32), rng.Uint64()&mask(32)
		if got, want := oracle.Add(ad, a, b), (a+b)&mask(32); got != want {
			t.Fatalf("Add(%#x,%#x) = %#x, want %#x", a, b, got, want)
		}
	}
}

func TestAdderZeroLSBsIsExactForAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range approx.AdderKinds {
		ad := arith.Adder{Width: 32, ApproxLSBs: 0, Kind: k}
		for i := 0; i < 200; i++ {
			a, b := rng.Uint64()&mask(32), rng.Uint64()&mask(32)
			if got, want := oracle.Add(ad, a, b), (a+b)&mask(32); got != want {
				t.Fatalf("%v k=0: Add(%#x,%#x) = %#x, want %#x", k, a, b, got, want)
			}
		}
	}
}

func TestAdderErrorConfinedAboveByCarryBound(t *testing.T) {
	// With k approximated LSBs, sum bits at positions >= k may only differ
	// from the exact sum through the single carry entering cell k, so the
	// absolute error is bounded by 2^(k+1).
	rng := rand.New(rand.NewSource(4))
	for _, k := range []int{1, 4, 8, 15} {
		for _, kind := range approx.AdderKinds[1:] {
			ad := arith.Adder{Width: 32, ApproxLSBs: k, Kind: kind}
			bound := int64(1) << (k + 1)
			for i := 0; i < 500; i++ {
				a, b := rng.Uint64()&mask(32), rng.Uint64()&mask(32)
				got := oracle.Add(ad, a, b)
				want := (a + b) & mask(32)
				diff := int64(got) - int64(want)
				if diff < 0 {
					diff = -diff
				}
				// Wrap-around via the dropped carry is also allowed.
				if wrapped := (int64(1) << 32) - diff; wrapped < diff {
					diff = wrapped
				}
				if diff >= bound {
					t.Fatalf("%v k=%d: |error| %d >= bound %d for a=%#x b=%#x", kind, k, diff, bound, a, b)
				}
			}
		}
	}
}

func TestAdderApproxAdd5TruncatesCarryChain(t *testing.T) {
	// AMA5 forwards Sum=B, Cout=A: with k cells approximated, the low k sum
	// bits equal the low bits of b, and the carry into cell k is bit k-1
	// of a.
	ad := arith.Adder{Width: 16, ApproxLSBs: 6, Kind: approx.ApproxAdd5}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		a, b := rng.Uint64()&mask(16), rng.Uint64()&mask(16)
		got := oracle.Add(ad, a, b)
		if got&mask(6) != b&mask(6) {
			t.Fatalf("AMA5 low bits %#x, want b low bits %#x", got&mask(6), b&mask(6))
		}
		cin := (a >> 5) & 1
		wantHi := ((a >> 6) + (b >> 6) + cin) & mask(10)
		if got>>6 != wantHi {
			t.Fatalf("AMA5 high bits %#x, want %#x", got>>6, wantHi)
		}
	}
}

func TestAdderFullyApproximatedAMA5(t *testing.T) {
	// k = Width with AMA5: the sum is exactly b (all sum cells wired to B).
	ad := arith.Adder{Width: 16, ApproxLSBs: 16, Kind: approx.ApproxAdd5}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		a, b := rng.Uint64()&mask(16), rng.Uint64()&mask(16)
		if got := oracle.Add(ad, a, b); got != b {
			t.Fatalf("fully-AMA5 Add(%#x,%#x) = %#x, want %#x", a, b, got, b)
		}
	}
}

func TestAdderCarryOut(t *testing.T) {
	ad := arith.Adder{Width: 8, ApproxLSBs: 0, Kind: approx.AccAdd}
	s, c := oracle.AddCarry(ad, 0xFF, 0x01, 0)
	if s != 0 || c != 1 {
		t.Errorf("0xFF+1 = (%#x, carry %d), want (0, 1)", s, c)
	}
	s, c = oracle.AddCarry(ad, 0x7F, 0x01, 0)
	if s != 0x80 || c != 0 {
		t.Errorf("0x7F+1 = (%#x, carry %d), want (0x80, 0)", s, c)
	}
	s, c = oracle.AddCarry(ad, 0xFF, 0xFF, 1)
	if s != 0xFF || c != 1 {
		t.Errorf("0xFF+0xFF+1 = (%#x, carry %d), want (0xFF, 1)", s, c)
	}
}

func TestAdderSubExactWhenAccurate(t *testing.T) {
	ad := arith.Adder{Width: 32, ApproxLSBs: 0, Kind: approx.AccAdd}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		a, b := rng.Uint64()&mask(32), rng.Uint64()&mask(32)
		if got, want := oracle.Sub(ad, a, b), (a-b)&mask(32); got != want {
			t.Fatalf("Sub(%#x,%#x) = %#x, want %#x", a, b, got, want)
		}
	}
}

func TestAdderSignedHelpers(t *testing.T) {
	ad := arith.Adder{Width: 32, ApproxLSBs: 0, Kind: approx.AccAdd}
	cases := []struct{ a, b, sum, diff int64 }{
		{5, 3, 8, 2},
		{-5, 3, -2, -8},
		{-1, -1, -2, 0},
		{1 << 30, 1 << 30, -(1 << 31), 0}, // two's-complement wrap
	}
	for _, c := range cases {
		if got := oracle.AddSigned(ad, c.a, c.b); got != c.sum {
			t.Errorf("AddSigned(%d,%d) = %d, want %d", c.a, c.b, got, c.sum)
		}
		if got := oracle.SubSigned(ad, c.a, c.b); got != c.diff {
			t.Errorf("SubSigned(%d,%d) = %d, want %d", c.a, c.b, got, c.diff)
		}
	}
}

func TestToSigned(t *testing.T) {
	cases := []struct {
		x     uint64
		width int
		want  int64
	}{
		{0, 16, 0},
		{0x7FFF, 16, 32767},
		{0x8000, 16, -32768},
		{0xFFFF, 16, -1},
		{0xFFFFFFFF, 32, -1},
		{0x80000000, 32, -(1 << 31)},
		{^uint64(0), 64, -1},
	}
	for _, c := range cases {
		if got := arith.ToSigned(c.x, c.width); got != c.want {
			t.Errorf("ToSigned(%#x, %d) = %d, want %d", c.x, c.width, got, c.want)
		}
	}
}

func TestAdderValidate(t *testing.T) {
	bad := []arith.Adder{
		{Width: 0, Kind: approx.AccAdd},
		{Width: 65, Kind: approx.AccAdd},
		{Width: 32, ApproxLSBs: -1, Kind: approx.AccAdd},
		{Width: 32, ApproxLSBs: 33, Kind: approx.AccAdd},
		{Width: 32, ApproxLSBs: 0, Kind: approx.AdderKind(200)},
	}
	for _, ad := range bad {
		if err := ad.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", ad)
		}
	}
	if err := (arith.Adder{Width: 32, ApproxLSBs: 8, Kind: approx.ApproxAdd5}).Validate(); err != nil {
		t.Errorf("Validate(32,8,AMA5): %v", err)
	}
}

func TestQuickAdderUpperBitsDependOnlyOnChainCarry(t *testing.T) {
	// Property: for any operands, the exact and approximate sums agree above
	// bit k except for at most a +1 carry difference in the upper slice.
	f := func(a, b uint32, kraw uint8) bool {
		k := int(kraw % 17)
		ad := arith.Adder{Width: 32, ApproxLSBs: k, Kind: approx.ApproxAdd2}
		got := oracle.Add(ad, uint64(a), uint64(b)) >> k
		exact := ((uint64(a) + uint64(b)) & mask(32)) >> k
		diff := int64(got) - int64(exact)
		return diff == 0 || diff == 1 || diff == -1 ||
			diff == int64(mask(32-k)) || diff == -int64(mask(32-k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickSubAddRoundTripAccurate(t *testing.T) {
	// Property: on the accurate adder, (a+b)-b == a for all 32-bit words.
	ad := arith.Adder{Width: 32, Kind: approx.AccAdd}
	f := func(a, b uint32) bool {
		s := oracle.Add(ad, uint64(a), uint64(b))
		return oracle.Sub(ad, s, uint64(b)) == uint64(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
