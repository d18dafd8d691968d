package oracle

import (
	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
)

// mask returns the word mask for width w.
func mask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// effectiveLSBs returns the number of cells of ad actually behaving
// approximately (zero when the configured kind is the accurate cell).
func effectiveLSBs(ad arith.Adder) int {
	if ad.Kind == approx.AccAdd {
		return 0
	}
	return min(ad.ApproxLSBs, ad.Width)
}

// AddCarry adds a, b and the carry-in bit through ad's ripple-carry chain
// and returns the Width-bit sum together with the carry out of the final
// cell.
func AddCarry(ad arith.Adder, a, b uint64, cin uint8) (sum uint64, cout uint8) {
	m := mask(ad.Width)
	a &= m
	b &= m
	k := effectiveLSBs(ad)
	c := cin & 1
	for i := 0; i < k; i++ {
		s, co := ad.Kind.Eval(uint8(a>>i)&1, uint8(b>>i)&1, c)
		sum |= uint64(s) << i
		c = co
	}
	// The remaining Width-k cells are accurate; their ripple is ordinary
	// binary addition of the upper operand slices plus the chain carry.
	hi := (a >> k) + (b >> k) + uint64(c)
	sum |= hi << k
	cout = uint8(hi>>(ad.Width-k)) & 1
	return sum & m, cout
}

// Add returns the Width-bit sum of a and b (carry-in 0, carry-out dropped,
// i.e. addition modulo 2^Width as the hardware block computes it).
func Add(ad arith.Adder, a, b uint64) uint64 {
	s, _ := AddCarry(ad, a, b, 0)
	return s
}

// Sub returns the Width-bit difference a-b computed as a + NOT b + 1, the
// way a hardware subtractor drives the same ripple-carry chain. The
// inversion is exact wiring; the approximation error comes from the chain.
func Sub(ad arith.Adder, a, b uint64) uint64 {
	s, _ := AddCarry(ad, a, ^b&mask(ad.Width), 1)
	return s
}

// AddSigned adds two signed values through ad's two's-complement datapath
// and returns the sign-extended result.
func AddSigned(ad arith.Adder, a, b int64) int64 {
	return arith.ToSigned(Add(ad, uint64(a), uint64(b)), ad.Width)
}

// SubSigned subtracts b from a through ad's two's-complement datapath and
// returns the sign-extended result.
func SubSigned(ad arith.Adder, a, b int64) int64 {
	return arith.ToSigned(Sub(ad, uint64(a), uint64(b)), ad.Width)
}

// Mul returns the 2*Width-bit unsigned product of the low Width bits of a
// and b, computed bit-true through m's recursive structure. A subtree
// whose lane lies at or above k multiplies natively: every cell in it is
// accurate.
func Mul(m arith.Multiplier, a, b uint64) uint64 {
	om := mask(m.Width)
	return mulRec(m, a&om, b&om, m.Width, 0) & mask(2*m.Width)
}

// mulRec multiplies two w-bit operands whose product lane starts at absolute
// output bit offset off.
func mulRec(m arith.Multiplier, a, b uint64, w, off int) uint64 {
	if off >= m.ApproxLSBs {
		// Every cell in this subtree sits at or above k: exact.
		return a * b
	}
	if w == 2 {
		kind := m.Mult
		if off+4 > m.ApproxLSBs {
			kind = approx.AccMult
		}
		return uint64(kind.Eval(uint8(a), uint8(b)))
	}
	h := w / 2
	hm := mask(h)
	ll := mulRec(m, a&hm, b&hm, h, off)
	hl := mulRec(m, a>>h, b&hm, h, off+h)
	lh := mulRec(m, a&hm, b>>h, h, off+h)
	hh := mulRec(m, a>>h, b>>h, h, off+2*h)
	// Three accumulation adders (2w bits each at the top level), anchored
	// at the output offsets their cells occupy.
	mid := addAt(m, hl, lh, 2*h+1, off+h)
	s := addAt(m, ll, mid<<h, 2*w, off)
	s = addAt(m, s, hh<<w, 2*w, off)
	return s & mask(2*w)
}

// addAt adds x and y on a w-bit ripple-carry adder whose cell at relative
// bit i sits at absolute output position off+i; cells below k use m's
// approximate adder kind.
func addAt(m arith.Multiplier, x, y uint64, w, off int) uint64 {
	return Add(arith.Adder{Width: w, ApproxLSBs: max(0, min(m.ApproxLSBs-off, w)), Kind: m.Add}, x, y)
}

// MulSigned multiplies two signed operands (interpreted in Width-bit two's
// complement) through the sign-magnitude arrangement around the unsigned
// recursive core and returns the sign-extended 2*Width-bit product.
func MulSigned(m arith.Multiplier, a, b int64) int64 {
	neg := false
	ua := uint64(a)
	ub := uint64(b)
	if a < 0 {
		neg = !neg
		ua = uint64(-a)
	}
	if b < 0 {
		neg = !neg
		ub = uint64(-b)
	}
	p := arith.ToSigned(Mul(m, ua, ub), 2*m.Width)
	if neg {
		p = -p
	}
	return p
}
