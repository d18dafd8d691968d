package arith

import (
	"fmt"
	"math/bits"

	"github.com/xbiosip/xbiosip/internal/approx"
)

// Multiplier is a word-level recursive multiplier (paper Fig 7): an NxN
// multiplication is partitioned into four N/2 x N/2 sub-multiplications
// whose partial products are accumulated by three 2N-bit ripple-carry
// adders, recursively down to the elementary 2x2 cells of package approx.
//
// ApproxLSBs (k) is measured on the 2N-bit product: an elementary 2x2 cell
// whose 4-bit output lane [p, p+4) lies entirely below k is the approximate
// Mult kind, and every accumulation full-adder cell at an output position
// below k is the approximate Add kind. All other cells are accurate.
type Multiplier struct {
	Width      int              // operand width in bits; power of two in [2, 32]
	ApproxLSBs int              // k, measured on the 2*Width-bit product
	Mult       approx.MultKind  // elementary 2x2 cell for approximated lanes
	Add        approx.AdderKind // full-adder cell for approximated accumulation positions
}

// Validate checks the multiplier parameters.
func (m Multiplier) Validate() error {
	if m.Width < 2 || m.Width > 32 || bits.OnesCount(uint(m.Width)) != 1 {
		return fmt.Errorf("arith: multiplier width %d must be a power of two in [2,32]", m.Width)
	}
	if m.ApproxLSBs < 0 || m.ApproxLSBs > 2*m.Width {
		return fmt.Errorf("arith: multiplier approximated LSBs %d out of range [0,%d]", m.ApproxLSBs, 2*m.Width)
	}
	if !m.Mult.Valid() {
		return fmt.Errorf("arith: invalid multiplier kind %d", m.Mult)
	}
	if !m.Add.Valid() {
		return fmt.Errorf("arith: invalid adder kind %d", m.Add)
	}
	return nil
}

// accurate reports whether the configuration degenerates to an exact
// multiplier (no cell ends up approximate).
func (m Multiplier) accurate() bool {
	if m.ApproxLSBs == 0 {
		return true
	}
	return m.Mult == approx.AccMult && m.Add == approx.AccAdd
}

// Mul returns the 2*Width-bit unsigned product of the low Width bits of a
// and b, computed bit-true through the recursive structure.
func (m Multiplier) Mul(a, b uint64) uint64 {
	om := mask(m.Width)
	a &= om
	b &= om
	pm := mask(2 * m.Width)
	if m.accurate() {
		return (a * b) & pm
	}
	return m.mulRec(a, b, m.Width, 0) & pm
}

// mulRec multiplies two w-bit operands whose product lane starts at absolute
// output bit offset off.
func (m Multiplier) mulRec(a, b uint64, w, off int) uint64 {
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
	ll := m.mulRec(a&hm, b&hm, h, off)
	hl := m.mulRec(a>>h, b&hm, h, off+h)
	lh := m.mulRec(a&hm, b>>h, h, off+h)
	hh := m.mulRec(a>>h, b>>h, h, off+2*h)
	// Three accumulation adders (2w bits each at the top level), anchored
	// at the output offsets their cells occupy.
	mid := m.addAt(hl, lh, 2*h+1, off+h)
	s := m.addAt(ll, mid<<h, 2*w, off)
	s = m.addAt(s, hh<<w, 2*w, off)
	return s & mask(2*w)
}

// addAt adds x and y on a w-bit ripple-carry adder whose cell at relative
// bit i sits at absolute output position off+i; cells below k use the
// approximate adder kind.
func (m Multiplier) addAt(x, y uint64, w, off int) uint64 {
	ka := m.ApproxLSBs - off
	if ka <= 0 || m.Add == approx.AccAdd {
		return (x + y) & mask(w)
	}
	if ka > w {
		ka = w
	}
	ad := Adder{Width: w, ApproxLSBs: ka, Kind: m.Add}
	return ad.Add(x, y)
}

// MulSigned multiplies two signed operands (interpreted in Width-bit two's
// complement) through the sign-magnitude arrangement around the unsigned
// recursive core and returns the sign-extended 2*Width-bit product.
func (m Multiplier) MulSigned(a, b int64) int64 {
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
	p := int64(m.Mul(ua, ub))
	p = ToSigned(uint64(p), 2*m.Width)
	if neg {
		p = -p
	}
	return p
}
