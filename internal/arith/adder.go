package arith

import (
	"fmt"

	"github.com/xbiosip/xbiosip/internal/approx"
)

// Adder is a word-level ripple-carry adder whose ApproxLSBs least
// significant full-adder cells are of the approximate Kind and whose
// remaining cells are accurate (paper Fig 6).
//
// The zero value is not useful; fill in all fields. Width must be in
// [1, 64].
type Adder struct {
	Width      int              // word width in bits, 1..64
	ApproxLSBs int              // k: cells at bit positions < k use Kind
	Kind       approx.AdderKind // elementary cell for the approximated LSBs
}

// Validate checks the adder parameters.
func (ad Adder) Validate() error {
	if ad.Width < 1 || ad.Width > 64 {
		return fmt.Errorf("arith: adder width %d out of range [1,64]", ad.Width)
	}
	if ad.ApproxLSBs < 0 || ad.ApproxLSBs > ad.Width {
		return fmt.Errorf("arith: adder approximated LSBs %d out of range [0,%d]", ad.ApproxLSBs, ad.Width)
	}
	if !ad.Kind.Valid() {
		return fmt.Errorf("arith: invalid adder kind %d", ad.Kind)
	}
	return nil
}

// mask returns the word mask for width w.
func mask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// effectiveLSBs returns the number of cells actually behaving approximately
// (zero when the configured kind is the accurate cell).
func (ad Adder) effectiveLSBs() int {
	if ad.Kind == approx.AccAdd {
		return 0
	}
	k := ad.ApproxLSBs
	if k > ad.Width {
		k = ad.Width
	}
	return k
}

// AddCarry adds a, b and the carry-in bit through the ripple-carry chain and
// returns the Width-bit sum together with the carry out of the final cell.
func (ad Adder) AddCarry(a, b uint64, cin uint8) (sum uint64, cout uint8) {
	m := mask(ad.Width)
	a &= m
	b &= m
	k := ad.effectiveLSBs()
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
func (ad Adder) Add(a, b uint64) uint64 {
	s, _ := ad.AddCarry(a, b, 0)
	return s
}

// Sub returns the Width-bit difference a-b computed as a + NOT b + 1, the
// way a hardware subtractor drives the same ripple-carry chain. The
// inversion is exact wiring; the approximation error comes from the chain.
func (ad Adder) Sub(a, b uint64) uint64 {
	s, _ := ad.AddCarry(a, ^b&mask(ad.Width), 1)
	return s
}

// AddSigned adds two signed values through the adder's two's-complement
// datapath and returns the sign-extended result.
func (ad Adder) AddSigned(a, b int64) int64 {
	return ToSigned(ad.Add(uint64(a), uint64(b)), ad.Width)
}

// SubSigned subtracts b from a through the two's-complement datapath and
// returns the sign-extended result.
func (ad Adder) SubSigned(a, b int64) int64 {
	return ToSigned(ad.Sub(uint64(a), uint64(b)), ad.Width)
}

// ToSigned sign-extends the low width bits of x to an int64.
func ToSigned(x uint64, width int) int64 {
	x &= mask(width)
	if width < 64 && x&(uint64(1)<<(width-1)) != 0 {
		x |= ^mask(width)
	}
	return int64(x)
}
