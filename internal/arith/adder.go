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

// ToSigned sign-extends the low width bits of x to an int64.
func ToSigned(x uint64, width int) int64 {
	x &= mask(width)
	if width < 64 && x&(uint64(1)<<(width-1)) != 0 {
		x |= ^mask(width)
	}
	return int64(x)
}
