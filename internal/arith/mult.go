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
