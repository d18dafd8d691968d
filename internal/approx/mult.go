package approx

import "fmt"

// MultKind identifies one elementary 2x2 multiplier cell from the XBioSiP
// multiplier library (paper Fig 5 / Table 1).
type MultKind uint8

const (
	// AccMult is the exact 2x2 multiplier (4-bit product).
	AccMult MultKind = iota
	// AppMultV1 is Kulkarni et al.'s under-designed 2x2 multiplier: the
	// product uses only 3 output bits, so 3x3 yields 7 instead of 9.
	// Every other input pattern is exact.
	AppMultV1
	// AppMultV2 is a more aggressive elementary multiplier that also drops
	// the a1*b0 cross partial product: out = a1b1<<2 | a0b1<<1 | a0b0.
	// Wrong for (2,1)->0, (3,1)->1, (2,3)->4 and (3,3)->7.
	AppMultV2

	// NumMultKinds is the number of multiplier cells in the library.
	NumMultKinds = 3
)

// MultKinds lists every multiplier cell in descending order of energy
// consumption (paper §4.1 ordering).
var MultKinds = [NumMultKinds]MultKind{AccMult, AppMultV1, AppMultV2}

// multTruth holds the 4-bit product for every (a,b) pair, indexed a<<2 | b.
var multTruth = [NumMultKinds][16]uint8{
	AccMult: {
		0, 0, 0, 0,
		0, 1, 2, 3,
		0, 2, 4, 6,
		0, 3, 6, 9,
	},
	AppMultV1: {
		0, 0, 0, 0,
		0, 1, 2, 3,
		0, 2, 4, 6,
		0, 3, 6, 7,
	},
	AppMultV2: {
		0, 0, 0, 0,
		0, 1, 2, 3,
		0, 0, 4, 4,
		0, 1, 6, 7,
	},
}

// Eval evaluates the 2x2 multiplier cell on 2-bit inputs a, b (each in
// 0..3) and returns the product (4 bits for AccMult, 3 bits otherwise).
func (k MultKind) Eval(a, b uint8) uint8 {
	return multTruth[k][(a&3)<<2|(b&3)]
}

// Valid reports whether k names a cell in the library.
func (k MultKind) Valid() bool { return k < NumMultKinds }

// String returns the cell name as used throughout the paper.
func (k MultKind) String() string {
	switch k {
	case AccMult:
		return "AccMult"
	case AppMultV1:
		return "AppMultV1"
	case AppMultV2:
		return "AppMultV2"
	default:
		return fmt.Sprintf("MultKind(%d)", int(k))
	}
}

// ParseMultKind converts a cell name (as printed by String) back to its
// MultKind.
func ParseMultKind(s string) (MultKind, error) {
	for _, k := range MultKinds {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("approx: unknown multiplier kind %q", s)
}
