package approx

import "fmt"

// AdderKind identifies one elementary 1-bit full-adder cell from the
// XBioSiP adder library (paper Fig 5 / Table 1).
type AdderKind uint8

const (
	// AccAdd is the exact mirror full adder.
	AccAdd AdderKind = iota
	// ApproxAdd1 is AMA1: one input pattern (A=0,B=1,Cin=0) produces a
	// wrong Sum and a wrong Cout; all other patterns are exact.
	ApproxAdd1
	// ApproxAdd2 is AMA2: Sum is generated as the complement of the exact
	// Cout, which is wrong for patterns 000 and 111.
	ApproxAdd2
	// ApproxAdd3 is AMA3: AMA1's approximate carry combined with AMA2's
	// Sum = NOT Cout simplification (reconstruction, see package doc).
	ApproxAdd3
	// ApproxAdd4 is AMA4: Cout is wired to A and Sum is a single inverter
	// on A (reconstruction, see package doc).
	ApproxAdd4
	// ApproxAdd5 is AMA5: Sum = B and Cout = A. The cell is pure wiring
	// and therefore has zero area, delay, power and energy.
	ApproxAdd5

	// NumAdderKinds is the number of adder cells in the library.
	NumAdderKinds = 6
)

// AdderKinds lists every adder cell in descending order of energy
// consumption, the order the design-generation methodology iterates in
// (paper §4.1: "listed in descending order of energy consumption").
var AdderKinds = [NumAdderKinds]AdderKind{
	AccAdd, ApproxAdd1, ApproxAdd2, ApproxAdd3, ApproxAdd4, ApproxAdd5,
}

// fullAdderTruth holds Sum and Cout truth tables indexed by A<<2 | B<<1 | Cin.
type fullAdderTruth struct {
	sum  [8]uint8
	cout [8]uint8
}

// Truth tables, indexed by A<<2 | B<<1 | Cin. The exact full adder is
// Sum = A xor B xor Cin, Cout = majority(A,B,Cin).
var adderTruth = [NumAdderKinds]fullAdderTruth{
	AccAdd: {
		sum:  [8]uint8{0, 1, 1, 0, 1, 0, 0, 1},
		cout: [8]uint8{0, 0, 0, 1, 0, 1, 1, 1},
	},
	ApproxAdd1: {
		sum:  [8]uint8{0, 1, 0, 0, 1, 0, 0, 1},
		cout: [8]uint8{0, 0, 1, 1, 0, 1, 1, 1},
	},
	ApproxAdd2: { // Sum = NOT exact Cout; Cout exact.
		sum:  [8]uint8{1, 1, 1, 0, 1, 0, 0, 0},
		cout: [8]uint8{0, 0, 0, 1, 0, 1, 1, 1},
	},
	ApproxAdd3: { // Cout = AMA1 Cout; Sum = NOT that.
		sum:  [8]uint8{1, 1, 0, 0, 1, 0, 0, 0},
		cout: [8]uint8{0, 0, 1, 1, 0, 1, 1, 1},
	},
	ApproxAdd4: { // Cout = A; Sum = NOT A.
		sum:  [8]uint8{1, 1, 1, 1, 0, 0, 0, 0},
		cout: [8]uint8{0, 0, 0, 0, 1, 1, 1, 1},
	},
	ApproxAdd5: { // Sum = B; Cout = A.
		sum:  [8]uint8{0, 0, 1, 1, 0, 0, 1, 1},
		cout: [8]uint8{0, 0, 0, 0, 1, 1, 1, 1},
	},
}

// Eval evaluates the full-adder cell on single-bit inputs a, b, cin
// (each must be 0 or 1) and returns the single-bit sum and carry-out.
func (k AdderKind) Eval(a, b, cin uint8) (sum, cout uint8) {
	idx := a<<2 | b<<1 | cin
	t := &adderTruth[k]
	return t.sum[idx], t.cout[idx]
}

// Valid reports whether k names a cell in the library.
func (k AdderKind) Valid() bool { return k < NumAdderKinds }

// String returns the cell name as used throughout the paper.
func (k AdderKind) String() string {
	switch k {
	case AccAdd:
		return "AccAdd"
	case ApproxAdd1, ApproxAdd2, ApproxAdd3, ApproxAdd4, ApproxAdd5:
		return fmt.Sprintf("ApproxAdd%d", int(k))
	default:
		return fmt.Sprintf("AdderKind(%d)", int(k))
	}
}

// ParseAdderKind converts a cell name (as printed by String) back to its
// AdderKind.
func ParseAdderKind(s string) (AdderKind, error) {
	for _, k := range AdderKinds {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("approx: unknown adder kind %q", s)
}
