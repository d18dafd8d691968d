package netlist

import (
	"fmt"

	"github.com/xbiosip/xbiosip/internal/approx"
)

// Net identifies a single-bit signal. Nets Const0 and Const1 are reserved
// constant nets present in every netlist.
type Net int32

const (
	// Const0 is the always-0 net.
	Const0 Net = 0
	// Const1 is the always-1 net.
	Const1 Net = 1
	// numReservedNets is the number of predefined constant nets.
	numReservedNets = 2
)

// IsConst reports whether the net is one of the reserved constant nets.
func (n Net) IsConst() bool { return n == Const0 || n == Const1 }

// ConstVal returns the value of a constant net (0 or 1).
func (n Net) ConstVal() uint8 {
	if n == Const1 {
		return 1
	}
	return 0
}

// Bus is an ordered collection of nets, least-significant bit first.
type Bus []Net

// CellKind enumerates the cell classes a netlist may instantiate.
type CellKind uint8

const (
	// CellFA is a 1-bit full adder (inputs a, b, cin; outputs sum, cout).
	CellFA CellKind = iota
	// CellMult2 is an elementary 2x2 multiplier (inputs a0, a1, b0, b1;
	// outputs p0..p3; approximate kinds leave p3 tied to 0).
	CellMult2
	// CellInv is an inverter (input a; output y).
	CellInv
	// CellReg is a 1-bit D flip-flop (input d; output q). Registers are
	// sequential: the Simulator rejects netlists containing them, and the
	// timing analyser treats them as path endpoints.
	CellReg
)

// String returns a short cell-class name.
func (k CellKind) String() string {
	switch k {
	case CellFA:
		return "FA"
	case CellMult2:
		return "MULT2"
	case CellInv:
		return "INV"
	case CellReg:
		return "DFF"
	default:
		return fmt.Sprintf("CellKind(%d)", int(k))
	}
}

// Cell is one instantiated cell.
type Cell struct {
	Kind CellKind
	Add  approx.AdderKind // cell flavour when Kind == CellFA
	Mul  approx.MultKind  // cell flavour when Kind == CellMult2
	In   []Net
	Out  []Net
}

// TypeName returns the library name of the cell (e.g. "ApproxAdd5",
// "AccMult", "INV", "DFF"), the key used in synthesis report tallies.
func (c *Cell) TypeName() string {
	switch c.Kind {
	case CellFA:
		return c.Add.String()
	case CellMult2:
		return c.Mul.String()
	default:
		return c.Kind.String()
	}
}

// Port is a named input or output bus of a netlist.
type Port struct {
	Name string
	Bits Bus
}

// Netlist is a DAG of cells. Cells are stored in topological order: every
// cell's inputs are constants, input-port nets, or outputs of earlier cells
// (the Builder enforces this by construction).
type Netlist struct {
	Name    string
	NumNets int
	Cells   []Cell
	Inputs  []Port
	Outputs []Port
}

// CellCounts tallies cells by library type name.
func (n *Netlist) CellCounts() map[string]int {
	m := make(map[string]int)
	for i := range n.Cells {
		m[n.Cells[i].TypeName()]++
	}
	return m
}

// NumRegisters returns the number of DFF cells.
func (n *Netlist) NumRegisters() int {
	c := 0
	for i := range n.Cells {
		if n.Cells[i].Kind == CellReg {
			c++
		}
	}
	return c
}

// cellPins[k] is the input and output pin count of cell kind k.
var cellPins = [...][2]int{
	CellFA:    {3, 2},
	CellMult2: {4, 4},
	CellInv:   {1, 1},
	CellReg:   {1, 1},
}

// Validate checks structural invariants: known cell kinds, net indices in
// range, topological cell order, correct pin counts, and no
// multiply-driven nets.
func (n *Netlist) Validate() error {
	defined := make([]bool, n.NumNets)
	defined[Const0] = true
	defined[Const1] = true
	for _, p := range n.Inputs {
		for _, b := range p.Bits {
			if b < 0 || int(b) >= n.NumNets {
				return fmt.Errorf("netlist %s: input %s references net %d out of range", n.Name, p.Name, b)
			}
			defined[b] = true
		}
	}
	for i := range n.Cells {
		c := &n.Cells[i]
		if int(c.Kind) >= len(cellPins) {
			return fmt.Errorf("netlist %s: cell %d has unknown kind %s with %d/%d pins",
				n.Name, i, c.Kind, len(c.In), len(c.Out))
		}
		want := cellPins[c.Kind]
		if len(c.In) != want[0] || len(c.Out) != want[1] {
			return fmt.Errorf("netlist %s: cell %d (%s) has %d/%d pins, want %d/%d",
				n.Name, i, c.TypeName(), len(c.In), len(c.Out), want[0], want[1])
		}
		for _, in := range c.In {
			if in < 0 || int(in) >= n.NumNets {
				return fmt.Errorf("netlist %s: cell %d input net %d out of range", n.Name, i, in)
			}
			if !defined[in] {
				return fmt.Errorf("netlist %s: cell %d reads undefined net %d (topological order violated)", n.Name, i, in)
			}
		}
		for _, out := range c.Out {
			if out < 0 || int(out) >= n.NumNets {
				return fmt.Errorf("netlist %s: cell %d output net %d out of range", n.Name, i, out)
			}
			if out.IsConst() {
				return fmt.Errorf("netlist %s: cell %d drives constant net %d", n.Name, i, out)
			}
			if defined[out] {
				return fmt.Errorf("netlist %s: net %d multiply driven", n.Name, out)
			}
			defined[out] = true
		}
	}
	for _, p := range n.Outputs {
		for _, b := range p.Bits {
			if b < 0 || int(b) >= n.NumNets {
				return fmt.Errorf("netlist %s: output %s references net %d out of range", n.Name, p.Name, b)
			}
			if !defined[b] {
				return fmt.Errorf("netlist %s: output %s reads undriven net %d", n.Name, p.Name, b)
			}
		}
	}
	return nil
}
