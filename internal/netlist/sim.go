package netlist

import "fmt"

// Simulator evaluates a combinational netlist bit-true over stimulus
// streams to measure its switching activity (RunActivityStreams). It is
// the repository's stand-in for RTL simulation (ModelSim in the paper's
// tool-flow).
type Simulator struct {
	n *Netlist
	// Activity-analysis state (see activity.go): per-input stimulus
	// streams and the 64-lane value word of every net.
	streams [][]uint64
	lanes   []uint64
}

// NewSimulator returns a Simulator for n. Netlists containing registers
// are rejected: simulation here is purely combinational.
func NewSimulator(n *Netlist) (*Simulator, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if r := n.NumRegisters(); r > 0 {
		return nil, fmt.Errorf("netlist %s: cannot simulate %d registers combinationally", n.Name, r)
	}
	return &Simulator{n: n}, nil
}

// evalCell computes the outputs of a cell from concrete input bits. The
// folding Builder enumerates cell truth tables through it (foldCell), so
// constant propagation has one definition of every cell kind.
func evalCell(c *Cell, in []uint8) (out [4]uint8) {
	switch c.Kind {
	case CellFA:
		out[0], out[1] = c.Add.Eval(in[0], in[1], in[2])
	case CellMult2:
		p := c.Mul.Eval(in[0]|in[1]<<1, in[2]|in[3]<<1)
		out[0], out[1], out[2], out[3] = p&1, p>>1&1, p>>2&1, p>>3&1
	case CellInv:
		out[0] = 1 - in[0]
	case CellReg:
		out[0] = in[0]
	}
	return out
}
