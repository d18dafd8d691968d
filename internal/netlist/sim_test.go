package netlist

import (
	"fmt"

	"github.com/xbiosip/xbiosip/internal/arith"
)

// evalCell computes the outputs of a cell from concrete input bits, one
// vector at a time, straight from the cells' truth tables (approx's Eval):
// the scalar oracle the lane-packed evaluator (evalCellLanes), the
// constant folding (foldCell) and Run are checked against.
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

// Run evaluates the netlist for one input binding (port name to LSB-first
// word value) and returns every output port's value: the per-vector
// simulation the tests compare the oracle models and the lane-packed
// activity engine with.
func (s *Simulator) Run(inputs map[string]uint64) (map[string]uint64, error) {
	vals := make([]uint8, s.n.NumNets)
	vals[Const1] = 1
	for _, p := range s.n.Inputs {
		v, ok := inputs[p.Name]
		if !ok {
			return nil, fmt.Errorf("netlist %s: missing input %q", s.n.Name, p.Name)
		}
		for i, b := range p.Bits {
			vals[b] = uint8(v>>i) & 1
		}
	}
	var in [4]uint8
	for i := range s.n.Cells {
		c := &s.n.Cells[i]
		for j, net := range c.In {
			in[j] = vals[net]
		}
		out := evalCell(c, in[:len(c.In)])
		for j, net := range c.Out {
			vals[net] = out[j]
		}
	}
	res := make(map[string]uint64, len(s.n.Outputs))
	for _, p := range s.n.Outputs {
		var v uint64
		for i, b := range p.Bits {
			v |= uint64(vals[b]) << i
		}
		res[p.Name] = v
	}
	return res, nil
}

// GenRCA generates the netlist of a word-level ripple-carry adder (paper
// Fig 6) with ports a, b, cin, sum and cout.
func GenRCA(b *Builder, ad arith.Adder) (*Netlist, error) {
	if err := ad.Validate(); err != nil {
		return nil, err
	}
	a := b.InputBus("a", ad.Width)
	bb := b.InputBus("b", ad.Width)
	cin := b.InputBus("cin", 1)
	sum, cout := b.RCA(ad.Kind, ad.ApproxLSBs, a, bb, cin[0])
	b.OutputBus("sum", sum)
	b.OutputBus("cout", Bus{cout})
	return b.Build()
}

// GenMultiplier generates the netlist of a recursive multiplier (paper
// Fig 7) with ports a, b and p (2*Width bits).
func GenMultiplier(b *Builder, m arith.Multiplier) (*Netlist, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	a := b.InputBus("a", m.Width)
	bb := b.InputBus("b", m.Width)
	p := b.Multiplier(m, a, bb)
	b.OutputBus("p", p)
	return b.Build()
}
