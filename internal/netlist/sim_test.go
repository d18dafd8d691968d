package netlist

import (
	"fmt"

	"github.com/xbiosip/xbiosip/internal/arith"
)

// Run evaluates the netlist for one input binding (port name to LSB-first
// word value) and returns every output port's value: the per-vector
// simulation the tests compare the arith models and the lane-packed
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
