package netlist

import "fmt"

// ConstProp partially evaluates the netlist over its constant nets, the
// pass a logic synthesiser applies to tied-off operands. It replays the
// netlist's cells in order through a folding builder (see Builder), so
// every cell is folded exactly as a generator building into a folding
// builder folds it: cells whose outputs are constants or wires dissolve,
// pure-wiring cells such as ApproxAdd5 among them. A coefficient operand
// folds when it is built as a constant bus (Builder.ConstBus), as the FIR
// generators build theirs.
//
// The rewritten netlist computes the same function of the inputs bit for
// bit — including every approximation artefact — because the rewrite is
// exact partial evaluation of the cell truth tables.
func ConstProp(n *Netlist) (*Netlist, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	b := NewFoldingBuilder(n.Name)
	res := make([]Net, n.NumNets) // old net -> net in the rewritten netlist
	res[Const0], res[Const1] = Const0, Const1
	for _, p := range n.Inputs {
		bus := b.InputBus(p.Name, len(p.Bits))
		for i, x := range p.Bits {
			res[x] = bus[i]
		}
	}
	for ci := range n.Cells {
		c := &n.Cells[ci]
		var in [4]Net
		for i, x := range c.In {
			in[i] = res[x]
		}
		out := b.add(c.Kind, c.Add, c.Mul, in)
		for i, x := range c.Out {
			res[x] = out[i]
		}
	}
	for _, p := range n.Outputs {
		bus := make(Bus, len(p.Bits))
		for i, x := range p.Bits {
			bus[i] = res[x]
		}
		b.OutputBus(p.Name, bus)
	}
	return b.Build()
}

// DeadCellElim removes cells that do not (transitively) drive any output
// port. Register q pins count as drivers like any other cell output.
func DeadCellElim(n *Netlist) (*Netlist, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	liveNet := make([]bool, n.NumNets)
	for _, p := range n.Outputs {
		for _, b := range p.Bits {
			liveNet[b] = true
		}
	}
	liveCell := make([]bool, len(n.Cells))
	// Reverse topological sweep: consumers appear after producers, so one
	// backward pass suffices.
	for ci := len(n.Cells) - 1; ci >= 0; ci-- {
		c := &n.Cells[ci]
		for _, out := range c.Out {
			if liveNet[out] {
				liveCell[ci] = true
				break
			}
		}
		if liveCell[ci] {
			for _, in := range c.In {
				liveNet[in] = true
			}
		}
	}

	// Rebuild with only live cells, renumbering nets densely.
	remap := make([]Net, n.NumNets)
	for i := range remap {
		remap[i] = -1
	}
	remap[Const0] = Const0
	remap[Const1] = Const1
	pinCount := 0
	for ci := range n.Cells {
		if liveCell[ci] {
			pinCount += len(n.Cells[ci].In) + len(n.Cells[ci].Out)
		}
	}
	pins := make([]Net, pinCount) // every live cell's pins, in cell order
	out := &Netlist{Name: n.Name, NumNets: numReservedNets}
	mapNet := func(old Net) Net {
		if remap[old] < 0 {
			remap[old] = Net(out.NumNets)
			out.NumNets++
		}
		return remap[old]
	}
	for _, p := range n.Inputs {
		bus := make(Bus, len(p.Bits))
		for i, b := range p.Bits {
			bus[i] = mapNet(b)
		}
		out.Inputs = append(out.Inputs, Port{Name: p.Name, Bits: bus})
	}
	for ci := range n.Cells {
		if !liveCell[ci] {
			continue
		}
		c := &n.Cells[ci]
		nin, nout := len(c.In), len(c.Out)
		nc := Cell{Kind: c.Kind, Add: c.Add, Mul: c.Mul,
			In: pins[:nin:nin], Out: pins[nin : nin+nout : nin+nout]}
		pins = pins[nin+nout:]
		for i, in := range c.In {
			nc.In[i] = mapNet(in)
		}
		for i, o := range c.Out {
			nc.Out[i] = mapNet(o)
		}
		out.Cells = append(out.Cells, nc)
	}
	for _, p := range n.Outputs {
		bus := make(Bus, len(p.Bits))
		for i, b := range p.Bits {
			bus[i] = mapNet(b)
		}
		out.Outputs = append(out.Outputs, Port{Name: p.Name, Bits: bus})
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("DeadCellElim produced invalid netlist: %w", err)
	}
	return out, nil
}

// Optimize applies ConstProp followed by DeadCellElim. This is the
// synthesis-style cleanup every report in package synth runs behind the
// scenes.
func Optimize(n *Netlist) (*Netlist, error) {
	cp, err := ConstProp(n)
	if err != nil {
		return nil, err
	}
	return DeadCellElim(cp)
}
