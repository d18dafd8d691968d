package netlist

import (
	"fmt"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
)

// Builder constructs netlists cell by cell, guaranteeing topological order
// and single drivers by construction.
//
// A folding builder (NewFoldingBuilder) also partially evaluates every
// cell as it is added, the way a logic synthesiser folds tied-off
// operands: it enumerates the cell's truth table over the inputs that are
// not constant nets and resolves each output to a constant net, a wire
// (one free input), or an inverter on one free input. The cell is kept
// only when some output is genuine logic; a register fed a constant
// settles to it. The methods then return the resolved nets, so a
// generator that builds into a folding builder never materializes the
// cells that fold away. The result computes the same function bit for bit
// — approximation artefacts included — and may still hold dead cells,
// which DeadCellElim removes. ConstProp is a replay of a finished netlist
// through a folding builder.
//
// A folding builder also builds each constant multiplier once. When
// Multiplier gets an operand bb made only of constant nets and a fresh
// operand a — consecutive non-constant nets, none of them holding a cached
// inverter, as an input port declared by InputBus is until it is used —
// it folds the multiplier once per (spec, constant) into a private
// folding builder over a fresh input bus and replays that template onto
// a: constant nets stay, template input i becomes a[i], the template's
// own nets follow the builder's current net count, its cells append in
// order and its inverters enter the inverter cache. Folding reads only
// which inputs are constant and their values, so the replay adds exactly
// the cells and nets, in the same order and numbering, that folding the
// multiplier there would have added. Any other call, the squarer's x × x
// among them, folds as it goes. The templates live as long as the
// builder.
type Builder struct {
	n        *Netlist
	invCache map[Net]Net
	fold     bool
	err      error
	mulMemo  map[mulKey]*mulTemplate
}

// NewBuilder returns a Builder for a netlist with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		n:        &Netlist{Name: name, NumNets: numReservedNets},
		invCache: make(map[Net]Net),
	}
}

// NewFoldingBuilder returns a Builder that constant-folds every cell as it
// is added (see Builder).
func NewFoldingBuilder(name string) *Builder {
	b := NewBuilder(name)
	b.fold = true
	return b
}

// fail records the first construction error; Build reports it.
func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("netlist %s: %s", b.n.Name, fmt.Sprintf(format, args...))
	}
}

func (b *Builder) newNet() Net {
	n := Net(b.n.NumNets)
	b.n.NumNets++
	return n
}

func (b *Builder) newBus(width int) Bus {
	bus := make(Bus, width)
	for i := range bus {
		bus[i] = b.newNet()
	}
	return bus
}

// InputBus declares a named input port of the given width and returns its
// nets (LSB first).
func (b *Builder) InputBus(name string, width int) Bus {
	bus := b.newBus(width)
	b.n.Inputs = append(b.n.Inputs, Port{Name: name, Bits: bus})
	return bus
}

// OutputBus declares a named output port connected to the given bus.
func (b *Builder) OutputBus(name string, bus Bus) {
	b.n.Outputs = append(b.n.Outputs, Port{Name: name, Bits: append(Bus(nil), bus...)})
}

// ConstBus returns a bus of constant nets holding value (LSB first).
func (b *Builder) ConstBus(value uint64, width int) Bus {
	bus := make(Bus, width)
	for i := range bus {
		if value>>i&1 == 1 {
			bus[i] = Const1
		} else {
			bus[i] = Const0
		}
	}
	return bus
}

// Extend returns the bus widened to width bits with Const0 fill (zero
// extension, free wiring).
func (b *Builder) Extend(bus Bus, width int) Bus {
	if len(bus) >= width {
		return bus[:width]
	}
	out := make(Bus, width)
	copy(out, bus)
	for i := len(bus); i < width; i++ {
		out[i] = Const0
	}
	return out
}

// ShiftLeft returns the bus shifted left by n bits with Const0 fill (free
// wiring). The result is n bits wider.
func (b *Builder) ShiftLeft(bus Bus, n int) Bus {
	out := make(Bus, n+len(bus))
	for i := 0; i < n; i++ {
		out[i] = Const0
	}
	copy(out[n:], bus)
	return out
}

// Not instantiates (or reuses) an inverter on net x.
func (b *Builder) Not(x Net) Net {
	if x == Const0 {
		return Const1
	}
	if x == Const1 {
		return Const0
	}
	if y, ok := b.invCache[x]; ok {
		return y
	}
	y := b.newNet()
	b.n.Cells = append(b.n.Cells, Cell{Kind: CellInv, In: []Net{x}, Out: []Net{y}})
	b.invCache[x] = y
	return y
}

// NotBus inverts every bit of the bus.
func (b *Builder) NotBus(bus Bus) Bus {
	out := make(Bus, len(bus))
	for i, x := range bus {
		out[i] = b.Not(x)
	}
	return out
}

// FullAdder instantiates one full-adder cell of the given kind.
func (b *Builder) FullAdder(kind approx.AdderKind, a, bb, cin Net) (sum, cout Net) {
	out := b.add(CellFA, kind, 0, [4]Net{a, bb, cin})
	return out[0], out[1]
}

// Mult2 instantiates one elementary 2x2 multiplier cell of the given kind.
func (b *Builder) Mult2(kind approx.MultKind, a0, a1, b0, b1 Net) Bus {
	out := b.add(CellMult2, 0, kind, [4]Net{a0, a1, b0, b1})
	return Bus{out[0], out[1], out[2], out[3]}
}

// Register instantiates a DFF on every bit of the bus.
func (b *Builder) Register(bus Bus) Bus {
	out := make(Bus, len(bus))
	for i, d := range bus {
		out[i] = b.add(CellReg, 0, 0, [4]Net{d})[0]
	}
	return out
}

// add instantiates one cell of the given kind over its input nets (pins in
// the order CellKind documents) and returns the nets its outputs resolve
// to: the cell's own output nets or, in a folding builder, whatever the
// partial evaluation resolved them to.
func (b *Builder) add(kind CellKind, add approx.AdderKind, mul approx.MultKind, in [4]Net) (out [4]Net) {
	c := Cell{Kind: kind, Add: add, Mul: mul}
	var nin, nout int
	var fold [4]pinFold
	switch kind {
	case CellInv:
		out[0] = b.Not(in[0])
		return out
	case CellReg:
		// Registers are combinationally the identity, so folding must not
		// dissolve them into wires: only a constant d settles through.
		if b.fold && in[0].IsConst() {
			out[0] = in[0]
			return out
		}
		nin, nout = 1, 1
	case CellFA:
		nin, nout = 3, 2
	case CellMult2:
		nin, nout = 4, 4
	}
	if b.fold && kind != CellReg {
		fold = foldCell(&c, in, nin, nout, &out)
	}
	keep := false
	for _, f := range fold[:nout] {
		keep = keep || f == pinLogic
	}
	if !keep {
		for oi := 0; oi < nout; oi++ {
			if fold[oi] == pinInv {
				out[oi] = b.Not(out[oi])
			}
		}
		return out
	}
	pins := make([]Net, nin+nout)
	copy(pins, in[:nin])
	c.In, c.Out = pins[:nin:nin], pins[nin:]
	for oi := range c.Out {
		c.Out[oi] = b.newNet()
		switch fold[oi] {
		case pinLogic:
			out[oi] = c.Out[oi]
		case pinInv:
			out[oi] = b.Not(out[oi])
		}
	}
	b.n.Cells = append(b.n.Cells, c)
	return out
}

// pinFold is what partial evaluation resolves one cell output to.
type pinFold uint8

const (
	pinLogic pinFold = iota // genuine logic: the cell's own output net
	pinNet                  // a constant net, or a wire of one free input
	pinInv                  // an inverter on one free input
)

// freeVarTT[i] is the truth table of free input i over up to four free
// inputs: bit combo is set iff bit i of combo is.
var freeVarTT = [4]uint32{0xAAAA, 0xCCCC, 0xF0F0, 0xFF00}

// foldCell partially evaluates cell c (kind and flavour set) over in. It
// evaluates the outputs for every combination of the inputs that are not
// constant nets at once, through the lane evaluator: lane combo of free
// input i is bit i of combo (freeVarTT[i]), and a constant input is 0 or
// all ones in every lane, so the low 2^nf bits of output oi are its truth
// table over the nf free inputs. It then classifies each output as a
// constant, a wire or an inverted wire of one free input (first match in
// pin order), or logic. For a constant or wire it stores the constant or
// source net in out, for an inverted wire the net to invert.
func foldCell(c *Cell, in [4]Net, nin, nout int, out *[4]Net) (fold [4]pinFold) {
	var free [4]int
	var lanes, o [4]uint64
	nf := 0
	for i := 0; i < nin; i++ {
		if in[i].IsConst() {
			lanes[i] = -uint64(in[i].ConstVal())
		} else {
			free[nf] = i
			lanes[i] = uint64(freeVarTT[nf])
			nf++
		}
	}
	evalCellLanes(c, &lanes, &o)
	all := uint32(1)<<(1<<nf) - 1
outputs:
	for oi := 0; oi < nout; oi++ {
		tt := uint32(o[oi]) & all
		switch tt {
		case 0:
			out[oi], fold[oi] = Const0, pinNet
			continue
		case all:
			out[oi], fold[oi] = Const1, pinNet
			continue
		}
		for fi := 0; fi < nf; fi++ {
			v := freeVarTT[fi] & all
			switch tt {
			case v:
				out[oi], fold[oi] = in[free[fi]], pinNet
				continue outputs
			case all &^ v:
				out[oi], fold[oi] = in[free[fi]], pinInv
				continue outputs
			}
		}
	}
	return fold
}

// RCAAt builds a ripple-carry adder over equal-width buses whose cell at
// relative bit i sits at absolute datapath position offset+i; cells at
// positions below k use the approximate kind, the rest are accurate (paper
// Fig 6). It returns the sum bus and the carry out of the final cell.
func (b *Builder) RCAAt(kind approx.AdderKind, k, offset int, a, bb Bus, cin Net) (Bus, Net) {
	if len(a) != len(bb) {
		b.fail("RCA operand widths differ: %d vs %d", len(a), len(bb))
		return b.newBus(len(a)), Const0
	}
	sum := make(Bus, len(a))
	c := cin
	for i := range a {
		cellKind := approx.AccAdd
		if offset+i < k {
			cellKind = kind
		}
		sum[i], c = b.FullAdder(cellKind, a[i], bb[i], c)
	}
	return sum, c
}

// RCA builds a ripple-carry adder anchored at datapath position 0.
func (b *Builder) RCA(kind approx.AdderKind, k int, a, bb Bus, cin Net) (Bus, Net) {
	return b.RCAAt(kind, k, 0, a, bb, cin)
}

// Subtract builds a - bb as a + NOT bb + 1 on the same ripple-carry
// structure (inverters are exact wiring; the approximation lives in the
// chain cells).
func (b *Builder) Subtract(kind approx.AdderKind, k int, a, bb Bus) Bus {
	s, _ := b.RCA(kind, k, a, b.NotBus(bb), Const1)
	return s
}

// Multiplier builds the recursive multiplier structure of spec m (paper
// Fig 7) over equal-width operand buses and returns the 2*Width product
// bus. The structure mirrors arith.Multiplier bit for bit: an elementary
// 2x2 cell at output offset p is the approximate kind iff p+4 <= k, and
// accumulation-adder cells at output positions below k are approximate.
func (b *Builder) Multiplier(m arith.Multiplier, a, bb Bus) Bus {
	if err := m.Validate(); err != nil {
		b.fail("multiplier spec: %v", err)
		return b.newBus(2 * len(a))
	}
	if len(a) != m.Width || len(bb) != m.Width {
		b.fail("multiplier operand widths %d/%d, want %d", len(a), len(bb), m.Width)
		return b.newBus(2 * m.Width)
	}
	if b.fold && b.fresh(a) {
		if c, ok := constValue(bb); ok {
			if t := b.template(m, c); t != nil {
				return b.replay(t, a)
			}
		}
	}
	return b.mulRec(m, a, bb, 0)
}

// mulKey names one constant multiplier: its spec and the constant.
type mulKey struct {
	m arith.Multiplier
	c uint64
}

// mulTemplate is a constant multiplier folded over a fresh input bus in a
// builder of its own: nets below numReservedNets are the constants, the
// next Width nets the input bus, and every later net one of the
// template's own, numNets of them.
type mulTemplate struct {
	cells   []Cell
	pins    int // total pin count of cells
	numNets int
	out     Bus
}

// constValue returns the value of a bus made only of constant nets.
func constValue(bus Bus) (uint64, bool) {
	var c uint64
	for i, x := range bus {
		if !x.IsConst() {
			return 0, false
		}
		c |= uint64(x.ConstVal()) << i
	}
	return c, true
}

// fresh reports whether bus is consecutive non-constant nets, none of
// which holds a cached inverter: a multiplier over it folds exactly as
// over a template's own input bus.
func (b *Builder) fresh(bus Bus) bool {
	for i, x := range bus {
		if x.IsConst() || x != bus[0]+Net(i) {
			return false
		}
		if _, ok := b.invCache[x]; ok {
			return false
		}
	}
	return true
}

// template returns the template of multiplier m by constant c, folding it
// on first use; nil if the fold failed (the caller then folds in place and
// records the error).
func (b *Builder) template(m arith.Multiplier, c uint64) *mulTemplate {
	key := mulKey{m, c}
	if t, ok := b.mulMemo[key]; ok {
		return t
	}
	tb := NewFoldingBuilder(b.n.Name)
	out := tb.mulRec(m, tb.newBus(m.Width), tb.ConstBus(c, m.Width), 0)
	if tb.err != nil {
		return nil
	}
	t := &mulTemplate{cells: tb.n.Cells, numNets: tb.n.NumNets - numReservedNets - m.Width, out: out}
	for i := range t.cells {
		t.pins += len(t.cells[i].In) + len(t.cells[i].Out)
	}
	if b.mulMemo == nil {
		b.mulMemo = make(map[mulKey]*mulTemplate)
	}
	b.mulMemo[key] = t
	return t
}

// replay adds template t's cells and nets over the fresh bus a and
// returns the product bus (see Builder).
func (b *Builder) replay(t *mulTemplate, a Bus) Bus {
	in := Net(numReservedNets)
	own := in + Net(len(a))
	shift := Net(b.n.NumNets) - own
	mapNet := func(x Net) Net {
		switch {
		case x < in:
			return x
		case x < own:
			return a[0] + x - in
		default:
			return x + shift
		}
	}
	pins := make([]Net, t.pins)
	for i := range t.cells {
		tc := &t.cells[i]
		c := Cell{Kind: tc.Kind, Add: tc.Add, Mul: tc.Mul}
		nin, nout := len(tc.In), len(tc.Out)
		c.In, c.Out = pins[:nin:nin], pins[nin:nin+nout:nin+nout]
		pins = pins[nin+nout:]
		for j, x := range tc.In {
			c.In[j] = mapNet(x)
		}
		for j, x := range tc.Out {
			c.Out[j] = mapNet(x)
		}
		if c.Kind == CellInv {
			b.invCache[c.In[0]] = c.Out[0]
		}
		b.n.Cells = append(b.n.Cells, c)
	}
	b.n.NumNets += t.numNets
	out := make(Bus, len(t.out))
	for i, x := range t.out {
		out[i] = mapNet(x)
	}
	return out
}

func (b *Builder) mulRec(m arith.Multiplier, a, bb Bus, off int) Bus {
	w := len(a)
	if w == 2 {
		kind := m.Mult
		if off+4 > m.ApproxLSBs {
			kind = approx.AccMult
		}
		return b.Mult2(kind, a[0], a[1], bb[0], bb[1])
	}
	h := w / 2
	ll := b.mulRec(m, a[:h], bb[:h], off)
	hl := b.mulRec(m, a[h:], bb[:h], off+h)
	lh := b.mulRec(m, a[:h], bb[h:], off+h)
	hh := b.mulRec(m, a[h:], bb[h:], off+2*h)
	// Three accumulation adders, anchored at the offsets their cells
	// occupy in the product (the top level uses 2N-bit adders, paper §4.1).
	mid, _ := b.RCAAt(m.Add, m.ApproxLSBs, off+h, b.Extend(hl, 2*h+1), b.Extend(lh, 2*h+1), Const0)
	s, _ := b.RCAAt(m.Add, m.ApproxLSBs, off, b.Extend(ll, 2*w), b.Extend(b.ShiftLeft(mid, h), 2*w), Const0)
	s, _ = b.RCAAt(m.Add, m.ApproxLSBs, off, s, b.Extend(b.ShiftLeft(hh, w), 2*w), Const0)
	return s
}

// Build validates and returns the constructed netlist.
func (b *Builder) Build() (*Netlist, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.n.Validate(); err != nil {
		return nil, err
	}
	return b.n, nil
}
