package netlist

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
	"github.com/xbiosip/xbiosip/internal/oracle"
)

func mustBuild(t *testing.T) func(*Netlist, error) *Netlist {
	return func(n *Netlist, err error) *Netlist {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
}

func mustSim(t *testing.T, n *Netlist) *Simulator {
	t.Helper()
	s, err := NewSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// outStream returns the named output port's packed values from a
// RunStreams result.
func outStream(t *testing.T, outs []PortStimulus, name string) []uint64 {
	t.Helper()
	for _, o := range outs {
		if o.Name == name {
			return o.Values
		}
	}
	t.Fatalf("no output port %q in RunStreams result", name)
	return nil
}

// TestRCANetlistCrossValidation is the repository's ModelSim-vs-MATLAB
// loop (paper Fig 9): the RCA netlist simulation must agree bit for bit
// with the word-level behavioural model for every adder kind and k. The
// whole vector sweep goes through RunStreams in one lane-packed call.
func TestRCANetlistCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const vectors = 50
	for _, kind := range approx.AdderKinds {
		for _, k := range []int{0, 1, 5, 8, 16, 32} {
			ad := arith.Adder{Width: 32, ApproxLSBs: k, Kind: kind}
			n := mustBuild(t)(GenRCA(NewBuilder("rca32"), ad))
			sim := mustSim(t, n)
			as := make([]uint64, vectors)
			bs := make([]uint64, vectors)
			cins := make([]uint64, vectors)
			for i := range as {
				as[i] = rng.Uint64() & 0xFFFFFFFF
				bs[i] = rng.Uint64() & 0xFFFFFFFF
				cins[i] = rng.Uint64() & 1
			}
			outs, err := sim.RunStreams([]PortStimulus{
				{Name: "a", Values: as},
				{Name: "b", Values: bs},
				{Name: "cin", Values: cins},
			})
			if err != nil {
				t.Fatal(err)
			}
			sums, couts := outStream(t, outs, "sum"), outStream(t, outs, "cout")
			for i := range as {
				wantSum, wantCout := oracle.AddCarry(ad, as[i], bs[i], uint8(cins[i]))
				if sums[i] != wantSum || couts[i] != uint64(wantCout) {
					t.Fatalf("%v k=%d: netlist (%#x,%d) != behavioural (%#x,%d) for a=%#x b=%#x cin=%d",
						kind, k, sums[i], couts[i], wantSum, wantCout, as[i], bs[i], cins[i])
				}
			}
		}
	}
}

// TestMultiplierNetlistCrossValidation checks the recursive multiplier
// netlist against the bit-serial model (oracle.Mul) for representative
// configurations.
func TestMultiplierNetlistCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	configs := []arith.Multiplier{
		{Width: 4, ApproxLSBs: 0, Mult: approx.AccMult, Add: approx.AccAdd},
		{Width: 4, ApproxLSBs: 4, Mult: approx.AppMultV1, Add: approx.ApproxAdd5},
		{Width: 8, ApproxLSBs: 6, Mult: approx.AppMultV2, Add: approx.ApproxAdd3},
		{Width: 16, ApproxLSBs: 0, Mult: approx.AccMult, Add: approx.AccAdd},
		{Width: 16, ApproxLSBs: 8, Mult: approx.AppMultV1, Add: approx.ApproxAdd5},
		{Width: 16, ApproxLSBs: 16, Mult: approx.AppMultV2, Add: approx.ApproxAdd5},
		{Width: 16, ApproxLSBs: 31, Mult: approx.AppMultV1, Add: approx.ApproxAdd1},
	}
	for _, m := range configs {
		n := mustBuild(t)(GenMultiplier(NewBuilder("mult"), m))
		sim := mustSim(t, n)
		iters := 60
		if m.Width <= 4 {
			iters = 256 // exhaustive: both ragged 64-lane blocks and a full one
		}
		as := make([]uint64, iters)
		bs := make([]uint64, iters)
		for i := range as {
			if m.Width <= 4 {
				as[i], bs[i] = uint64(i>>4)&0xF, uint64(i)&0xF
			} else {
				as[i] = rng.Uint64() & (1<<m.Width - 1)
				bs[i] = rng.Uint64() & (1<<m.Width - 1)
			}
		}
		outs, err := sim.RunStreams([]PortStimulus{
			{Name: "a", Values: as},
			{Name: "b", Values: bs},
		})
		if err != nil {
			t.Fatal(err)
		}
		ps := outStream(t, outs, "p")
		for i := range as {
			if want := oracle.Mul(m, as[i], bs[i]); ps[i] != want {
				t.Fatalf("%+v: netlist %d != behavioural %d for %d*%d", m, ps[i], want, as[i], bs[i])
			}
		}
	}
}

// constMultiplier builds a multiplier of operand a by the constant coeff,
// its operand b a constant bus, into a folding builder, the way the FIR
// generators build a tap, and optimizes it.
func constMultiplier(t *testing.T, m arith.Multiplier, coeff uint64) *Netlist {
	t.Helper()
	b := NewFoldingBuilder("constmul")
	a := b.InputBus("a", m.Width)
	b.OutputBus("p", b.Multiplier(m, a, b.ConstBus(coeff, m.Width)))
	opt, err := Optimize(mustBuild(t)(b.Build()))
	if err != nil {
		t.Fatalf("Optimize(b=%d): %v", coeff, err)
	}
	if len(opt.Inputs) != 1 {
		t.Fatalf("b=%d: %d input ports, want a alone", coeff, len(opt.Inputs))
	}
	return opt
}

func TestConstPropPreservesFunction(t *testing.T) {
	// A constant operand b must fold into a multiplier that keeps the
	// function of a bit for bit, including approximation artefacts.
	rng := rand.New(rand.NewSource(22))
	m := arith.Multiplier{Width: 16, ApproxLSBs: 10, Mult: approx.AppMultV1, Add: approx.ApproxAdd5}
	for _, coeff := range []uint64{0, 1, 2, 5, 6, 31, 32, 0x7FFF} {
		sim := mustSim(t, constMultiplier(t, m, coeff))
		as := make([]uint64, 100)
		for i := range as {
			as[i] = rng.Uint64() & 0xFFFF
		}
		outs, err := sim.RunStreams([]PortStimulus{{Name: "a", Values: as}})
		if err != nil {
			t.Fatal(err)
		}
		ps := outStream(t, outs, "p")
		for i, a := range as {
			if want := oracle.Mul(m, a, coeff); ps[i] != want {
				t.Fatalf("coeff %d: optimised netlist %d != behavioural %d for a=%d", coeff, ps[i], want, a)
			}
		}
	}
}

func TestConstPropCollapsesTrivialCoefficients(t *testing.T) {
	// Multiplying by 0 must dissolve the entire netlist; multiplying by a
	// power of two must leave no multiplier cells (pure wiring).
	m := arith.Multiplier{Width: 16, ApproxLSBs: 0, Mult: approx.AccMult, Add: approx.AccAdd}
	if opt := constMultiplier(t, m, 0); len(opt.Cells) != 0 {
		t.Errorf("multiply by 0 left %d cells, want 0", len(opt.Cells))
	}
	opt := constMultiplier(t, m, 8)
	if got := len(opt.Cells); got != 0 {
		t.Errorf("multiply by 8 left %d cells, want 0 (wiring only)", got)
	}
	sim := mustSim(t, opt)
	out, err := sim.Run(map[string]uint64{"a": 123})
	if err != nil {
		t.Fatal(err)
	}
	if out["p"] != 123*8 {
		t.Errorf("multiply by 8 wiring: got %d, want %d", out["p"], 123*8)
	}
}

func TestConstPropDissolvesAMA5Cells(t *testing.T) {
	// ApproxAdd5 is pure wiring (Sum=B, Cout=A); even with no bindings the
	// pass must dissolve every AMA5 cell.
	ad := arith.Adder{Width: 32, ApproxLSBs: 32, Kind: approx.ApproxAdd5}
	n := mustBuild(t)(GenRCA(NewBuilder("ama5"), ad))
	opt, err := Optimize(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Cells) != 0 {
		t.Errorf("fully-AMA5 adder left %d cells, want 0", len(opt.Cells))
	}
	sim := mustSim(t, opt)
	out, err := sim.Run(map[string]uint64{"a": 0xDEAD, "b": 0xBEEF, "cin": 0})
	if err != nil {
		t.Fatal(err)
	}
	if out["sum"] != 0xBEEF {
		t.Errorf("fully-AMA5 sum = %#x, want b = 0xBEEF", out["sum"])
	}
	if out["cout"] != (0xDEAD>>31)&1 {
		t.Errorf("fully-AMA5 cout = %d, want a[31]", out["cout"])
	}
}

func TestDeadCellElimRemovesUnreadLogic(t *testing.T) {
	b := NewBuilder("dead")
	a := b.InputBus("a", 2)
	// Live adder.
	s, _ := b.FullAdder(approx.AccAdd, a[0], a[1], Const0)
	// Dead adder: drives nothing.
	b.FullAdder(approx.AccAdd, a[0], a[1], Const1)
	b.OutputBus("y", Bus{s})
	n := mustBuild(t)(b.Build())
	if len(n.Cells) != 2 {
		t.Fatalf("setup: %d cells", len(n.Cells))
	}
	opt, err := DeadCellElim(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Cells) != 1 {
		t.Errorf("DeadCellElim left %d cells, want 1", len(opt.Cells))
	}
}

func TestRegistersSurviveOptimization(t *testing.T) {
	// A register between live logic must not be dissolved as a wire.
	b := NewBuilder("regs")
	x := b.InputBus("x", 4)
	r := b.Register(x)
	b.OutputBus("y", r)
	n := mustBuild(t)(b.Build())
	opt, err := Optimize(n)
	if err != nil {
		t.Fatal(err)
	}
	if got := opt.NumRegisters(); got != 4 {
		t.Errorf("registers after Optimize = %d, want 4", got)
	}
}

func TestSimulatorRejectsRegisters(t *testing.T) {
	b := NewBuilder("seq")
	x := b.InputBus("x", 1)
	q := b.Register(x)
	b.OutputBus("y", q)
	n := mustBuild(t)(b.Build())
	if _, err := NewSimulator(n); err == nil {
		t.Error("NewSimulator accepted a sequential netlist")
	}
}

func TestSimulatorMissingInput(t *testing.T) {
	ad := arith.Adder{Width: 4, Kind: approx.AccAdd}
	n := mustBuild(t)(GenRCA(NewBuilder("rca4"), ad))
	sim := mustSim(t, n)
	if _, err := sim.Run(map[string]uint64{"a": 1}); err == nil {
		t.Error("Run without all inputs succeeded, want error")
	}
}

func TestValidateCatchesCorruptNetlists(t *testing.T) {
	// Reading an undefined net (topological violation).
	bad := &Netlist{Name: "bad", NumNets: 5, Cells: []Cell{
		{Kind: CellInv, In: []Net{4}, Out: []Net{3}},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("undefined-net read not caught")
	}
	// Multiply driven net.
	b := NewBuilder("dup")
	x := b.InputBus("x", 1)
	y := b.Not(x[0])
	n2 := b.n
	n2.Cells = append(n2.Cells, Cell{Kind: CellInv, In: []Net{x[0]}, Out: []Net{y}})
	if err := n2.Validate(); err == nil {
		t.Error("multiply-driven net not caught")
	}
	// Driving a constant net.
	n3 := &Netlist{Name: "c", NumNets: 3, Inputs: []Port{{Name: "x", Bits: Bus{2}}},
		Cells: []Cell{{Kind: CellInv, In: []Net{2}, Out: []Net{Const1}}}}
	if err := n3.Validate(); err == nil {
		t.Error("constant-net driver not caught")
	}
	// Wrong pin count.
	n4 := &Netlist{Name: "p", NumNets: 4, Inputs: []Port{{Name: "x", Bits: Bus{2}}},
		Cells: []Cell{{Kind: CellFA, In: []Net{2, 2}, Out: []Net{3}}}}
	if err := n4.Validate(); err == nil {
		t.Error("pin-count violation not caught")
	}
	// Unknown cell kinds, with and without pins.
	for _, c := range []Cell{
		{Kind: CellReg + 1},
		{Kind: 255, In: []Net{2, 2, 2}, Out: []Net{3, 4}},
	} {
		n5 := &Netlist{Name: "k", NumNets: 5, Inputs: []Port{{Name: "x", Bits: Bus{2}}}, Cells: []Cell{c}}
		if err := n5.Validate(); err == nil {
			t.Errorf("unknown cell kind %d with %d/%d pins not caught", c.Kind, len(c.In), len(c.Out))
		}
	}
}

func TestGenFIRStructure(t *testing.T) {
	spec := FIRSpec{
		Coeffs:   []int64{1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1},
		InWidth:  16,
		AccWidth: 32,
		OutShift: 5,
		OutWidth: 16,
		Mult:     arith.Multiplier{Width: 16, Mult: approx.AccMult, Add: approx.AccAdd},
		Add:      arith.Adder{Width: 32, Kind: approx.AccAdd},
	}
	n := mustBuild(t)(GenFIR(NewBuilder("lpf"), spec))
	if got, want := n.NumRegisters(), 10*16; got != want {
		t.Errorf("LPF registers = %d, want %d (10 16-bit delays)", got, want)
	}
	counts := n.CellCounts()
	if counts["AccMult"] != 11*64 {
		t.Errorf("LPF 2x2 cells = %d, want %d (11 multipliers)", counts["AccMult"], 11*64)
	}
}

func TestGenFIRRejectsBadSpecs(t *testing.T) {
	good := FIRSpec{
		Coeffs: []int64{1, -1}, InWidth: 16, AccWidth: 32,
		OutShift: 0, OutWidth: 16,
		Mult: arith.Multiplier{Width: 16, Mult: approx.AccMult, Add: approx.AccAdd},
		Add:  arith.Adder{Width: 32, Kind: approx.AccAdd},
	}
	if _, err := GenFIR(NewBuilder("g"), good); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	bad := good
	bad.Coeffs = nil
	if _, err := GenFIR(NewBuilder("g"), bad); err == nil {
		t.Error("empty coefficients accepted")
	}
	bad = good
	bad.OutShift = 20
	bad.OutWidth = 16
	if _, err := GenFIR(NewBuilder("g"), bad); err == nil {
		t.Error("out-of-range output slice accepted")
	}
	bad = good
	bad.Coeffs = []int64{1 << 20}
	if _, err := GenFIR(NewBuilder("g"), bad); err == nil {
		t.Error("oversized coefficient accepted")
	}
}

func TestGenMovingSumAdderOnly(t *testing.T) {
	spec := MovingSumSpec{
		Taps: 32, InWidth: 16, AccWidth: 32,
		OutShift: 5, OutWidth: 16,
		Add: arith.Adder{Width: 32, Kind: approx.AccAdd},
	}
	n := mustBuild(t)(GenMovingSum(NewBuilder("mwi"), spec))
	counts := n.CellCounts()
	if counts["AccMult"] != 0 || counts["AppMultV1"] != 0 || counts["AppMultV2"] != 0 {
		t.Error("moving-window integrator contains multiplier cells")
	}
	if got, want := counts["AccAdd"], 31*32; got != want {
		t.Errorf("MWI adder cells = %d, want %d (31 32-bit adders)", got, want)
	}
}

func TestBuilderReportsErrors(t *testing.T) {
	b := NewBuilder("err")
	a := b.InputBus("a", 4)
	c := b.InputBus("c", 3)
	b.RCA(approx.AccAdd, 0, a, c, Const0) // width mismatch
	if _, err := b.Build(); err == nil {
		t.Error("width-mismatched RCA accepted")
	}
}

// requireFoldMatchesConstProp builds one structure twice, into a folding
// builder and into a plain one that ConstProp then folds, and requires the
// two netlists to be equal cell for cell and net for net. It returns the
// folding builder for inspection.
func requireFoldMatchesConstProp(t *testing.T, name string, build func(b *Builder)) *Builder {
	t.Helper()
	fb := NewFoldingBuilder(name)
	build(fb)
	got := mustBuild(t)(fb.Build())
	pb := NewBuilder(name)
	build(pb)
	want, err := ConstProp(mustBuild(t)(pb.Build()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: folded build differs from ConstProp of the plain build (%d vs %d cells, %d vs %d nets)",
			name, len(got.Cells), len(want.Cells), got.NumNets, want.NumNets)
	}
	return fb
}

// TestMultiplierTemplates pins the folding builder's constant-multiplier
// templates: multipliers by constants over fresh operand buses replay one
// template per (spec, constant), and every call the template must not
// serve — an operand bus with a cached inverter, a bus that is not
// consecutive nets, an operand that is not all constant nets — folds in
// place. Every case equals ConstProp of the plain build.
func TestMultiplierTemplates(t *testing.T) {
	// AMA4 accumulation cells invert their a input, so this multiplier's
	// fold inverts every bit of its operand bus.
	m := arith.Multiplier{Width: 8, ApproxLSBs: 16, Mult: approx.AppMultV1, Add: approx.ApproxAdd4}
	const c = 0x5B
	mul := func(b *Builder, a Bus, c uint64) {
		b.OutputBus("p", b.Multiplier(m, a, b.ConstBus(c, m.Width)))
	}
	m8 := m
	m8.ApproxLSBs = 8
	fb := requireFoldMatchesConstProp(t, "fresh", func(b *Builder) {
		x, y, z, w := b.InputBus("x", 8), b.InputBus("y", 8), b.InputBus("z", 8), b.InputBus("w", 8)
		mul(b, x, c)
		mul(b, y, c)
		b.NotBus(x) // inverters already cached by the first replay
		mul(b, z, 1)
		b.OutputBus("q", b.Multiplier(m8, w, b.ConstBus(c, m8.Width)))
	})
	if len(fb.mulMemo) != 3 {
		t.Errorf("fresh operands: %d templates, want 3 (one per spec and constant)", len(fb.mulMemo))
	}
	inverted := 0
	for _, cell := range fb.n.Cells {
		if cell.Kind == CellInv && cell.In[0] == fb.n.Inputs[0].Bits[3] {
			inverted++
		}
	}
	if inverted != 1 {
		t.Fatalf("fold of %+v by %#x inverts operand bit 3 %d times, want once", m, c, inverted)
	}

	for _, tc := range []struct {
		name  string
		build func(b *Builder)
	}{
		{"cached-inverter", func(b *Builder) {
			x := b.InputBus("x", 8)
			b.OutputBus("inv", Bus{b.Not(x[3])})
			mul(b, x, c)
		}},
		{"reversed", func(b *Builder) {
			x := b.InputBus("x", 8)
			a := make(Bus, len(x))
			for i := range a {
				a[i] = x[len(x)-1-i]
			}
			mul(b, a, c)
		}},
		{"interleaved", func(b *Builder) {
			x, y := b.InputBus("x", 4), b.InputBus("y", 4)
			mul(b, Bus{x[0], y[0], x[1], y[1], x[2], y[2], x[3], y[3]}, c)
		}},
		{"repeated-net", func(b *Builder) {
			x := b.InputBus("x", 8)
			mul(b, Bus{x[0], x[0], x[1], x[2], x[3], x[4], x[5], x[6]}, c)
		}},
		{"constant-bit", func(b *Builder) {
			x := b.InputBus("x", 7)
			mul(b, append(Bus{Const1}, x...), c)
		}},
		{"variable-operand", func(b *Builder) {
			x, y := b.InputBus("x", 8), b.InputBus("y", 4)
			bb := append(b.ConstBus(c, 4), y...)
			b.OutputBus("p", b.Multiplier(m, x, bb))
		}},
		{"squarer", func(b *Builder) {
			x := b.InputBus("x", 8)
			b.OutputBus("p", b.Multiplier(m, x, x))
		}},
	} {
		if fb := requireFoldMatchesConstProp(t, tc.name, tc.build); len(fb.mulMemo) != 0 {
			t.Errorf("%s: %d templates built, want none", tc.name, len(fb.mulMemo))
		}
	}
}
