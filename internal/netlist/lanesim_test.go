package netlist

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
)

// TestEvalCellLanesClosedForms checks the hand-derived lane closed forms
// of every library cell against the scalar truth-table evaluator, lane by
// lane over random lane patterns (eight draws of 64 lanes cover every
// input combination of a cell with overwhelming probability), and that a
// cell flavour or kind without a closed form panics.
func TestEvalCellLanesClosedForms(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	check := func(c *Cell, nin int) {
		t.Helper()
		var in, out [4]uint64
		for i := 0; i < nin; i++ {
			in[i] = rng.Uint64()
		}
		evalCellLanes(c, &in, &out)
		var sin [4]uint8
		for l := 0; l < 64; l++ {
			for i := 0; i < nin; i++ {
				sin[i] = uint8(in[i] >> l & 1)
			}
			want := evalCell(c, sin[:nin])
			for j := 0; j < len(c.Out); j++ {
				if got := uint8(out[j] >> l & 1); got != want[j] {
					t.Fatalf("%s: lane %d output %d = %d, scalar %d", c.TypeName(), l, j, got, want[j])
				}
			}
		}
	}
	outs := func(n int) []Net {
		o := make([]Net, n)
		for i := range o {
			o[i] = Net(numReservedNets + i)
		}
		return o
	}
	for _, kind := range approx.AdderKinds {
		c := &Cell{Kind: CellFA, Add: kind, In: []Net{0, 0, 0}, Out: outs(2)}
		for i := 0; i < 8; i++ {
			check(c, 3)
		}
	}
	for _, kind := range approx.MultKinds {
		c := &Cell{Kind: CellMult2, Mul: kind, In: []Net{0, 0, 0, 0}, Out: outs(4)}
		for i := 0; i < 8; i++ {
			check(c, 4)
		}
	}
	check(&Cell{Kind: CellInv, In: []Net{0}, Out: outs(1)}, 1)
	for _, c := range []*Cell{
		{Kind: CellFA, Add: approx.AdderKind(approx.NumAdderKinds)},
		{Kind: CellMult2, Mul: approx.MultKind(approx.NumMultKinds)},
		{Kind: CellReg + 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v: evaluated without a closed form, want a panic", *c)
				}
			}()
			var in, out [4]uint64
			evalCellLanes(c, &in, &out)
		}()
	}
}

// activityNetlists generates a representative spread of optimised stage
// netlists: FIR shapes (the HPF-like long run of one coefficient, a
// symmetric LPF-like shape, a short differentiator), the moving-window
// integrator and the squarer, across every approximate cell pairing the
// evaluation uses plus an accurate baseline.
func activityNetlists(t *testing.T) []*Netlist {
	t.Helper()
	var nets []*Netlist
	add := func(n *Netlist, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Optimize(n)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, opt)
	}
	type cfg struct {
		k    int
		mul  approx.MultKind
		addk approx.AdderKind
	}
	cfgs := []cfg{
		{0, approx.AccMult, approx.AccAdd},
		{4, approx.AppMultV1, approx.ApproxAdd5},
		{10, approx.AppMultV1, approx.ApproxAdd5},
		{8, approx.AppMultV2, approx.ApproxAdd2},
		{6, approx.AppMultV1, approx.ApproxAdd3},
		{16, approx.AppMultV1, approx.ApproxAdd4},
		{5, approx.AppMultV2, approx.ApproxAdd1},
	}
	hpfLike := make([]int64, 12)
	for i := range hpfLike {
		hpfLike[i] = -1
	}
	hpfLike[5] = 31
	for _, c := range cfgs {
		mult := arith.Multiplier{Width: 8, ApproxLSBs: c.k, Mult: c.mul, Add: c.addk}
		ad := arith.Adder{Width: 16, ApproxLSBs: c.k, Kind: c.addk}
		add(GenFIR(NewBuilder(fmt.Sprintf("hpf_k%d", c.k)), FIRSpec{
			Coeffs: hpfLike, InWidth: 8, AccWidth: 16, OutShift: 2, OutWidth: 8,
			Mult: mult, Add: ad, Combinational: true,
		}))
		add(GenFIR(NewBuilder(fmt.Sprintf("lpf_k%d", c.k)), FIRSpec{
			Coeffs: []int64{1, 2, 3, 2, 1}, InWidth: 8, AccWidth: 16, OutShift: 1, OutWidth: 8,
			Mult: mult, Add: ad, Combinational: true,
		}))
		add(GenFIR(NewBuilder(fmt.Sprintf("der_k%d", c.k)), FIRSpec{
			Coeffs: []int64{2, 1, 0, -1, -2}, InWidth: 8, AccWidth: 16, OutShift: 0, OutWidth: 8,
			Mult: mult, Add: ad, Combinational: true,
		}))
		add(GenMovingSum(NewBuilder(fmt.Sprintf("mwi_k%d", c.k)), MovingSumSpec{
			Taps: 6, InWidth: 8, AccWidth: 16, OutShift: 2, OutWidth: 8,
			Add: ad, Combinational: true,
		}))
		add(GenSquarer(NewBuilder(fmt.Sprintf("sqr_k%d", c.k)), mult))
	}
	return nets
}

// activityOracle is the activity engine's reference: the simulator as it
// was before lane packing, restated over stimulus streams — one vector at
// a time, one uint8 per net, and per cell n/len(Out) added for each
// consecutive vector pair whose n output pins differ.
func activityOracle(s *Simulator, ports []PortStimulus) (Activity, error) {
	vectors, err := s.bindStreams(ports)
	if err != nil {
		return Activity{}, err
	}
	toggles := make([]float64, len(s.n.Cells))
	prev := make([][4]uint8, len(s.n.Cells))
	vals := make([]uint8, s.n.NumNets)
	var in [4]uint8
	for vi := 0; vi < vectors; vi++ {
		clear(vals)
		vals[Const1] = 1
		for pi, p := range s.n.Inputs {
			v := s.streams[pi][vi]
			for i, b := range p.Bits {
				vals[b] = uint8(v>>i) & 1
			}
		}
		for ci := range s.n.Cells {
			c := &s.n.Cells[ci]
			for j, net := range c.In {
				in[j] = vals[net]
			}
			out := evalCell(c, in[:len(c.In)])
			for j, net := range c.Out {
				vals[net] = out[j]
			}
			if vi > 0 {
				n := 0
				for j := range c.Out {
					if out[j] != prev[ci][j] {
						n++
					}
				}
				toggles[ci] += float64(n) / float64(len(c.Out))
			}
			prev[ci] = out
		}
	}
	for i := range toggles {
		toggles[i] /= float64(vectors - 1)
	}
	return Activity{PerCell: toggles, Vectors: vectors}, nil
}

// portWidthNetlist is a plain netlist over input ports 1, 32, 64 and 80
// bits wide whose cells read the bottom, middle and top bits of each port:
// bit 63 of the 64- and 80-bit ports, and bits 64 to 79 of the 80-bit
// port, which every engine reads as 0.
func portWidthNetlist(t *testing.T) *Netlist {
	t.Helper()
	b := NewBuilder("ports")
	w1 := b.InputBus("w1", 1)
	w32 := b.InputBus("w32", 32)
	w64 := b.InputBus("w64", 64)
	w80 := b.InputBus("w80", 80)
	s, _ := b.RCA(approx.AccAdd, 0, w32, w64[32:], w1[0])
	s, _ = b.RCA(approx.ApproxAdd1, 8, w80[48:], s, w64[63])
	b.Mult2(approx.AccMult, w64[63], w80[63], w80[64], w1[0])
	b.NotBus(w80[60:70])
	b.FullAdder(approx.ApproxAdd3, w64[0], w80[0], w32[31])
	b.OutputBus("y", s)
	return mustBuild(t)(b.Build())
}

// requireActivityOracle runs the stimulus through the activity engine and
// through activityOracle and requires PerCell to be bit-identical.
func requireActivityOracle(t *testing.T, n *Netlist, ports []PortStimulus) {
	t.Helper()
	sim := mustSim(t, n)
	lane, laneErr := sim.RunActivityStreams(ports)
	scalar, scalarErr := activityOracle(sim, ports)
	vectors := len(ports[0].Values)
	if laneErr != nil || scalarErr != nil {
		t.Fatalf("%s vectors=%d: lane err %v, scalar err %v", n.Name, vectors, laneErr, scalarErr)
	}
	if lane.Vectors != scalar.Vectors || len(lane.PerCell) != len(scalar.PerCell) {
		t.Fatalf("%s vectors=%d: shape mismatch", n.Name, vectors)
	}
	for i := range lane.PerCell {
		if lane.PerCell[i] != scalar.PerCell[i] {
			t.Fatalf("%s vectors=%d cell %d (%s): lane %v != scalar %v",
				n.Name, vectors, i, n.Cells[i].TypeName(), lane.PerCell[i], scalar.PerCell[i])
		}
	}
}

// TestActivityLaneVsScalarOracle drives every generated stage netlist with
// randomized stimulus streams at vector counts straddling the 64-lane
// block boundaries and requires PerCell to be bit-identical between the
// lane-packed engine and the one-vector-at-a-time activityOracle. The
// port-width netlist then takes full 64-bit values, bit 63 and the bits
// past each narrower port's width included.
func TestActivityLaneVsScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	counts := []int{2, 63, 64, 65, 130, 200}
	for _, n := range activityNetlists(t) {
		for _, vectors := range counts {
			ports := make([]PortStimulus, len(n.Inputs))
			for pi, p := range n.Inputs {
				vals := make([]uint64, vectors)
				for v := range vals {
					vals[v] = rng.Uint64() & (uint64(1)<<len(p.Bits) - 1)
				}
				ports[pi] = PortStimulus{Name: p.Name, Values: vals}
			}
			requireActivityOracle(t, n, ports)
		}
	}
	n := portWidthNetlist(t)
	for _, vectors := range counts {
		ports := make([]PortStimulus, len(n.Inputs))
		for pi, p := range n.Inputs {
			vals := make([]uint64, vectors)
			for v := range vals {
				vals[v] = rng.Uint64() | uint64(v&1)<<63
			}
			ports[pi] = PortStimulus{Name: p.Name, Values: vals}
		}
		requireActivityOracle(t, n, ports)
	}
}

// FuzzActivity drives fuzzed netlists through the activity engine against
// activityOracle: up to 8 input ports of fuzzed widths (1 to 96 bits, so
// some have bits at 64 and above, which read 0), 2 to 200 vectors of full
// 64-bit values (bits past a port's width set, which both must ignore)
// and a fuzzed mix of up to 256 full adders, 2x2 multipliers and inverters
// of every kind over nets drawn from the ports, the constants and earlier
// cells.
func FuzzActivity(f *testing.F) {
	f.Add(int64(1), []byte{15, 15}, uint8(61), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add(int64(2), []byte{0, 31, 63, 79}, uint8(198), []byte{0, 3, 6, 9, 12, 15, 1, 4, 7, 2, 2, 2, 0, 1})
	f.Add(int64(3), []byte{95}, uint8(0), []byte{2, 1, 0})
	f.Add(int64(4), []byte{7, 7, 7}, uint8(126), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, widths []byte, vectors uint8, mix []byte) {
		widths = widths[:min(len(widths), 8)]
		if len(widths) == 0 {
			widths = []byte{0}
		}
		mix = mix[:min(len(mix), 256)]
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder("fuzz")
		nets := []Net{Const0, Const1}
		for i, w := range widths {
			nets = append(nets, b.InputBus(fmt.Sprintf("p%d", i), 1+int(w)%96)...)
		}
		pick := func() Net { return nets[rng.Intn(len(nets))] }
		for _, op := range mix {
			switch op % 3 {
			case 0:
				s, c := b.FullAdder(approx.AdderKinds[int(op/3)%len(approx.AdderKinds)], pick(), pick(), pick())
				nets = append(nets, s, c)
			case 1:
				nets = append(nets, b.Mult2(approx.MultKinds[int(op/3)%len(approx.MultKinds)], pick(), pick(), pick(), pick())...)
			default:
				nets = append(nets, b.Not(pick()))
			}
		}
		n := mustBuild(t)(b.Build())
		nv := 2 + int(vectors)%199
		ports := make([]PortStimulus, len(n.Inputs))
		for pi, p := range n.Inputs {
			vals := make([]uint64, nv)
			for v := range vals {
				vals[v] = rng.Uint64()
			}
			ports[pi] = PortStimulus{Name: p.Name, Values: vals}
		}
		requireActivityOracle(t, n, ports)
	})
}

// TestPackLanes checks the stimulus packer against its definition: after
// packing a block, bit l of the lane word of port bit i is bit i of value
// l, and 0 for lanes past the block and for port bits at 64 and above,
// whatever an earlier block left in the scratch plane.
func TestPackLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, width := range []int{1, 16, 64, 80} {
		bus := make(Bus, width)
		for i := range bus {
			bus[i] = Net(numReservedNets + i)
		}
		for _, nl := range []int{1, 3, 63, 64} {
			vals := make([]uint64, nl)
			for l := range vals {
				vals[l] = rng.Uint64() | uint64(l&1)<<63
			}
			var plane [64]uint64
			for i := range plane {
				plane[i] = ^uint64(0)
			}
			lanes := make([]uint64, numReservedNets+width)
			packLanes(lanes, bus, vals, &plane)
			for i, b := range bus {
				var want uint64
				for l, v := range vals {
					if i < 64 {
						want |= (v >> i & 1) << l
					}
				}
				if lanes[b] != want {
					t.Fatalf("width %d, %d vectors: lane word of bit %d = %#x, want %#x", width, nl, i, lanes[b], want)
				}
			}
		}
	}
}

// TestTranspose64 checks the bit transpose against its definition (bit l
// of word i of the result is bit i of word l of the input): on every
// matrix with a single set bit, on random matrices, on the all-ones
// matrix and, transposed twice, back to the input.
func TestTranspose64(t *testing.T) {
	def := func(a *[64]uint64) (w [64]uint64) {
		for i := range w {
			for l := range a {
				w[i] |= (a[l] >> i & 1) << l
			}
		}
		return w
	}
	check := func(a [64]uint64) {
		t.Helper()
		got := a
		transpose64(&got)
		if want := def(&a); got != want {
			t.Fatalf("transpose64 of %#x = %#x, want %#x", a, got, want)
		}
		transpose64(&got)
		if got != a {
			t.Fatalf("transpose64 twice of %#x = %#x", a, got)
		}
	}
	for r := 0; r < 64; r++ {
		for c := 0; c < 64; c++ {
			var a [64]uint64
			a[r] = 1 << c
			check(a)
		}
	}
	rng := rand.New(rand.NewSource(46))
	for it := 0; it < 64; it++ {
		var a [64]uint64
		for i := range a {
			a[i] = rng.Uint64()
		}
		check(a)
	}
	var ones [64]uint64
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	check(ones)
}

// TestRunActivityStreamsErrors checks that the activity engine rejects
// stimulus streams that do not bind every input port once with one
// common vector count.
func TestRunActivityStreamsErrors(t *testing.T) {
	m := arith.Multiplier{Width: 4, ApproxLSBs: 4, Mult: approx.AppMultV1, Add: approx.ApproxAdd5}
	n := mustBuild(t)(GenMultiplier(NewBuilder("mult"), m))
	sim := mustSim(t, n)
	rng := rand.New(rand.NewSource(43))
	const vectors = 70
	as := make([]uint64, vectors)
	bs := make([]uint64, vectors)
	for v := range as {
		as[v] = rng.Uint64() & 0xF
		bs[v] = rng.Uint64() & 0xF
	}
	if _, err := sim.RunActivityStreams([]PortStimulus{{Name: "a", Values: as}, {Name: "b", Values: bs}}); err != nil {
		t.Fatalf("valid streams rejected: %v", err)
	}
	if _, err := sim.RunActivityStreams([]PortStimulus{{Name: "a", Values: as}}); err == nil {
		t.Error("missing stream accepted")
	}
	if _, err := sim.RunActivityStreams([]PortStimulus{
		{Name: "a", Values: as}, {Name: "b", Values: bs[:10]},
	}); err == nil {
		t.Error("length-mismatched streams accepted")
	}
	if _, err := sim.RunActivityStreams([]PortStimulus{
		{Name: "a", Values: as}, {Name: "b", Values: bs}, {Name: "a", Values: as},
	}); err == nil {
		t.Error("duplicate stream accepted")
	}
	if _, err := sim.RunActivityStreams([]PortStimulus{
		{Name: "a", Values: as}, {Name: "b", Values: bs}, {Name: "zz", Values: as},
	}); err == nil {
		t.Error("unknown-port stream accepted")
	}
}

// BenchmarkActivity measures the activity engine over an optimised
// HPF-like FIR netlist — the inner loop of every cold energy
// characterization — against the one-vector-at-a-time activityOracle.
func BenchmarkActivity(b *testing.B) {
	mult := arith.Multiplier{Width: 16, ApproxLSBs: 10, Mult: approx.AppMultV1, Add: approx.ApproxAdd5}
	ad := arith.Adder{Width: 32, ApproxLSBs: 10, Kind: approx.ApproxAdd5}
	coeffs := make([]int64, 32)
	for i := range coeffs {
		coeffs[i] = -1
	}
	coeffs[16] = 32
	n, err := GenFIR(NewBuilder("hpf_bench"), FIRSpec{
		Coeffs: coeffs, InWidth: 16, AccWidth: 32, OutShift: 5, OutWidth: 16,
		Mult: mult, Add: ad, Combinational: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	if n, err = Optimize(n); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	const vectors = 600
	ports := make([]PortStimulus, len(n.Inputs))
	for pi, p := range n.Inputs {
		vals := make([]uint64, vectors)
		for v := range vals {
			vals[v] = rng.Uint64() & (uint64(1)<<len(p.Bits) - 1)
		}
		ports[pi] = PortStimulus{Name: p.Name, Values: vals}
	}
	for _, v := range []struct {
		name string
		run  func(*Simulator, []PortStimulus) (Activity, error)
	}{
		{"lanes", (*Simulator).RunActivityStreams},
		{"scalar", activityOracle},
	} {
		b.Run(v.name, func(b *testing.B) {
			sim, err := NewSimulator(n)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.run(sim, ports); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestFoldCellMatchesScalar checks foldCell's one lane-parallel
// evaluation against a scalar enumeration of the cell's truth table
// through evalCell (scalarFold), for every FA and MULT2 flavour and every
// pattern of constant-0, constant-1 and free pins: each output must fold
// to the same constant, wire or inverted wire of the same free pin, or
// stay logic.
func TestFoldCellMatchesScalar(t *testing.T) {
	var cells []Cell
	for _, kind := range approx.AdderKinds {
		cells = append(cells, Cell{Kind: CellFA, Add: kind})
	}
	for _, kind := range approx.MultKinds {
		cells = append(cells, Cell{Kind: CellMult2, Mul: kind})
	}
	for _, c := range cells {
		nin, nout := 3, 2
		if c.Kind == CellMult2 {
			nin, nout = 4, 4
		}
		patterns := 1
		for range nin {
			patterns *= 3
		}
		for p := range patterns {
			// Digit i of p in base 3 makes pin i constant 0, constant 1 or
			// a free net of its own.
			var in [4]Net
			for i, d := 0, p; i < nin; i, d = i+1, d/3 {
				in[i] = [3]Net{Const0, Const1, Net(numReservedNets + i)}[d%3]
			}
			var got, want [4]Net
			gotFold := foldCell(&c, in, nin, nout, &got)
			wantFold := scalarFold(&c, in, nin, nout, &want)
			if gotFold != wantFold || got != want {
				t.Fatalf("%s over pins %v: folds %v to %v, scalar enumeration %v to %v",
					c.TypeName(), in[:nin], gotFold[:nout], got[:nout], wantFold[:nout], want[:nout])
			}
		}
	}
}

// scalarFold is foldCell by enumeration: it evaluates the cell through
// evalCell once per combination of its free inputs and classifies each
// output by comparing it with every free input, in pin order.
func scalarFold(c *Cell, in [4]Net, nin, nout int, out *[4]Net) (fold [4]pinFold) {
	var free [4]int
	var vals [4]uint8
	nf := 0
	for i := 0; i < nin; i++ {
		if in[i].IsConst() {
			vals[i] = in[i].ConstVal()
		} else {
			free[nf] = i
			nf++
		}
	}
	combos := 1 << nf
	var outs [16][4]uint8
	for combo := range combos {
		for fi := 0; fi < nf; fi++ {
			vals[free[fi]] = uint8(combo>>fi) & 1
		}
		outs[combo] = evalCell(c, vals[:nin])
	}
	for oi := 0; oi < nout; oi++ {
		ones := 0
		for combo := range combos {
			ones += int(outs[combo][oi])
		}
		switch ones {
		case 0:
			out[oi], fold[oi] = Const0, pinNet
			continue
		case combos:
			out[oi], fold[oi] = Const1, pinNet
			continue
		}
		for fi := 0; fi < nf && fold[oi] == pinLogic; fi++ {
			wire, inv := true, true
			for combo := range combos {
				x := uint8(combo>>fi) & 1
				wire = wire && outs[combo][oi] == x
				inv = inv && outs[combo][oi] != x
			}
			switch {
			case wire:
				out[oi], fold[oi] = in[free[fi]], pinNet
			case inv:
				out[oi], fold[oi] = in[free[fi]], pinInv
			}
		}
	}
	return fold
}
