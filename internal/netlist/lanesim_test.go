package netlist

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
)

// TestEvalCellLanesClosedForms exhaustively checks the hand-derived lane
// closed forms of every library cell against both the generic
// sum-of-products translation and the scalar truth-table evaluator, one
// minterm per lane plus a random lane pattern.
func TestEvalCellLanesClosedForms(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	check := func(c *Cell, nin int) {
		t.Helper()
		var in, out, ref [4]uint64
		for i := 0; i < nin; i++ {
			in[i] = rng.Uint64()
		}
		evalCellLanes(c, &in, &out)
		switch c.Kind {
		case CellFA:
			genericFALanes(c.Add, &in, &ref)
		case CellMult2:
			genericMultLanes(c.Mul, &in, &ref)
		default:
			ref[0] = out[0]
		}
		for j := 0; j < len(c.Out); j++ {
			if out[j] != ref[j] {
				t.Fatalf("%s: lane output %d %#x != generic SOP %#x", c.TypeName(), j, out[j], ref[j])
			}
		}
		// Scalar cross-check lane by lane.
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
		opt, err := Optimize(n, nil)
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
	vals := s.vals
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

// TestActivityLaneVsScalarOracle drives every generated stage netlist with
// randomized stimulus streams at vector counts straddling the 64-lane
// block boundaries and requires PerCell to be bit-identical between the
// lane-packed engine and the one-vector-at-a-time activityOracle.
func TestActivityLaneVsScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range activityNetlists(t) {
		for _, vectors := range []int{2, 63, 64, 65, 130, 200} {
			ports := make([]PortStimulus, len(n.Inputs))
			for pi, p := range n.Inputs {
				vals := make([]uint64, vectors)
				for v := range vals {
					vals[v] = rng.Uint64() & (uint64(1)<<len(p.Bits) - 1)
				}
				ports[pi] = PortStimulus{Name: p.Name, Values: vals}
			}
			sim := mustSim(t, n)
			lane, laneErr := sim.RunActivityStreams(ports)
			scalar, scalarErr := activityOracle(sim, ports)
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
	}
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
	if n, err = Optimize(n, nil); err != nil {
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
