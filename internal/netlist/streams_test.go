package netlist

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
)

// RunStreams is the multi-vector form of Run the cross-validation suites
// drive their vector sweeps through: it evaluates the netlist over packed
// per-port stimulus streams (Values[v] is the port's word under vector v;
// every input port must appear exactly once, with at least one vector)
// and returns one packed stream per output port, in the netlist's
// output-port order. 64 consecutive vectors evaluate at once, lane-packed
// like the activity engine, so a sweep does not pay one truth-table walk
// per cell per vector. Outputs equal calling Run once per vector.
func (s *Simulator) RunStreams(ports []PortStimulus) ([]PortStimulus, error) {
	vectors, err := s.bindStreams(ports)
	if err != nil {
		return nil, err
	}
	outs := make([]PortStimulus, len(s.n.Outputs))
	for i, p := range s.n.Outputs {
		outs[i] = PortStimulus{Name: p.Name, Values: make([]uint64, vectors)}
	}
	s.runStreamsLanes(vectors, outs)
	return outs, nil
}

// runStreamsLanes evaluates bound streams in blocks of 64 vectors, one
// uint64 of lane values per net, through the activity engine's packer
// (packLanes) and cell evaluation (evalCellLanes). Each output port's
// lane words are transposed back into its values.
func (s *Simulator) runStreamsLanes(vectors int, outs []PortStimulus) {
	if s.lanes == nil {
		s.lanes = make([]uint64, s.n.NumNets)
	}
	lanes := s.lanes
	var in, out [4]uint64
	var plane [64]uint64
	for base := 0; base < vectors; base += 64 {
		nl := min(vectors-base, 64)
		clear(lanes)
		lanes[Const1] = ^uint64(0) >> (64 - nl)
		for pi, p := range s.n.Inputs {
			packLanes(lanes, p.Bits, s.streams[pi][base:base+nl], &plane)
		}
		for ci := range s.n.Cells {
			c := &s.n.Cells[ci]
			for j, net := range c.In {
				in[j] = lanes[net]
			}
			evalCellLanes(c, &in, &out)
			for j, net := range c.Out {
				lanes[net] = out[j]
			}
		}
		for oi, p := range s.n.Outputs {
			clear(plane[:])
			for i, b := range p.Bits[:min(len(p.Bits), 64)] {
				plane[i] = lanes[b]
			}
			transpose64(&plane)
			copy(outs[oi].Values[base:base+nl], plane[:nl])
		}
	}
}

// TestRunStreamsMatchesRun pins the lane-packed multi-vector simulator
// against the per-vector Run oracle: for every stream width — one
// vector, a ragged sub-block, exactly one full 64-lane block, one lane
// over, and multiple blocks — the packed outputs must equal Run's, bit
// for bit, on a netlist mixing accurate and approximate cells.
func TestRunStreamsMatchesRun(t *testing.T) {
	m := arith.Multiplier{Width: 16, ApproxLSBs: 8, Mult: approx.AppMultV1, Add: approx.ApproxAdd5}
	n := mustBuild(t)(GenMultiplier(NewBuilder("streams"), m))
	rng := rand.New(rand.NewSource(23))
	for _, vectors := range []int{1, 3, 63, 64, 65, 130} {
		t.Run(fmt.Sprintf("vectors=%d", vectors), func(t *testing.T) {
			sim := mustSim(t, n)
			as := make([]uint64, vectors)
			bs := make([]uint64, vectors)
			for i := range as {
				as[i] = rng.Uint64() & 0xFFFF
				bs[i] = rng.Uint64() & 0xFFFF
			}
			outs, err := sim.RunStreams([]PortStimulus{
				{Name: "a", Values: as},
				{Name: "b", Values: bs},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(outs) != 1 || outs[0].Name != "p" || len(outs[0].Values) != vectors {
				t.Fatalf("RunStreams shape %v, want one %d-vector stream for p", outs, vectors)
			}
			for i := range as {
				ref, err := sim.Run(map[string]uint64{"a": as[i], "b": bs[i]})
				if err != nil {
					t.Fatal(err)
				}
				if outs[0].Values[i] != ref["p"] {
					t.Fatalf("vector %d: RunStreams %#x, Run %#x for a=%#x b=%#x",
						i, outs[0].Values[i], ref["p"], as[i], bs[i])
				}
			}
		})
	}
}

// TestRunStreamsStimulusErrors checks the shared stream validation:
// empty streams, missing ports, unknown ports and ragged widths are
// rejected, while the activity engine still requires two vectors.
func TestRunStreamsStimulusErrors(t *testing.T) {
	ad := arith.Adder{Width: 8, ApproxLSBs: 0, Kind: approx.AccAdd}
	n := mustBuild(t)(GenRCA(NewBuilder("errs"), ad))
	sim := mustSim(t, n)
	cases := []struct {
		name  string
		ports []PortStimulus
	}{
		{"empty", []PortStimulus{{Name: "a"}, {Name: "b"}, {Name: "cin"}}},
		{"missing-port", []PortStimulus{{Name: "a", Values: []uint64{1}}}},
		{"unknown-port", []PortStimulus{
			{Name: "a", Values: []uint64{1}}, {Name: "b", Values: []uint64{2}},
			{Name: "cin", Values: []uint64{0}}, {Name: "nope", Values: []uint64{0}},
		}},
		{"ragged", []PortStimulus{
			{Name: "a", Values: []uint64{1, 2}}, {Name: "b", Values: []uint64{3}},
			{Name: "cin", Values: []uint64{0, 0}},
		}},
	}
	for _, tc := range cases {
		if _, err := sim.RunStreams(tc.ports); err == nil {
			t.Errorf("%s: RunStreams accepted invalid stimulus", tc.name)
		}
	}
	// One vector is enough for RunStreams but not for activity, which is
	// defined over consecutive vector pairs.
	one := []PortStimulus{
		{Name: "a", Values: []uint64{1}},
		{Name: "b", Values: []uint64{2}},
		{Name: "cin", Values: []uint64{0}},
	}
	if _, err := sim.RunStreams(one); err != nil {
		t.Errorf("single-vector RunStreams rejected: %v", err)
	}
	if _, err := sim.RunActivityStreams(one); err == nil {
		t.Error("single-vector RunActivityStreams accepted")
	}
}
