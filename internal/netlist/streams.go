package netlist

// This file holds the multi-vector form of the combinational simulator:
// Run evaluates one input binding per call, RunStreams evaluates a whole
// packed stimulus sequence — lane-packed 64 vectors at a time like the
// activity engine — which is how the cross-validation suites drive their
// vector sweeps without paying one truth-table walk per cell per vector.

// RunStreams evaluates the netlist over packed per-port stimulus
// streams (Values[v] is the port's word under vector v; every input
// port must appear exactly once, with at least one vector) and returns
// one packed stream per output port, in the netlist's output-port
// order.
//
// 64 consecutive vectors evaluate at once: every net holds a uint64
// whose bit l is the net's value under vector base+l and each cell's
// logic function applies bitwise across the lanes. Outputs are
// bit-identical to calling Run once per vector.
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
// uint64 of lane values per net, sharing the activity engine's cell
// evaluation (evalCellLanes).
func (s *Simulator) runStreamsLanes(vectors int, outs []PortStimulus) {
	if s.lanes == nil {
		s.lanes = make([]uint64, s.n.NumNets)
	}
	lanes := s.lanes
	var in, out [4]uint64
	for base := 0; base < vectors; base += 64 {
		nl := vectors - base
		if nl > 64 {
			nl = 64
		}
		full := ^uint64(0)
		if nl < 64 {
			full = uint64(1)<<nl - 1
		}
		for i := range lanes {
			lanes[i] = 0
		}
		lanes[Const1] = full
		for pi, p := range s.n.Inputs {
			vals := s.streams[pi][base : base+nl]
			for i, b := range p.Bits {
				var w uint64
				for l, v := range vals {
					w |= (v >> i & 1) << l
				}
				lanes[b] = w
			}
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
			vs := outs[oi].Values[base : base+nl]
			for i, b := range p.Bits {
				w := lanes[b]
				for l := range vs {
					vs[l] |= (w >> uint(l) & 1) << uint(i)
				}
			}
		}
	}
}
