package netlist

import (
	"fmt"
	"math/bits"
)

// Activity holds per-cell switching activity measured by simulating a
// netlist over a stimulus vector sequence — the netlist-level equivalent
// of the switching-activity files ASIC power tools consume. The activity
// of a cell is the mean number of output-pin toggles per applied vector,
// normalised per pin.
type Activity struct {
	// PerCell[i] is the toggle rate of cell i in [0,1] (average fraction
	// of output pins that change per consecutive vector pair).
	PerCell []float64
	// Vectors is the number of stimulus vectors applied.
	Vectors int
}

// PortStimulus is the packed stimulus stream of one input port: Values[v]
// is the port's word value under vector v.
type PortStimulus struct {
	Name   string
	Values []uint64
}

// RunActivityStreams simulates the netlist over consecutive input vectors,
// given as packed per-port stimulus streams, and records output-pin
// toggle rates for every cell. Every input port must appear exactly once
// with one value per vector, and at least two vectors are required
// (activity is defined over consecutive pairs).
//
// 64 consecutive vectors evaluate at once: every net holds a uint64 whose
// bit l is the net's value under vector base+l (a port's words are one bit
// transpose of the block's values), each cell's logic function is applied
// bitwise across all lanes, and a toggle count is the popcount of the XOR
// between an output word and its one-lane shift. Toggle counts stay
// integer, so PerCell is bit-identical to simulating one vector at a time
// (the activity oracle of the package tests).
func (s *Simulator) RunActivityStreams(ports []PortStimulus) (Activity, error) {
	vectors, err := s.bindStreams(ports)
	if err != nil {
		return Activity{}, err
	}
	if vectors < 2 {
		return Activity{}, fmt.Errorf("netlist %s: activity needs >= 2 vectors, got %d", s.n.Name, vectors)
	}
	return s.runActivityLanes(vectors)
}

// bindStreams validates the stimulus streams against the netlist's input
// ports and returns the vector count. s.streams[i] is the stream of input
// port i afterwards.
func (s *Simulator) bindStreams(ports []PortStimulus) (int, error) {
	if s.streams == nil {
		s.streams = make([][]uint64, len(s.n.Inputs))
	}
	for i := range s.streams {
		s.streams[i] = nil
	}
	vectors := -1
	for _, ps := range ports {
		idx := -1
		for pi, p := range s.n.Inputs {
			if p.Name == ps.Name {
				idx = pi
				break
			}
		}
		if idx < 0 {
			return 0, fmt.Errorf("netlist %s: stimulus for unknown input %q", s.n.Name, ps.Name)
		}
		if s.streams[idx] != nil {
			return 0, fmt.Errorf("netlist %s: duplicate stimulus for input %q", s.n.Name, ps.Name)
		}
		if vectors >= 0 && len(ps.Values) != vectors {
			return 0, fmt.Errorf("netlist %s: input %q has %d vectors, want %d", s.n.Name, ps.Name, len(ps.Values), vectors)
		}
		vectors = len(ps.Values)
		s.streams[idx] = ps.Values
	}
	for pi, p := range s.n.Inputs {
		if s.streams[pi] == nil {
			return 0, fmt.Errorf("netlist %s: missing stimulus for input %q", s.n.Name, p.Name)
		}
	}
	if vectors < 1 {
		return 0, fmt.Errorf("netlist %s: stimulus needs >= 1 vector, got %d", s.n.Name, vectors)
	}
	return vectors, nil
}

// runActivityLanes evaluates bound streams in blocks of 64 vectors, every
// net carrying one uint64 of lane values. Each port's lane words come
// from one 64×64 bit transpose of the block's values (packLanes). Per
// block a cell costs a handful of word operations instead of 64
// truth-table walks; toggles accumulate as integers via popcount, with
// the last lane of each block carried into the next so block boundaries
// count too.
//
// PerCell is bit-identical to a one-vector-at-a-time fold that adds
// n/len(Out) per cell and vector pair: a cell has 1, 2 or 4 output pins,
// so every such partial sum is an exact dyadic rational and the fold is
// exact — both compute the same real number and round it identically in
// the final division.
func (s *Simulator) runActivityLanes(vectors int) (Activity, error) {
	cells := s.n.Cells
	toggles := make([]int64, len(cells))
	prev := make([][4]uint64, len(cells)) // last lane of the previous block, per pin

	if s.lanes == nil {
		s.lanes = make([]uint64, s.n.NumNets)
	}
	lanes := s.lanes
	var in, out [4]uint64
	var plane [64]uint64
	for base := 0; base < vectors; base += 64 {
		nl := vectors - base
		if nl > 64 {
			nl = 64
		}
		full := ^uint64(0)
		if nl < 64 {
			full = uint64(1)<<nl - 1
		}
		// Lanes whose consecutive-pair (v-1, v) exists: all valid lanes,
		// minus lane 0 of the very first block (vector 0 has no
		// predecessor).
		pairMask := full
		if base == 0 {
			pairMask &^= 1
		}
		for i := range lanes {
			lanes[i] = 0
		}
		lanes[Const1] = full
		for pi, p := range s.n.Inputs {
			packLanes(lanes, p.Bits, s.streams[pi][base:base+nl], &plane)
		}
		for ci := range cells {
			c := &cells[ci]
			for j, net := range c.In {
				in[j] = lanes[net]
			}
			evalCellLanes(c, &in, &out)
			t := int64(0)
			for j, net := range c.Out {
				o := out[j]
				lanes[net] = o
				t += int64(bits.OnesCount64((o ^ (o<<1 | prev[ci][j])) & pairMask))
				prev[ci][j] = o >> (nl - 1) & 1
			}
			toggles[ci] += t
		}
	}
	act := Activity{PerCell: make([]float64, len(cells)), Vectors: vectors}
	for i := range cells {
		act.PerCell[i] = float64(toggles[i]) / float64(len(cells[i].Out)) / float64(vectors-1)
	}
	return act, nil
}

// packLanes writes the lane words of one port for a block of at most 64
// vectors: bit l of lanes[bus[i]] becomes bit i of vals[l]. The block's
// values are copied into plane, zero-filled past len(vals), and
// transposed in place, so plane[i] is then the lane word of port bit i.
// Lanes past len(vals) and port bits at 64 and above read 0. Every lane
// engine packs its stimulus through here.
func packLanes(lanes []uint64, bus Bus, vals []uint64, plane *[64]uint64) {
	clear(plane[copy(plane[:], vals):])
	transpose64(plane)
	for i, b := range bus {
		if i < len(plane) {
			lanes[b] = plane[i]
		} else {
			lanes[b] = 0
		}
	}
}

// transpose64 transposes the 64×64 bit matrix a in place, with bit 0 as
// column 0: afterwards bit l of a[i] is what bit i of a[l] was. It is the
// classic transpose by six rounds of masked swaps (Hacker's Delight
// §7-3). The round of width j swaps, in every 2j×2j tile, the j×j block
// of the tile's first j rows and high j columns with the block of its
// last j rows and low j columns; after the rounds for j = 32, 16, ..., 1
// every block has been transposed down to single bits.
func transpose64(a *[64]uint64) {
	swapRound(a, 32, 0x00000000FFFFFFFF)
	swapRound(a, 16, 0x0000FFFF0000FFFF)
	swapRound(a, 8, 0x00FF00FF00FF00FF)
	swapRound(a, 4, 0x0F0F0F0F0F0F0F0F)
	swapRound(a, 2, 0x3333333333333333)
	swapRound(a, 1, 0x5555555555555555)
}

// swapRound is the round of width j of transpose64; m selects the low j
// columns of every 2j-column group. Indices are masked to 63, which
// leaves them unchanged and drops the bounds checks.
func swapRound(a *[64]uint64, j uint, m uint64) {
	for base := uint(0); base < 64; base += 2 * j {
		for k := base; k < base+j; k++ {
			t := (a[k&63]>>j ^ a[(k+j)&63]) & m
			a[k&63] ^= t << j
			a[(k+j)&63] ^= t
		}
	}
}
