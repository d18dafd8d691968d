package netlist

import "fmt"

// Simulator evaluates a combinational netlist bit-true over stimulus
// streams to measure its switching activity (RunActivityStreams). It is
// the repository's stand-in for RTL simulation (ModelSim in the paper's
// tool-flow).
type Simulator struct {
	n *Netlist
	// Activity-analysis state (see activity.go): per-input stimulus
	// streams and the 64-lane value word of every net.
	streams [][]uint64
	lanes   []uint64
}

// NewSimulator returns a Simulator for n. Netlists containing registers
// are rejected: simulation here is purely combinational.
func NewSimulator(n *Netlist) (*Simulator, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if r := n.NumRegisters(); r > 0 {
		return nil, fmt.Errorf("netlist %s: cannot simulate %d registers combinationally", n.Name, r)
	}
	return &Simulator{n: n}, nil
}
