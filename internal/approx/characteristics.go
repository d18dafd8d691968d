package approx

// Characteristics holds the physical properties of one synthesised
// elementary cell: silicon area, propagation delay, average power and
// per-operation energy. The values for the adder and multiplier cells are
// the paper's Table 1 (Synopsys Design Compiler, 65nm library).
//
// Note the invariant the adder rows of Table 1 satisfy exactly and the
// multiplier rows approximately: Energy = Power x Delay. The synthesis
// report generator in internal/synth uses the same product at block level.
type Characteristics struct {
	Area   float64 // um^2
	Delay  float64 // ns
	Power  float64 // uW
	Energy float64 // fJ per operation
}

// adderChar is paper Table 1 (upper half).
var adderChar = [NumAdderKinds]Characteristics{
	AccAdd:     {Area: 10.08, Delay: 0.18, Power: 2.27, Energy: 0.409},
	ApproxAdd1: {Area: 8.28, Delay: 0.11, Power: 1.34, Energy: 0.147},
	ApproxAdd2: {Area: 3.96, Delay: 0.08, Power: 0.61, Energy: 0.049},
	ApproxAdd3: {Area: 3.60, Delay: 0.06, Power: 0.41, Energy: 0.025},
	ApproxAdd4: {Area: 3.24, Delay: 0.06, Power: 0.33, Energy: 0.020},
	ApproxAdd5: {Area: 0, Delay: 0, Power: 0, Energy: 0},
}

// multChar is paper Table 1 (lower half).
var multChar = [NumMultKinds]Characteristics{
	AccMult:   {Area: 14.40, Delay: 0.16, Power: 1.80, Energy: 0.288},
	AppMultV1: {Area: 11.52, Delay: 0.13, Power: 1.67, Energy: 0.167},
	AppMultV2: {Area: 9.72, Delay: 0.06, Power: 1.37, Energy: 0.137},
}

// Characteristics returns the 65nm synthesis characterisation of the adder
// cell (paper Table 1).
func (k AdderKind) Characteristics() Characteristics { return adderChar[k] }

// Characteristics returns the 65nm synthesis characterisation of the
// multiplier cell (paper Table 1).
func (k MultKind) Characteristics() Characteristics { return multChar[k] }

// Auxiliary cells used by the netlist substrate. These are not part of the
// paper's Table 1; they are standard 65nm figures documented here so the
// synthesis reports are self-contained. Registers contribute area only:
// the paper's stage-level energy reductions are quoted over the arithmetic
// blocks targeted for approximation (see the accounting rules of package
// synth).
var (
	// RegisterChar characterises a 1-bit D flip-flop.
	RegisterChar = Characteristics{Area: 16.20, Delay: 0.12, Power: 1.10, Energy: 0.132}
	// InverterChar characterises a 1x inverter (used for negated, i.e.
	// two's-complement, operand wiring of negative FIR coefficients).
	InverterChar = Characteristics{Area: 1.44, Delay: 0.02, Power: 0.12, Energy: 0.0024}
)
