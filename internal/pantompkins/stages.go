// Package pantompkins implements the fixed-point Pan-Tompkins QRS peak
// detection algorithm (Pan & Tompkins 1985; paper §3) over the approximate
// DSP blocks of package dsp: low-pass filter, high-pass filter,
// differentiator, squarer and moving-window integrator, followed by
// adaptive-threshold peak detection with the HPF/MWI alignment cross-check
// whose failure mode the paper's Fig 13 analyses.
//
// Each of the five stages carries its own approximation configuration (the
// number of approximated LSBs plus elementary adder/multiplier kinds),
// which is exactly the design space XBioSiP's methodology explores.
package pantompkins

import (
	"fmt"

	"github.com/xbiosip/xbiosip/internal/arith"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/netlist"
)

// Stage identifies one of the five processing stages.
type Stage int

const (
	// LPF is the 11-tap low-pass filter (~12 Hz cutoff, paper stage A).
	LPF Stage = iota
	// HPF is the 32-tap high-pass filter (~5 Hz cutoff, paper stage B).
	HPF
	// DER is the five-tap differentiator (paper stage C).
	DER
	// SQR is the point-by-point squarer (paper stage D).
	SQR
	// MWI is the moving-window integrator (paper stage E).
	MWI

	// NumStages is the number of pipeline stages.
	NumStages = 5
)

// Stages lists the pipeline stages in processing order.
var Stages = [NumStages]Stage{LPF, HPF, DER, SQR, MWI}

// String returns the stage mnemonic used throughout the paper's tables.
func (s Stage) String() string {
	switch s {
	case LPF:
		return "LPF"
	case HPF:
		return "HPF"
	case DER:
		return "DER"
	case SQR:
		return "SQR"
	case MWI:
		return "MWI"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Stage structure constants. The module counts match the paper's
// descriptions (11-tap LPF with 10 adders and 11 multipliers; 32-tap HPF
// with 31 adders and 32 multipliers; 5-tap differentiator with
// coefficient magnitudes 2 and 1; adder-only MWI).
var (
	// LPFCoeffs is the classic Pan-Tompkins low pass (1-z^-6)^2/(1-z^-1)^2
	// expanded to its 11-tap FIR form (gain 36, ~12 Hz cutoff at 200 Hz).
	LPFCoeffs = []int64{1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1}
	// LPFShift rescales the gain-36 accumulator (/32).
	LPFShift = 5

	// HPFCoeffs is the Pan-Tompkins high pass (all-pass minus 32-point
	// moving average), scaled by 32: y = 32*x[n-16] - sum(x[n-i]) then /32.
	HPFCoeffs = func() []int64 {
		h := make([]int64, 32)
		for i := range h {
			h[i] = -1
		}
		h[16] = 31
		return h
	}()
	// HPFShift rescales the x32 coefficient scaling.
	HPFShift = 5

	// DERCoeffs is the five-point derivative y = (2x[n] + x[n-1] - x[n-3]
	// - 2x[n-4])/8; coefficient magnitudes are 2 and 1 (paper §4.2).
	DERCoeffs = []int64{2, 1, 0, -1, -2}
	// DERShift is the /8 derivative scaling.
	DERShift = 3

	// SQRShift is zero: the squarer's full 32-bit product feeds the
	// integrator, keeping the beat's energy envelope in the accumulator's
	// upper bits — which is what gives the MWI stage its extreme error
	// resilience (paper §4.2 tolerates 16 approximated LSBs there).
	SQRShift = 0

	// MWIWindow is the integration window: 32 samples = 160 ms at 200 Hz
	// (Pan-Tompkins' 150 ms rounded to a power of two so the average is an
	// exact hardware shift).
	MWIWindow = 32
	// MWIShift is the /32 window average.
	MWIShift = 5
)

// MaxLSBs is the per-stage upper bound of the approximation parameter used
// throughout the paper's exploration (§6.2 restricts the differentiator,
// squarer and moving-average stages to 4, 8 and 16 LSBs).
var MaxLSBs = map[Stage]int{LPF: 16, HPF: 16, DER: 4, SQR: 8, MWI: 16}

// Config carries one approximation configuration per stage.
type Config struct {
	Stage [NumStages]dsp.ArithConfig
}

// AccurateConfig returns the all-exact configuration (the paper's design
// point A2).
func AccurateConfig() Config { return Config{} }

// Validate checks every stage configuration against its LSB bound.
func (c Config) Validate() error {
	for _, s := range Stages {
		k := c.Stage[s].LSBs
		if k < 0 || k > 2*dsp.SampleWidth {
			return fmt.Errorf("pantompkins: stage %v approximated LSBs %d out of range", s, k)
		}
	}
	return nil
}

// String renders the per-stage LSB vector, e.g. "LPF10 HPF12 DER2 SQR8 MWI16".
func (c Config) String() string {
	out := ""
	for _, s := range Stages {
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%v%d", s, c.Stage[s].LSBs)
	}
	return out
}

// StageNetlist generates the registered, unoptimised hardware netlist of
// one stage under the given arithmetic configuration (used by synthesis
// reports, RTL emission and the exhaustive-cost model).
func StageNetlist(s Stage, cfg dsp.ArithConfig) (*netlist.Netlist, error) {
	return stageNetlist(s, cfg, false, netlist.NewBuilder)
}

// StageNetlistCombinational generates the register-free variant of a stage
// with the delay line exposed as ports x0..xN-1, used for stimulus-based
// switching-activity analysis. The squarer is combinational already; its
// single port is named x0 in this variant for uniform stimulus plumbing.
// It is built through a folding builder, so the constant-coefficient
// multipliers fold as they are built; the result equals netlist.Optimize
// of the plain build once netlist.DeadCellElim drops its dead cells.
func StageNetlistCombinational(s Stage, cfg dsp.ArithConfig) (*netlist.Netlist, error) {
	return stageNetlist(s, cfg, true, netlist.NewFoldingBuilder)
}

func stageNetlist(s Stage, cfg dsp.ArithConfig, combinational bool, newBuilder func(string) *netlist.Builder) (*netlist.Netlist, error) {
	mult := arith.Multiplier{Width: dsp.SampleWidth, ApproxLSBs: cfg.LSBs, Mult: cfg.Mul, Add: cfg.Add}
	add := arith.Adder{Width: dsp.AccWidth, ApproxLSBs: cfg.LSBs, Kind: cfg.Add}
	b := newBuilder(fmt.Sprintf("%v_k%d", s, cfg.LSBs))
	switch s {
	case LPF:
		return netlist.GenFIR(b, netlist.FIRSpec{
			Coeffs: LPFCoeffs, InWidth: dsp.SampleWidth, AccWidth: dsp.AccWidth,
			OutShift: LPFShift, OutWidth: dsp.SampleWidth,
			Mult: mult, Add: add, Combinational: combinational,
		})
	case HPF:
		return netlist.GenFIR(b, netlist.FIRSpec{
			Coeffs: HPFCoeffs, InWidth: dsp.SampleWidth, AccWidth: dsp.AccWidth,
			OutShift: HPFShift, OutWidth: dsp.SampleWidth,
			Mult: mult, Add: add, Combinational: combinational,
		})
	case DER:
		return netlist.GenFIR(b, netlist.FIRSpec{
			Coeffs: DERCoeffs, InWidth: dsp.SampleWidth, AccWidth: dsp.AccWidth,
			OutShift: DERShift, OutWidth: dsp.SampleWidth,
			Mult: mult, Add: add, Combinational: combinational,
		})
	case SQR:
		if combinational {
			// Same structure as GenSquarer with the port named x0 for
			// uniform stimulus plumbing.
			x := b.InputBus("x0", dsp.SampleWidth)
			b.OutputBus("y", b.Multiplier(mult, x, x))
			return b.Build()
		}
		return netlist.GenSquarer(b, mult)
	case MWI:
		return netlist.GenMovingSum(b, netlist.MovingSumSpec{
			Taps: MWIWindow, InWidth: dsp.AccWidth, AccWidth: dsp.AccWidth,
			OutShift: MWIShift, OutWidth: dsp.AccWidth - MWIShift,
			Add: add, Combinational: combinational,
		})
	default:
		return nil, fmt.Errorf("pantompkins: unknown stage %v", s)
	}
}
