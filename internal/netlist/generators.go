package netlist

import (
	"errors"
	"fmt"

	"github.com/xbiosip/xbiosip/internal/arith"
)

// Every generator builds into the Builder it is given, so the caller
// chooses between a plain netlist (NewBuilder) and one constant-folded as
// it is built (NewFoldingBuilder), and names the netlist through it.

// FIRSpec describes the hardware of one direct-form FIR stage: a register
// delay line, one constant-coefficient multiplier per tap and a
// ripple-carry accumulation chain. Negative coefficients subtract their
// product (inverted operand + carry-in, the usual arrangement).
type FIRSpec struct {
	Coeffs   []int64          // signed integer coefficients, tap 0 first
	InWidth  int              // input sample width (bits)
	AccWidth int              // accumulator width (bits)
	OutShift int              // right shift applied to the accumulator
	OutWidth int              // output bus width
	Mult     arith.Multiplier // per-tap multiplier spec (Width == InWidth)
	Add      arith.Adder      // accumulation adder spec (Width == AccWidth)
	// Combinational exposes the delay line as separate input ports
	// x0..xN-1 instead of registers, so the stage can be driven by the
	// simulator for stimulus-based activity analysis.
	Combinational bool
}

// Validate checks the stage description.
func (s FIRSpec) Validate() error {
	if len(s.Coeffs) == 0 {
		return errors.New("FIR has no coefficients")
	}
	if err := s.Mult.Validate(); err != nil {
		return err
	}
	if err := s.Add.Validate(); err != nil {
		return err
	}
	if s.Mult.Width != s.InWidth {
		return fmt.Errorf("FIR multiplier width %d != input width %d", s.Mult.Width, s.InWidth)
	}
	if s.Add.Width != s.AccWidth {
		return fmt.Errorf("FIR adder width %d != accumulator width %d", s.Add.Width, s.AccWidth)
	}
	if s.OutShift < 0 || s.OutShift+s.OutWidth > s.AccWidth {
		return fmt.Errorf("FIR output slice [%d,%d) exceeds accumulator width %d",
			s.OutShift, s.OutShift+s.OutWidth, s.AccWidth)
	}
	for _, c := range s.Coeffs {
		mag := c
		if mag < 0 {
			mag = -mag
		}
		if mag >= 1<<s.InWidth {
			return fmt.Errorf("FIR coefficient %d exceeds %d bits", c, s.InWidth)
		}
	}
	return nil
}

// GenFIR generates the stage netlist. Coefficient operands are constant
// buses, so a folding builder folds each multiplier as it is built,
// exactly the way a logic synthesiser folds constant operands; Optimize
// does the same to a plain build afterwards.
func GenFIR(b *Builder, s FIRSpec) (*Netlist, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("netlist %s: %w", b.n.Name, err)
	}
	taps := make([]Bus, len(s.Coeffs))
	if s.Combinational {
		for i := range taps {
			taps[i] = b.InputBus(fmt.Sprintf("x%d", i), s.InWidth)
		}
	} else {
		taps[0] = b.InputBus("x", s.InWidth)
		for i := 1; i < len(s.Coeffs); i++ {
			taps[i] = b.Register(taps[i-1])
		}
	}

	var acc Bus
	for i, c := range s.Coeffs {
		if c == 0 {
			continue
		}
		mag := c
		if mag < 0 {
			mag = -mag
		}
		p := b.Multiplier(s.Mult, taps[i], b.ConstBus(uint64(mag), s.InWidth))
		pw := b.Extend(p, s.AccWidth)
		switch {
		case acc == nil && c > 0:
			acc = pw
		case acc == nil:
			acc = b.Subtract(s.Add.Kind, s.Add.ApproxLSBs, b.ConstBus(0, s.AccWidth), pw)
		case c > 0:
			acc, _ = b.RCA(s.Add.Kind, s.Add.ApproxLSBs, acc, pw, Const0)
		default:
			acc = b.Subtract(s.Add.Kind, s.Add.ApproxLSBs, acc, pw)
		}
	}
	if acc == nil {
		acc = b.ConstBus(0, s.AccWidth)
	}
	b.OutputBus("y", acc[s.OutShift:s.OutShift+s.OutWidth])
	return b.Build()
}

// MovingSumSpec describes the moving-window integration stage: a register
// delay line feeding a pure adder accumulation chain (the stage is
// "composed solely of adder blocks", paper §4.2).
type MovingSumSpec struct {
	Taps     int
	InWidth  int
	AccWidth int
	OutShift int
	OutWidth int
	Add      arith.Adder
	// Combinational exposes the window as input ports x0..xN-1 (see
	// FIRSpec.Combinational).
	Combinational bool
}

// Validate checks the stage description.
func (s MovingSumSpec) Validate() error {
	if s.Taps < 2 {
		return errors.New("moving sum needs at least 2 taps")
	}
	if err := s.Add.Validate(); err != nil {
		return err
	}
	if s.Add.Width != s.AccWidth {
		return fmt.Errorf("moving sum adder width %d != accumulator width %d", s.Add.Width, s.AccWidth)
	}
	if s.OutShift < 0 || s.OutShift+s.OutWidth > s.AccWidth {
		return fmt.Errorf("moving sum output slice [%d,%d) exceeds accumulator width %d",
			s.OutShift, s.OutShift+s.OutWidth, s.AccWidth)
	}
	return nil
}

// GenMovingSum generates the moving-window integration netlist.
func GenMovingSum(b *Builder, s MovingSumSpec) (*Netlist, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("netlist %s: %w", b.n.Name, err)
	}
	taps := make([]Bus, s.Taps)
	if s.Combinational {
		for i := range taps {
			taps[i] = b.InputBus(fmt.Sprintf("x%d", i), s.InWidth)
		}
	} else {
		taps[0] = b.InputBus("x", s.InWidth)
		for i := 1; i < s.Taps; i++ {
			taps[i] = b.Register(taps[i-1])
		}
	}
	acc := b.Extend(taps[0], s.AccWidth)
	for i := 1; i < s.Taps; i++ {
		acc, _ = b.RCA(s.Add.Kind, s.Add.ApproxLSBs, acc, b.Extend(taps[i], s.AccWidth), Const0)
	}
	b.OutputBus("y", acc[s.OutShift:s.OutShift+s.OutWidth])
	return b.Build()
}

// GenSquarer generates the squarer stage netlist: a single recursive
// multiplier with both operand ports fed by the same input bus.
func GenSquarer(b *Builder, m arith.Multiplier) (*Netlist, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	x := b.InputBus("x", m.Width)
	p := b.Multiplier(m, x, x)
	b.OutputBus("y", p)
	return b.Build()
}
