package pantompkins

import (
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/ecg"
)

// bitSerialStage is one stage's datapath over the bit-serial arith
// models: the stage's multiplier and accumulation adder, with the
// products memoized per (coefficient, operand) — a product is a pure
// function of the two, and the HPF alone asks for the same unit-tap
// product 31 times per sample.
type bitSerialStage struct {
	mult  arith.Multiplier
	adder arith.Adder
	prods map[[2]int64]int64
}

func newBitSerialStage(cfg dsp.ArithConfig) *bitSerialStage {
	return &bitSerialStage{
		mult:  arith.Multiplier{Width: dsp.SampleWidth, ApproxLSBs: cfg.LSBs, Mult: cfg.Mul, Add: cfg.Add},
		adder: arith.Adder{Width: dsp.AccWidth, ApproxLSBs: cfg.LSBs, Kind: cfg.Add},
		prods: map[[2]int64]int64{},
	}
}

// product is MulSigned of a SampleWidth-bit operand with c.
func (b *bitSerialStage) product(x, c int64) int64 {
	x = arith.ToSigned(uint64(x), dsp.SampleWidth)
	key := [2]int64{c, x}
	p, ok := b.prods[key]
	if !ok {
		p = b.mult.MulSigned(x, c)
		b.prods[key] = p
	}
	return p
}

// fir folds a direct-form FIR over xs from a cleared delay line: at each
// position the non-zero taps in tap order, each the product of the
// delayed sample with the coefficient magnitude, copied (or subtracted
// from zero, for a negative coefficient) into the accumulator at the
// first tap and added or subtracted at the rest; the accumulator is
// shifted right and sliced to SampleWidth bits.
func (b *bitSerialStage) fir(xs, coeffs []int64, shift int) []int64 {
	out := make([]int64, len(xs))
	for n := range xs {
		var acc int64
		first := true
		for lag, c := range coeffs {
			if c == 0 {
				continue
			}
			var x int64
			if n >= lag {
				x = xs[n-lag]
			}
			p := b.product(x, max(c, -c))
			switch {
			case first && c < 0:
				acc = b.adder.SubSigned(0, p)
			case first:
				acc = p
			case c < 0:
				acc = b.adder.SubSigned(acc, p)
			default:
				acc = b.adder.AddSigned(acc, p)
			}
			first = false
		}
		out[n] = arith.ToSigned(uint64(acc)>>uint(shift), dsp.SampleWidth)
	}
	return out
}

// square squares every sample through the multiplier and shifts right.
func (b *bitSerialStage) square(xs []int64, shift int) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		x = arith.ToSigned(uint64(x), dsp.SampleWidth)
		out[i] = b.mult.MulSigned(x, x) >> uint(shift)
	}
	return out
}

// movingSum folds the integrator from a cleared window: each sample
// overwrites the ring's next slot, and the slots chain through AddSigned
// in slot order, slot 0 opening the chain; the sum is shifted right and
// sliced to AccWidth-shift bits.
func (b *bitSerialStage) movingSum(xs []int64, window, shift int) []int64 {
	out := make([]int64, len(xs))
	ring := make([]int64, window)
	for i, x := range xs {
		ring[i%window] = x
		acc := ring[0]
		for _, v := range ring[1:] {
			acc = b.adder.AddSigned(acc, v)
		}
		out[i] = arith.ToSigned(uint64(acc)>>uint(shift), dsp.AccWidth-shift)
	}
	return out
}

// bitSerialPipeline runs the five stages of cfg over samples through the
// bit-serial models, with each stage's coefficients, shifts and widths.
func bitSerialPipeline(cfg Config, samples []int16) *Outputs {
	xs := make([]int64, len(samples))
	for i, s := range samples {
		xs[i] = int64(s)
	}
	out := &Outputs{}
	out.LowPassed = newBitSerialStage(cfg.Stage[LPF]).fir(xs, LPFCoeffs, LPFShift)
	out.Filtered = newBitSerialStage(cfg.Stage[HPF]).fir(out.LowPassed, HPFCoeffs, HPFShift)
	out.Derivative = newBitSerialStage(cfg.Stage[DER]).fir(out.Filtered, DERCoeffs, DERShift)
	out.Squared = newBitSerialStage(cfg.Stage[SQR]).square(out.Derivative, SQRShift)
	out.Integrated = newBitSerialStage(cfg.Stage[MWI]).movingSum(out.Squared, MWIWindow, MWIShift)
	return out
}

// TestPipelineMatchesBitSerial is the pipeline-level differential of the
// compiled kernels against the bit-serial arith models: every stage
// output of Pipeline.Run over a real record must equal the stage folded
// through the models in test code. The designs are the accurate
// pipeline, B9 and the AMA1 mix of blockTestConfigs, and an AMA2, AMA3
// and AMA4 design with every stage at its MaxLSBs. Between them they run
// the fused exact, AMA2, chunk-LUT and AMA4/AMA5 wiring chains (the HPF's
// sliding form included), every integrator window strategy, and the
// table-free and full-table squarers.
func TestPipelineMatchesBitSerial(t *testing.T) {
	rec, err := ecg.NSRDBRecord(0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	configs := blockTestConfigs()
	for _, kind := range []struct {
		add approx.AdderKind
		mul approx.MultKind
	}{
		{approx.ApproxAdd2, approx.AppMultV2},
		{approx.ApproxAdd3, approx.AppMultV1},
		{approx.ApproxAdd4, approx.AppMultV2},
	} {
		var cfg Config
		for _, s := range Stages {
			cfg.Stage[s] = dsp.ArithConfig{LSBs: MaxLSBs[s], Add: kind.add, Mul: kind.mul}
		}
		configs = append(configs, cfg)
	}
	for _, cfg := range configs {
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, want := p.Run(rec.Samples), bitSerialPipeline(cfg, rec.Samples)
		for s, sig := range [NumStages][2][]int64{
			{got.LowPassed, want.LowPassed},
			{got.Filtered, want.Filtered},
			{got.Derivative, want.Derivative},
			{got.Squared, want.Squared},
			{got.Integrated, want.Integrated},
		} {
			for i := range sig[1] {
				if sig[0][i] != sig[1][i] {
					t.Fatalf("%v: %v output [%d] = %d, bit-serial fold %d", cfg, Stage(s), i, sig[0][i], sig[1][i])
				}
			}
		}
	}
}
