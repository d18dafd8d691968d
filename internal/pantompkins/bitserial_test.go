package pantompkins

import (
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/ecg"
	"github.com/xbiosip/xbiosip/internal/oracle"
)

// bitSerialPipeline runs the five stages of cfg over samples through the
// bit-serial models of package oracle, with each stage's coefficients,
// shifts and widths: the FIRs' tap chains from cleared delay lines, the
// squarer, and the integrator's window in slot order from a cleared
// window.
func bitSerialPipeline(cfg Config, samples []int16) *Outputs {
	xs := make([]int64, len(samples))
	for i, s := range samples {
		xs[i] = int64(s)
	}
	mult := func(s Stage) arith.Multiplier {
		c := cfg.Stage[s]
		return arith.Multiplier{Width: dsp.SampleWidth, ApproxLSBs: c.LSBs, Mult: c.Mul, Add: c.Add}
	}
	adder := func(s Stage) arith.Adder {
		c := cfg.Stage[s]
		return arith.Adder{Width: dsp.AccWidth, ApproxLSBs: c.LSBs, Kind: c.Add}
	}
	fir := func(s Stage, xs, coeffs []int64, shift int) []int64 {
		return oracle.FIR(adder(s), oracle.NewProducts(mult(s)), oracle.Taps(coeffs), xs, uint(shift), dsp.SampleWidth)
	}
	out := &Outputs{}
	out.LowPassed = fir(LPF, xs, LPFCoeffs, LPFShift)
	out.Filtered = fir(HPF, out.LowPassed, HPFCoeffs, HPFShift)
	out.Derivative = fir(DER, out.Filtered, DERCoeffs, DERShift)
	out.Squared = oracle.Square(mult(SQR), out.Derivative, uint(SQRShift))
	out.Integrated = oracle.MovingSum(adder(MWI), out.Squared, MWIWindow, uint(MWIShift), dsp.AccWidth-MWIShift)
	return out
}

// TestPipelineMatchesBitSerial is the pipeline-level differential of the
// compiled kernels against the bit-serial models of package oracle:
// every stage output of Pipeline.Run over a real record must equal the
// stage folded through the models. The designs are the accurate
// pipeline, B9 and the AMA1 mix of blockTestConfigs, and an AMA2, AMA3,
// AMA4 and exact-adder (under AppMultV1) design with every stage at its
// MaxLSBs. Between them they run the fused exact, the AMA5 (the HPF's
// sliding form included) and the generic chains, the latter with and
// without approximated LSBs, every integrator window strategy, and the
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
		{approx.AccAdd, approx.AppMultV1},
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
