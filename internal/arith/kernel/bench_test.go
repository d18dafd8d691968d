package kernel_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
	"github.com/xbiosip/xbiosip/internal/arith/kernel"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/ecg"
)

// benchOperands is a fixed pseudorandom operand stream shared by the
// micro-benchmarks so kernel and reference process identical inputs.
func benchOperands(n int) ([]uint64, []uint64) {
	rng := rand.New(rand.NewSource(42))
	a := make([]uint64, n)
	b := make([]uint64, n)
	for i := range a {
		a[i] = rng.Uint64()
		b[i] = rng.Uint64()
	}
	return a, b
}

// BenchmarkKernelVsReference compares the compiled kernels against the
// bit-serial reference models on the hot operations of the simulation
// path: the 32-bit accumulation adder, the 16x16 multiplier, and a full
// approximate 32-tap FIR (the HPF stage shape). The */kernel and
// */reference sub-benchmark pairs process identical inputs; their ns/op
// ratio is the kernel speedup.
func BenchmarkKernelVsReference(b *testing.B) {
	adderConfigs := []struct {
		name string
		spec arith.Adder
	}{
		{"exact", arith.Adder{Width: 32, ApproxLSBs: 0, Kind: approx.AccAdd}},
		{"ama5-k16", arith.Adder{Width: 32, ApproxLSBs: 16, Kind: approx.ApproxAdd5}},
		{"ama2-k16", arith.Adder{Width: 32, ApproxLSBs: 16, Kind: approx.ApproxAdd2}},
		{"ama1-k16", arith.Adder{Width: 32, ApproxLSBs: 16, Kind: approx.ApproxAdd1}},
	}
	av, bv := benchOperands(1024)
	for _, cfg := range adderConfigs {
		kad, err := kernel.CompileAdder(cfg.spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("adder/"+cfg.name+"/kernel", func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				s, _ := kad.AddCarry(av[i&1023], bv[i&1023], 0)
				sink += s
			}
			_ = sink
		})
		b.Run("adder/"+cfg.name+"/reference", func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				s, _ := cfg.spec.AddCarry(av[i&1023], bv[i&1023], 0)
				sink += s
			}
			_ = sink
		})
	}

	multConfigs := []struct {
		name string
		spec arith.Multiplier
	}{
		{"v1-add5-k8", arith.Multiplier{Width: 16, ApproxLSBs: 8, Mult: approx.AppMultV1, Add: approx.ApproxAdd5}},
		{"v2-add2-k16", arith.Multiplier{Width: 16, ApproxLSBs: 16, Mult: approx.AppMultV2, Add: approx.ApproxAdd2}},
	}
	for _, cfg := range multConfigs {
		km, err := kernel.CompileMultiplier(cfg.spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("multiplier/"+cfg.name+"/kernel", func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += km.Mul(av[i&1023], bv[i&1023])
			}
			_ = sink
		})
		b.Run("multiplier/"+cfg.name+"/reference", func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += cfg.spec.Mul(av[i&1023], bv[i&1023])
			}
			_ = sink
		})
	}

	// Approximate 32-tap FIR in the HPF's shape (31 taps of -1 around one
	// +31), with the paper's default modules at k=8 and k=16. The kernel
	// variant is dsp.FIR; the reference variant folds the same taps per
	// sample through the bit-serial models (referenceFIR), so the whole
	// accumulation chain ripples bit-serially. Both produce the same
	// output, which is checked once before the timed runs.
	coeffs := make([]int64, 32)
	for i := range coeffs {
		coeffs[i] = -1
	}
	coeffs[16] = 31
	rec, err := ecg.NSRDBRecord(0, 4096)
	if err != nil {
		b.Fatal(err)
	}
	samples := make([]int64, len(rec.Samples))
	for i, s := range rec.Samples {
		samples[i] = int64(s)
	}
	out := make([]int64, len(samples))
	ref := make([]int64, len(samples))
	for _, k := range []int{8, 16} {
		cfg := dsp.ArithConfig{LSBs: k, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
		f, err := dsp.NewFIR(coeffs, 5, cfg)
		if err != nil {
			b.Fatal(err)
		}
		mult := arith.Multiplier{Width: dsp.SampleWidth, ApproxLSBs: k, Mult: cfg.Mul, Add: cfg.Add}
		adder := arith.Adder{Width: dsp.AccWidth, ApproxLSBs: k, Kind: cfg.Add}
		out = f.FilterInto(out, samples)
		referenceFIR(ref, samples, coeffs, 5, mult, adder)
		for i := range out {
			if out[i] != ref[i] {
				b.Fatalf("fir32/k%d: sample %d: kernel %d, reference %d", k, i, out[i], ref[i])
			}
		}
		b.Run(fmt.Sprintf("fir32/k%d/kernel", k), func(b *testing.B) {
			b.SetBytes(int64(len(samples)))
			for i := 0; i < b.N; i++ {
				out = f.FilterInto(out, samples)
			}
		})
		b.Run(fmt.Sprintf("fir32/k%d/reference", k), func(b *testing.B) {
			b.SetBytes(int64(len(samples)))
			for i := 0; i < b.N; i++ {
				referenceFIR(ref, samples, coeffs, 5, mult, adder)
			}
		})
	}
}

// referenceFIR is dsp.FIR's datapath restated over the bit-serial
// models: for every position, each non-zero tap's product of the delayed
// sample with the coefficient magnitude (zero before the signal) is
// copied or zero-subtracted into the accumulator at the first tap and
// added or subtracted (negative coefficients) at the rest, and the
// accumulator is shifted and sliced to the sample width.
func referenceFIR(dst, xs, coeffs []int64, shift uint, mult arith.Multiplier, adder arith.Adder) {
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
			p := mult.MulSigned(x, max(c, -c))
			switch {
			case first && c < 0:
				acc = adder.SubSigned(0, p)
			case first:
				acc = p
			case c < 0:
				acc = adder.SubSigned(acc, p)
			default:
				acc = adder.AddSigned(acc, p)
			}
			first = false
		}
		dst[n] = arith.ToSigned(uint64(acc)>>shift, dsp.SampleWidth)
	}
}

// Sinks of BenchmarkTableFill's results, so no fill is optimized away.
var (
	projSink  kernel.ProjTable
	constSink *kernel.ConstMulTable
	subSink   []uint32
)

// BenchmarkTableFill measures a cold table fill: each op builds one fresh
// table and fills it whole, allocation and sub-product tables included,
// for the explorer's spec (Width 16, AppMultV1, ApproxAdd5) at k 4, 8, 12
// and 16 with coefficients 6 and 31. proj16 is an added AMA5 projection
// onto a 16-bit chain (uint16 at every k), proj32 a subtracted one onto
// the pipeline's 32-bit chain (uint32 at every k) and const32 an int32
// const-mul table; each reports ns per
// operand magnitude filled. subproducts builds the two sub-product
// tables alone, which every fill of a coefficient starts with.
func BenchmarkTableFill(b *testing.B) {
	for _, k := range []int{4, 8, 12, 16} {
		spec := arith.Multiplier{Width: 16, ApproxLSBs: k, Mult: approx.AppMultV1, Add: approx.ApproxAdd5}
		m, err := kernel.CompileMultiplier(spec)
		if err != nil {
			b.Fatal(err)
		}
		mags := float64(int64(1)<<(spec.Width-1) + 1)
		for _, c := range []int64{6, 31} {
			perMag := func(b *testing.B, fill func()) {
				for i := 0; i < b.N; i++ {
					fill()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(mags*float64(b.N)), "ns/mag")
			}
			name := fmt.Sprintf("k%d/c%d", k, c)
			b.Run(name+"/proj16", func(b *testing.B) {
				perMag(b, func() { projSink = m.FillProj(c, 16, k, false) })
			})
			b.Run(name+"/proj32", func(b *testing.B) {
				perMag(b, func() { projSink = m.FillProj(c, 32, k, true) })
			})
			b.Run(name+"/const32", func(b *testing.B) {
				perMag(b, func() {
					t, err := kernel.NewConstMulTable(spec, c)
					if err != nil {
						b.Fatal(err)
					}
					t.Mul(-1 << 15)
					constSink = t
				})
			})
			b.Run(name+"/subproducts", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					subSink, _ = m.SubProductTables(uint64(c))
				}
			})
		}
	}
}
