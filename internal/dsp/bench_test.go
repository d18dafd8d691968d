package dsp_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

// BenchmarkFIR times the Pan-Tompkins FIR shapes through their compiled
// chains on ApproxAdd5 and AppMultV1: k = 0 (the fused exact chain),
// design B9's k for the stage (LPF 10, HPF 12, DER 2) and k = 16; the
// DER also runs at k = 10, the case earlier versions of this benchmark
// named after B9. record runs FilterInto over one 20,000-sample record
// per op; block24 continues 256 streams of the filter by one 24-sample
// serve frame each per op; process runs Process over the record, one
// chain position per Run. All report ns/sample.
func BenchmarkFIR(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]int64, 20000)
	for i := range xs {
		xs[i] = int64(int16(rng.Uint64())) >> 3
	}
	shapes := []struct {
		name   string
		coeffs []int64
		shift  int
		ks     []int
	}{
		{"lpf", pantompkins.LPFCoeffs, pantompkins.LPFShift, []int{0, 10, 16}},
		{"hpf", pantompkins.HPFCoeffs, pantompkins.HPFShift, []int{0, 12, 16}},
		{"der", pantompkins.DERCoeffs, pantompkins.DERShift, []int{0, 2, 10, 16}},
	}
	for _, s := range shapes {
		for _, k := range s.ks {
			f, err := dsp.NewFIR(s.coeffs, s.shift, dsp.ArithConfig{LSBs: k, Add: approx.ApproxAdd5, Mul: approx.AppMultV1})
			if err != nil {
				b.Fatal(err)
			}
			dst := f.FilterInto(nil, xs) // fills the tables the record reaches
			name := fmt.Sprintf("%s-k%d", s.name, k)
			b.Run(name+"/record", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					dst = f.FilterInto(dst, xs)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/sample")
			})
			b.Run(name+"/block24", func(b *testing.B) {
				const streams, frame = 256, 24
				fs := make([]*dsp.FIR, streams)
				for j := range fs {
					fs[j] = f.Clone()
				}
				pos := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, g := range fs {
						if pos += frame; pos+frame > len(xs) {
							pos = 0
						}
						g.Block(dst[:frame], xs[pos:pos+frame])
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*streams*frame), "ns/sample")
			})
			b.Run(name+"/process", func(b *testing.B) {
				g := f.Clone()
				for i := 0; i < b.N; i++ {
					for j, x := range xs {
						dst[j] = g.Process(x)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/sample")
			})
		}
	}
}

// BenchmarkSquarer times the Pan-Tompkins squarer (output shift
// SQRShift) on the exact spec, its table-free block path, and on design
// B9's k = 8 on ApproxAdd5 and AppMultV1, its full table, over the
// derivative-range input of BenchmarkFIR: record runs FilterInto over one
// 20,000-sample record per op, block24 continues one 24-sample serve
// frame per op through ProcessBlock. Both report ns/sample.
func BenchmarkSquarer(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]int64, 20000)
	for i := range xs {
		xs[i] = int64(int16(rng.Uint64())) >> 3
	}
	cfgs := []struct {
		name string
		cfg  dsp.ArithConfig
	}{
		{"exact", dsp.Accurate()},
		{"b9-k8", dsp.ArithConfig{LSBs: 8, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}},
	}
	for _, c := range cfgs {
		s, err := dsp.NewSquarer(pantompkins.SQRShift, c.cfg)
		if err != nil {
			b.Fatal(err)
		}
		dst := s.FilterInto(nil, xs) // fills the table the record reaches
		b.Run(c.name+"/record", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst = s.FilterInto(dst, xs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/sample")
		})
		b.Run(c.name+"/block24", func(b *testing.B) {
			const frame = 24
			pos := 0
			for i := 0; i < b.N; i++ {
				if pos += frame; pos+frame > len(xs) {
					pos = 0
				}
				s.ProcessBlock(dst[:frame], xs[pos:pos+frame])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frame), "ns/sample")
		})
	}
}

// BenchmarkMovingSum times the Pan-Tompkins integrator (32-sample window,
// output shift 5) through the exact adder, the AMA4 and AMA5 adders at the
// paper's 16 MWI LSBs and a chunk-LUT adder at 8 LSBs, over squarer-range
// input: block24 continues a warm window over one 24-sample serve frame
// per op, record runs FilterInto over a 20,000-sample record per op. Both
// report ns/sample.
func BenchmarkMovingSum(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]int64, 20000)
	for i := range xs {
		d := int64(int16(rng.Uint64())) >> 2
		xs[i] = d * d
	}
	cfgs := []struct {
		name string
		cfg  dsp.ArithConfig
	}{
		{"exact", dsp.Accurate()},
		{"ama5-k16", dsp.ArithConfig{LSBs: 16, Add: approx.ApproxAdd5}},
		{"ama4-k16", dsp.ArithConfig{LSBs: 16, Add: approx.ApproxAdd4}},
		{"ama1-k8", dsp.ArithConfig{LSBs: 8, Add: approx.ApproxAdd1}},
	}
	for _, c := range cfgs {
		m, err := dsp.NewMovingSum(32, 5, c.cfg)
		if err != nil {
			b.Fatal(err)
		}
		dst := make([]int64, len(xs))
		b.Run(c.name+"/block24", func(b *testing.B) {
			const frame = 24
			m.FilterInto(dst, xs[:frame])
			pos := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if pos += frame; pos+frame > len(xs) {
					pos = 0
				}
				m.ProcessBlock(dst[:frame], xs[pos:pos+frame])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frame), "ns/sample")
		})
		b.Run(c.name+"/record", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst = m.FilterInto(dst, xs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/sample")
		})
	}
}
