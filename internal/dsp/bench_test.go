package dsp_test

import (
	"math/rand"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/dsp"
)

// BenchmarkMovingSum times the Pan-Tompkins integrator (32-sample window,
// output shift 5) through the exact adder, the wiring adders at the
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
