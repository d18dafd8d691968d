package dsp

import (
	"math/rand"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
)

// blockCfgs are the stage configurations the squarer block-path test
// sweeps: exact, the AMA5 kind and a LUT kind.
func blockCfgs() []ArithConfig {
	return []ArithConfig{
		Accurate(),
		{LSBs: 8, Add: approx.ApproxAdd5, Mul: approx.AppMultV1},
		{LSBs: 4, Add: approx.ApproxAdd1, Mul: approx.AppMultV1},
	}
}

// TestSquarerProcessBlock checks the block squarer against Process,
// including the aliased dst == xs form.
func TestSquarerProcessBlock(t *testing.T) {
	for _, cfg := range blockCfgs() {
		sq, err := NewSquarer(1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(31))
		xs := make([]int64, 300)
		for i := range xs {
			xs[i] = int64(int16(rng.Uint64()))
		}
		want := make([]int64, len(xs))
		for i, x := range xs {
			want[i] = sq.Process(x)
		}
		got := make([]int64, len(xs))
		sq.ProcessBlock(got, xs)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cfg %v sample %d: block %d, scalar %d", cfg, i, got[i], want[i])
			}
		}
		sq.ProcessBlock(xs, xs) // aliased in-place form
		for i := range xs {
			if xs[i] != want[i] {
				t.Fatalf("cfg %v sample %d: aliased block %d, scalar %d", cfg, i, xs[i], want[i])
			}
		}
	}
}
