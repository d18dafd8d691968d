package dsp

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith/kernel"
)

// blockCfgs are the stage configurations the integrator and squarer
// block-path tests sweep: exact, a wiring-mask kind and a LUT kind.
func blockCfgs() []ArithConfig {
	return []ArithConfig{
		Accurate(),
		{LSBs: 8, Add: approx.ApproxAdd5, Mul: approx.AppMultV1},
		{LSBs: 4, Add: approx.ApproxAdd1, Mul: approx.AppMultV1},
	}
}

// raggedBlocks cuts n samples into pseudo-random block lengths
// (including empty blocks), the shape a serve drain produces.
func raggedBlocks(n, seed int) []int {
	var blocks []int
	left := n
	for i := 0; left > 0; i++ {
		b := (seed*7 + i*11) % 9
		if b > left {
			b = left
		}
		blocks = append(blocks, b)
		left -= b
	}
	return blocks
}

// TestMovingSumProcessBlock checks the block continuation path against
// per-sample Process from a mid-stream state, for exact and approximate
// adders in both kernel modes (the oracle mode always takes the
// per-sample fold).
func TestMovingSumProcessBlock(t *testing.T) {
	for _, mode := range []bool{true, false} {
		mode := mode
		t.Run(fmt.Sprintf("kernels=%v", mode), func(t *testing.T) {
			prev := kernel.SetEnabled(mode)
			defer kernel.SetEnabled(prev)
			rng := rand.New(rand.NewSource(29))
			for _, cfg := range blockCfgs() {
				scalar, err := NewMovingSum(8, 3, cfg)
				if err != nil {
					t.Fatal(err)
				}
				batch, err := NewMovingSum(8, 3, cfg)
				if err != nil {
					t.Fatal(err)
				}
				xs := make([]int64, 200)
				for i := range xs {
					// Large positive values, like the squarer's output.
					xs[i] = int64(rng.Uint32())
				}
				// Warm both mid-stream before the first block.
				for _, x := range xs[:5] {
					scalar.Process(x)
					batch.Process(x)
				}
				pos := 5
				for _, n := range raggedBlocks(len(xs)-5, 2) {
					block := xs[pos : pos+n]
					want := make([]int64, n)
					for i, x := range block {
						want[i] = scalar.Process(x)
					}
					got := make([]int64, n)
					batch.ProcessBlock(got, block)
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("cfg %v sample %d: block %d, scalar %d", cfg, pos+i, got[i], want[i])
						}
					}
					pos += n
				}
			}
		})
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
