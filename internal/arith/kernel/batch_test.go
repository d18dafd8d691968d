package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
)

// batchSpecs are the adder configurations the batch equivalence sweep
// runs: every cell kind (each has its own chain strategy) over the
// accumulator width the pipeline uses, at LSB counts covering the
// native, chunk-LUT, wiring and uint16-projection regions.
func batchSpecs() []arith.Adder {
	var specs []arith.Adder
	for _, kind := range approx.AdderKinds {
		for _, k := range []int{0, 4, 9, 16} {
			specs = append(specs, arith.Adder{Width: 32, ApproxLSBs: k, Kind: kind})
		}
	}
	return specs
}

// batchShapes are the chain shapes the sweep runs: the sliding-window
// HPF shape, a mixed-lag mixed-sign chain, a single tap, and the empty
// chain.
func batchShapes() [][]ChainOp {
	hpf := make([]ChainOp, 32)
	for i := range hpf {
		hpf[i] = ChainOp{Coeff: 1, Lag: i, Sub: true}
	}
	hpf[16] = ChainOp{Coeff: 31, Lag: 16}
	return [][]ChainOp{
		hpf,
		{{Coeff: 1, Lag: 0}, {Coeff: 3, Lag: 1, Sub: true}, {Coeff: -2, Lag: 5}, {Coeff: 31, Lag: 12, Sub: true}},
		{{Coeff: -2, Lag: 4}},
		{},
	}
}

// TestBatchChainMatchesScalar drives batches of independent streams
// through BatchChain.Run in rounds — ragged per-round chunk sizes,
// streams sitting rounds out and rejoining (churn), histories from
// empty through deeper than the chain lag — and checks every produced
// output against the per-sample scalar accumulation, for every cell
// kind in both compilation modes and batch widths {1, 3, 63, 64, 65,
// 128}. Widths past MaxBatch run as multiple rounds, as the callers
// chunk them.
func TestBatchChainMatchesScalar(t *testing.T) {
	for _, mode := range []bool{true, false} {
		mode := mode
		t.Run(fmt.Sprintf("kernels=%v", mode), func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			ref := refMul(t, chainTestSpec, chainTestCoeffs)
			shift := uint(3)
			for _, spec := range batchSpecs() {
				ad, err := compileAdderMode(spec, mode)
				if err != nil {
					t.Fatal(err)
				}
				outW := spec.Width - 3
				for ci, ops := range batchShapes() {
					chain, err := ad.NewChain(chainTestSpec, ops)
					if err != nil {
						t.Fatal(err)
					}
					bc := chain.NewBatch()
					for _, width := range []int{1, 3, 63, 64, 65, 128} {
						// Per-stream signals of ragged lengths; pos tracks how
						// far each stream has been fed.
						sigs := make([][]int64, width)
						pos := make([]int, width)
						for s := range sigs {
							n := 5 + (s*13)%61
							sig := make([]int64, n)
							for i := range sig {
								sig[i] = int64(int16(rng.Uint64()))
							}
							sigs[s] = sig
						}
						streams := make([]BatchIn, 0, width)
						live := make([]int, 0, width)
						for round := 0; ; round++ {
							streams = streams[:0]
							live = live[:0]
							remaining := 0
							for s := range sigs {
								left := len(sigs[s]) - pos[s]
								if left == 0 {
									continue // finished: left the batch
								}
								remaining++
								if (s+round)%5 == 0 && round < 8 {
									continue // sitting this round out (churn)
								}
								n := 1 + (s*7+round*11)%9
								if n > left {
									n = left
								}
								if (s+round)%7 == 3 {
									n = 0 // joined the round with an empty block
								}
								streams = append(streams, BatchIn{
									Hist: sigs[s][:pos[s]],
									Xs:   sigs[s][pos[s] : pos[s]+n],
									Dst:  make([]int64, n),
								})
								live = append(live, s)
							}
							if remaining == 0 {
								break
							}
							if len(streams) == 0 {
								continue // every live stream sat this round out
							}
							for off := 0; off < len(streams); off += MaxBatch {
								end := off + MaxBatch
								if end > len(streams) {
									end = len(streams)
								}
								bc.Run(streams[off:end], shift, outW)
							}
							for bi, s := range live {
								in := &streams[bi]
								for i := range in.Dst {
									want := scalarChain(ad, ref, ops, sigs[s], pos[s]+i, shift, outW)
									if in.Dst[i] != want {
										t.Fatalf("%+v chain %d width %d stream %d sample %d: batch %d, scalar %d",
											spec, ci, width, s, pos[s]+i, in.Dst[i], want)
									}
								}
								pos[s] += len(in.Xs)
							}
						}
						for s, p := range pos {
							if p != len(sigs[s]) {
								t.Fatalf("width %d stream %d: fed %d of %d samples", width, s, p, len(sigs[s]))
							}
						}
					}
				}
			}
		})
	}
}

// TestBatchChainScratchReuse pins the steady-state allocation contract:
// after the first round grows the packed scratch, Run is allocation-free.
func TestBatchChainScratchReuse(t *testing.T) {
	ad, err := CompileAdder(arith.Adder{Width: 32, ApproxLSBs: 10, Kind: approx.ApproxAdd5})
	if err != nil {
		t.Fatal(err)
	}
	ops := batchShapes()[0]
	chain, err := ad.NewChain(chainTestSpec, ops)
	if err != nil {
		t.Fatal(err)
	}
	bc := chain.NewBatch()
	rng := rand.New(rand.NewSource(5))
	streams := make([]BatchIn, MaxBatch)
	for s := range streams {
		xs := make([]int64, 48)
		for i := range xs {
			xs[i] = int64(int16(rng.Uint64()))
		}
		streams[s] = BatchIn{Xs: xs, Dst: make([]int64, len(xs))}
	}
	bc.Run(streams, 3, 29)
	if allocs := testing.AllocsPerRun(10, func() {
		bc.Run(streams, 3, 29)
	}); allocs != 0 {
		t.Fatalf("steady-state Run allocated %.1f objects per round", allocs)
	}
}

// TestBatchChainMisuse pins the panic contract for the two programming
// errors Run refuses: a round wider than MaxBatch and a Dst/Xs length
// mismatch.
func TestBatchChainMisuse(t *testing.T) {
	ad, err := CompileAdder(arith.Adder{Width: 32, ApproxLSBs: 4, Kind: approx.ApproxAdd1})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := ad.NewChain(chainTestSpec, []ChainOp{{Coeff: 1, Lag: 0}})
	if err != nil {
		t.Fatal(err)
	}
	bc := chain.NewBatch()
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("oversized batch", func() {
		bc.Run(make([]BatchIn, MaxBatch+1), 0, 16)
	})
	expectPanic("length mismatch", func() {
		bc.Run([]BatchIn{{Xs: make([]int64, 4), Dst: make([]int64, 3)}}, 0, 16)
	})
}
