package pantompkins

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith/kernel"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/ecg"
)

// blockTestConfigs are the designs the block-continuation tests run: the
// accurate pipeline (fused MAC chains, sliding exact integrator), B9
// (wiring chains with the sliding HPF window) and a chunk-LUT design.
func blockTestConfigs() []Config {
	b9 := Config{}
	for i, k := range []int{10, 12, 2, 8, 16} {
		b9.Stage[i] = dsp.ArithConfig{LSBs: k, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
	}
	ama1 := Config{}
	for i, k := range []int{8, 8, 2, 4, 8} {
		ama1.Stage[i] = dsp.ArithConfig{LSBs: k, Add: approx.ApproxAdd1, Mul: approx.AppMultV1}
	}
	return []Config{AccurateConfig(), b9, ama1}
}

// TestPushBlockMatchesStream advances many streams of one pipeline —
// sharing its compiled stages — through PushBlock into one shared
// Outputs, with ragged block sizes (empty blocks included) and streams
// sitting rounds out, feeding each block's filtered/integrated outputs
// into the stream's own detector. Every stage output of every sample and
// the full decision trace must match a separately built pipeline's
// Stream.Push.
// It runs as the subtest kernels=true, the name it kept from when a
// bit-serial mode ran it a second time as kernels=false.
func TestPushBlockMatchesStream(t *testing.T) { t.Run("kernels=true", pushBlockMatchesStream) }

func pushBlockMatchesStream(t *testing.T) {
	const fs = 360
	rng := rand.New(rand.NewSource(41))
	widths := []int{1, 3, 24}
	if testing.Short() {
		widths = []int{3}
	}
	var out Outputs
	for _, cfg := range blockTestConfigs() {
		shared, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range widths {
			scalar := make([]*Stream, width)
			blocked := make([]*Stream, width)
			sigs := make([][]int16, width)
			pos := make([]int, width)
			for s := 0; s < width; s++ {
				sp, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				scalar[s] = sp.Stream(fs)
				blocked[s] = shared.Stream(fs)
				sig := make([]int16, 400+(s*37)%300)
				for i := range sig {
					sig[i] = int16(rng.Uint64())
				}
				sigs[s] = sig
			}
			for round := 0; ; round++ {
				remaining := 0
				for s := 0; s < width; s++ {
					left := len(sigs[s]) - pos[s]
					if left == 0 {
						continue
					}
					remaining++
					if (s+round)%5 == 0 && round < 6 {
						continue // sits this round out
					}
					n := (s*7 + round*11) % 40
					if n > left {
						n = left
					}
					block := sigs[s][pos[s] : pos[s]+n]
					blocked[s].Pipeline().PushBlock(&out, block)
					if len(out.Filtered) != n || len(out.Integrated) != n {
						t.Fatalf("PushBlock of %d samples left %d filtered, %d integrated",
							n, len(out.Filtered), len(out.Integrated))
					}
					det := blocked[s].Detector()
					for i, x := range block {
						want := scalar[s].Push(x)
						got := StreamSample{out.LowPassed[i], out.Filtered[i], out.Derivative[i],
							out.Squared[i], out.Integrated[i]}
						if got != want {
							t.Fatalf("cfg %v width %d stream %d sample %d: PushBlock %+v, Push %+v",
								cfg, width, s, pos[s]+i, got, want)
						}
						det.Push(got.Filtered, got.Integrated)
					}
					pos[s] += n
				}
				if remaining == 0 {
					break
				}
			}
			for s := 0; s < width; s++ {
				requireSameDetection(t, fmt.Sprintf("cfg %v width %d stream %d", cfg, width, s),
					*scalar[s].Finish(), blocked[s].Finish())
			}
		}
	}
}

// TestStreamsShareCompiledStages runs streams of one pipeline on
// concurrent goroutines — the compiled stages are shared, each stream's
// state is its own — and checks every stream against a separately built
// pipeline's Run over the same record. The shared pipeline starts from
// empty kernel caches, so its streams race the first fills of its
// tables, and the reference builds fresh tables of its own. Run under
// -race it also pins that the shared stages are only read, and that the
// fills are ordered before the reads they cover.
func TestStreamsShareCompiledStages(t *testing.T) {
	const streams = 4
	defer kernel.DropCaches()
	for name, cfg := range streamConfigs(t) {
		t.Run(name, func(t *testing.T) {
			kernel.DropCaches()
			shared, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			recs := make([]*ecg.Record, streams)
			got := make([]*Outputs, streams)
			for g := range recs {
				rec, err := ecg.NSRDBRecord(g, 900)
				if err != nil {
					t.Fatal(err)
				}
				recs[g] = rec
			}
			var wg sync.WaitGroup
			for g := 0; g < streams; g++ {
				st := shared.Stream(recs[g].FS)
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					out := &Outputs{}
					for _, x := range recs[g].Samples {
						out.Append(st.Push(x))
					}
					got[g] = out
				}(g)
			}
			wg.Wait()
			kernel.DropCaches()
			for g, rec := range recs {
				fresh, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				requireIdenticalOutputs(t, fresh.Run(rec.Samples), got[g], fmt.Sprintf("%s stream %d", name, g))
			}
		})
	}
}

// TestStreamDetectorDiscard checks that trimming consumed decisions
// between pushes leaves the concatenated outputs identical to an
// untrimmed detector, and that memory-bounding consumers see every
// event exactly once.
func TestStreamDetectorDiscard(t *testing.T) {
	const fs = 360
	rng := rand.New(rand.NewSource(53))
	p, err := New(AccurateConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref := NewStreamDetector(fs)
	trimmed := NewStreamDetector(fs)
	var gotEvents []Event
	var gotPeaks, gotMWI []int
	for i := 0; i < 4000; i++ {
		s := p.Push(int16(rng.Uint64() >> 4))
		ref.Push(s.Filtered, s.Integrated)
		trimmed.Push(s.Filtered, s.Integrated)
		if i%97 == 0 {
			d := trimmed.Detection()
			gotEvents = append(gotEvents, d.Events...)
			gotPeaks = append(gotPeaks, d.Peaks...)
			gotMWI = append(gotMWI, d.MWIPeaks...)
			trimmed.Discard(len(d.Events), len(d.Peaks))
		}
	}
	d := trimmed.Finish()
	gotEvents = append(gotEvents, d.Events...)
	gotPeaks = append(gotPeaks, d.Peaks...)
	gotMWI = append(gotMWI, d.MWIPeaks...)
	want := ref.Finish()
	if len(gotEvents) != len(want.Events) || len(gotPeaks) != len(want.Peaks) {
		t.Fatalf("trimmed detector emitted %d events / %d peaks, untrimmed %d / %d",
			len(gotEvents), len(gotPeaks), len(want.Events), len(want.Peaks))
	}
	if len(want.Peaks) == 0 {
		t.Fatal("test signal produced no beats; pick a better seed")
	}
	for i := range want.Events {
		if gotEvents[i] != want.Events[i] {
			t.Fatalf("event %d: %+v vs %+v", i, gotEvents[i], want.Events[i])
		}
	}
	for i := range want.Peaks {
		if gotPeaks[i] != want.Peaks[i] || gotMWI[i] != want.MWIPeaks[i] {
			t.Fatalf("peak %d: (%d,%d) vs (%d,%d)", i, gotPeaks[i], gotMWI[i], want.Peaks[i], want.MWIPeaks[i])
		}
	}
}
