package pantompkins

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"github.com/xbiosip/xbiosip/internal/ecg"
)

// diffRates are the sampling rates the differential tests draw from:
// the degenerate ones, rates so low that every window collapses to a
// sample or none, and the realistic range.
var diffRates = []int{-1, 0, 1, 2, 7, 50, 128, 200, 360, 1000}

// numFamilies is the number of signal families detectorSignal draws.
const numFamilies = 5

// detectorSignal draws one pair of detector inputs of n samples at fs Hz
// from a family: 0 white noise, 1 beat-like bumps with random artefacts
// and sign-flipped filtered peaks, 2 sparse spikes, 3 a random walk,
// 4 plateaus. Amplitudes are coarsely quantized so that equal candidate
// values, and with them every tie-break, occur often.
func detectorSignal(rng *rand.Rand, family, n, fs int) (filtered, integrated []int64) {
	filtered, integrated = make([]int64, n), make([]int64, n)
	rate := max(fs, 1)
	switch family {
	case 0:
		a := []int64{1, 2, 10, 1000, 1 << 20}[rng.Intn(5)]
		for j := range n {
			filtered[j] = rng.Int63n(2*a+1) - a
			integrated[j] = rng.Int63n(a + 1)
		}
	case 1:
		// Beats every 0.5-1.5 s: a triangular MWI bump with a filtered
		// peak near it, mostly leading (aligned), sometimes trailing or
		// at the window edge (misaligned). Missing, weak and half-height
		// beats leave gaps for the searchback to fill.
		period := max(rate*(50+rng.Intn(100))/100, 2)
		width := max(rate/10, 1)
		amp := int64(1 + rng.Intn(4))
		for at := rng.Intn(period); at < n; at += period + rng.Intn(period/4+1) {
			h := amp * []int64{4, 4, 4, 4, 2, 2, 1, 0}[rng.Intn(8)]
			for k := -width; k <= width; k++ {
				if j := at + k; j >= 0 && j < n {
					integrated[j] += h * int64(width+1-max(k, -k))
				}
			}
			fp := at - rng.Intn(rate/4+2) + rate/20 + 1
			if fp >= 0 && fp < n {
				v := 8 * h
				if rng.Intn(4) == 0 {
					v = -v
				}
				filtered[fp] += v
			}
		}
		for k := rng.Intn(n/50 + 1); k > 0; k-- {
			j := rng.Intn(n)
			if rng.Intn(2) == 0 {
				integrated[j] += amp * rng.Int63n(8)
			} else {
				filtered[j] += amp * (rng.Int63n(17) - 8)
			}
		}
	case 2:
		p := 1 + rng.Intn(200)
		for j := range n {
			if rng.Intn(p) == 0 {
				integrated[j] = 100 * rng.Int63n(10)
			}
			if rng.Intn(p) == 0 {
				filtered[j] = 100 * (rng.Int63n(21) - 10)
			}
		}
	case 3:
		var x, y int64
		for j := range n {
			x += rng.Int63n(21) - 10
			y += rng.Int63n(21) - 10
			filtered[j], integrated[j] = x, y
		}
	case 4:
		for j := 0; j < n; {
			vf, vi := 50*(rng.Int63n(9)-4), 100*rng.Int63n(8)
			for end := min(j+1+rng.Intn(3*rate/10+2), n); j < end; j++ {
				filtered[j], integrated[j] = vf, vi
			}
		}
	}
	return filtered, integrated
}

// horizonBound is the sample-window length a stream detector at fs Hz
// may hold once its learning window has passed: twice the longest
// lookback behind the cursor (the 200 ms peak search, or the 75 ms slope
// window and the sample before it), the 50 ms lookahead and four spare
// samples. It is 188 at 360 Hz.
func horizonBound(fs int) int {
	lookback := max(int(searchWindowS*float64(fs)), int(0.075*float64(fs))+1)
	return 2 * (lookback + int(alignAheadS*float64(fs)) + 4)
}

// requireHorizon requires a stream detector that has pushed n samples to
// hold at most its decision horizon once n reaches the learning window.
func requireHorizon(t *testing.T, label string, sd *StreamDetector, n int) {
	t.Helper()
	if sd.fs <= 0 || n < int(learnS*float64(sd.fs)) {
		return
	}
	if b := horizonBound(sd.fs); cap(sd.f) > b || cap(sd.in) > b {
		t.Fatalf("%s: %d samples at %d Hz left a %d/%d-entry window, want at most %d",
			label, n, sd.fs, cap(sd.f), cap(sd.in), b)
	}
}

// blockCycles are the block-size cycles requireOracle pushes n samples
// at fs Hz through PushBlock with: a mixed cycle, the serve drain's
// 24-sample frames, the whole signal in one call, and a first block that
// ends one sample before the learning boundary followed by the rest.
func blockCycles(n, fs int) [][]int {
	return [][]int{{1, 7, 24, 300, 3}, {24}, {max(n, 1)}, {max(int(learnS*float64(fs))-1, 1), max(n, 1)}}
}

// pushBlocks streams both detector inputs through PushBlock in blocks
// whose sizes cycle through sizes and returns the finished detection.
func pushBlocks(d *StreamDetector, filtered, integrated []int64, sizes []int) *Detection {
	for i, k := 0, 0; i < len(filtered); k++ {
		m := min(sizes[k%len(sizes)], len(filtered)-i)
		d.PushBlock(filtered[i:i+m], integrated[i:i+m])
		i += m
	}
	return d.Finish()
}

// requireOracle runs every entry point over one pair of signals and
// requires each to reproduce the oracle: Detect, the caller's reused
// PeakDetector, a new StreamDetector pushed sample by sample before and
// after Reset, and new StreamDetectors pushed in every blockCycles
// cycle. Every stream's window must shrink to the decision horizon once
// a run passes the learning window. It returns the oracle's detection.
func requireOracle(t *testing.T, label string, pd *PeakDetector, filtered, integrated []int64, fs int) Detection {
	t.Helper()
	want := oracleDetect(filtered, integrated, fs)
	got := Detect(filtered, integrated, fs)
	requireSameDetection(t, label+"/Detect", want, &got)
	requireSameDetection(t, label+"/PeakDetector", want, pd.Detect(filtered, integrated, fs))
	sd := NewStreamDetector(fs)
	requireSameDetection(t, label+"/StreamDetector", want, pushAll(sd, filtered, integrated))
	requireHorizon(t, label+"/StreamDetector", sd, len(integrated))
	sd.Reset()
	requireHorizon(t, label+"/StreamDetector-Reset", sd, len(integrated))
	requireSameDetection(t, label+"/StreamDetector-after-Reset", want, pushAll(sd, filtered, integrated))
	requireHorizon(t, label+"/StreamDetector-after-Reset", sd, len(integrated))
	for _, sizes := range blockCycles(len(integrated), fs) {
		sd := NewStreamDetector(fs)
		l := fmt.Sprintf("%s/PushBlock%v", label, sizes)
		requireSameDetection(t, l, want, pushBlocks(sd, filtered, integrated, sizes))
		requireHorizon(t, l, sd, len(integrated))
	}
	return want
}

// TestDetectorDifferential draws seeded random signals — rate, length and
// family — and demands every entry point reproduce the oracle's peaks and
// full decision trace, with one PeakDetector reused across all draws and
// so across rate changes. The draws must exercise the searchback and the
// alignment check, or the comparison proves little.
func TestDetectorDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var pd PeakDetector
	var kinds [EventSearchback + 1]int
	for draw := 0; draw < 6000; draw++ {
		fs := diffRates[rng.Intn(len(diffRates))]
		n := rng.Intn(6001)
		family := rng.Intn(numFamilies)
		filtered, integrated := detectorSignal(rng, family, n, fs)
		label := fmt.Sprintf("draw %d (fs %d, %d samples, family %d)", draw, fs, n, family)
		for _, e := range requireOracle(t, label, &pd, filtered, integrated, fs).Events {
			kinds[e.Kind]++
		}
	}
	t.Logf("events by kind: %v", kinds)
	if kinds[EventSearchback] < 1000 || kinds[EventMisaligned] < 1000 || kinds[EventTWave] < 1000 {
		t.Fatalf("draws too tame: %d searchback, %d misaligned, %d t-wave events",
			kinds[EventSearchback], kinds[EventMisaligned], kinds[EventTWave])
	}
}

// decodeDetectorInput maps fuzz bytes to detector inputs: byte 0 picks
// the rate, bytes 1-2 the length (up to 6000 samples), and the rest are
// little-endian int32 (filtered, integrated) pairs, repeated cyclically
// to fill the length (zeros when there are none).
func decodeDetectorInput(data []byte) (fs int, filtered, integrated []int64) {
	if len(data) < 3 {
		return 360, nil, nil
	}
	fs = diffRates[int(data[0])%len(diffRates)]
	n := int(binary.LittleEndian.Uint16(data[1:3])) % 6001
	pairs := data[3 : 3+(len(data)-3)/8*8]
	filtered, integrated = make([]int64, n), make([]int64, n)
	for j := 0; j < n && len(pairs) > 0; j++ {
		p := pairs[j*8%len(pairs):]
		filtered[j] = int64(int32(binary.LittleEndian.Uint32(p)))
		integrated[j] = int64(int32(binary.LittleEndian.Uint32(p[4:])))
	}
	return fs, filtered, integrated
}

// encodeDetectorInput is the inverse of decodeDetectorInput for values
// that fit an int32.
func encodeDetectorInput(fsIndex int, filtered, integrated []int64) []byte {
	data := []byte{byte(fsIndex), 0, 0}
	binary.LittleEndian.PutUint16(data[1:], uint16(len(filtered)))
	for j := range filtered {
		data = binary.LittleEndian.AppendUint32(data, uint32(int32(filtered[j])))
		data = binary.LittleEndian.AppendUint32(data, uint32(int32(integrated[j])))
	}
	return data
}

// FuzzDetector makes the differential test's oracle comparison on
// fuzzer-chosen rates, lengths and signals, seeded with one draw of every
// signal family.
func FuzzDetector(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for family, fsIndex := range []int{6, 8, 5, 7, 8} {
		fs := diffRates[fsIndex]
		filtered, integrated := detectorSignal(rng, family, 6*fs, fs)
		f.Add(encodeDetectorInput(fsIndex, filtered, integrated))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fs, filtered, integrated := decodeDetectorInput(data)
		var pd PeakDetector
		requireOracle(t, fmt.Sprintf("fs %d", fs), &pd, filtered, integrated, fs)
	})
}

// BenchmarkDetector times one op as detection over 8 accurate-pipeline
// records of 20,000 samples: whole-record through a warm PeakDetector,
// and through a reset StreamDetector sample by sample (Push) and in the
// serve drain's 24-sample blocks (PushBlock). Its grid case runs a warm
// PeakDetector over the 81 Table 2 grid outputs of one such record (LPF
// × HPF k ∈ {0, 2, …, 16}, ApproxAdd5/AppMultV1), whose noisier signals
// make many more decisions per beat than accurate ones.
func BenchmarkDetector(b *testing.B) {
	p, err := New(AccurateConfig())
	if err != nil {
		b.Fatal(err)
	}
	var outs []*Outputs
	fs := 0
	for r := 0; r < 8; r++ {
		rec, err := ecg.NSRDBRecord(r, 20000)
		if err != nil {
			b.Fatal(err)
		}
		outs, fs = append(outs, p.Run(rec.Samples)), rec.FS
	}
	b.Run("whole", func(b *testing.B) {
		var pd PeakDetector
		for b.Loop() {
			for _, out := range outs {
				pd.Detect(out.Filtered, out.Integrated, fs)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		sd := NewStreamDetector(fs)
		for b.Loop() {
			for _, out := range outs {
				sd.Reset()
				pushAll(sd, out.Filtered, out.Integrated)
			}
		}
	})
	b.Run("block", func(b *testing.B) {
		sd := NewStreamDetector(fs)
		for b.Loop() {
			for _, out := range outs {
				sd.Reset()
				pushBlocks(sd, out.Filtered, out.Integrated, []int{24})
			}
		}
	})
	b.Run("grid", func(b *testing.B) {
		rec, err := ecg.NSRDBRecord(3, 20000)
		if err != nil {
			b.Fatal(err)
		}
		var grid []*Outputs
		events := 0
		for k1 := 0; k1 <= MaxLSBs[LPF]; k1 += 2 {
			for k2 := 0; k2 <= MaxLSBs[HPF]; k2 += 2 {
				var ks [NumStages]int
				ks[LPF], ks[HPF] = k1, k2
				p, err := New(cfgWith(ks))
				if err != nil {
					b.Fatal(err)
				}
				out := p.Run(rec.Samples)
				grid = append(grid, out)
				events += len(Detect(out.Filtered, out.Integrated, rec.FS).Events)
			}
		}
		var pd PeakDetector
		for b.Loop() {
			for _, out := range grid {
				pd.Detect(out.Filtered, out.Integrated, rec.FS)
			}
		}
		b.ReportMetric(float64(events)/float64(len(grid)), "decisions/signal")
	})
}
