package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/ecg"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

func TestPSNRIdenticalSignals(t *testing.T) {
	sig := []float64{1, -2, 3, -4}
	p, err := PSNR(sig, sig)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p, 1) {
		t.Errorf("PSNR of identical signals = %v, want +Inf", p)
	}
}

func TestPSNRKnownValue(t *testing.T) {
	ref := []float64{10, 10, 10, 10}
	sig := []float64{11, 9, 11, 9} // MSE 1, peak 10 -> 20 dB
	p, err := PSNR(ref, sig)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-20) > 1e-9 {
		t.Errorf("PSNR = %v, want 20", p)
	}
}

func TestPSNRDecreasesWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := make([]float64, 1000)
	for i := range ref {
		ref[i] = 100 * math.Sin(float64(i)/10)
	}
	prev := math.Inf(1)
	for _, amp := range []float64{0.1, 1, 10, 100} {
		sig := make([]float64, len(ref))
		for i := range sig {
			sig[i] = ref[i] + amp*rng.NormFloat64()
		}
		p, err := PSNR(ref, sig)
		if err != nil {
			t.Fatal(err)
		}
		if p >= prev {
			t.Errorf("PSNR did not decrease with noise amplitude %v: %v >= %v", amp, p, prev)
		}
		prev = p
	}
}

func TestPSNRErrors(t *testing.T) {
	if _, err := PSNR([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := PSNR(nil, nil); err == nil {
		t.Error("empty signals accepted")
	}
	if _, err := PSNR([]float64{0, 0}, []float64{1, 1}); err == nil {
		t.Error("zero reference accepted")
	}
}

func TestSSIMIdenticalSignalsIsOne(t *testing.T) {
	sig := make([]float64, 500)
	for i := range sig {
		sig[i] = math.Sin(float64(i) / 7)
	}
	s, err := SSIM(sig, sig, SSIMWindow)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("SSIM(x,x) = %v, want 1", s)
	}
}

func TestSSIMDegradesWithDistortion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ref := make([]float64, 2000)
	for i := range ref {
		ref[i] = 50 * math.Sin(float64(i)/9)
	}
	prev := 1.0
	for _, amp := range []float64{1, 10, 50} {
		sig := make([]float64, len(ref))
		for i := range sig {
			sig[i] = ref[i] + amp*rng.NormFloat64()
		}
		s, err := SSIM(ref, sig, SSIMWindow)
		if err != nil {
			t.Fatal(err)
		}
		if s >= prev {
			t.Errorf("SSIM did not degrade at noise %v: %v >= %v", amp, s, prev)
		}
		if s < -1 || s > 1 {
			t.Errorf("SSIM %v outside [-1,1]", s)
		}
		prev = s
	}
}

func TestSSIMErrors(t *testing.T) {
	sig := make([]float64, 100)
	if _, err := SSIM(sig, sig[:99], SSIMWindow); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := SSIM(sig, sig, 1); err == nil {
		t.Error("tiny window accepted")
	}
	if _, err := SSIM(sig[:10], sig[:10], SSIMWindow); err == nil {
		t.Error("input shorter than window accepted")
	}
	if _, err := SSIM(sig, sig, SSIMWindow); err == nil {
		t.Error("zero-dynamic-range reference accepted")
	}
}

func TestMatchPeaksExact(t *testing.T) {
	m, err := MatchPeaks([]int{100, 200, 300}, []int{100, 200, 300}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.TruePositives != 3 || m.FalsePositives != 0 || m.FalseNegatives != 0 {
		t.Errorf("exact match: %+v", m)
	}
	if m.Sensitivity() != 1 || m.PPV() != 1 || m.F1() != 1 {
		t.Errorf("perfect metrics expected, got Se=%v PPV=%v F1=%v", m.Sensitivity(), m.PPV(), m.F1())
	}
}

func TestMatchPeaksWithinTolerance(t *testing.T) {
	m, err := MatchPeaks([]int{100, 200}, []int{104, 196}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.TruePositives != 2 {
		t.Errorf("tolerance matching failed: %+v", m)
	}
}

func TestMatchPeaksMissesAndFalseAlarms(t *testing.T) {
	// ref 100 matched; ref 200 missed; det 400 is a false alarm.
	m, err := MatchPeaks([]int{100, 200}, []int{101, 400}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.TruePositives != 1 || m.FalseNegatives != 1 || m.FalsePositives != 1 {
		t.Errorf("got %+v", m)
	}
	if math.Abs(m.Sensitivity()-0.5) > 1e-12 {
		t.Errorf("sensitivity %v, want 0.5", m.Sensitivity())
	}
}

func TestMatchPeaksEmptyInputs(t *testing.T) {
	m, err := MatchPeaks(nil, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.Sensitivity() != 1 || m.PPV() != 1 {
		t.Errorf("vacuous metrics should be 1: %+v", m)
	}
	m, _ = MatchPeaks([]int{10}, nil, 5)
	if m.FalseNegatives != 1 {
		t.Errorf("missing detection not counted: %+v", m)
	}
	m, _ = MatchPeaks(nil, []int{10}, 5)
	if m.FalsePositives != 1 {
		t.Errorf("spurious detection not counted: %+v", m)
	}
}

func TestMatchPeaksValidation(t *testing.T) {
	if _, err := MatchPeaks([]int{2, 1}, nil, 5); err == nil {
		t.Error("unsorted reference accepted")
	}
	if _, err := MatchPeaks(nil, []int{2, 1}, 5); err == nil {
		t.Error("unsorted detections accepted")
	}
	if _, err := MatchPeaks(nil, nil, -1); err == nil {
		t.Error("negative tolerance accepted")
	}
}

func TestQuickMatchPeaksConservation(t *testing.T) {
	// Property: TP+FN == len(ref) and TP+FP == len(det).
	f := func(refRaw, detRaw []uint16) bool {
		ref := dedupSort(refRaw)
		det := dedupSort(detRaw)
		m, err := MatchPeaks(ref, det, 3)
		if err != nil {
			return false
		}
		return m.TruePositives+m.FalseNegatives == len(ref) &&
			m.TruePositives+m.FalsePositives == len(det)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func dedupSort(xs []uint16) []int {
	seen := make(map[int]bool)
	var out []int
	for _, x := range xs {
		if !seen[int(x)] {
			seen[int(x)] = true
			out = append(out, int(x))
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestToFloat(t *testing.T) {
	got := ToFloat([]int16{-1, 0, 32767})
	want := []float64{-1, 0, 32767}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ToFloat[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if len(ToFloat([]int64{})) != 0 {
		t.Error("empty conversion")
	}
}

// TestSignalQualityMatchesSeparateMetrics checks SignalRef.Quality
// against ToFloat + PSNR + SSIM bit for bit, on random 16-bit signals
// including the identical-signal (+Inf PSNR) case: repeated candidates
// grade identically and without allocations.
func TestSignalQualityMatchesSeparateMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 200 + rng.Intn(400)
		ref := make([]int64, n)
		out := make([]int64, n)
		for i := range ref {
			ref[i] = int64(int16(rng.Uint64()))
			out[i] = ref[i]
			if trial > 0 { // trial 0 keeps the signals identical
				out[i] += int64(rng.Intn(64)) - 32
			}
		}
		r, err := NewSignalRef(ref, SSIMWindow)
		if err != nil {
			t.Fatal(err)
		}
		requireQuality(t, fmt.Sprintf("trial %d", trial), r, ref, out, true)
		if avg := testing.AllocsPerRun(10, func() { r.Quality(out) }); avg != 0 {
			t.Fatalf("SignalRef.Quality allocates %.2f times per call, want 0", avg)
		}
	}
}

// TestSignalQualityErrors mirrors the separate metrics' validation.
func TestSignalQualityErrors(t *testing.T) {
	if _, err := NewSignalRef(nil, SSIMWindow); err == nil {
		t.Error("empty reference accepted")
	}
	if _, err := NewSignalRef(make([]int64, 10), SSIMWindow); err == nil {
		t.Error("reference shorter than window accepted")
	}
	if _, err := NewSignalRef(make([]int64, 128), 1); err == nil {
		t.Error("tiny window accepted")
	}
	if _, err := NewSignalRef(make([]int64, 128), SSIMWindow); err == nil {
		t.Error("zero-dynamic-range reference accepted")
	}
	ref := make([]int64, 128)
	ref[0] = 1
	r, err := NewSignalRef(ref, SSIMWindow)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Quality(make([]int64, 100)); err == nil {
		t.Error("length mismatch accepted")
	}
}

// requireQuality grades out against r, the SignalRef of ref, and
// requires PSNR and SSIM over ToFloat copies bit for bit, and the
// integer pass to have run exactly when wantInt.
func requireQuality(t testing.TB, label string, r *SignalRef, ref, out []int64, wantInt bool) {
	t.Helper()
	fr, fo := ToFloat(ref), ToFloat(out)
	wantP, err := PSNR(fr, fo)
	if err != nil {
		t.Fatalf("%s: PSNR: %v", label, err)
	}
	wantS, err := SSIM(fr, fo, r.window)
	if err != nil {
		t.Fatalf("%s: SSIM: %v", label, err)
	}
	p, s, err := r.Quality(out)
	if err != nil {
		t.Fatalf("%s: Quality: %v", label, err)
	}
	if math.Float64bits(p) != math.Float64bits(wantP) || math.Float64bits(s) != math.Float64bits(wantS) {
		t.Fatalf("%s: Quality = (%v, %v), PSNR and SSIM (%v, %v)", label, p, s, wantP, wantS)
	}
	if _, _, ok := r.intMoments(out); ok != wantInt {
		t.Fatalf("%s: integer pass ran %v, want %v", label, ok, wantInt)
	}
}

// wantIntegerPass reports whether Quality may grade ref and out with a
// window of w samples in its integer pass: every sample in
// [-2^16, 2^16), a power-of-two window of at most 64 and a summed squared
// error of at most 2^53.
func wantIntegerPass(ref, out []int64, w int) bool {
	if w > 64 || w&(w-1) != 0 {
		return false
	}
	var d2 int64
	for i := range ref {
		for _, v := range []int64{ref[i], out[i]} {
			if v < -1<<16 || v >= 1<<16 {
				return false
			}
		}
		d := ref[i] - out[i]
		d2 += d * d
	}
	return d2 <= 1<<53
}

// TestQualityBounds grades seeded signals at and past the integer pass's
// bounds and requires the float metrics bit for bit, the path each input
// must take, and no allocations on either path.
func TestQualityBounds(t *testing.T) {
	const lo, hi = -1 << 16, 1<<16 - 1
	rng := rand.New(rand.NewSource(31))
	// draw returns n samples in [a, b], the first two a and b, so that
	// every prefix the cases take holds both ends.
	draw := func(n int, a, b int64) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = a + rng.Int63n(b-a+1)
		}
		xs[0], xs[1] = a, b
		return xs
	}
	past := func(xs []int64, v int64) []int64 {
		xs = append([]int64(nil), xs...)
		xs[rng.Intn(len(xs))] = v
		return xs
	}
	// alternate swings between the bounds, so a signal of just over 2^19
	// samples against its negation errs by more than 2^53 in all.
	alternate := func(n int, a, b int64) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = a
			if i%2 == 1 {
				xs[i] = b
			}
		}
		return xs
	}
	ref, out := draw(1000, lo, hi), draw(1000, lo, hi)
	long := alternate(1<<19+64, lo+1, hi)
	cases := []struct {
		name     string
		ref, out []int64
		window   int
		wantInt  bool
	}{
		{"bounds", ref, out, SSIMWindow, true},
		{"identical", ref, ref, SSIMWindow, true},
		{"small", draw(777, -40, 40), draw(777, -40, 40), SSIMWindow, true},
		{"window-32", ref[:999], out[:999], 32, true},
		{"window-2", ref[:333], out[:333], 2, true},
		{"window-exact-length", ref[:SSIMWindow], out[:SSIMWindow], SSIMWindow, true},
		{"half-multiple-plus-one", ref[:32*20+1], out[:32*20+1], SSIMWindow, true},
		{"tail-31", ref[:32*20+31], out[:32*20+31], SSIMWindow, true},
		{"ref-above", past(ref, hi+1), out, SSIMWindow, false},
		{"ref-below", past(ref, lo-1), out, SSIMWindow, false},
		{"out-above", ref, past(out, hi+1), SSIMWindow, false},
		{"out-below", ref, past(out, lo-1), SSIMWindow, false},
		{"out-huge", ref, past(out, math.MaxInt64), SSIMWindow, false},
		{"window-48", ref, out, 48, false},
		{"window-128", ref, out, 128, false},
		{"window-48-identical", ref, ref, 48, false},
		{"squared-error-past-2^53", long, alternate(len(long), hi, lo+1), SSIMWindow, false},
	}
	for _, c := range cases {
		if got := wantIntegerPass(c.ref, c.out, c.window); got != c.wantInt {
			t.Fatalf("%s: case admits the integer pass %v, want %v", c.name, got, c.wantInt)
		}
		r, err := NewSignalRef(c.ref, c.window)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		requireQuality(t, c.name, r, c.ref, c.out, c.wantInt)
		if p, _, _ := r.Quality(c.out); slices.Equal(c.ref, c.out) && !math.IsInf(p, 1) {
			t.Fatalf("%s: PSNR of identical signals %v, want +Inf", c.name, p)
		}
		if avg := testing.AllocsPerRun(5, func() { r.Quality(c.out) }); avg != 0 {
			t.Fatalf("%s: Quality allocates %.2f times per call, want 0", c.name, avg)
		}
	}
}

// qualityWindows are the SSIM windows FuzzQuality draws from: the
// integer pass's powers of two and windows that take the float loops.
var qualityWindows = []int{64, 32, 16, 8, 4, 2, 48, 128, 3, 63}

// decodeQualityInput maps fuzz bytes to a window and two signals: byte 0
// picks the window, byte 1 a right shift applied to every sample (15 or
// more keeps an int32 inside [-2^16, 2^16), its extremes on the bounds),
// bytes 2-3 the length (up to 4096 samples), and the rest are
// little-endian int32 (ref, out) pairs, repeated cyclically to fill it.
func decodeQualityInput(data []byte) (window int, ref, out []int64) {
	if len(data) < 4 {
		return SSIMWindow, nil, nil
	}
	window = qualityWindows[int(data[0])%len(qualityWindows)]
	shift := data[1] % 32
	n := int(binary.LittleEndian.Uint16(data[2:4])) % 4097
	pairs := data[4 : 4+(len(data)-4)/8*8]
	ref, out = make([]int64, n), make([]int64, n)
	for j := 0; j < n && len(pairs) > 0; j++ {
		p := pairs[j*8%len(pairs):]
		ref[j] = int64(int32(binary.LittleEndian.Uint32(p)) >> shift)
		out[j] = int64(int32(binary.LittleEndian.Uint32(p[4:])) >> shift)
	}
	return window, ref, out
}

// encodeQualityInput is the inverse of decodeQualityInput at shift 0
// for samples that fit an int32.
func encodeQualityInput(windowIndex int, ref, out []int64) []byte {
	data := []byte{byte(windowIndex), 0, 0, 0}
	binary.LittleEndian.PutUint16(data[2:], uint16(len(ref)))
	for j := range ref {
		data = binary.LittleEndian.AppendUint32(data, uint32(int32(ref[j])))
		data = binary.LittleEndian.AppendUint32(data, uint32(int32(out[j])))
	}
	return data
}

// FuzzQuality grades fuzzer-chosen signals and windows through a
// SignalRef and requires PSNR and SSIM over ToFloat copies bit for bit,
// and the integer pass exactly when the inputs are inside its bounds.
// Inputs NewSignalRef rejects must fail PSNR or SSIM too.
func FuzzQuality(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	signal := func(n int, a int64) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = rng.Int63n(2*a) - a
		}
		return xs
	}
	for wi, a := range []int64{1 << 16, 1 << 10, 1<<16 + 1, 1 << 16, 1 << 16, 1 << 20} {
		ref := signal(300+37*wi, a)
		out := append([]int64(nil), ref...)
		for i := range out {
			out[i] += rng.Int63n(65) - 32
		}
		f.Add(encodeQualityInput(wi, ref, out))
	}
	f.Add(encodeQualityInput(6, signal(500, 1<<16), signal(500, 1<<16))) // window 48
	f.Add(encodeQualityInput(7, signal(500, 1<<16), signal(500, 1<<16))) // window 128
	f.Fuzz(func(t *testing.T, data []byte) {
		window, ref, out := decodeQualityInput(data)
		r, err := NewSignalRef(ref, window)
		if err != nil {
			_, perr := PSNR(ToFloat(ref), ToFloat(out))
			_, serr := SSIM(ToFloat(ref), ToFloat(out), window)
			if perr == nil && serr == nil {
				t.Fatalf("NewSignalRef rejects what PSNR and SSIM grade: %v", err)
			}
			return
		}
		requireQuality(t, fmt.Sprintf("window %d, %d samples", window, len(ref)), r, ref, out, wantIntegerPass(ref, out, window))
	})
}

// BenchmarkQuality times one op as grading the 81 Table 2 grid outputs
// of one 20,000-sample record (LPF × HPF k ∈ {0, 2, …, 16},
// ApproxAdd5/AppMultV1) against the accurate pipeline's: through
// Quality, whose integer pass they all take, and through the float loops
// it falls back to.
func BenchmarkQuality(b *testing.B) {
	rec, err := ecg.NSRDBRecord(3, 20000)
	if err != nil {
		b.Fatal(err)
	}
	acc, err := pantompkins.New(pantompkins.AccurateConfig())
	if err != nil {
		b.Fatal(err)
	}
	ref, err := NewSignalRef(acc.Run(rec.Samples).Filtered, SSIMWindow)
	if err != nil {
		b.Fatal(err)
	}
	var outs [][]int64
	for k1 := 0; k1 <= 16; k1 += 2 {
		for k2 := 0; k2 <= 16; k2 += 2 {
			cfg := pantompkins.AccurateConfig()
			cfg.Stage[pantompkins.LPF] = dsp.ArithConfig{LSBs: k1, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
			cfg.Stage[pantompkins.HPF] = dsp.ArithConfig{LSBs: k2, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
			p, err := pantompkins.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			out := p.Run(rec.Samples).Filtered
			if _, _, ok := ref.intMoments(out); !ok {
				b.Fatalf("grid output LPF k=%d, HPF k=%d takes the float loops", k1, k2)
			}
			outs = append(outs, out)
		}
	}
	b.Run("quality", func(b *testing.B) {
		for b.Loop() {
			for _, out := range outs {
				ref.Quality(out)
			}
		}
	})
	b.Run("float", func(b *testing.B) {
		for b.Loop() {
			for _, out := range outs {
				ref.floatMoments(out)
			}
		}
	})
}

// TestClampPSNR pins the clamp constant and its pass-through behaviour.
func TestClampPSNR(t *testing.T) {
	if got := ClampPSNR(math.Inf(1)); got != PSNRClamp {
		t.Errorf("ClampPSNR(+Inf) = %v, want %v", got, PSNRClamp)
	}
	for _, v := range []float64{0, 15, -3, PSNRClamp + 50} {
		if got := ClampPSNR(v); got != v {
			t.Errorf("ClampPSNR(%v) = %v, want unchanged", v, got)
		}
	}
}
